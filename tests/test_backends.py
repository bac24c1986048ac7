"""The monomial-table kernel against a per-term loop oracle."""

import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import numpy as np

import isolab
from isolab import _kernels_py, catalog
from isolab.families import munzner_residuals
from isolab.polynomial import CMPolynomial, _chain, _power_rule

FAMILIES = (("great-sphere", {}), ("clifford", {"k": 1, "n": 2}),
            ("cartan-cubic", {}), ("nomizu-quartic", {"n": 2}),
            ("nomizu-quartic", {"n": 5}))
KINDS = ("value", "gradient", "hessian", "laplacian", "third")


def loop_eval(terms, x):
    # one term at a time: coefficient times the product of powers
    total = 0.0
    for c, e in terms:
        term = c
        for xi, ei in zip(x, e):
            term *= xi ** int(ei)
        total += term
    return total


def bank_terms(poly, kind):
    """Term lists of the bank's polynomials in its column order, by the
    power rule one coordinate at a time; the Laplacian column concatenates
    the d_i d_i F."""
    d = poly.ambient_dim
    upper = [(i, j) for i in range(d) for j in range(i, d)]
    columns = {"value": [[()]],
               "gradient": [[(i,)] for i in range(d)],
               "hessian": [[ij] for ij in upper],
               "laplacian": [[(i, i) for i in range(d)]],
               "third": [[(k,) + ij] for k in range(d) for ij in upper]}[kind]
    out = []
    for indices in columns:
        col = []
        for index in indices:
            terms = poly.terms()
            for i in index:
                terms = _power_rule(terms, i)
            col += terms
        out.append(col)
    return out


def oracle(poly, kind, X):
    cols = bank_terms(poly, kind)
    return np.array([[loop_eval(terms, x) for terms in cols] for x in X])


def assert_close(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def _families_and_points(seed, n=8):
    rng = np.random.default_rng(seed)
    for label, params in FAMILIES:
        poly = catalog(label, **params).polynomial
        yield label, poly, rng.normal(size=(n, poly.ambient_dim))


def test_eval_terms_matches_loop_oracle():
    for _label, poly, X in _families_and_points(0):
        want = np.array([loop_eval(poly.terms(), x) for x in X])
        assert_close(poly.value(X), want)
        single = poly.value(X[3])
        assert isinstance(single, float)
        assert_close(single, want[3])


def test_eval_bank_matches_loop_oracle():
    for label, poly, X in _families_and_points(1):
        for kind in KINDS:
            want = oracle(poly, kind, X)
            got = poly._eval_bank(kind, X)
            assert_close(got, want)
            assert_close(poly._eval_bank(kind, X[5]), want[5])
            if kind in ("hessian", "third") and label == "great-sphere":
                assert not got.any()
            if kind == "third" and label == "clifford":
                assert not got.any()
        iu = np.triu_indices(poly.ambient_dim)
        flat = oracle(poly, "hessian", X)
        assert_close(poly.hessian(X)[:, iu[0], iu[1]], flat)
        assert_close(poly.hessian(X)[:, iu[1], iu[0]], flat)
        assert_close(poly.gradient(X), oracle(poly, "gradient", X))
        assert_close(poly.laplacian(X), oracle(poly, "laplacian", X)[:, 0])


def test_hessian_along_is_the_derivative_of_the_hessian():
    poly = catalog("nomizu-quartic", n=2).polynomial
    X = np.random.default_rng(3).normal(size=(40, poly.ambient_dim))
    W = np.random.default_rng(4).normal(size=X.shape)
    want = sum(W[:, k, None, None] * poly.partial(k).hessian(X)
               for k in range(poly.ambient_dim))
    got = poly.hessian_along(X, W)
    assert_close(got, want)
    assert_close(poly.hessian_along(X[5], W[5]), want[5])


def test_readonly_and_strided_input_accepted():
    for _label, poly, X in _families_and_points(2):
        X.flags.writeable = False
        for kind in KINDS:
            assert_close(poly._eval_bank(kind, X[::2]),
                         oracle(poly, kind, X[::2]))
        assert_close(poly.gradient(np.asfortranarray(X)),
                     oracle(poly, "gradient", X))


def test_batches_spanning_several_row_blocks_match_block_by_block():
    rows = _kernels_py.BLOCK_ROWS
    for _label, poly, _X in _families_and_points(5):
        X = np.random.default_rng(6).normal(size=(2 * rows + 7,
                                                  poly.ambient_dim))
        for kind in KINDS:
            got = poly._eval_bank(kind, X)
            blocks = [poly._eval_bank(kind, X[lo:lo + rows])
                      for lo in range(0, len(X), rows)]
            assert np.array_equal(got, np.concatenate(blocks))
        ends = [0, rows - 1, rows, 2 * rows, len(X) - 1]
        assert_close(poly.gradient(X)[ends], oracle(poly, "gradient", X[ends]))


def chain_levels(d, steps):
    # exponent arrays of a chain's levels, rebuilt from its (var, parent)
    # steps, the constant monomial first
    levels = [np.zeros((1, d), dtype=np.int64)]
    for var, parent in steps:
        level = levels[-1][parent].copy()
        level[np.arange(len(var)), var] += 1
        levels.append(level)
    return levels


def divisor_sets(poly):
    """S_k, k = 0..g: the degree-k divisors of F's monomials, from the term
    list."""
    g = poly.degree
    divisors = [set() for _ in range(g + 1)]
    for e in poly.exps.tolist():
        support = [i for i, v in enumerate(e) if v]
        for k in range(g + 1):
            for alpha in combinations_with_replacement(support, g - k):
                m = list(e)
                for i in alpha:
                    m[i] -= 1
                if min(m) >= 0:
                    divisors[k].add(tuple(m))
    return divisors


def test_divisor_tables_are_no_wider_than_either_basis():
    # every level of every bank's chain holds sorted distinct degree-k
    # divisors of F's monomials, each x_var times its parent with var its
    # first variable, so it never exceeds the T * C(g, k) divisor count or
    # the C(D + k - 1, k) full basis
    polys = [catalog(label, **params).polynomial for label, params in
             FAMILIES + (("clifford", {"k": 2, "n": 7}),
                         ("nomizu-quartic", {"n": 20}))]
    polys.append(CMPolynomial(4, 4, [(1.0, (4, 0, 0, 0)), (-6.0, (2, 2, 0, 0)),
                                     (1.0, (0, 4, 0, 0)), (2.0, (1, 1, 1, 1))]))
    for poly in polys:
        d, g, t = poly.ambient_dim, poly.degree, len(poly.coeffs)
        divisors = divisor_sets(poly)
        for kind in KINDS:
            steps = poly._bank(kind)[0]
            for k, level in enumerate(chain_levels(d, steps)):
                rows = [tuple(m) for m in level.tolist()]
                assert rows == sorted(set(rows))
                assert set(rows) <= divisors[k]
                assert len(rows) <= min(t * comb(g, k), comb(d + k - 1, k))
                if k:
                    var = steps[k - 1][0]
                    assert all(level[j, var[j]] and not level[j, :var[j]].any()
                               for j in range(len(var)))


ORDERS = {"value": 0, "gradient": 1, "hessian": 2, "laplacian": 2,
          "third": 3}
PRUNING = FAMILIES + (("clifford", {"k": 2, "n": 7}),)


def read_rows(poly, kind):
    """Exponents of the divisor rows a bank reads: those whose coefficient,
    summed exactly over the bank's power-rule terms, is not zero in some
    column."""
    rows = set()
    for col in bank_terms(poly, kind):
        sums = {}
        for c, e in col:
            sums[e] = sums.get(e, Fraction(0)) + Fraction(c)
        rows |= {e for e, c in sums.items() if c}
    return rows


def test_each_bank_chain_is_the_ancestors_of_the_rows_it_reads():
    for label, params in PRUNING:
        poly = catalog(label, **params).polynomial
        for kind in KINDS:
            steps, matrix = poly._bank(kind)
            degree = max(poly.degree - ORDERS[kind], 0)
            want = [sorted(read_rows(poly, kind))]
            for _ in range(degree):
                parents = set()
                for m in want[-1]:
                    first = next(i for i, v in enumerate(m) if v)
                    parents.add(m[:first] + (m[first] - 1,) + m[first + 1:])
                want.append(sorted(parents))
            want.reverse()
            assert matrix.shape == (len(want[-1]),
                                    len(bank_terms(poly, kind)))
            assert matrix.any(axis=1).all()
            if not want[-1]:
                assert steps == []
                continue
            assert len(steps) == degree, (label, kind)
            got = chain_levels(poly.ambient_dim, steps)
            for k in range(degree + 1):
                assert [tuple(m) for m in got[k].tolist()] == want[k], (
                    label, kind, k)
    # the Laplacian of nomizu-quartic n=5 reads the x_i^2 alone
    steps, _matrix = catalog("nomizu-quartic", n=5).polynomial._bank(
        "laplacian")
    assert [len(var) for var, _parent in steps] == [12, 12]


def test_all_zero_banks_evaluate_to_exact_zeros():
    zero = ((("nomizu-quartic", {"n": 2}), "laplacian"),
            (("clifford", {"k": 2, "n": 7}), "third"),
            (("great-sphere", {}), "hessian"))
    rows = _kernels_py.BLOCK_ROWS
    for (label, params), kind in zero:
        poly = catalog(label, **params).polynomial
        steps, matrix = poly._bank(kind)
        assert steps == [] and matrix.shape[0] == 0
        width = len(bank_terms(poly, kind))
        X = np.random.default_rng(8).normal(size=(rows + 3,
                                                  poly.ambient_dim))
        for x, shape in ((X, (len(X), width)), (X[2], (width,))):
            got = poly._eval_bank(kind, x)
            assert got.shape == shape and got.dtype == np.float64
            assert not got.any() and not np.signbit(got).any()
    fam = catalog("nomizu-quartic", n=2)
    X = np.random.default_rng(9).normal(size=(5, fam.ambient_dim))
    assert fam.polynomial.laplacian(X[0]) == 0.0
    assert np.array_equal(fam.polynomial.laplacian(X), np.zeros(5))


def out_of_place_table(steps, cols):
    # the table chain with one fresh product per level, kept as the oracle
    # of the in-place kernel
    table = np.ones((1, cols.shape[1]))
    for var, parent in steps:
        table = cols.take(var, axis=0) * table.take(parent, axis=0)
    return table


def test_in_place_table_is_bitwise_the_out_of_place_product():
    for label, params in PRUNING:
        poly = catalog(label, **params).polynomial
        cols = np.random.default_rng(10).normal(size=(poly.ambient_dim, 37))
        # the full divisor chains of every degree, and every bank's chain
        chains = [_chain(sorted(level), k)
                  for k, level in enumerate(divisor_sets(poly))]
        chains += [poly._bank(kind)[0] for kind in KINDS]
        for steps in chains:
            assert np.array_equal(_kernels_py._table(steps, cols),
                                  out_of_place_table(steps, cols))


def whole_batch_eval_bank(steps, matrix, points):
    # the kernel as it was with one coordinate-major copy of the whole
    # batch ahead of the block loop, kept as the oracle of the per-block copy
    points = np.asarray(points, dtype=np.float64)
    single = points.ndim == 1
    cols = np.ascontiguousarray(np.atleast_2d(points).T)
    out = np.zeros((cols.shape[1], matrix.shape[1]))
    if len(matrix):
        for lo in range(0, cols.shape[1], _kernels_py.BLOCK_ROWS):
            hi = lo + _kernels_py.BLOCK_ROWS
            np.matmul(_kernels_py._table(steps, cols[:, lo:hi]).T, matrix,
                      out=out[lo:hi])
    return out[0] if single else out


def test_per_block_copy_is_bitwise_the_whole_batch_copy():
    rows = _kernels_py.BLOCK_ROWS
    for label, params in PRUNING:
        poly = catalog(label, **params).polynomial
        rng = np.random.default_rng(11)
        X = rng.normal(size=(2 * rows + 7, poly.ambient_dim))
        frozen = X.copy()
        frozen.flags.writeable = False
        inputs = [X[:n] for n in (1, rows - 1, rows, rows + 1, len(X))]
        inputs += [X[3], np.asfortranarray(X), X[::2], X[:, ::-1], frozen]
        for kind in KINDS:
            steps, matrix = poly._bank(kind)
            for x in inputs:
                got = _kernels_py.eval_bank(steps, matrix, x)
                want = whole_batch_eval_bank(steps, matrix, x)
                assert got.shape == want.shape, (label, kind)
                assert np.array_equal(got, want), (label, kind, x.shape)


def test_bank_calls_allocate_no_copy_of_the_batch():
    # beyond its output a bank call holds one block's tables, not a
    # coordinate-major copy of all the points
    poly = catalog("nomizu-quartic", n=5).polynomial
    X = np.random.default_rng(12).normal(size=(20_000, poly.ambient_dim))
    for name in ("gradient", "laplacian"):
        bank = getattr(poly, name)
        bank(X[:10])
        tracemalloc.start()
        try:
            out = bank(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2 ** 20, (name, peak, out.nbytes)


def test_munzner_residuals_match_the_norm_formula():
    # r^2 in place of |x| moves only the rounding of the power terms:
    # both forms of g^2 r^(2g-2) and c r^(g-2) lie within a few ulp per
    # factor of r of the exact value (measured at most 2g + 1 ulp)
    eps = np.finfo(float).eps
    for label, params in PRUNING:
        fam = catalog(label, **params)
        g, F = fam.g, fam.polynomial
        X = np.random.default_rng(13).normal(size=(500, fam.ambient_dim))
        X *= np.random.default_rng(14).uniform(0.01, 2.0, size=(500, 1))
        r = np.linalg.norm(X, axis=1)
        grad = F.gradient(X)
        want1 = np.einsum("ij,ij->i", grad, grad) - g * g * r ** (2 * g - 2)
        want2 = F.laplacian(X) - fam.c * r ** (g - 2)
        bound1 = 4 * g * eps * g * g * r ** (2 * g - 2)
        bound2 = 4 * g * eps * abs(fam.c) * r ** (g - 2)
        rho1, rho2 = munzner_residuals(fam, X)
        assert (np.abs(rho1 - want1) <= bound1).all(), label
        assert (np.abs(rho2 - want2) <= bound2).all(), label
        single = munzner_residuals(fam, X[4])
        assert abs(single[0] - want1[4]) <= bound1[4]
        assert abs(single[1] - want2[4]) <= bound2[4]


def test_munzner_residuals_reach_the_kernel_through_the_traced_banks(
        monkeypatch):
    # the benchmark tracer wraps exactly the bank methods; the residual
    # sweep must not reach the kernel around them
    fam = catalog("nomizu-quartic", n=2)
    calls = []

    def counting(name):
        method = getattr(CMPolynomial, name)

        def wrapper(self, x):
            calls.append(name)
            return method(self, x)
        return wrapper

    for name in ("value", "gradient", "hessian", "laplacian"):
        monkeypatch.setattr(CMPolynomial, name, counting(name))
    kernel_calls = []
    eval_bank = _kernels_py.eval_bank
    monkeypatch.setattr(_kernels_py, "eval_bank",
                        lambda *a: kernel_calls.append(1) or eval_bank(*a))
    X = np.random.default_rng(7).normal(size=(50, fam.ambient_dim))
    munzner_residuals(fam, X)
    assert sorted(calls) == ["gradient", "laplacian"]
    assert len(kernel_calls) == 2


def test_active_backend_reported():
    assert isolab.backend_name() == "python"


def test_benchmark_script_runs():
    script = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / \
        "bench_backends.py"
    proc = subprocess.run([sys.executable, str(script), "--quick"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "residual sweep" in proc.stdout
    # the stencil rows count the retractions through `morse._project_batch`:
    # a stencil that looked its retraction up elsewhere would read 0
    words = [line.split() for line in proc.stdout.splitlines()]
    rows = {w[0]: float(w[1]) for w in words if w and w[0] in (
        "_hessian_stencil", "_focal_index", "_classify")}
    assert len(rows) == 3 and min(rows.values()) > 0, rows
