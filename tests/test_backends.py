"""The numpy evaluation kernel against a per-term loop oracle."""

import pathlib
import subprocess
import sys

import numpy as np

import isolab
from isolab import _kernels_py, catalog


def loop_eval(coeffs, exps, x):
    # one term at a time: coefficient times the product of powers
    total = 0.0
    for c, e in zip(coeffs, exps):
        term = c
        for xi, ei in zip(x, e):
            term *= xi ** int(ei)
        total += term
    return total


def _poly_and_points(seed, n=40):
    poly = catalog("nomizu-quartic", n=2).polynomial
    rng = np.random.default_rng(seed)
    return poly, rng.normal(size=(n, poly.ambient_dim))


def test_eval_terms_matches_loop_oracle():
    poly, X = _poly_and_points(0)
    got = _kernels_py.eval_terms(poly.coeffs, poly.exps, X)
    want = np.array([loop_eval(poly.coeffs, poly.exps, x) for x in X])
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    single = _kernels_py.eval_terms(poly.coeffs, poly.exps, X[3])
    assert isinstance(single, float)
    assert abs(single - want[3]) <= 1e-12 * max(1.0, abs(want[3]))


def test_eval_bank_matches_loop_oracle():
    poly, X = _poly_and_points(1)
    for kind in ("gradient", "hessian", "laplacian", "third"):
        c, e, o = poly._bank(kind)
        got = _kernels_py.eval_bank(c, e, o, X)
        want = np.array([[loop_eval(c[a:b], e[a:b], x)
                          for a, b in zip(o[:-1], o[1:])] for x in X])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        single = _kernels_py.eval_bank(c, e, o, X[5])
        assert np.abs(single - want[5]).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_hessian_along_is_the_derivative_of_the_hessian():
    poly, X = _poly_and_points(3)
    W = np.random.default_rng(4).normal(size=X.shape)
    want = sum(W[:, k, None, None] * poly.partial(k).hessian(X)
               for k in range(poly.ambient_dim))
    got = poly.hessian_along(X, W)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    single = poly.hessian_along(X[5], W[5])
    assert np.abs(single - want[5]).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_readonly_and_strided_input_accepted():
    poly, X = _poly_and_points(2, n=8)
    X.flags.writeable = False
    got = _kernels_py.eval_terms(poly.coeffs, poly.exps, X[::2])
    want = np.array([loop_eval(poly.coeffs, poly.exps, x) for x in X[::2]])
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_active_backend_reported():
    assert isolab.backend_name() == "python"


def test_benchmark_script_runs():
    script = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / \
        "bench_backends.py"
    proc = subprocess.run([sys.executable, str(script), "--quick"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "residual sweep" in proc.stdout
