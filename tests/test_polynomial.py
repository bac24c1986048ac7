"""Term-list polynomials: exact differentiation against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolab import CMPolynomial, InputContractError
from isolab.polynomial import poly_add, poly_mul, squared_norm_dict


def _random_homogeneous(rng, dim, degree, nterms):
    terms = {}
    for _ in range(nterms):
        counts = rng.multinomial(degree, np.ones(dim) / dim)
        terms[tuple(int(c) for c in counts)] = float(rng.normal())
    return CMPolynomial.from_dict(dim, degree, terms)


def central_difference_gradient(poly, x, h=1e-6):
    out = np.empty(poly.ambient_dim)
    for i in range(poly.ambient_dim):
        e = np.zeros(poly.ambient_dim)
        e[i] = h
        out[i] = (poly.value(x + e) - poly.value(x - e)) / (2 * h)
    return out


def test_linear_polynomial_calculus():
    f = CMPolynomial.from_dict(4, 1, {(1, 0, 0, 0): 1.0})
    x = np.array([0.3, -1.2, 0.5, 2.0])
    assert f.value(x) == 0.3
    assert np.allclose(f.gradient(x), [1, 0, 0, 0])
    assert np.abs(f.hessian(x)).max() == 0.0


def test_clifford_value_on_first_factor():
    terms = poly_add(squared_norm_dict(4, [0, 1]),
                     squared_norm_dict(4, [2, 3]), scale=-1.0)
    f = CMPolynomial.from_dict(4, 2, terms)
    u = np.array([0.6, 0.8, 0.0, 0.0])
    assert abs(f.value(u) - 1.0) < 1e-15


def test_homogeneity_enforced():
    with pytest.raises(InputContractError):
        CMPolynomial(3, 2, [(1.0, (1, 0, 0))])
    with pytest.raises(InputContractError):
        CMPolynomial(3, 2, [(1.0, (1, 1, 1))])


def test_non_finite_coefficients_raise():
    for coeff in (float("nan"), float("inf"), 1e308):
        with pytest.raises(InputContractError, match="not finite"):
            CMPolynomial(2, 2, [(coeff, (2, 0)), (coeff, (2, 0))])


def test_dimension_mismatch_raises():
    f = CMPolynomial.from_dict(3, 2, {(2, 0, 0): 1.0})
    with pytest.raises(InputContractError):
        f.value(np.ones(4))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), degree=st.integers(1, 6),
       dim=st.integers(2, 6))
def test_euler_identity(seed, degree, dim):
    # homogeneity makes <x, grad F> - g F vanish identically
    rng = np.random.default_rng(seed)
    f = _random_homogeneous(rng, dim, degree, 8)
    x = rng.normal(size=dim)
    scale = max(1.0, abs(f.value(x)))
    residual = x @ f.gradient(x) - degree * f.value(x)
    assert abs(residual) / scale < 1e-10


def test_jet_reads_the_value_from_the_gradient(monkeypatch):
    # F = <x, grad F> / g from one gradient-bank call, equal to the value
    # bank to the rounding of either sum; a constant reads its value bank
    calls = []
    for kind in ("value", "gradient"):
        def counting(self, x, _bank=getattr(CMPolynomial, kind), _kind=kind):
            calls.append(_kind)
            return _bank(self, x)
        monkeypatch.setattr(CMPolynomial, kind, counting)
    rng = np.random.default_rng(61)
    for degree in range(7):
        f = _random_homogeneous(rng, 5, degree, 12)
        X = rng.normal(size=(30, 5))
        for x in (X, X[0]):
            calls.clear()
            vals, grad = f.jet(x)
            assert calls == (["gradient"] if degree else ["gradient", "value"])
            assert np.array_equal(grad, f.gradient(x))
            scale = np.sum(np.abs(x * grad), axis=-1) + 1.0
            assert np.all(np.abs(vals - f.value(x)) <= 1e-14 * scale), degree
            assert isinstance(vals, float) == (x.ndim == 1)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), lam=st.sampled_from([0.5, 2.0]))
def test_homogeneity_scaling(seed, lam):
    rng = np.random.default_rng(seed)
    f = _random_homogeneous(rng, 4, 3, 10)
    x = rng.normal(size=4)
    lhs = f.value(lam * x)
    rhs = lam ** 3 * f.value(x)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    f = _random_homogeneous(rng, 5, 4, 12)
    for _ in range(5):
        x = rng.normal(size=5)
        g_exact = f.gradient(x)
        g_fd = central_difference_gradient(f, x)
        scale = max(1.0, np.abs(g_exact).max())
        assert np.abs(g_exact - g_fd).max() / scale < 1e-6


def test_hessian_matches_gradient_differences():
    rng = np.random.default_rng(4)
    f = _random_homogeneous(rng, 4, 4, 10)
    x = rng.normal(size=4)
    h_exact = f.hessian(x)
    assert np.abs(h_exact - h_exact.T).max() == 0.0
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        col = (f.gradient(x + e) - f.gradient(x - e)) / (2 * h)
        scale = max(1.0, np.abs(h_exact[:, i]).max())
        assert np.abs(col - h_exact[:, i]).max() / scale < 1e-6


def test_laplacian_is_hessian_trace():
    rng = np.random.default_rng(5)
    f = _random_homogeneous(rng, 5, 3, 9)
    x = rng.normal(size=5)
    assert abs(f.laplacian(x) - np.trace(f.hessian(x))) < 1e-12


def test_partial_is_symbolic():
    f = CMPolynomial.from_dict(3, 3, {(2, 1, 0): 2.0, (0, 0, 3): -1.0})
    fx = f.partial(0)
    assert fx.as_dict() == {(1, 1, 0): 4.0}
    fz = f.partial(2)
    assert fz.as_dict() == {(0, 0, 2): -3.0}


def test_poly_mul_matches_evaluation():
    rng = np.random.default_rng(6)
    a = {(1, 0): 2.0, (0, 1): -1.0}
    b = {(1, 0): 1.0, (0, 1): 3.0}
    prod = CMPolynomial.from_dict(2, 2, poly_mul(a, b))
    fa = CMPolynomial.from_dict(2, 1, a)
    fb = CMPolynomial.from_dict(2, 1, b)
    for _ in range(5):
        x = rng.normal(size=2)
        assert abs(prod.value(x) - fa.value(x) * fb.value(x)) < 1e-12


def test_batch_matches_single():
    rng = np.random.default_rng(7)
    f = _random_homogeneous(rng, 6, 4, 15)
    X = rng.normal(size=(8, 6))
    vals = f.value(X)
    grads = f.gradient(X)
    hesses = f.hessian(X)
    for k in range(8):
        assert abs(vals[k] - f.value(X[k])) < 1e-12
        assert np.abs(grads[k] - f.gradient(X[k])).max() < 1e-12
        assert np.abs(hesses[k] - f.hessian(X[k])).max() < 1e-12
