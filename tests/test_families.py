"""Catalog families: structural metadata, the defining identities, JSON."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from isolab import (FamilyIntegrityError, FamilyRejectedError,
                    InputContractError, IsoparametricFamily, SpherePoint,
                    catalog, critical_points_newton, euclidean_taut_spot_check,
                    exp_param_check, export_mesh, family_from_json,
                    family_to_json,
                    focal_dimension_estimate, focal_tautness_report,
                    isoparametric_check,
                    munzner_residuals, orbit_level_check, restrict_V,
                    sample_points, tightness_report, totally_focal_probe,
                    verify_munzner)
from isolab import _kernels_py
from isolab.export import export_spectrum_csv
from isolab.families import (_ball_samples, _chunks, ambient_to_sym3,
                             seeded_rng, sym3_basis, sym3_to_ambient)
from isolab.polynomial import CMPolynomial


def test_catalog_metadata(all_families):
    expected = {
        "great-sphere": (1, 3, 3, 0.0, 5),
        "clifford": (2, 1, 1, 0.0, 4),
        "cartan-cubic": (3, 1, 1, 0.0, 5),
        "nomizu-quartic": (4, 1, 1, 0.0, 6),
    }
    for fam in all_families:
        g, m1, m2, c, dim = expected[fam.label]
        assert (fam.g, fam.m1, fam.m2, fam.c, fam.ambient_dim) == (g, m1, m2, c, dim)
        assert fam.betti_sum_hypersurface == 2 * fam.g
        assert fam.betti_sum_focal == fam.g


def test_c_invariant_exact():
    fam = catalog("clifford", k=1, n=3)
    assert fam.c == ((1 - 2) / 2.0) * 4.0 == -2.0
    fam2 = catalog("nomizu-quartic", n=3)
    assert fam2.c == ((3 - 2) / 2.0) * 16.0 == 8.0
    assert fam2.m1 == 2 and fam2.m2 == 1


def test_great_sphere_residuals_zero(fam_great):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 5))
    rho1, rho2 = munzner_residuals(fam_great, x)
    assert np.abs(rho1).max() == 0.0
    assert np.abs(rho2).max() == 0.0


def test_clifford_residuals_against_hand_expansion(fam_clifford):
    # independent oracle: grad F = (2u, -2v) so |grad F|^2 = 4|u|^2 + 4|v|^2,
    # which is exactly 4 r^2 = g^2 r^{2g-2}
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 4))
    grad_hand = np.concatenate([2 * x[:, :2], -2 * x[:, 2:]], axis=1)
    assert np.abs(fam_clifford.polynomial.gradient(x) - grad_hand).max() < 1e-14
    rho1, rho2 = munzner_residuals(fam_clifford, x)
    assert np.abs(rho1).max() < 1e-12
    assert np.abs(rho2).max() < 1e-12


def test_verifier_sweeps_pass(all_families):
    for fam in all_families:
        report = verify_munzner(fam, num_points=4000, seed=5)
        assert report.passed, (fam.label, report.worst_scaled_residual)


def whole_matrix_ball_samples(rng, count, dim, radius):
    # the sampler written with rng.normal, normalizing all rows at once;
    # standard_normal draws the same stream as normal(0, 1)
    x = rng.normal(size=(count, dim))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    radii = radius * rng.random(size=(count, 1)) ** (1.0 / dim)
    return x / norms * np.maximum(radii, 1e-3)


@pytest.mark.parametrize("seed", [0, 3, 2026])
@pytest.mark.parametrize("dim", [6, 12])
def test_ball_samples_match_the_normal_formula(seed, dim):
    # 10 000 rows take more than one chunk of the in-place normalization
    for count in (500, 10_000):
        want = whole_matrix_ball_samples(np.random.default_rng(seed), count,
                                         dim, 2.0)
        got = _ball_samples(np.random.default_rng(seed), count, dim, 2.0)
        assert np.array_equal(got, want), count


def test_sweep_chunks_start_on_kernel_blocks():
    # the chunks tile the rows in order, each 16 kernel blocks but the last,
    # so every chunk starts where a block of the whole batch starts
    block = _kernels_py.BLOCK_ROWS
    for count in (0, 1, 16 * block - 1, 16 * block, 16 * block + 1, 100_000):
        rows = np.arange(count)
        chunks = [rows[c] for c in _chunks(count)]
        assert np.array_equal(np.concatenate([rows[:0], *chunks]), rows)
        assert all(len(c) == 16 * block for c in chunks[:-1]), count
        assert all(c[0] % block == 0 for c in chunks), count


@pytest.mark.parametrize("num_points", [1, 4095, 4096, 4097, 10_000])
@pytest.mark.parametrize("n", [2, 5])
def test_verify_munzner_matches_the_whole_matrix_sweep(num_points, n):
    # the chunked sweep against the residuals of all samples in one batch:
    # chunks of whole kernel blocks keep every bit, at one point, at a
    # chunk boundary and with a partial last chunk, in dimensions 6 and 12
    fam = catalog("nomizu-quartic", n=n)
    X = whole_matrix_ball_samples(seeded_rng(1234), num_points,
                                  fam.ambient_dim, 2.0)
    rho1, rho2 = munzner_residuals(fam, X)
    scaled = (np.maximum(np.abs(rho1), np.abs(rho2))
              / (1.0 + np.einsum("ij,ij->i", X, X) ** fam.g))
    want = {"family": fam.label, "num_points": num_points, "radius": 2.0,
            "seed": 1234, "max_rho1": float(np.abs(rho1).max()),
            "max_rho2": float(np.abs(rho2).max()),
            "worst_scaled_residual": float(scaled.max()), "tol_scale": 1e-9,
            "pass": bool(scaled.max() < 1e-9)}
    got = verify_munzner(fam, num_points=num_points, radius=2.0, seed=1234)
    assert json.dumps(got.to_dict()) == json.dumps(want)


def test_verify_munzner_holds_about_one_sample_matrix():
    # beyond the samples the sweep holds their radii and one chunk's
    # residuals and bank outputs, not whole-batch copies
    fam = catalog("nomizu-quartic", n=5)
    verify_munzner(fam, num_points=10, radius=2.0)
    tracemalloc.start()
    try:
        verify_munzner(fam, num_points=100_000, radius=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 100_000 * fam.ambient_dim * 8, peak


def test_cartan_calibration_constant(fam_cartan):
    # |grad trace(X^3)|^2 = (3/2) r^4 on traceless symmetric matrices, so the
    # calibrated prefactor must square to 6 (computed analytically via the
    # power sums of traceless 3x3 eigenvalues: trace X^4 = (trace X^2)^2 / 2)
    coeffs = fam_cartan.polynomial.coeffs
    base = catalog("cartan-cubic").polynomial.coeffs
    assert np.allclose(coeffs, base)
    rng = np.random.default_rng(2)
    x = rng.normal(size=5)
    X = ambient_to_sym3(x)
    kappa = fam_cartan.polynomial.value(x) / np.trace(X @ X @ X)
    assert abs(kappa - math.sqrt(6.0)) < 1e-9


def test_cartan_is_harmonic(fam_cartan):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(100, 5))
    assert np.abs(fam_cartan.polynomial.laplacian(x)).max() < 1e-12


def test_nomizu_laplacian_against_closed_form():
    # independent oracle: a finite-difference Laplacian of the defining
    # expression |x|^4 - 2[(|u|^2-|v|^2)^2 + 4<u,v>^2] must match c r^2
    fam = catalog("nomizu-quartic", n=3)

    def f(y):
        u, v = y[:4], y[4:]
        a, b, s = u @ u, v @ v, u @ v
        return (a + b) ** 2 - 2 * ((a - b) ** 2 + 4 * s ** 2)

    rng = np.random.default_rng(4)
    y = rng.normal(size=8)
    h = 1e-4
    lap_fd = 0.0
    for i in range(8):
        e = np.zeros(8)
        e[i] = h
        lap_fd += (f(y + e) - 2 * f(y) + f(y - e)) / h ** 2
    r2 = float(y @ y)
    assert abs(lap_fd - fam.c * r2) < 1e-4 * max(1.0, abs(fam.c * r2))
    assert abs(float(fam.polynomial.laplacian(y)) - fam.c * r2) < 1e-9


def test_sym3_basis_orthonormal():
    basis = sym3_basis()
    gram = np.array([[np.trace(a @ b) for b in basis] for a in basis])
    assert np.abs(gram - np.eye(5)).max() < 1e-15
    rng = np.random.default_rng(5)
    x = rng.normal(size=5)
    assert np.allclose(sym3_to_ambient(ambient_to_sym3(x)), x, atol=1e-14)


def test_cartan_orientation_convention(fam_cartan):
    # the diagonal endpoint matrices are focal: V = -1 at diag(1,1,-2)/sqrt6
    # and V = +1 at diag(2,-1,-1)/sqrt6 under the calibrated positive sign
    lo = sym3_to_ambient(np.diag([1.0, 1.0, -2.0]) / math.sqrt(6.0))
    hi = sym3_to_ambient(np.diag([2.0, -1.0, -1.0]) / math.sqrt(6.0))
    assert abs(restrict_V(fam_cartan, lo) + 1.0) < 1e-12
    assert abs(restrict_V(fam_cartan, hi) - 1.0) < 1e-12


def test_restrict_V_examples(fam_clifford):
    assert abs(restrict_V(fam_clifford, np.array([0.6, 0.8, 0.0, 0.0])) - 1.0) < 1e-12
    half = np.array([0.5, 0.5, 0.5, 0.5])
    assert abs(restrict_V(fam_clifford, half)) < 1e-12


def test_restrict_V_range_guard():
    bad_poly = CMPolynomial.from_dict(4, 2, {(2, 0, 0, 0): 3.0, (0, 2, 0, 0): 1.0,
                                             (0, 0, 2, 0): -1.0, (0, 0, 0, 2): -1.0})
    fam = IsoparametricFamily(bad_poly, g=2, m1=1, m2=1, c=0.0, label="bad")
    with pytest.raises(FamilyIntegrityError):
        restrict_V(fam, np.array([1.0, 0.0, 0.0, 0.0]))


def test_restrict_V_requires_unit_vector(fam_clifford):
    with pytest.raises(InputContractError):
        restrict_V(fam_clifford, np.array([2.0, 0.0, 0.0, 0.0]))


def test_structure_invariants_enforced():
    poly = CMPolynomial.from_dict(4, 2, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0,
                                         (0, 0, 2, 0): -1.0, (0, 0, 0, 2): -1.0})
    with pytest.raises(InputContractError):
        IsoparametricFamily(poly, g=2, m1=1, m2=1, c=1.0, label="bad-c")
    with pytest.raises(InputContractError):
        IsoparametricFamily(poly, g=3, m1=1, m2=2, c=4.5, label="odd-g")
    with pytest.raises(InputContractError):
        IsoparametricFamily(poly, g=2, m1=2, m2=2, c=0.0, label="bad-dim")


def test_user_polynomial_rejection(perturbed_clifford):
    terms = perturbed_clifford.polynomial.terms()
    with pytest.raises(FamilyRejectedError) as err:
        catalog("user-polynomial", terms=terms, ambient_dim=4, g=2, m1=1, m2=1)
    assert err.value.worst_residual > 1e-4


def test_user_polynomial_accepts_genuine(fam_clifford):
    terms = fam_clifford.polynomial.terms()
    fam = catalog("user-polynomial", terms=terms, ambient_dim=4, g=2,
                  m1=1, m2=1, label="clifford-copy")
    assert fam.label == "clifford-copy"
    assert fam.g == 2


def test_unknown_label():
    with pytest.raises(InputContractError):
        catalog("moebius")


def test_json_round_trip_bit_exact(fam_cartan, fam_clifford):
    for fam in (fam_cartan, fam_clifford):
        text = family_to_json(fam)
        fam2 = family_from_json(text, verify=False)
        assert family_to_json(fam2) == text
        assert np.array_equal(fam2.polynomial.coeffs, fam.polynomial.coeffs)
        assert np.array_equal(fam2.polynomial.exps, fam.polynomial.exps)
        obj = json.loads(text)
        assert set(obj) == {"ambient_dim", "degree", "terms", "g", "m1", "m2",
                            "label"}


SEEDED_CALLS = {
    "verify_munzner": lambda fam, seed: verify_munzner(fam, seed=seed),
    "sample_points": lambda fam, seed: sample_points(fam, 0.3, 2, seed),
    "isoparametric_check": lambda fam, seed: isoparametric_check(
        fam, 0.3, num_samples=2, seed=seed),
    "focal_dimension_estimate": lambda fam, seed: focal_dimension_estimate(
        fam, 1, seed=seed),
    "critical_points_newton": lambda fam, seed: critical_points_newton(
        fam, 0.3, SpherePoint(np.array([0.6, 0.0, 0.8, 0.0])), seed=seed),
    "tightness_report": lambda fam, seed: tightness_report(
        fam, 0.3, num_poles=1, seed=seed),
    "focal_tautness_report": lambda fam, seed: focal_tautness_report(
        fam, 1, num_poles=1, seed=seed),
    "totally_focal_probe": lambda fam, seed: totally_focal_probe(
        fam, 0.3, seed=seed, num_nonfocal=1, num_focal=1),
    "orbit_level_check": lambda fam, seed: orbit_level_check(
        0.3, num_rotations=2, seed=seed),
    "euclidean_taut_spot_check": lambda fam, seed: euclidean_taut_spot_check(
        fam, 0.0, SpherePoint(np.array([0.5, -0.2, 0.1, 0.8])),
        num_centers=1, seed=seed),
}


@pytest.mark.parametrize("name", sorted(SEEDED_CALLS))
def test_negative_seed_is_an_input_contract_error(fam_clifford, name):
    # numpy's SeedSequence takes no negative entropy; every seeded entry
    # point must say so in the library's own terms
    with pytest.raises(InputContractError, match="seed must be non-negative"):
        SEEDED_CALLS[name](fam_clifford, -1)


@pytest.mark.parametrize("name", sorted(SEEDED_CALLS))
def test_fractional_seed_is_an_input_contract_error(fam_clifford, name):
    # a seed that int() would truncate is refused, not read as its floor
    with pytest.raises(InputContractError, match="seed must be an integer"):
        SEEDED_CALLS[name](fam_clifford, 1.5)


# each entry: the name of the function's count, and a call with that count
SIZED_CALLS = {
    "euclidean_taut_spot_check": ("num_centers", lambda fam, size:
                                  euclidean_taut_spot_check(
                                      fam, 0.0, SpherePoint(np.array(
                                          [0.5, -0.2, 0.1, 0.8])),
                                      num_centers=size)),
    "export_mesh": ("resolution", lambda fam, size: export_mesh(
        fam, 0.0, SpherePoint(np.array([0.5, -0.2, 0.1, 0.8])),
        resolution=size)),
    "sample_points": ("count", lambda fam, size: sample_points(
        fam, 0.3, size, 0)),
    "isoparametric_check": ("num_samples", lambda fam, size:
                            isoparametric_check(fam, 0.3, num_samples=size)),
    "focal_dimension_estimate": ("base_count", lambda fam, size:
                                 focal_dimension_estimate(
                                     fam, 1, base_count=size)),
    "orbit_level_check": ("num_rotations", lambda fam, size:
                          orbit_level_check(0.3, num_rotations=size)),
    "verify_munzner": ("num_points", lambda fam, size: verify_munzner(
        fam, num_points=size)),
    "exp_param_check": ("grid_size", lambda fam, size: exp_param_check(
        fam, sample_points(fam, 0.3, 1, 0)[0], grid_size=size)),
    "export_spectrum_csv": ("num_samples", lambda fam, size:
                            export_spectrum_csv(fam, 0.3, size, 0,
                                                os.devnull)),
}


@pytest.mark.parametrize("name", sorted(SIZED_CALLS))
def test_fractional_size_is_an_input_contract_error(fam_clifford, name):
    # a count that int() would truncate is refused in the library's terms,
    # not rounded, sliced or passed on to range()
    count, call = SIZED_CALLS[name]
    with pytest.raises(InputContractError,
                       match=f"^{count} must be an integer"):
        call(fam_clifford, 3.5)


@pytest.mark.parametrize("size", [0, -2])
@pytest.mark.parametrize("name", sorted(SIZED_CALLS))
def test_size_below_its_minimum_is_an_input_contract_error(fam_clifford,
                                                           name, size):
    # every count is an integer of at least its stated minimum, and the
    # error names the function's own count
    count, call = SIZED_CALLS[name]
    with pytest.raises(InputContractError,
                       match=f"^{count} must be at least"):
        call(fam_clifford, size)


@pytest.mark.parametrize("name, params", [
    ("great-sphere", {"n": 2.5}),
    ("great-sphere", {"n": 3, "axis": 0.5}),
    ("clifford", {"k": 1, "n": 2.5}),
    ("clifford", {"k": 1.5, "n": 3}),
    ("nomizu-quartic", {"n": 2.5}),
    ("nomizu-quartic", {"n": "2"}),
    ("user-polynomial", {"terms": [(1.0, (1, 0, 0))], "ambient_dim": 3.5,
                         "g": 1, "m1": 1, "m2": 1}),
    ("user-polynomial", {"terms": [(1.0, (1, 0, 0))], "ambient_dim": 3,
                         "g": 1.5, "m1": 1, "m2": 1}),
    ("great-sphere", {"n": 1e9}),
    ("great-sphere", {"n": 63}),
    ("clifford", {"k": 1, "n": 63}),
    ("nomizu-quartic", {"n": 32}),
    ("user-polynomial", {"terms": [(1.0, (1,) + (0,) * 64)],
                         "ambient_dim": 65, "g": 1, "m1": 63, "m2": 63}),
])
def test_family_size_is_checked_before_building(monkeypatch, name, params):
    # a size that int() would truncate, or an ambient dimension above
    # MAX_AMBIENT_DIM = 64, is refused before any polynomial is built
    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr(CMPolynomial, "__init__", refuse)
    with pytest.raises(InputContractError):
        catalog(name, **params)


def test_largest_ambient_dimension_is_accepted():
    fam = catalog("great-sphere", n=62.0)
    assert fam.ambient_dim == 64 and fam.m1 == 62
    obj = json.loads(family_to_json(fam))
    with pytest.raises(InputContractError):
        family_from_json(json.dumps({**obj, "ambient_dim": 65}))
