"""Shape operators and principal-curvature spectra."""

import numpy as np
import pytest

from isolab import (ClusteringError, FocalCrossingError,
                    isoparametric_check, parallel_transport_curvature,
                    principal_curvatures, sample_points, shape_operator,
                    spherical_gradient)
from isolab import shape
from isolab.shape import PrincipalSpectrum, arccot, spectrum_at


def finite_difference_shape_operator(sp, h=1e-5):
    """Independent oracle: central differences of the unit normal field
    along tangent directions, projected back to the frame."""
    fam = sp.family
    frame = np.asarray(sp.tangent_vectors)
    n = frame.shape[0]

    def normal_at(coords):
        w = spherical_gradient(fam, coords[None, :])[0]
        return w / np.linalg.norm(w)

    a = np.empty((n, n))
    for i in range(n):
        plus = np.cos(h) * sp.x.coords + np.sin(h) * frame[i]
        minus = np.cos(h) * sp.x.coords - np.sin(h) * frame[i]
        dxi = (normal_at(plus / np.linalg.norm(plus))
               - normal_at(minus / np.linalg.norm(minus))) / (2 * h)
        for j in range(n):
            a[i, j] = -float(dxi @ frame[j])
    return 0.5 * (a + a.T)


def test_great_sphere_spectrum(fam_great):
    s = 0.4
    sp = sample_points(fam_great, s, 1, seed=0)[0]
    spec = spectrum_at(sp)
    assert spec.multiplicities == (3,)
    expected = s / np.sqrt(1 - s * s)
    assert abs(spec.values[0] - expected) < 1e-10


def test_clifford_mid_level_spectrum(fam_clifford):
    sp = sample_points(fam_clifford, 0.0, 1, seed=1)[0]
    spec = spectrum_at(sp)
    assert spec.multiplicities == (1, 1)
    assert abs(spec.values[0] - 1.0) < 1e-10
    assert abs(spec.values[1] + 1.0) < 1e-10


def test_clifford_asymmetric_multiplicities(fam_clifford_asym):
    # with the normal pointing toward increasing V the larger curvature
    # carries the multiplicity of the second factor (here n - k = 2)
    sp = sample_points(fam_clifford_asym, 0.0, 1, seed=2)[0]
    spec = spectrum_at(sp)
    assert spec.values[0] > spec.values[1]
    assert spec.multiplicities == (2, 1)


def test_shape_operator_against_normal_derivative(all_families):
    rng_level = {"great-sphere": 0.4, "clifford": 0.25, "cartan-cubic": 0.2,
                 "nomizu-quartic": 0.3}
    for fam in all_families:
        pts = sample_points(fam, rng_level[fam.label], 20, seed=3)
        for sp in pts:
            a_formula = shape_operator(sp)
            a_fd = finite_difference_shape_operator(sp)
            assert np.abs(a_formula - a_fd).max() < 1e-5, fam.label


def test_principal_curvatures_identity_matrix():
    spec = principal_curvatures(np.eye(4))
    assert spec.values == (1.0,)
    assert spec.multiplicities == (4,)
    assert abs(spec.theta - np.pi / 4) < 1e-15


def test_principal_curvatures_rejects_bad_count():
    with pytest.raises(ClusteringError):
        principal_curvatures(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]))


def test_principal_curvatures_rejects_ambiguous():
    # spread within a cluster above cluster_tol/10 but below cluster_tol
    with pytest.raises(ClusteringError):
        principal_curvatures(np.diag([1.0, 1.0 + 5e-5, -1.0]), cluster_tol=1e-4)


def test_theta_convention(fam_cartan):
    sp = sample_points(fam_cartan, 0.2, 1, seed=4)[0]
    spec = spectrum_at(sp)
    assert spec.theta == arccot(spec.values[0])
    assert 0 < spec.theta < np.pi / spec.count


def test_parallel_transport_identity_and_quarter():
    assert parallel_transport_curvature(1.7, 0.0) == pytest.approx(1.7)
    theta = arccot(1.7)
    assert abs(parallel_transport_curvature(1.7, theta - np.pi / 2)) < 1e-12


def test_parallel_transport_focal_crossing():
    lam = 1.0
    with pytest.raises(FocalCrossingError) as err:
        parallel_transport_curvature(lam, np.pi / 4)
    assert err.value.t_critical == pytest.approx(np.pi / 4)


def test_parallel_transport_between_levels(fam_clifford):
    # spectrum measured at level 0.5 equals the transported spectrum from
    # level 0, with t from the phase relation arccos(s)/g
    spec0 = spectrum_at(sample_points(fam_clifford, 0.0, 1, seed=5)[0])
    spec1 = spectrum_at(sample_points(fam_clifford, 0.5, 1, seed=6)[0])
    t = (np.arccos(0.0) - np.arccos(0.5)) / fam_clifford.g
    moved = sorted((parallel_transport_curvature(v, t) for v in spec0.values),
                   reverse=True)
    assert np.abs(np.array(moved) - np.array(spec1.values)).max() < 1e-7


def test_isoparametric_check_catalog(all_families):
    levels = {"great-sphere": 0.4, "clifford": 0.3, "cartan-cubic": 0.0,
              "nomizu-quartic": 0.2}
    for fam in all_families:
        report = isoparametric_check(fam, levels[fam.label], num_samples=25,
                                     seed=7)
        assert report.passed, (fam.label, report.failure)
        assert len(report.values) == fam.g
        assert report.worst_cluster_spread < 1e-7
        assert report.worst_spacing_error < 1e-7


def test_isoparametric_check_spacing_cartan(fam_cartan):
    report = isoparametric_check(fam_cartan, 0.0, num_samples=30, seed=8)
    params = np.sort(arccot(np.array(report.values)))
    assert np.abs(np.diff(params) - np.pi / 3).max() < 1e-7


def test_isoparametric_check_negative_control(perturbed_clifford):
    report = isoparametric_check(perturbed_clifford, 0.3, num_samples=40,
                                 seed=9)
    assert not report.passed
    assert report.worst_cluster_spread > 1e-7 or report.failure is not None


def test_isoparametric_check_clustering_failures(fam_clifford):
    # the curvatures +1 and -1 of the mid level merge at cluster_tol 3 into
    # a cluster too wide to be one; at 100 they make one clean cluster, but
    # g = 2 clusters are expected
    ambiguous = isoparametric_check(fam_clifford, 0.0, num_samples=5,
                                    cluster_tol=3.0)
    assert ambiguous.failure.startswith("clustering failed at sample 0: ")
    d = ambiguous.to_dict()
    assert d["values"] == [] and d["multiplicities"] == []
    assert np.isnan(d["theta"]) and d["alternation_ok"] is False
    assert d["worst_cluster_spread"] == d["worst_spacing_error"] == np.inf
    assert d["pass"] is False
    merged = isoparametric_check(fam_clifford, 0.0, num_samples=5,
                                 cluster_tol=100.0)
    assert merged.failure == "1 clusters but g = 2"
    assert merged.multiplicities == (2,) and not merged.alternation_ok
    assert not merged.passed


def test_isoparametric_check_multiplicity_change(fam_clifford_asym,
                                                 monkeypatch):
    calls = []

    def flip_second(matrix, cluster_tol):
        spec = principal_curvatures(matrix, cluster_tol)
        calls.append(spec)
        if len(calls) == 2:
            return PrincipalSpectrum(spec.values, spec.multiplicities[::-1],
                                     spec.theta)
        return spec

    monkeypatch.setattr(shape, "principal_curvatures", flip_second)
    report = isoparametric_check(fam_clifford_asym, 0.0, num_samples=3)
    assert report.failure == ("multiplicity pattern changed between points: "
                              "(2, 1) vs (1, 2)")
    assert report.multiplicities == (2, 1) and report.values == ()
    assert not report.passed


def test_spectrum_csv_roundtrip(tmp_path, fam_cartan):
    from isolab.export import export_spectrum_csv
    path = tmp_path / "spec.csv"
    export_spectrum_csv(fam_cartan, 0.2, 5, seed=10, path=str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "level,point,lambda1,lambda2,lambda3,mult1,mult2,mult3"
    assert len(rows) == 6


def test_alternation_needs_period_two(fam_clifford_asym):
    # the family's pair {1, 2} in both orders, but not with period two
    assert shape._alternation_ok((1, 2, 1, 2), fam_clifford_asym)
    assert shape._alternation_ok((2, 1, 2, 1), fam_clifford_asym)
    assert not shape._alternation_ok((1, 2, 2, 1), fam_clifford_asym)
