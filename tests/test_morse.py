"""Critical-point machinery: both algorithms, both index computations."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from isolab import (InputContractError, NearFocalPoleError, PoleIsFocalError,
                    SamplingError, SpherePoint, catalog,
                    critical_points_newton,
                    focal_tautness_report, index_via_focal_count,
                    normal_circle_critical_points, sample_points,
                    spherical_distance, tightness_report, totally_focal_probe)
from isolab import levelset, morse, shape
from isolab.levelset import (_frames_batch, _normalize_rows, _project_batch,
                             project_to_level, spherical_gradient,
                             surface_point)
from isolab.families import seeded_rng
from isolab.polynomial import CMPolynomial
from isolab.shape import spectrum_at


def torus_pole(seed):
    rng = np.random.default_rng(seed)
    while True:
        p = rng.normal(size=4)
        p /= np.linalg.norm(p)
        a12 = np.hypot(p[0], p[1])
        a34 = np.hypot(p[2], p[3])
        # keep the pole away from the focal circles and from degenerate axes
        if 0.05 < a12 < 0.95 and 0.05 < a34 < 0.95:
            return SpherePoint(p)


def torus_critical_points_analytic(pole, s):
    """Closed-form oracle: on the product of circles the height function
    splits, so the four critical points sit at angle combinations of the
    pole's per-factor phases, with index multiset {0, 1, 1, 2}."""
    a = np.sqrt((1.0 + s) / 2.0)
    b = np.sqrt((1.0 - s) / 2.0)
    p = pole.coords
    phi0 = np.arctan2(p[1], p[0])
    psi0 = np.arctan2(p[3], p[2])
    amp1 = a * np.hypot(p[0], p[1])
    amp2 = b * np.hypot(p[2], p[3])
    out = []
    for dphi in (0.0, np.pi):
        for dpsi in (0.0, np.pi):
            x = np.array([a * np.cos(phi0 + dphi), a * np.sin(phi0 + dphi),
                          b * np.cos(psi0 + dpsi), b * np.sin(psi0 + dpsi)])
            hess_diag = np.array([-amp1 * np.cos(dphi), -amp2 * np.cos(dpsi)])
            index = int(np.sum(hess_diag > 0))
            out.append((x, index))
    return out


def test_clifford_against_analytic_oracle(fam_clifford):
    s = 0.3
    for seed in range(5):
        pole = torus_pole(seed)
        found = critical_points_newton(fam_clifford, s, pole, seed=seed)
        expected = torus_critical_points_analytic(pole, s)
        assert len(found) == 4
        assert sorted(cp.index_hessian for cp in found) == sorted(
            idx for _x, idx in expected) == [0, 1, 1, 2]
        for x, idx in expected:
            best = min(found, key=lambda cp: np.linalg.norm(cp.location.coords - x))
            assert np.linalg.norm(best.location.coords - x) < 1e-8
            assert best.index_hessian == idx
            assert best.index_focal == idx
            assert not best.degenerate


def test_great_sphere_two_critical_points(fam_great):
    rng = np.random.default_rng(1)
    pole = SpherePoint(rng.normal(size=5))
    pts = critical_points_newton(fam_great, 0.3, pole, seed=2)
    assert len(pts) == 2
    assert [cp.index_hessian for cp in pts] == [0, 3]
    # closed form: the level sphere sits at angle arccos(s) from the axis
    # point, the pole at angle arccos(<a, p>); the two critical distances
    # are the arc gaps along the common great circle
    theta_p = np.arccos(pole.coords[0])
    theta_s = np.arccos(0.3)
    near = abs(theta_p - theta_s)
    far = theta_p + theta_s
    far = far if far <= np.pi else 2 * np.pi - far
    assert abs(pts[0].t - min(near, far)) < 1e-8
    assert abs(pts[1].t - max(near, far)) < 1e-8


def test_circle_method_count_and_levels(all_families):
    levels = {"great-sphere": 0.4, "clifford": 0.3, "cartan-cubic": 0.2,
              "nomizu-quartic": 0.3}
    rng = np.random.default_rng(3)
    for fam in all_families:
        for _ in range(3):
            p = rng.normal(size=fam.ambient_dim)
            p /= np.linalg.norm(p)
            if abs(float(fam.polynomial.value(p))) > 0.99:
                continue
            pts = normal_circle_critical_points(fam, levels[fam.label],
                                                SpherePoint(p))
            assert len(pts) == 2 * fam.g
            for cp in pts:
                v = float(fam.polynomial.value(cp.location.coords))
                assert abs(v - levels[fam.label]) < 1e-10


def test_cross_algorithm_agreement(fam_cartan):
    rng = np.random.default_rng(4)
    for _ in range(3):
        p = rng.normal(size=5)
        p /= np.linalg.norm(p)
        if abs(float(fam_cartan.polynomial.value(p))) > 0.9:
            continue
        pole = SpherePoint(p)
        newton = critical_points_newton(fam_cartan, 0.2, pole, seed=5)
        circle = normal_circle_critical_points(fam_cartan, 0.2, pole)
        assert len(newton) == len(circle) == 6
        for cp in circle:
            d = min(spherical_distance(cp.location, q.location) for q in newton)
            assert d < 1e-6


def test_circle_method_rejects_focal_pole(fam_clifford):
    with pytest.raises(PoleIsFocalError):
        normal_circle_critical_points(fam_clifford, 0.3,
                                      SpherePoint(np.array([1.0, 0, 0, 0])))


def test_newton_rejects_focal_level(fam_clifford):
    pole = torus_pole(11)
    with pytest.raises(InputContractError):
        critical_points_newton(fam_clifford, 1.0, pole)


def test_index_via_focal_count_limits(fam_clifford):
    sp = sample_points(fam_clifford, 0.3, 1, seed=6)[0]
    spec = spectrum_at(sp)
    params = np.sort(np.array(spec.focal_parameters()))
    # pole just before the first focal point: local minimum
    t_small = 0.5 * params[0]
    pole_near = SpherePoint(np.cos(t_small) * sp.x.coords
                            + np.sin(t_small) * np.asarray(sp.xi))
    assert index_via_focal_count(pole_near, sp, spec) == 0
    # pole beyond every focal parameter on the near semicircle: maximum
    t_big = 0.5 * (params[-1] + np.pi)
    pole_far = SpherePoint(np.cos(t_big) * sp.x.coords
                           + np.sin(t_big) * np.asarray(sp.xi))
    assert index_via_focal_count(pole_far, sp, spec) == fam_clifford.hypersurface_dim
    # one focal parameter passed: index = multiplicity of that curvature
    t_mid = 0.5 * (params[0] + params[1])
    pole_mid = SpherePoint(np.cos(t_mid) * sp.x.coords
                           + np.sin(t_mid) * np.asarray(sp.xi))
    assert index_via_focal_count(pole_mid, sp, spec) == spec.multiplicities[0]


def test_focal_count_rejects_a_pole_of_the_wrong_dimension(fam_nomizu):
    sp = sample_points(fam_nomizu, 0.3, 1, seed=6)[0]
    with pytest.raises(InputContractError,
                       match="point has dimension 4, expected 6"):
        index_via_focal_count(SpherePoint(np.full(4, 0.5)), sp,
                              spectrum_at(sp))


def test_focal_count_rejects_a_point_of_a_focal_sheet(fam_nomizu):
    # a point of V = +1 has no normal (its xi is None), so no focal count
    spec = spectrum_at(sample_points(fam_nomizu, 0.3, 1, seed=6)[0])
    on_sheet = sample_points(fam_nomizu, 1.0, 1, seed=6)[0]
    pole = morse._draw_pole(fam_nomizu, np.random.default_rng(6))
    with pytest.raises(InputContractError, match="focal"):
        index_via_focal_count(pole, on_sheet, spec)


def test_newton_rejects_a_pole_of_the_wrong_dimension(fam_nomizu,
                                                      monkeypatch):
    # the pole is checked before any start is projected
    def projecting(*args, **kwargs):
        raise AssertionError("a start was projected")

    monkeypatch.setattr(morse, "_project_batch", projecting)
    with pytest.raises(InputContractError,
                       match="point has dimension 4, expected 6"):
        critical_points_newton(fam_nomizu, 0.3, SpherePoint(np.full(4, 0.5)))


def perturbed_quartic(eps):
    """nomizu-quartic n=2 plus eps times 10 random degree-4 monomials: a
    polynomial O(eps) off the family, taken unverified."""
    base = catalog("nomizu-quartic", n=2)
    d = base.ambient_dim
    rng = np.random.default_rng(7)
    monomials = [np.bincount(rng.integers(0, d, size=4), minlength=d)
                 for _ in range(10)]
    terms = list(base.polynomial.terms()) + list(zip(
        eps * rng.normal(size=10), monomials))
    return catalog("user-polynomial", terms=terms, ambient_dim=d, g=base.g,
                   m1=base.m1, m2=base.m2, verify=False)


def test_newton_route_does_not_copy_the_circle_route():
    # negative control: off a genuine family the circle through the pole
    # is no longer normal to the levels, so its closed-form points miss the
    # critical points by O(eps), and the Newton route, which never reads
    # them, must show that miss; a route that copied them would read 0
    sizes = (1e-4, 1e-6)
    reports = [tightness_report(perturbed_quartic(eps), 0.3, num_poles=4,
                                seed=3) for eps in sizes]
    assert not reports[0].passed
    ratios = [r.worst_match_distance / eps for r, eps in zip(reports, sizes)]
    assert min(ratios) > 0.1, ratios
    assert abs(ratios[0] / ratios[1] - 1.0) < 0.01, ratios


def test_tightness_small_runs(all_families):
    levels = {"great-sphere": 0.4, "clifford": 0.3, "cartan-cubic": 0.2,
              "nomizu-quartic": 0.3}
    for fam in all_families:
        rep = tightness_report(fam, levels[fam.label], num_poles=5, seed=7)
        assert rep.passed, rep.failures
        assert all(p["count_newton"] == 2 * fam.g for p in rep.poles)
        assert rep.worst_match_distance < 1e-6
        # Morse profile is the same for every pole: histogram splits evenly
        total = sum(rep.index_histogram.values())
        assert total == 5 * 2 * fam.g


def test_tightness_report_schema(fam_clifford):
    rep = tightness_report(fam_clifford, 0.3, num_poles=2, seed=8)
    d = rep.to_dict()
    assert {"family", "level", "g", "m1", "m2", "poles", "pass"} <= set(d)
    pole0 = d["poles"][0]
    assert {"pole", "count_newton", "count_circle", "points"} <= set(pole0)
    assert {"coords", "t", "index_hessian", "index_focal", "degenerate",
            "margin"} <= set(pole0["points"][0])


def test_tightness_report_records_failing_poles(perturbed_clifford):
    # off the family both routes still find 4 points per pole, but they
    # no longer agree: every pole is a failure entry
    rep = tightness_report(perturbed_clifford, 0.3, num_poles=3, seed=1)
    assert not rep.passed and rep.to_dict()["pass"] is False
    assert len(rep.failures) == len(rep.poles) == 3
    for failure, pole in zip(rep.failures, rep.poles):
        assert failure["pole"] == pole["pole"]
        assert failure["count_newton"] == failure["count_circle"] == 4
        assert failure["match_distance"] > morse.DEDUP_RADIUS
        assert failure["index_agreement"] is True


def test_focal_tautness_counts_and_collinearity(all_families):
    for fam in all_families:
        for side in (1, -1):
            rep = focal_tautness_report(fam, side, num_poles=4, seed=9)
            assert rep.passed, (fam.label, side, rep.failures)
            assert all(p["count_circle"] == fam.g for p in rep.poles)
            assert all(p["collinearity"] < 1e-8 for p in rep.poles)


def test_focal_tautness_clifford_analytic(fam_clifford):
    # on the core circle the two critical points are the in-plane unit
    # vectors toward and away from the pole's first-factor component
    rep = focal_tautness_report(fam_clifford, 1, num_poles=1, seed=10)
    pole = np.array(rep.poles[0]["pole"])
    pts = np.array([q["coords"] for q in rep.poles[0]["points"]])
    phat = pole[:2] / np.linalg.norm(pole[:2])
    expected = {tuple(np.round(np.concatenate([sgn * phat, [0, 0]]), 9))
                for sgn in (1.0, -1.0)}
    got = {tuple(np.round(row, 9)) for row in pts}
    assert got == expected


def test_totally_focal_probe(fam_clifford):
    probe = totally_focal_probe(fam_clifford, 0.3, seed=11, num_nonfocal=6,
                                num_focal=2)
    assert probe["pass"]
    assert probe["nonfocal"]["degenerate_points"] == 0
    assert probe["nonfocal"]["min_margin"] > 1e-4
    assert probe["focal"]["points"] > 0
    assert probe["focal"]["degenerate_points"] == probe["focal"]["points"]
    assert probe["focal"]["max_margin"] < 1e-4
    assert probe["mixed_failures"] == []
    assert probe["boundary"]["offset"] == 1e-5


def test_focal_pole_critical_set_is_continuum(fam_clifford):
    # distance from a core-circle point is constant along the second factor,
    # so Newton finds many distinct, all-degenerate solutions
    pole = project_to_level(fam_clifford, 1.0,
                            SpherePoint(np.array([0.3, 0.9, 0.0, 0.0]))).x
    assert abs(pole.coords[2]) < 1e-12 and abs(pole.coords[3]) < 1e-12
    from isolab.morse import (_classify, _dedup, _newton_multistart,
                              _DEGENERATE_PROBE)
    from isolab.levelset import _project_batch
    rng = np.random.default_rng(12)
    starts, ok = _project_batch(fam_clifford, 0.3,
                                rng.normal(size=(60, 4)))[:2]
    sols, rnorm, _d = _newton_multistart(fam_clifford, 0.3, pole.coords,
                                         starts[ok])
    unique = _dedup(fam_clifford, sols, rnorm)
    assert len(unique) > 8  # a circle of solutions, not 2g isolated points
    assert np.array_equal(unique, dedup_loop(sols, rnorm))
    cps = _classify(fam_clifford, 0.3, pole.coords, unique,
                    degenerate_threshold=_DEGENERATE_PROBE)
    assert all(cp.degenerate for cp in cps)


def test_index_histogram_matches_betti_numbers(fam_cartan, fam_nomizu):
    # per pole the indices realize the Z2 Betti numbers of the manifold
    rep3 = tightness_report(fam_cartan, 0.2, num_poles=3, seed=13)
    assert rep3.index_histogram == {0: 3, 1: 6, 2: 6, 3: 3}
    rep4 = tightness_report(fam_nomizu, 0.3, num_poles=2, seed=14)
    assert rep4.index_histogram == {0: 2, 1: 4, 2: 4, 3: 4, 4: 2}


def dedup_loop(X, rnorm, radius=morse.DEDUP_RADIUS):
    """Reference for `_dedup`: greedy merge in residual order, one pair at
    a time."""
    kept = []
    for i in np.argsort(rnorm):
        if all(float(np.arccos(np.clip(X[i] @ k, -1.0, 1.0))) >= radius
               for k in kept):
            kept.append(X[i])
    return np.array(kept)


def test_dedup_compares_the_gram_matrix_with_cos_radius(fam_nomizu):
    # a degenerate-probe cloud from a focal pole, and pairs just inside and
    # just outside the radius, merge as the arccos oracle merges them
    rng = np.random.default_rng(83)
    pole = project_to_level(fam_nomizu, 1.0,
                            SpherePoint(rng.normal(size=6))).x
    starts, ok = _project_batch(fam_nomizu, 0.3, rng.normal(size=(240, 6)))[:2]
    sols, rnorm, _diag = morse._newton_multistart(fam_nomizu, 0.3,
                                                  pole.coords, starts[ok])
    unique = morse._dedup(fam_nomizu, sols, rnorm)
    assert len(unique) > 8
    assert np.array_equal(unique, dedup_loop(sols, rnorm))
    base = unique[:6]
    w = rng.normal(size=base.shape)
    w -= np.einsum("ij,ij->i", w, base)[:, None] * base
    w = _normalize_rows(w)
    t = morse.DEDUP_RADIUS * np.array([0.999, 1.001] * 3)[:, None]
    X = np.vstack([base, np.cos(t) * base + np.sin(t) * w])
    res = np.concatenate([np.zeros(6), np.ones(6)])
    kept = morse._dedup(fam_nomizu, X, res)
    assert np.array_equal(kept, dedup_loop(X, res))
    # base rows first, then only the partners at 1.001 r
    assert np.array_equal(kept, X[[0, 1, 2, 3, 4, 5, 7, 9, 11]])


def fd_newton_jacobian(fam, s, p, X, frames, h=1e-6):
    """Reference for `_newton_jacobian`: central differences of the
    tangential residual along each frame vector, with retraction to M_s."""
    def residual_in_frame(Y):
        xi = spherical_gradient(fam, Y)
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        q = morse._tangential_residual(p, Y, xi)
        return np.einsum("bnd,bd->bn", frames, q)

    n = frames.shape[1]
    jac = np.empty((len(X), n, n))
    for j in range(n):
        step = h * frames[:, j, :]
        plus, okp = _project_batch(fam, s, _normalize_rows(X + step),
                                   tol=1e-15, accept=1e-11)[:2]
        minus, okm = _project_batch(fam, s, _normalize_rows(X - step),
                                    tol=1e-15, accept=1e-11)[:2]
        assert okp.all() and okm.all()
        jac[:, :, j] = (residual_in_frame(plus)
                        - residual_in_frame(minus)) / (2 * h)
    return jac


def test_exact_newton_jacobian_matches_finite_differences(
        fam_clifford, fam_cartan, fam_nomizu):
    rng = np.random.default_rng(21)
    for fam, s in ((fam_clifford, 0.3), (fam_cartan, 0.2), (fam_nomizu, 0.3)):
        X = np.array([sp.x.coords for sp in sample_points(fam, s, 8, seed=22)])
        p = rng.normal(size=fam.ambient_dim)
        p /= np.linalg.norm(p)
        xi, frames, vals, wn = _frames_batch(fam, X)
        # random level points are far from critical for a random pole
        assert np.abs(morse._tangential_residual(p, X, xi)).max() > 1e-2
        exact = morse._newton_jacobian(fam, p, X, xi, frames, vals, wn)
        oracle = fd_newton_jacobian(fam, s, p, X, frames)
        scale = np.linalg.norm(oracle, axis=(1, 2))
        err = np.linalg.norm(exact - oracle, axis=(1, 2))
        assert (err <= 1e-5 * scale).all(), (fam.label, (err / scale).max())


def fd_focal_jacobian(fam, side, p, Y, chart, h=1e-6, proj=None):
    """Reference for `_focal_jacobian`: central differences of the chart
    coordinates of P(y) p along each chart vector, with retraction to the
    focal level V = side.  With `proj`, tangent projectors in the chart's
    coordinates (the sphere frame's, say), returns proj jac proj: the
    tangent block, since the retraction folds every move onto T_yM."""
    n = chart.shape[1]
    jac = np.empty((len(Y), n, n))
    for j in range(n):
        step = h * chart[:, j, :]
        plus, okp = _project_batch(fam, float(side), _normalize_rows(Y + step),
                                   tol=1e-15, accept=1e-11)[:2]
        minus, okm = _project_batch(fam, float(side),
                                    _normalize_rows(Y - step),
                                    tol=1e-15, accept=1e-11)[:2]
        assert okp.all() and okm.all()
        prj_p = loop_focal_tangent_projector(fam, plus)[0]
        prj_m = loop_focal_tangent_projector(fam, minus)[0]
        qp = np.einsum("bnd,bde,e->bn", chart, prj_p, p)
        qm = np.einsum("bnd,bde,e->bn", chart, prj_m, p)
        jac[:, :, j] = (qp - qm) / (2 * h)
    return jac if proj is None else proj @ jac @ proj


def test_exact_focal_jacobian_matches_finite_differences():
    rng = np.random.default_rng(43)
    for fam in (catalog("cartan-cubic"), catalog("nomizu-quartic", n=2),
                catalog("nomizu-quartic", n=3), catalog("clifford", k=2, n=7)):
        for side in (1, -1):
            Y, ok = _project_batch(fam, float(side),
                                   rng.normal(size=(6, fam.ambient_dim)))[:2]
            Y = Y[ok]
            p = rng.normal(size=fam.ambient_dim)
            p /= np.linalg.norm(p)
            proj, dims = loop_focal_tangent_projector(fam, Y)
            d_foc = dims[0]
            assert len(Y) >= 4 and dims == [d_foc] * len(Y) and d_foc > 0
            chart = projector_chart(proj, d_foc)
            q = np.einsum("bij,j->bi", proj, p)
            exact = morse._focal_jacobian(fam, side, p, Y, chart, q)
            oracle = fd_focal_jacobian(fam, side, p, Y, chart)
            scale = np.linalg.norm(oracle, axis=(1, 2))
            err = np.linalg.norm(exact - oracle, axis=(1, 2))
            assert (err <= 1e-6 * scale).all(), \
                (fam.label, side, (err / scale).max())
            # the Newton route's tangent block, on the D-1 sphere frame
            sph, sproj, _dims = morse._focal_sphere_projector(fam, side, Y)
            q = morse._sphere_tangent_part(p, sph, sproj)
            exact = morse._focal_jacobian(fam, side, p, Y, sph, q)
            exact = sproj @ exact @ sproj
            oracle = fd_focal_jacobian(fam, side, p, Y, sph, proj=sproj)
            scale = np.linalg.norm(oracle, axis=(1, 2))
            err = np.linalg.norm(exact - oracle, axis=(1, 2))
            assert (err <= 1e-6 * scale).all(), \
                (fam.label, side, (err / scale).max())


def loop_focal_tangent_projector(fam, Y):
    # reference for the focal tangent projectors: one projector per row from
    # the kept eigenvectors of the tangential Hessian of V, in a QR frame
    proj, dims = np.zeros((len(Y), Y.shape[1], Y.shape[1])), []
    for i, y in enumerate(Y):
        q, _ = np.linalg.qr(np.column_stack([y, np.eye(len(y))]))
        sph = q[:, 1:len(y)]
        core = (fam.polynomial.hessian(y)
                - fam.g * fam.polynomial.value(y) * np.eye(len(y)))
        eigval, eigvec = np.linalg.eigh(sph.T @ core @ sph)
        amb = sph @ eigvec[:, np.abs(eigval) < fam.g ** 2 / 2.0]
        proj[i] = amb @ amb.T
        dims.append(amb.shape[1])
    return proj, dims


def focal_index_chart(monkeypatch, fam, side, p, Y):
    # the chart `_focal_index` hands its stencil at the rows Y: (B, d_foc, D)
    charts = []
    chart_hessians = morse._chart_hessians
    with monkeypatch.context() as patch:
        patch.setattr(morse, "_chart_hessians", lambda *args: (
            charts.append(args[3]) or chart_hessians(*args)))
        morse._focal_index(fam, side, p, Y, fam.polynomial.value(Y))
    return charts[0]


def test_focal_tangent_projector_matches_per_row_loop(monkeypatch):
    # the index route's tangent spaces, spanned by the chart it takes from
    # one eigh of the product projector, are those of one eigh per row in
    # another frame
    rng, poles = np.random.default_rng(59), np.random.default_rng(89)
    for fam in (catalog("cartan-cubic"), catalog("nomizu-quartic", n=2),
                catalog("clifford", k=2, n=7)):
        for side in (1, -1):
            Y, ok = _project_batch(fam, float(side),
                                   rng.normal(size=(6, fam.ambient_dim)))[:2]
            p = morse._draw_pole(fam, poles).coords
            chart = focal_index_chart(monkeypatch, fam, side, p, Y[ok])
            want, want_dims = loop_focal_tangent_projector(fam, Y[ok])
            assert [chart.shape[1]] * len(chart) == want_dims, (fam.label,
                                                                side)
            proj = np.swapaxes(chart, 1, 2) @ chart
            # the batched products sum in another order: roundoff only
            assert np.abs(proj - want).max() <= 1e-13, (fam.label, side)


PROJECTOR_FAMILIES = (("cartan-cubic", {}), ("nomizu-quartic", {"n": 2}),
                      ("nomizu-quartic", {"n": 3}),
                      ("clifford", {"k": 2, "n": 7}), ("great-sphere", {"n": 3}))


def test_product_projector_is_the_eigh_projector():
    # the tangent spaces by matrix products in the sphere frame are, to
    # roundoff, those of one eigh per row in another frame
    rng = np.random.default_rng(67)
    for label, params in PROJECTOR_FAMILIES:
        fam = catalog(label, **params)
        for side in (1, -1):
            Y, ok = _project_batch(fam, float(side),
                                   rng.normal(size=(12, fam.ambient_dim)))[:2]
            sph, proj, dims = morse._focal_sphere_projector(fam, side, Y[ok])
            want, want_dims = loop_focal_tangent_projector(fam, Y[ok])
            assert dims.tolist() == want_dims, (label, side)
            ambient = np.swapaxes(sph, 1, 2) @ proj @ sph
            assert np.abs(ambient - want).max() <= 1e-13, (label, side)


def test_product_projector_falls_back_to_the_eigh_cut(fam_nomizu,
                                                     monkeypatch):
    rng = np.random.default_rng(71)
    Y, ok = _project_batch(fam_nomizu, 1.0, rng.normal(size=(8, 6)))[:2]
    Y = Y[ok][:6]
    sph, bmat = morse._focal_sphere_hessian(fam_nomizu, Y)
    g2 = fam_nomizu.g ** 2
    noise = rng.normal(size=bmat.shape)
    noise = noise + np.swapaxes(noise, 1, 2)
    bent = bmat.copy()
    # rows 0-1: 1e-7 off a projector; row 2: a tangent eigenvalue moved to
    # -1.5 g^2, which the cut makes normal; rows 3-4: far from any
    # projector; row 5: untouched, the only row that keeps its product
    bent[:2] += 1e-7 * g2 * noise[:2]
    lam, vec = np.linalg.eigh(bmat[2])
    lam[-1] = -1.5 * g2
    bent[2] = (vec * lam) @ vec.T
    bent[3:5] += 0.3 * g2 * noise[3:5]
    monkeypatch.setattr(morse, "_focal_sphere_hessian",
                        lambda fam, Y, vals=None: (sph, bent))
    eigh_rows = record_eigh(monkeypatch)
    _sph, proj, dims = morse._focal_sphere_projector(fam_nomizu, 1, Y)
    assert eigh_rows == [5]
    # every row matches the eigh cut of the same bent Hessians: the
    # eigenvectors with |lambda| < g^2 / 2
    lam, vec = np.linalg.eigh(bent)
    keep = np.abs(lam) < g2 / 2.0
    vec = vec * keep[:, None, :]
    assert np.abs(proj - vec @ np.swapaxes(vec, 1, 2)).max() <= 1e-13
    assert dims.tolist() == keep.sum(axis=1).tolist()
    assert dims[2] == dims[5] - 1


def test_focal_newton_takes_no_eigh(monkeypatch):
    # on genuine families the Newton route's projector never falls back, and
    # each step retracts once, straight onto the sheet
    eigh_rows = record_eigh(monkeypatch)
    counts = {"retract": 0, "step": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(morse, "_project_batch",
                        counting("retract", morse._project_batch))
    monkeypatch.setattr(morse, "_chart_step",
                        counting("step", morse._chart_step))
    rng = np.random.default_rng(79)
    for label, params in PROJECTOR_FAMILIES:
        fam = catalog(label, **params)
        pole = morse._draw_pole(fam, rng)
        for side in (1, -1):
            starts, ok = _project_batch(fam, float(side), rng.normal(
                size=(12 * fam.g, fam.ambient_dim)))[:2]
            sols = morse._focal_newton(fam, side, pole.coords,
                                       starts[ok])[0]
            assert len(sols), (label, side)
    assert eigh_rows == []
    assert counts["step"] > 0 and counts["retract"] == counts["step"]


def test_focal_newton_makes_one_value_call(monkeypatch):
    # the retractions hand their values on, polish included, so only the
    # first residual evaluates V
    calls = []
    value = CMPolynomial.value
    monkeypatch.setattr(CMPolynomial, "value", lambda self, x: (
        calls.append(1) or value(self, x)))
    rng = np.random.default_rng(79)
    for label, params in PROJECTOR_FAMILIES:
        fam = catalog(label, **params)
        pole = morse._draw_pole(fam, rng)
        for side in (1, -1):
            starts, ok = _project_batch(fam, float(side), rng.normal(
                size=(12 * fam.g, fam.ambient_dim)))[:2]
            calls.clear()
            sols = morse._focal_newton(fam, side, pole.coords,
                                       starts[ok])[0]
            assert len(sols) and len(calls) == 1, (label, side, len(calls))


def test_newton_route_hands_the_starts_values_to_the_solver(monkeypatch):
    # the projection of the starts hands on what it evaluated there: on a
    # level the starts' one jet call is the projection's, so no bank but
    # the first Jacobian's Hessian runs before the first step, and on a
    # sheet the route makes no value call at all
    log = []
    for kind in ("value", "gradient", "hessian"):
        def logging(self, x, _bank=getattr(CMPolynomial, kind), _kind=kind):
            log.append(_kind)
            return _bank(self, x)
        monkeypatch.setattr(CMPolynomial, kind, logging)
    retract, chart_step = morse._project_batch, morse._chart_step
    monkeypatch.setattr(morse, "_project_batch", lambda *a, **k: (
        retract(*a, **k), log.append("projected"))[0])
    monkeypatch.setattr(morse, "_chart_step", lambda *a: (
        log.append("step"), chart_step(*a))[1])
    rng = np.random.default_rng(89)
    for label, params in PROJECTOR_FAMILIES:
        fam = catalog(label, **params)
        # two poles in one batch, each with its own draws
        poles = np.array([morse._draw_pole(fam, rng).coords
                          for _ in range(2)])
        raw = rng.normal(size=(2, 12 * fam.g, fam.ambient_dim))
        log.clear()
        found = morse._newton_route(fam, 0.3, poles, raw)
        assert len(found) == 2 and all(map(len, found)), label
        assert log.count("projected") == 1 + log.count("step"), label
        first = log[log.index("projected") + 1:log.index("step")]
        assert first == ["hessian"], (label, first)
        for side in (1.0, -1.0):
            log.clear()
            found = morse._newton_route(fam, side, poles, raw)
            assert len(found) == 2 and all(map(len, found)), (label, side)
            assert "value" not in log, (label, side)


def test_focal_index_takes_eigh_at_its_base_rows_only(monkeypatch):
    # every row reads the product projector, so the only eigendecomposition
    # is the chart's, one row per base point, and none where the focal set
    # is a point (great-sphere) and has no tangent space
    eigh_rows = record_eigh(monkeypatch)
    rng = np.random.default_rng(83)
    for label, params in PROJECTOR_FAMILIES:
        fam = catalog(label, **params)
        pole = morse._draw_pole(fam, rng)
        for side in (1, -1):
            _eta, Y = morse._focal_circle_points(fam, side, pole)
            vals = fam.polynomial.value(Y)
            eigh_rows.clear()
            indices, _margins = morse._focal_index(fam, side, pole.coords, Y,
                                                   vals)
            assert len(indices) == len(Y), (label, side)
            want = [] if label == "great-sphere" else [len(Y)]
            assert eigh_rows == want, (label, side, eigh_rows)


def projector_chart(proj, d_foc):
    # the former focal chart, kept as an oracle: the top-d_foc eigenvectors
    # of a second eigh, of the D x D tangent projector
    _w, v = np.linalg.eigh(proj)
    return np.swapaxes(v[:, :, -d_foc:], 1, 2)


def test_focal_charts_are_orthonormal_tangent_bases(monkeypatch):
    rng, poles = np.random.default_rng(61), np.random.default_rng(89)
    for fam in (catalog("cartan-cubic"), catalog("nomizu-quartic", n=2),
                catalog("clifford", k=2, n=7)):
        for side in (1, -1):
            Y, ok = _project_batch(fam, float(side),
                                   rng.normal(size=(6, fam.ambient_dim)))[:2]
            p = morse._draw_pole(fam, poles).coords
            chart = focal_index_chart(monkeypatch, fam, side, p, Y[ok])
            proj, dims = loop_focal_tangent_projector(fam, Y[ok])
            d_foc = chart.shape[1]
            assert dims == [d_foc] * len(Y[ok]) and d_foc > 0, (fam.label,
                                                                side)
            eye = np.eye(d_foc)
            gram = chart @ np.swapaxes(chart, 1, 2)
            assert np.abs(gram - eye).max() <= 1e-13, (fam.label, side)
            span = np.swapaxes(chart, 1, 2) @ chart
            assert np.abs(span - proj).max() <= 1e-13, (fam.label, side)
            # the former chart spans the same space: the two differ by an
            # orthogonal d_foc x d_foc change of basis
            change = chart @ np.swapaxes(projector_chart(proj, d_foc), 1, 2)
            assert np.abs(change @ np.swapaxes(change, 1, 2) - eye).max() \
                <= 1e-13, (fam.label, side)


def test_focal_newton_diagonalizes_no_ambient_matrix(fam_nomizu, monkeypatch):
    # the index chart comes from an eigh of the sphere-frame projector,
    # never from one of the D x D ambient projector
    shapes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    d = fam_nomizu.ambient_dim
    rng = np.random.default_rng(73)
    pole = morse._draw_pole(fam_nomizu, rng)
    for side in (1, -1):
        starts, ok = _project_batch(fam_nomizu, float(side),
                                    rng.normal(size=(48, d)))[:2]
        sols = morse._focal_newton(fam_nomizu, side, pole.coords,
                                   starts[ok])[0]
        _eta, Y = morse._focal_circle_points(fam_nomizu, side, pole)
        morse._focal_index(fam_nomizu, side, pole.coords, Y,
                           fam_nomizu.polynomial.value(Y))
        d_foc = loop_focal_tangent_projector(fam_nomizu, Y)[1][0]
        assert len(sols) and d_foc > 0, side
    assert shapes and (d, d) not in shapes, sorted(set(shapes))


def test_hessian_stencil_never_uses_the_hessian_bank(fam_nomizu, monkeypatch):
    # index route one must stay a finite difference of the height function,
    # independent of the shape operator that drives index route two
    pole = SpherePoint(np.random.default_rng(23).normal(size=6))
    X = np.array([sp.x.coords for sp in
                  normal_circle_critical_points(fam_nomizu, 0.3, pole,
                                                classify=False)])
    calls = []
    hessian = CMPolynomial.hessian

    def counting_hessian(self, x):
        calls.append(1)
        return hessian(self, x)

    monkeypatch.setattr(CMPolynomial, "hessian", counting_hessian)
    hessians, ts = morse._hessian_stencil(fam_nomizu, 0.3, pole.coords, X)
    assert calls == []
    assert np.isfinite(hessians).all() and len(ts) == len(X)


def test_focal_newton_retracts_once_per_step(fam_nomizu, monkeypatch):
    # the exact Jacobian needs no retraction; the focal index witness stays
    # a finite difference, so it never reads the third-derivative bank
    pole = morse._draw_pole(fam_nomizu, np.random.default_rng(47))
    starts, ok = _project_batch(fam_nomizu, 1.0, np.random.default_rng(
        48).normal(size=(24, fam_nomizu.ambient_dim)))[:2]
    counts = {"retract": 0, "step": 0, "third": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(morse, "_project_batch",
                        counting("retract", morse._project_batch))
    monkeypatch.setattr(morse, "_chart_step",
                        counting("step", morse._chart_step))
    monkeypatch.setattr(CMPolynomial, "hessian_along",
                        counting("third", CMPolynomial.hessian_along))
    sols = morse._focal_newton(fam_nomizu, 1, pole.coords, starts[ok])[0]
    assert len(sols) > 0 and counts["step"] > 0
    assert counts["retract"] <= counts["step"] == counts["third"]
    counts["third"] = 0
    _eta, Y = morse._focal_circle_points(fam_nomizu, 1, pole)
    indices, _margins = morse._focal_index(fam_nomizu, 1, pole.coords, Y,
                                           fam_nomizu.polynomial.value(Y))
    assert counts["third"] == 0 and len(indices) == len(Y)


def test_pole_loops_give_up_after_the_rejection_budget(fam_clifford,
                                                       monkeypatch):
    # every pole on M_s: each is rejected before any Newton start
    monkeypatch.setattr(morse, "_draw_pole",
                        level_poles(fam_clifford, 0.3, lambda k: True))
    routes = counting(monkeypatch, "_newton_route")
    with pytest.raises(SamplingError, match=r"rejected 1100 poles .*"
                       r"\(focal pole: 0, t at 0 or pi: 1100\)"):
        tightness_report(fam_clifford, 0.3, num_poles=1, seed=24)
    assert routes["_newton_route"] == 0
    monkeypatch.undo()

    def focal(*args, **kwargs):
        raise PoleIsFocalError("every pole rejected")

    monkeypatch.setattr(morse, "_normal_circle", focal)
    with pytest.raises(SamplingError, match=r"rejected 1100 poles .*"
                       r"\(focal pole: 1100, t at 0 or pi: 0\)"):
        tightness_report(fam_clifford, 0.3, num_poles=1, seed=24)
    with pytest.raises(SamplingError, match=r"rejected 1200 poles .*"
                       r"focal pole: 1200"):
        focal_tautness_report(fam_clifford, 1, num_poles=2, seed=24)


def test_match_distance_resolves_nearly_equal_points():
    rng = np.random.default_rng(31)
    A = _normalize_rows(rng.normal(size=(4, 6)))
    w = rng.normal(size=6)
    w -= (w @ A[2]) * A[2]
    w /= np.linalg.norm(w)
    B = A[[3, 2, 0, 1]].copy()
    B[1] = np.cos(1e-12) * A[2] + np.sin(1e-12) * w
    assert abs(morse._match_distance(A, B) - 1e-12) <= 1e-15
    assert morse._match_distance(A, A) == 0.0
    assert morse._match_distance(A, B[:3]) == float("inf")


def loop_chart_hessians(fam, level, p, X, charts, accept):
    # the former index stencil, kept as an oracle: second differences of the
    # height function over the moves X +/- h t_i and X +/- h t_i +/- h t_j,
    # built one by one and assembled entry by entry
    m, k, _ = charts.shape
    h = morse._H_HESSIAN
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    moves = []
    for r in range(m):
        t = charts[r]
        for i in range(k):
            moves += [X[r] + h * t[i], X[r] - h * t[i]]
        for i, j in pairs:
            moves += [X[r] + h * t[i] + h * t[j], X[r] + h * t[i] - h * t[j],
                      X[r] - h * t[i] + h * t[j], X[r] - h * t[i] - h * t[j]]
    moved, _ = _project_batch(fam, level, _normalize_rows(np.array(moves)),
                              tol=1e-16, accept=accept)[:2]
    ell, ell0 = moved @ p, X @ p
    per = 2 * k + 4 * len(pairs)
    out = np.empty((m, k, k))
    for r in range(m):
        e = ell[r * per:(r + 1) * per]
        for i in range(k):
            out[r, i, i] = (e[2 * i] - 2 * ell0[r] + e[2 * i + 1]) / h ** 2
        for w, (i, j) in enumerate(pairs):
            q = e[2 * k + 4 * w:2 * k + 4 * w + 4]
            out[r, i, j] = out[r, j, i] = \
                (q[0] - q[1] - q[2] + q[3]) / (4 * h ** 2)
    return out


def test_chart_hessians_match_entrywise_loop(monkeypatch):
    # central differences of the Riemannian gradient give the old stencil's
    # indices, and both stencils stay within 1e-6 of the exact Riemannian
    # Hessians that steer the two Newton solvers
    captured = []  # (charts, hessians) of each stencil call
    chart_hessians = morse._chart_hessians
    monkeypatch.setattr(morse, "_chart_hessians", lambda *args: (
        captured.append((args[3], chart_hessians(*args))) or captured[-1][1]))

    def close(hessians, exact):
        err = np.abs(hessians - exact).max() / np.abs(exact).max()
        return err <= 1e-6

    def indices(hessians, sign):
        return (sign * np.linalg.eigvalsh(hessians) > 0).sum(axis=1).tolist()

    for fam, s in ((catalog("cartan-cubic"), 0.2),
                   (catalog("nomizu-quartic", n=2), 0.3),
                   (catalog("clifford", k=2, n=7), 0.3)):
        pole = morse._draw_pole(fam, np.random.default_rng(41))
        p = pole.coords
        X = np.array([sp.x.coords for sp in normal_circle_critical_points(
            fam, s, pole, classify=False)])
        xi, frames, vals, wn = _frames_batch(fam, X)
        hessians, _ts = morse._hessian_stencil(fam, s, p, X)
        assert close(hessians, morse._newton_jacobian(
            fam, p, X, xi, frames, vals, wn)), fam.label
        loop = loop_chart_hessians(fam, s, p, X, frames, accept=1e-9)
        assert indices(hessians, -1) == indices(loop, -1), fam.label
        for side in (1, -1):
            _eta, Y = morse._focal_circle_points(fam, side, pole)
            captured.clear()
            got, _margins = morse._focal_index(fam, side, p, Y,
                                               fam.polynomial.value(Y))
            chart, focal_hessians = captured[0]
            proj = loop_focal_tangent_projector(fam, Y)[0]
            jac = morse._focal_jacobian(fam, side, p, Y, chart, proj @ p)
            assert close(focal_hessians,
                         0.5 * (jac + np.swapaxes(jac, 1, 2))), \
                (fam.label, side)
            loop = loop_chart_hessians(fam, side, p, Y, chart, accept=1e-8)
            assert got == indices(loop, 1), (fam.label, side)


def test_index_stencils_retract_two_moves_per_chart_vector(fam_nomizu,
                                                           monkeypatch):
    pole = morse._draw_pole(fam_nomizu, np.random.default_rng(53))
    X = np.array([sp.x.coords for sp in normal_circle_critical_points(
        fam_nomizu, 0.3, pole, classify=False)])
    rows = []
    project = morse._project_batch
    monkeypatch.setattr(morse, "_project_batch", lambda fam, s, pts, **kw: (
        rows.append(len(pts)) or project(fam, s, pts, **kw)))
    morse._hessian_stencil(fam_nomizu, 0.3, pole.coords, X)
    assert rows == [2 * (fam_nomizu.ambient_dim - 2) * len(X)]
    for side in (1, -1):
        _eta, Y = morse._focal_circle_points(fam_nomizu, side, pole)
        d_foc = loop_focal_tangent_projector(fam_nomizu, Y)[1][0]
        rows.clear()
        morse._focal_index(fam_nomizu, side, pole.coords, Y,
                           fam_nomizu.polynomial.value(Y))
        assert rows == [2 * d_foc * len(Y)], side


def test_hessian_stencil_reads_the_jet_of_its_retraction(fam_nomizu,
                                                         monkeypatch):
    # the stencil's normals come from the jet its retraction hands back:
    # one gradient-bank call per retraction pass (one `_normalize_rows` of
    # the rows it moves), none of its own
    pole = morse._draw_pole(fam_nomizu, np.random.default_rng(53))
    X = np.array([sp.x.coords for sp in normal_circle_critical_points(
        fam_nomizu, 0.3, pole, classify=False)])
    frames = _frames_batch(fam_nomizu, X)[1]
    calls = {"gradient": 0, "pass": 0}
    gradient, normalize = CMPolynomial.gradient, levelset._normalize_rows

    def counting_gradient(self, x):
        calls["gradient"] += 1
        return gradient(self, x)

    def counting_pass(x):
        calls["pass"] += 1
        return normalize(x)

    monkeypatch.setattr(CMPolynomial, "gradient", counting_gradient)
    monkeypatch.setattr(levelset, "_normalize_rows", counting_pass)
    hessians, _ts = morse._hessian_stencil(fam_nomizu, 0.3, pole.coords, X,
                                           frames)
    assert calls["pass"] > 0 and calls["gradient"] == calls["pass"], calls
    assert np.isfinite(hessians).all()


def test_focal_index_reads_the_values_of_its_retraction(fam_nomizu,
                                                        monkeypatch):
    # the projectors at the base rows are built from the values handed in,
    # and those at the moved rows from the values the stencil's retraction
    # hands back: no value call
    rows = []
    value = CMPolynomial.value
    monkeypatch.setattr(CMPolynomial, "value", lambda self, x: (
        rows.append(len(np.atleast_2d(x))) or value(self, x)))
    pole = morse._draw_pole(fam_nomizu, np.random.default_rng(59))
    for side in (1, -1):
        _eta, Y = morse._focal_circle_points(fam_nomizu, side, pole)
        vals = fam_nomizu.polynomial.value(Y)
        rows.clear()
        indices, _margins = morse._focal_index(fam_nomizu, side, pole.coords,
                                               Y, vals)
        assert len(indices) == len(Y)
        assert rows == [], (side, rows)


@pytest.mark.parametrize("call", [
    lambda fam: tightness_report(fam, 0.3, num_poles=1.5),
    lambda fam: tightness_report(fam, 0.3, num_poles=0),
    lambda fam: focal_tautness_report(fam, 1, num_poles=2.5),
    lambda fam: focal_tautness_report(fam, 1, num_poles=1,
                                      starts_per_pole=0),
    lambda fam: totally_focal_probe(fam, 0.3, num_nonfocal=-1),
    lambda fam: totally_focal_probe(fam, 0.3, num_nonfocal=1.5),
    lambda fam: totally_focal_probe(fam, 0.3, num_focal=-1),
    lambda fam: totally_focal_probe(fam, 0.3, num_starts=0),
    lambda fam: critical_points_newton(fam, 0.3, morse._draw_pole(
        fam, np.random.default_rng(0)), num_starts=-2),
    lambda fam: critical_points_newton(fam, 0.3, morse._draw_pole(
        fam, np.random.default_rng(0)), num_starts=2.5)])
def test_size_arguments_are_validated(fam_clifford, call):
    # a pole or start count must be an integer of at least 1, and the
    # probe's pole counts one of at least 0
    with pytest.raises(InputContractError):
        call(fam_clifford)


def test_focal_index_matches_per_point_loop(fam_cartan, fam_nomizu):
    for fam in (fam_cartan, fam_nomizu):
        pole = morse._draw_pole(fam, np.random.default_rng(37))
        for side in (1, -1):
            _eta, Y = morse._focal_circle_points(fam, side, pole)
            proj, dims = loop_focal_tangent_projector(fam, Y)
            indices, margins = morse._focal_index(fam, side, pole.coords, Y,
                                                  fam.polynomial.value(Y))
            chart = projector_chart(proj, dims[0])
            want_i, want_m = [], []
            for k in range(len(Y)):  # one retraction batch per point
                eig = np.linalg.eigvalsh(loop_chart_hessians(
                    fam, side, pole.coords, Y[k:k + 1], chart[k:k + 1],
                    accept=1e-8)[0])
                want_i.append(int(np.sum(eig > 0)))
                want_m.append(np.abs(eig).min() / np.abs(eig).max())
            assert indices == want_i, (fam.label, side)
            # regrouping the retraction batch moves last bits only
            assert np.allclose(margins, want_m, rtol=1e-6, atol=0), \
                (fam.label, side, margins, want_m)


def loop_classify(fam, s, p, X, degenerate_threshold=morse._DEGENERATE_REPORT):
    # the former per-point classifier, kept as an oracle for `_classify`:
    # surface_point with its Gram-Schmidt frame, the clustered spectrum_at,
    # index_via_focal_count and one eigvalsh per point
    hessians, ts = morse._hessian_stencil(fam, s, p, X)
    out = []
    for k in range(len(X)):
        t = float(ts[k])
        eig = np.linalg.eigvalsh(-hessians[k] / max(np.sin(t), 1e-12))
        max_abs, min_abs = float(np.abs(eig).max()), float(np.abs(eig).min())
        degenerate = (max_abs < morse._HESSIAN_FLOOR
                      or min_abs < degenerate_threshold * max_abs)
        sp = surface_point(fam, SpherePoint(X[k]), level=s)
        try:
            index_f = index_via_focal_count(SpherePoint(p), sp,
                                            spectrum_at(sp))
        except NearFocalPoleError:
            index_f, degenerate = None, True
        out.append(morse.CriticalPoint(
            location=sp.x, t=t, index_hessian=int(np.sum(eig < 0)),
            index_focal=index_f, degenerate=bool(degenerate),
            min_abs_hessian_eig=min_abs,
            hessian_margin=min_abs / max_abs if max_abs > 0 else 0.0))
    out.sort(key=lambda cp: cp.t)
    return out


def fields(cps):
    return [(cp.to_dict(), cp.min_abs_hessian_eig) for cp in cps]


def test_classify_matches_per_point_loop():
    # the batched classifier reads other tangent frames and unclustered
    # curvatures; both index witnesses are frame-invariant, so every field
    # must come out as the per-point loop's
    rng = np.random.default_rng(61)
    cases = ((catalog("clifford", k=1, n=3), 0.3),
             (catalog("cartan-cubic"), 0.2),
             (catalog("nomizu-quartic", n=2), 0.3),
             (catalog("nomizu-quartic", n=3), 0.3),
             (catalog("clifford", k=2, n=7), 0.3))
    for fam, s in cases:
        for _ in range(2):
            pole = morse._draw_pole(fam, rng)
            X = np.array([sp.x.coords for sp in normal_circle_critical_points(
                fam, s, pole, classify=False)])
            got = morse._classify(fam, s, pole.coords, X)
            assert fields(got) == fields(loop_classify(fam, s, pole.coords, X))
            assert all(cp.index_focal == cp.index_hessian for cp in got)
        # a focal pole: a cloud of degenerate critical points
        p = project_to_level(fam, 1.0, SpherePoint(
            rng.normal(size=fam.ambient_dim))).x.coords
        starts, ok = _project_batch(fam, s,
                                    rng.normal(size=(24, fam.ambient_dim)))[:2]
        sols, rnorm, _diag = morse._newton_multistart(fam, s, p, starts[ok])
        unique = morse._dedup(fam, sols, rnorm)
        got = morse._classify(fam, s, p, unique, morse._DEGENERATE_PROBE)
        assert len(got) > 0 and all(cp.degenerate for cp in got), fam.label
        assert fields(got) == fields(loop_classify(
            fam, s, p, unique, morse._DEGENERATE_PROBE)), fam.label


def test_classify_builds_one_batch_of_shape_operators(fam_nomizu,
                                                      monkeypatch):
    # one frame batch serves both witnesses; the shape operators come from
    # one Hessian-bank call and are never clustered point by point
    pole = morse._draw_pole(fam_nomizu, np.random.default_rng(67))
    X = np.array([sp.x.coords for sp in normal_circle_critical_points(
        fam_nomizu, 0.3, pole, classify=False)])
    counts = {"hessian": 0, "frames": 0, "clusters": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(CMPolynomial, "hessian",
                        counting("hessian", CMPolynomial.hessian))
    monkeypatch.setattr(morse, "_frames_batch",
                        counting("frames", morse._frames_batch))
    monkeypatch.setattr(shape, "principal_curvatures",
                        counting("clusters", shape.principal_curvatures))
    cps = morse._classify(fam_nomizu, 0.3, pole.coords, X)
    assert counts == {"hessian": 1, "frames": 1, "clusters": 0}
    assert len(cps) == len(X)


def test_classify_rejects_points_off_the_level(fam_nomizu):
    pole = morse._draw_pole(fam_nomizu, np.random.default_rng(71))
    X = np.array([sp.x.coords for sp in normal_circle_critical_points(
        fam_nomizu, 0.3, pole, classify=False)])
    with pytest.raises(InputContractError, match="off the level"):
        morse._classify(fam_nomizu, 0.3 + 1e-9, pole.coords, X)


def test_reports_need_a_pole(fam_clifford):
    for num_poles in (0, -3):
        with pytest.raises(InputContractError):
            tightness_report(fam_clifford, 0.3, num_poles=num_poles)
        with pytest.raises(InputContractError):
            focal_tautness_report(fam_clifford, 1, num_poles=num_poles)


@pytest.mark.parametrize("side", [1.5, "1", 0, 2, None])
def test_focal_report_refuses_a_side_other_than_plus_or_minus_one(
        fam_clifford, side):
    with pytest.raises(InputContractError, match="side"):
        focal_tautness_report(fam_clifford, side, num_poles=1)


def record_eigh(monkeypatch):
    # the row counts of every np.linalg.eigh call
    rows = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        rows.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return rows


def assert_matches_pinv(jac, rhs):
    got = morse._pinv_solve(jac, rhs)
    want = (np.linalg.pinv(jac, rcond=1e-12) @ rhs[:, :, None])[:, :, 0]
    bound = 1e-10 * np.abs(want).max(axis=1)
    assert (np.abs(got - want).max(axis=1) <= bound).all()
    return got


def diagonal_batch(rng, n, conds):
    # diagonal rows whose smallest |eigenvalue| is the largest one divided
    # by `conds`: every solver is exact on them, while on a rotated matrix of
    # condition kappa each backward-stable one, eigh and pinv's svd
    # included, differs from the others by about eps * kappa
    scale = 10.0 ** rng.uniform(-3, 3, size=(len(conds), 1))
    lam = scale * rng.choice((-1.0, 1.0), size=(len(conds), n)) \
        * rng.uniform(0.1, 1.0, size=(len(conds), n))
    lam[:, 0] = scale[:, 0]
    lam[:, -1] = scale[:, 0] / np.asarray(conds)
    lam = np.take_along_axis(lam, np.argsort(rng.random(lam.shape)), 1)
    return lam[:, :, None] * np.eye(n)


def test_pinv_solve_matches_the_pinv_oracle(monkeypatch):
    # symmetric batches with exact zero eigenvalues and eigenvalues 1e-15
    # below the largest, both under pinv's rcond=1e-12 cut, and one zero
    # matrix; the kept eigenvalues stay within a factor 10 of the largest.
    # The zero matrix makes `inv` raise, so the whole batch takes eigh.
    eigh_rows = record_eigh(monkeypatch)
    rng = np.random.default_rng(83)
    for n in (1, 2, 4, 7, 14):
        q = np.linalg.qr(rng.normal(size=(40, n, n)))[0]
        scale = 10.0 ** rng.uniform(-3, 3, size=(40, 1))
        lam = scale * rng.choice((-1.0, 1.0), size=(40, n)) \
            * rng.uniform(0.1, 1.0, size=(40, n))
        lam[:, 0] = scale[:, 0]
        lam[1::4, -1] = 0.0
        lam[2::4, -1] = 1e-15 * scale[2::4, 0]
        lam[3::8, 1:] = 0.0
        lam[-1] = 0.0
        jac = (q * lam[:, None, :]) @ np.swapaxes(q, 1, 2)
        jac = 0.5 * (jac + np.swapaxes(jac, 1, 2))
        rhs = rng.normal(size=(40, n))
        eigh_rows.clear()
        got = assert_matches_pinv(jac, rhs)
        assert not got[-1].any()
        assert eigh_rows == [40], n
        # well-conditioned rows (kappa_2 <= 10) are inverted, diagonal rows
        # at kappa_2 = 1e8 too, and rows at 1e10 < kappa_2 < 1e12, which
        # pinv keeps whole but whose kappa_F exceeds 1e10, take eigh (a
        # 1 x 1 row has condition 1)
        good = np.abs(lam).min(axis=1) >= 0.1 * scale[:, 0]
        near = diagonal_batch(rng, n, [1e8] * 6)
        far = diagonal_batch(rng, n, [2e10, 1e11, 5e11, 9e11])
        mixed = np.concatenate([jac[good], near, far])
        rhs = rng.normal(size=(len(mixed), n))
        eigh_rows.clear()
        assert_matches_pinv(mixed[:-len(far)], rhs[:-len(far)])
        assert eigh_rows == [], n
        assert_matches_pinv(mixed, rhs)
        assert eigh_rows == ([] if n == 1 else [len(far)]), n
    # an exactly singular matrix among well-conditioned ones: `inv` raises
    # and every row of the batch takes eigh
    batch = np.concatenate([diagonal_batch(rng, 3, [2.0] * 5),
                            np.diag([1.0, 0.0, 2.0])[None]])
    eigh_rows.clear()
    got = assert_matches_pinv(batch, rng.normal(size=(6, 3)))
    assert eigh_rows == [6] and got[-1, 1] == 0.0


def test_tightness_newton_takes_no_eigh_fallback(fam_nomizu, monkeypatch):
    # a non-focal pole's Newton Jacobians are certified well conditioned, so
    # every step is one batched inverse; a focal pole's critical manifold
    # still sends its singular rows through the pinv fallback
    eigh_rows = record_eigh(monkeypatch)
    solve, inside = morse._pinv_solve, []

    def tracking(jac, rhs):
        mark = len(eigh_rows)
        out = solve(jac, rhs)
        inside.append(sum(eigh_rows[mark:]))
        return out

    monkeypatch.setattr(morse, "_pinv_solve", tracking)
    assert tightness_report(fam_nomizu, 0.3, num_poles=2, seed=3).passed
    assert inside and sum(inside) == 0
    inside.clear()
    assert totally_focal_probe(fam_nomizu, 0.3, seed=3, num_nonfocal=1,
                               num_focal=1)["pass"]
    assert sum(inside) > 0


def test_newton_residual_reads_the_retraction_jet(fam_nomizu, monkeypatch):
    # within one _newton_multistart: each retraction pass makes one
    # gradient-bank call (one `_normalize_rows` of the moved rows), no value
    # call anywhere, one Hessian-bank call per step (the Jacobian), and the
    # residual that follows a retraction builds its frames from the jet it
    # is handed, with no bank call of its own
    log, checked = [], []
    for kind in ("value", "gradient", "hessian"):
        def logging(self, x, _bank=getattr(CMPolynomial, kind), _kind=kind):
            log.append(_kind)
            return _bank(self, x)
        monkeypatch.setattr(CMPolynomial, kind, logging)
    normalize, retract = levelset._normalize_rows, morse._project_batch
    frames_batch = morse._frames_batch

    def normalizing(x):
        log.append("pass")
        return normalize(x)

    def retracting(*args):
        log.append("retract")
        out = retract(*args)
        log.append("retracted")
        return out

    def framing(fam, rows, jet=None):
        log.append("frames")
        out = frames_batch(fam, rows, jet)
        log.append("framed")
        if jet is not None:
            mark = len(log)
            xi, _t, vals, _wn = frames_batch(fam, rows)
            del log[mark:]
            checked.append(max(np.abs(out[0] - xi).max(),
                               np.abs(out[2] - vals).max()))
        return out

    monkeypatch.setattr(levelset, "_normalize_rows", normalizing)
    monkeypatch.setattr(morse, "_project_batch", retracting)
    monkeypatch.setattr(morse, "_frames_batch", framing)
    rng = np.random.default_rng(97)
    pole = morse._draw_pole(fam_nomizu, rng)
    starts, ok = _project_batch(fam_nomizu, 0.3, rng.normal(
        size=(120, fam_nomizu.ambient_dim)))[:2]
    log.clear()
    sols, _rnorm, kept = morse._newton_multistart(fam_nomizu, 0.3,
                                                  pole.coords, starts[ok])
    assert kept.tolist() == list(range(ok.sum())) and len(sols)
    assert "value" not in log
    text = " ".join(log)
    steps = text.split(" framed ")
    # the first residual evaluates its own jet; then every step is the
    # Jacobian's Hessian call, the retraction, and a bank-free residual
    assert steps[0] == "frames gradient" and len(steps) > 1
    for step in steps[1:]:
        head, _, rest = step.partition(" retract ")
        assert head == "hessian", step
        passes, _, tail = rest.rpartition(" retracted ")
        assert tail.removesuffix(" framed") == "frames", step
        words = passes.split()
        assert words and words == ["pass", "gradient"] * (len(words) // 2), \
            step
    assert len(checked) == len(steps) - 1 and max(checked) <= 1e-15


def test_reports_factor_no_matrix_by_svd_or_qr(fam_nomizu, monkeypatch):
    # frames come from Householder reflections and Newton steps from one
    # batched inverse, or a symmetric eigensolve where its condition bound
    # is not certified
    def banned(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} called")
        return raiser

    for module in (np.linalg, getattr(np.linalg, "_linalg", np.linalg)):
        for name in ("svd", "pinv", "qr"):
            monkeypatch.setattr(module, name, banned(name))
    assert tightness_report(fam_nomizu, 0.3, num_poles=2, seed=3).passed
    for side in (1, -1):
        assert focal_tautness_report(fam_nomizu, side, num_poles=1,
                                     seed=3).passed
    assert totally_focal_probe(fam_nomizu, 0.3, seed=3, num_nonfocal=1,
                               num_focal=2)["pass"]



def loop_normal_circle(fam, s, pole):
    # the former circle route, kept as an oracle for `_normal_circle`: the
    # closed-form arc positions polished one at a time, by secant steps on
    # V - s on a level and by Newton on dV/dtau on a focal sheet
    p, g = pole.coords, fam.g
    w = spherical_gradient(fam, pole)
    eta = w / np.linalg.norm(w)
    psi0 = float(np.arccos(np.clip(fam.polynomial.value(p), -1.0, 1.0))) / g
    beta = float(np.arccos(s))
    offsets = (beta,) if abs(s) == 1.0 else (beta, -beta)
    taus = [psi0 - (offset + 2 * np.pi * j) / g
            for j in range(-g - 1, g + 2) for offset in offsets]
    taus = sorted(set(np.round([t for t in taus if -np.pi < t <= np.pi], 14)))
    out = []
    for tau in taus:
        x = np.cos(tau) * p + np.sin(tau) * eta
        for _ in range(2 if abs(s) < 1.0 else 3):
            dtan = -np.sin(tau) * p + np.cos(tau) * eta
            slope = float(fam.polynomial.gradient(x) @ dtan)
            val = float(fam.polynomial.value(x))
            if abs(s) < 1.0:
                if abs(slope) < 1e-9:
                    break
                tau -= (val - s) / slope
            else:
                curv = float(dtan @ fam.polynomial.hessian(x) @ dtan) - g * val
                if abs(curv) < 1e-9:
                    break
                tau -= slope / curv
            x = np.cos(tau) * p + np.sin(tau) * eta
        out.append(x)
    return eta, np.array(out)


CIRCLE_FAMILIES = (("great-sphere", {"n": 3}, 0.4),
                   ("clifford", {"k": 1, "n": 2}, 0.3),
                   ("cartan-cubic", {}, 0.2),
                   ("nomizu-quartic", {"n": 2}, 0.3))


def test_normal_circle_matches_per_tau_loop():
    rng = np.random.default_rng(89)
    for label, params, s in CIRCLE_FAMILIES:
        fam = catalog(label, **params)
        for _ in range(3):
            pole = morse._draw_pole(fam, rng)
            for level in (s, 1.0, -1.0):
                eta, X = morse._normal_circle(fam, level, pole)
                want_eta, want = loop_normal_circle(fam, level, pole)
                count = fam.g if abs(level) == 1.0 else 2 * fam.g
                assert X.shape == want.shape == (count, fam.ambient_dim)
                assert np.abs(eta - want_eta).max() <= 1e-15, (label, level)
                assert np.abs(X - want).max() <= 1e-13, (label, level)
                # the polish moves points only along the pole's circle
                plane = np.stack([pole.coords, eta])
                assert np.abs(X - X @ plane.T @ plane).max() <= 1e-13
                if abs(level) < 1.0:
                    assert np.abs(fam.polynomial.value(X) - level).max() \
                        <= 1e-14, label
                else:
                    assert np.linalg.norm(spherical_gradient(fam, X),
                                          axis=1).max() <= 1e-11, label


def test_normal_circle_polishes_in_one_batch(monkeypatch):
    # apart from the jet at the pole, one gradient-bank call, every bank
    # call of the circle route evaluates all of its points at once: on a
    # level two passes of a gradient and a value call, on a sheet at most
    # four tangency passes of one jet and one Hessian call
    calls = []
    for kind in ("value", "gradient", "hessian"):
        def recording(self, x, _bank=getattr(CMPolynomial, kind)):
            calls.append(np.array(x, copy=True))
            return _bank(self, x)
        monkeypatch.setattr(CMPolynomial, kind, recording)
    rng = np.random.default_rng(91)
    for label, params, s in CIRCLE_FAMILIES:
        fam = catalog(label, **params)
        pole = morse._draw_pole(fam, rng)
        p = pole.coords
        for level in (s, 1.0, -1.0):
            calls.clear()
            _eta, X = morse._normal_circle(fam, level, pole)
            assert calls[0].shape == (1, len(p))
            assert np.array_equal(calls[0][0], p)
            rest = calls[1:]
            assert all(x.shape == X.shape for x in rest), (label, level)
            budget = 4 if abs(level) < 1.0 else 2 * 4
            assert 0 < len(rest) <= budget, (label, level, len(rest))


def test_focal_retraction_and_circle_share_one_tangency_newton(fam_nomizu,
                                                               monkeypatch):
    calls = []
    tangency = levelset._circle_tangency

    def counting(fam, base, eta, tau):
        calls.append(len(tau))
        return tangency(fam, base, eta, tau)

    monkeypatch.setattr(levelset, "_circle_tangency", counting)
    monkeypatch.setattr(morse, "_circle_tangency", counting)
    rng = np.random.default_rng(93)
    for side in (1, -1):
        _Y, ok, _vals = levelset._project_focal_batch(
            fam_nomizu, side, rng.normal(size=(12, fam_nomizu.ambient_dim)))
        assert ok.all() and calls, side
    calls.clear()
    pole = morse._draw_pole(fam_nomizu, rng)
    for side in (1, -1):
        morse._focal_circle_points(fam_nomizu, side, pole)
    assert calls == [fam_nomizu.g] * 2


def test_newton_entries_share_one_route(fam_clifford, monkeypatch):
    # every entry solves through `_newton_route`, one batch per call here;
    # `seen` holds one list per call, one entry per pole
    seen = []
    route = morse._newton_route

    def recording(fam, s, poles, raw):
        seen.append([(float(fam.polynomial.value(p)), len(r), s)
                     for p, r in zip(poles, raw)])
        return route(fam, s, poles, raw)

    monkeypatch.setattr(morse, "_newton_route", recording)
    pole = torus_pole(13)
    critical_points_newton(fam_clifford, 0.3, pole, seed=2)
    assert seen == [[(float(fam_clifford.polynomial.value(pole.coords)),
                      120, 0.3)]]
    seen.clear()
    totally_focal_probe(fam_clifford, 0.3, seed=4, num_nonfocal=1,
                        num_focal=2)
    # one batch: one non-focal pole, two focal poles, then the boundary pole
    assert len(seen) == 1 and len(seen[0]) == 4
    entries = seen[0]
    assert all(s == 0.3 for _v, _n, s in entries)
    assert abs(entries[0][0]) <= 1.0 - morse._POLE_MARGIN
    assert [abs(abs(v) - 1.0) <= 1e-12
            for v, _n, _s in entries[1:3]] == [True] * 2
    assert 1e-12 < 1.0 - abs(entries[3][0]) < 1e-6
    # every pole of the probe takes its num_starts starts
    seen.clear()
    totally_focal_probe(fam_clifford, 0.3, seed=4, num_nonfocal=2,
                        num_focal=2, num_starts=12)
    assert [[n for _v, n, _s in call] for call in seen] == [[12] * 5]
    # the focal report solves on the sheet through the same route
    for side in (1, -1):
        seen.clear()
        focal_tautness_report(fam_clifford, side, num_poles=2, seed=5,
                              starts_per_pole=12)
        assert [[(n, s) for _v, n, s in call] for call in seen] == [
            [(12, float(side))] * 2]
    # and the tightness report through one batch of its two poles
    seen.clear()
    tightness_report(fam_clifford, 0.3, num_poles=2, seed=5)
    assert [[(n, s) for _v, n, s in call] for call in seen] == [
        [(120, 0.3)] * 2]


def test_focal_report_evaluates_its_circle_points_once(fam_nomizu,
                                                       monkeypatch):
    # one value call per pole on the circle points serves both the index
    # witness and the level residual
    circles, calls = [], []
    circle_points, value = morse._focal_circle_points, CMPolynomial.value
    monkeypatch.setattr(morse, "_focal_circle_points", lambda *args: (
        circles.append(circle_points(*args)) or circles[-1]))
    monkeypatch.setattr(CMPolynomial, "value", lambda self, x: (
        calls.append(np.array(x, copy=True)) or value(self, x)))
    for side in (1, -1):
        circles.clear()
        calls.clear()
        focal_tautness_report(fam_nomizu, side, num_poles=1, seed=3)
        circle_x = circles[-1][1]
        assert sum(np.array_equal(x, circle_x) for x in calls) == 1, side


def test_probe_margins_over_no_point_are_null(fam_clifford, monkeypatch):
    # a margin taken over no point is null, never inf or nan, so the probe
    # stays JSON: no non-focal pole, then poles whose routes find nothing
    probe = totally_focal_probe(fam_clifford, 0.3, num_nonfocal=0,
                                num_focal=0)
    assert probe["nonfocal"]["min_margin"] is None
    assert probe["focal"]["max_margin"] is None
    json.dumps(probe, allow_nan=False)
    monkeypatch.setattr(morse, "_newton_route", lambda fam, s, poles, raw: (
        [np.empty((0, fam.ambient_dim))] * len(poles)))
    probe = totally_focal_probe(fam_clifford, 0.3, num_nonfocal=1,
                                num_focal=1)
    assert [probe[k][m] for k, m in (("nonfocal", "min_margin"),
                                     ("focal", "max_margin"),
                                     ("boundary", "min_margin"))] == [None] * 3
    assert not probe["pass"]
    json.dumps(probe, allow_nan=False)


def test_probe_needs_a_nonfocal_pole_to_pass(fam_clifford):
    # num_nonfocal=0 is allowed and its focal poles are all degenerate, but
    # a probe that checked no non-focal pole does not pass
    probe = totally_focal_probe(fam_clifford, 0.3, seed=4, num_nonfocal=0,
                                num_focal=1)
    assert probe["nonfocal"]["poles"] == 0
    assert probe["focal"]["degenerate_points"] == probe["focal"]["points"] > 0
    assert not probe["mixed_failures"] and not probe["pass"]
    assert totally_focal_probe(fam_clifford, 0.3, seed=4, num_nonfocal=1,
                               num_focal=1)["pass"]


def test_probe_names_each_mixed_pole_by_kind(fam_clifford, monkeypatch):
    # one point flipped on the first non-focal pole and one on the focal
    # pole: each pole then mixes degenerate and non-degenerate points, and
    # both are named, non-focal first
    classify, seen = morse._classify_poles, []

    def flip_one(fam, s, poles, points, threshold):
        seen.append(poles)
        out = classify(fam, s, poles, points, threshold)
        for k in (0, 2):  # the first non-focal pole, the focal pole
            out[k][0] = dataclasses.replace(
                out[k][0], degenerate=not out[k][0].degenerate)
        return out

    monkeypatch.setattr(morse, "_classify_poles", flip_one)
    probe = totally_focal_probe(fam_clifford, 0.3, seed=4, num_nonfocal=2,
                                num_focal=1)
    (poles,) = seen
    assert probe["mixed_failures"] == [
        {"pole": poles[0].tolist(), "kind": "non-focal"},
        {"pole": poles[2].tolist(), "kind": "focal"}]
    assert probe["nonfocal"]["degenerate_points"] == 1
    assert (probe["focal"]["points"], probe["focal"]["degenerate_points"]) == (
        120, 119)
    assert not probe["pass"]


def test_probe_without_usable_starts_is_a_sampling_error(fam_clifford,
                                                          monkeypatch):
    project = morse._project_batch

    def no_level_starts(fam, s, points, **kwargs):
        X, ok, *handed = project(fam, s, points, **kwargs)
        return X, ok & (abs(s) == 1.0), *handed

    monkeypatch.setattr(morse, "_project_batch", no_level_starts)
    with pytest.raises(SamplingError, match="no usable Newton starts"):
        totally_focal_probe(fam_clifford, 0.3, seed=4, num_nonfocal=0,
                            num_focal=1)


def test_focal_report_without_usable_starts_is_a_sampling_error(
        fam_clifford, monkeypatch):
    project = morse._project_batch

    def no_starts(fam, s, points, **kwargs):
        X, ok, *handed = project(fam, s, points, **kwargs)
        return X, np.zeros_like(ok), *handed

    monkeypatch.setattr(morse, "_project_batch", no_starts)
    for side in (1, -1):
        with pytest.raises(SamplingError, match="no usable Newton starts"):
            focal_tautness_report(fam_clifford, side, num_poles=1, seed=6)


@pytest.mark.parametrize("label, params, s", [
    ("clifford", {"k": 1, "n": 2}, 0.0),
    ("nomizu-quartic", {"n": 2}, 0.3),
    ("cartan-cubic", {}, 0.2)])
def test_level_flow_ends_at_the_extremes_of_a_height_function(label, params,
                                                              s):
    # tightness: the height function l_p has one local minimum and one
    # local maximum on M_s, so every descent and every ascent from a point
    # of M_s ends at the lowest and the highest of the circle route's
    # critical points
    fam = catalog(label, **params)
    pole = morse._draw_pole(fam, np.random.default_rng(61))
    p = pole.coords
    crit = np.array([sp.x.coords for sp in normal_circle_critical_points(
        fam, s, pole, classify=False)])
    starts = np.array([sp.x.coords for sp in sample_points(fam, s, 8, 5)])

    def gradient(X):
        xi = _normalize_rows(levelset._level_jet(fam, X)[1])
        return morse._tangential_residual(p, X, xi)

    for sign, target in ((-1.0, crit[np.argmin(crit @ p)]),
                         (1.0, crit[np.argmax(crit @ p)])):
        ends = morse._level_flow(fam, s, starts, lambda X: X @ p, gradient,
                                 sign)
        assert np.abs(fam.polynomial.value(ends) - s).max() <= 1e-12, label
        assert np.linalg.norm(ends - target, axis=1).max() <= 1e-6, \
            (label, sign)


# -- pole batches --------------------------------------------------------

BATCH_FAMILIES = (("clifford", {"k": 1, "n": 2}), ("cartan-cubic", {}),
                  ("nomizu-quartic", {"n": 2}))


def batched_reports(fam, seed):
    """The tightness report at the level 0.3, the focal reports on both
    sheets, each at 3 poles, and the probe at 3 poles (non-focal, focal,
    boundary), as JSON-ready dicts."""
    return {"tight": tightness_report(fam, 0.3, num_poles=3,
                                      seed=seed).to_dict(),
            **{f"focal {side:+d}": focal_tautness_report(
                fam, side, num_poles=3, seed=seed).to_dict()
               for side in (1, -1)},
            "probe": totally_focal_probe(fam, 0.3, seed=seed,
                                         num_nonfocal=1, num_focal=1)}


def leaves(obj, path=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


@pytest.mark.parametrize("label, params", BATCH_FAMILIES)
def test_pole_batches_change_no_count(label, params, monkeypatch):
    # the same draws solved as one 3-pole batch and as three one-pole
    # batches: every count, index, flag, ladder and label is equal, points
    # agree to 1e-12 and the other floats (margins, residuals) to 1e-9; a
    # pole's last bits may depend on its batch, but a rerun is
    # byte-identical
    fam = catalog(label, **params)
    batched = batched_reports(fam, 7)
    assert json.dumps(batched_reports(fam, 7)) == json.dumps(batched)
    routes = []
    route = morse._newton_route
    monkeypatch.setattr(morse, "_newton_route", lambda fam, s, poles, raw: (
        routes.append(len(poles)) or route(fam, s, poles, raw)))
    monkeypatch.setattr(morse, "_round_size", lambda fam, num_starts: 1)
    single = batched_reports(fam, 7)
    assert routes == [1] * 12
    for name, report in batched.items():
        got, want = list(leaves(report)), list(leaves(single[name]))
        assert [p for p, _ in got] == [p for p, _ in want], name
        for (path, a), (_, b) in zip(got, want):
            if not isinstance(a, float):
                assert a == b, (name, path)
            elif ".coords[" in path:
                assert abs(a - b) <= 1e-12, (name, path, a, b)
            else:
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), (name, path)


def level_poles(fam, s, on_level):
    """`morse._draw_pole` with its k-th draw (from 1) moved onto M_s by
    `project_to_level` where `on_level(k)`: such a pole's normal circle
    meets M_s at the pole itself, t = 0."""
    draw, numbers = morse._draw_pole, itertools.count(1)

    def drawing(fam_, rng):
        pole = draw(fam_, rng)
        return project_to_level(fam, s, pole).x if on_level(next(numbers)) \
            else pole
    return drawing


def serial_tightness(fam, s, num_poles, seed):
    """The pole-by-pole tightness loop, which decides each pole on its
    normal circle before solving it: a focal pole, or one with a circle
    point within 1e-8 of the pole or its antipode, is rejected.  Returns
    (accepted poles, their Newton seeds, rejected pole count)."""
    rng = seeded_rng(seed, 0x7161)
    poles, seeds, rejected = [], [], 0
    while len(poles) < num_poles:
        pole = morse._draw_pole(fam, rng)
        try:
            circle = normal_circle_critical_points(fam, s, pole,
                                                   classify=False)
        except PoleIsFocalError:
            rejected += 1
            continue
        antipode = SpherePoint(-pole.coords)
        if min(min(spherical_distance(pole, cp.x),
                   spherical_distance(antipode, cp.x)) for cp in circle) < 1e-8:
            rejected += 1
            continue
        seeds.append(seed + len(poles))
        poles.append(pole.coords.tolist())
    return poles, seeds, rejected


def test_mid_round_rejection_keeps_the_serial_poles_and_seeds(fam_cartan,
                                                             monkeypatch):
    # the second pole lies on M_s: it is rejected on its normal circle, and
    # the report solves the other three once, in one Newton batch, with the
    # poles and seeds of a pole-by-pole loop
    def second_on_level(k):
        return k == 2

    monkeypatch.setattr(morse, "_draw_pole",
                        level_poles(fam_cartan, 0.2, second_on_level))
    poles, seeds, rejected = serial_tightness(fam_cartan, 0.2, 3, 11)
    assert rejected == 1
    monkeypatch.setattr(morse, "_draw_pole",
                        level_poles(fam_cartan, 0.2, second_on_level))
    route, calls = morse._newton_route, []

    def solving(fam, s, batch, raw):
        calls.append((batch.tolist(), raw))
        return route(fam, s, batch, raw)

    monkeypatch.setattr(morse, "_newton_route", solving)
    report = tightness_report(fam_cartan, 0.2, num_poles=3, seed=11)
    assert [entry["pole"] for entry in report.poles] == poles
    assert [batch for batch, _ in calls] == [poles]
    for raw, seed in zip(calls[0][1], seeds, strict=True):
        assert np.array_equal(raw, morse._newton_draws(
            fam_cartan, seed, 60 * fam_cartan.g))
    assert report.rejected_poles == 1 and report.passed


def test_poles_on_the_level_are_rejected_on_their_circle(all_families,
                                                         monkeypatch):
    # every other drawn pole lies on M_s: none takes a Newton start, and
    # only the others are certified
    route = morse._newton_route
    for fam in all_families:
        routed = []

        def solving(fam_, s, poles, raw):
            routed.extend(poles)
            return route(fam_, s, poles, raw)

        with monkeypatch.context() as patch:
            patch.setattr(morse, "_draw_pole",
                          level_poles(fam, 0.3, lambda k: k % 2))
            patch.setattr(morse, "_newton_route", solving)
            report = tightness_report(fam, 0.3, num_poles=3, seed=5)
        assert report.passed and report.rejected_poles == 3, fam.label
        assert len(routed) == 3, fam.label
        assert (np.abs(fam.polynomial.value(np.array(routed)) - 0.3)
                > 1e-3).all(), fam.label


def counting(monkeypatch, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def wrapped(*args, _fn=getattr(morse, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(morse, name, wrapped)
    return counts


def test_each_report_makes_one_solve_per_round(fam_nomizu, monkeypatch):
    # one Newton batch per round, all Newton points classified in one call
    # and all circle points in another
    counts = counting(monkeypatch, "_newton_multistart", "_focal_newton",
                      "_classify", "_focal_index")
    assert tightness_report(fam_nomizu, 0.3, num_poles=5, seed=3).passed
    assert counts == {"_newton_multistart": 1, "_focal_newton": 0,
                      "_classify": 2, "_focal_index": 0}
    counts.update(dict.fromkeys(counts, 0))
    assert totally_focal_probe(fam_nomizu, 0.3, seed=3, num_nonfocal=2,
                               num_focal=2)["pass"]
    assert counts == {"_newton_multistart": 1, "_focal_newton": 0,
                      "_classify": 1, "_focal_index": 0}
    counts.update(dict.fromkeys(counts, 0))
    assert focal_tautness_report(fam_nomizu, 1, num_poles=3, seed=3).passed
    assert counts == {"_newton_multistart": 0, "_focal_newton": 1,
                      "_classify": 0, "_focal_index": 1}


def test_rounds_cap_the_start_rows(fam_nomizu, monkeypatch):
    # a round holds at most 2^20 start rows x D^2, and at least one pole
    assert morse._round_size(fam_nomizu, 240) == 2 ** 20 // (240 * 36)
    assert morse._round_size(fam_nomizu, 2 ** 20) == 1
    monkeypatch.setattr(morse, "_ROUND_ROWS", 2 * 240 * 36)
    counts = counting(monkeypatch, "_newton_multistart", "_classify")
    assert tightness_report(fam_nomizu, 0.3, num_poles=5, seed=3).passed
    assert counts == {"_newton_multistart": 3, "_classify": 6}
