"""Level hypersurface machinery: projection, frames, sampling."""

import numpy as np
import pytest

from isolab import (InputContractError, SpherePoint, StartAtFocalError,
                    catalog, critical_points_newton,
                    euclidean_taut_spot_check, export_mesh,
                    isoparametric_check, normal_circle_critical_points,
                    project_to_level, sample_points, spherical_gradient,
                    surface_point, tightness_report, totally_focal_probe)
from isolab import levelset
from isolab.levelset import (_frames_batch, _householder_frames,
                             _normalize_rows, _project_batch, _row_norms)
from isolab.polynomial import CMPolynomial


HYPERSURFACE_POLE = SpherePoint(np.array([0.12, 0.23, 0.34, 0.90]))


@pytest.mark.parametrize("call", [
    lambda fam, s: critical_points_newton(fam, s, HYPERSURFACE_POLE),
    lambda fam, s: normal_circle_critical_points(fam, s, HYPERSURFACE_POLE),
    lambda fam, s: tightness_report(fam, s, num_poles=1),
    lambda fam, s: totally_focal_probe(fam, s, num_nonfocal=0, num_focal=1),
    lambda fam, s: isoparametric_check(fam, s, num_samples=1),
    lambda fam, s: export_mesh(fam, s, HYPERSURFACE_POLE),
    lambda fam, s: euclidean_taut_spot_check(fam, s, HYPERSURFACE_POLE,
                                             num_centers=1)])
@pytest.mark.parametrize("s", [1 - 1e-15, -1 + 1e-15])
def test_hypersurface_entry_points_refuse_a_focal_sheet(fam_clifford, call,
                                                        s):
    # a level within 1e-14 of +/-1 is a focal sheet: the one decision of
    # `_is_focal`, which every hypersurface entry point reads
    assert levelset._is_focal(s)
    with pytest.raises(InputContractError, match="levels live in"):
        call(fam_clifford, s)


def test_gradient_norm_identity(all_families):
    # |grad_S V|^2 = g^2 (1 - V^2): both defining identities restricted to
    # the unit sphere (derived once, checked numerically everywhere)
    rng = np.random.default_rng(0)
    for fam in all_families:
        x = rng.normal(size=(300, fam.ambient_dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        w = spherical_gradient(fam, x)
        v = fam.polynomial.value(x)
        lhs = np.einsum("ij,ij->i", w, w)
        rhs = fam.g ** 2 * (1.0 - v ** 2)
        assert np.abs(lhs - rhs).max() < 1e-8


def test_gradient_at_focal_point_vanishes(fam_clifford):
    focal = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.linalg.norm(spherical_gradient(fam_clifford, focal)) < 1e-8


def test_gradient_closed_forms(fam_clifford, fam_great):
    # mid-level of the torus family: |grad_S V| = g sqrt(1 - 0) = 2
    x = SpherePoint(np.array([0.5, 0.5, 0.5, 0.5]))
    assert abs(np.linalg.norm(spherical_gradient(fam_clifford, x)) - 2.0) < 1e-12
    # height function at its equator: unit gradient
    eq = SpherePoint(np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    assert abs(np.linalg.norm(spherical_gradient(fam_great, eq)) - 1.0) < 1e-12


def test_project_to_level_basic(fam_clifford):
    x0 = SpherePoint(np.array([0.9, 0.1, 0.3, 0.2]))
    sp = project_to_level(fam_clifford, 0.0, x0)
    # closed-form membership: both factors at radius 1/sqrt(2)
    assert abs(np.linalg.norm(sp.x.coords[:2]) - np.sqrt(0.5)) < 1e-10
    assert abs(float(fam_clifford.polynomial.value(sp.x.coords))) < 1e-12
    assert abs(np.linalg.norm(sp.xi) - 1.0) < 1e-12
    assert abs(sp.xi @ sp.x.coords) < 1e-12


def test_project_is_idempotent(all_families):
    rng = np.random.default_rng(1)
    for fam in all_families:
        x0 = SpherePoint(rng.normal(size=fam.ambient_dim))
        sp = project_to_level(fam, 0.4, x0)
        sp2 = project_to_level(fam, 0.4, sp.x)
        assert np.linalg.norm(sp2.x.coords - sp.x.coords) < 1e-12


def test_project_residuals_bulk(all_families):
    rng = np.random.default_rng(2)
    for fam in all_families:
        raw = rng.normal(size=(300, fam.ambient_dim))
        out, ok = _project_batch(fam, -0.35, raw)[:2]
        assert ok.all()
        vals = fam.polynomial.value(out)
        assert np.abs(vals + 0.35).max() < 1e-12


def test_project_already_on_level(fam_clifford):
    sp = sample_points(fam_clifford, 0.2, 1, seed=3)[0]
    again = project_to_level(fam_clifford, 0.2, sp.x)
    assert np.linalg.norm(again.x.coords - sp.x.coords) < 1e-12


def test_project_from_focal_start_raises(fam_clifford):
    focal = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(StartAtFocalError):
        project_to_level(fam_clifford, 0.3, focal)


def test_project_to_level_makes_three_bank_calls(fam_nomizu, monkeypatch):
    # the focal-start guard reads one jet at the start and the retraction
    # one jet per pass (two on a genuine family); the point is framed from
    # the retraction's last jet, with no bank call of its own
    log = []
    for kind in ("value", "gradient", "hessian", "laplacian",
                 "hessian_along"):
        def logging(self, *args, _bank=getattr(CMPolynomial, kind),
                    _kind=kind):
            log.append(_kind)
            return _bank(self, *args)
        monkeypatch.setattr(CMPolynomial, kind, logging)
    rng = np.random.default_rng(5)
    for _ in range(4):
        log.clear()
        x0 = SpherePoint(rng.normal(size=fam_nomizu.ambient_dim))
        sp = project_to_level(fam_nomizu, 0.3, x0)
        assert log == ["gradient"] * 3
        ref = surface_point(fam_nomizu, sp.x, level=0.3)
        assert np.abs(sp.xi - ref.xi).max() <= 1e-15
        assert np.abs(sp.tangent_vectors - ref.tangent_vectors).max() <= 1e-15


def test_focal_level_projection(all_families):
    rng = np.random.default_rng(4)
    for fam in all_families:
        for side in (1.0, -1.0):
            sp = project_to_level(fam, side, SpherePoint(rng.normal(size=fam.ambient_dim)))
            assert abs(float(fam.polynomial.value(sp.x.coords)) - side) < 1e-10
            assert sp.xi is None


def test_sample_points_deterministic(fam_cartan):
    a = sample_points(fam_cartan, 0.2, 6, seed=7)
    b = sample_points(fam_cartan, 0.2, 6, seed=7)
    assert all(np.array_equal(p.x.coords, q.x.coords) for p, q in zip(a, b))
    c = sample_points(fam_cartan, 0.2, 6, seed=8)
    assert any(not np.array_equal(p.x.coords, q.x.coords) for p, q in zip(a, c))


def test_sample_points_distinct_and_consistent(fam_nomizu):
    pts = sample_points(fam_nomizu, 0.3, 40, seed=9)
    coords = np.array([p.x.coords for p in pts])
    dots = np.clip(coords @ coords.T, -1, 1)
    np.fill_diagonal(dots, 0.0)
    assert np.arccos(dots).min() > 0.0
    for p in pts:
        assert abs(float(fam_nomizu.polynomial.value(p.x.coords)) - 0.3) < 1e-10
        # frame invariants: orthonormal, orthogonal to both x and xi
        frame = np.vstack([p.tangent_vectors, p.xi])
        gram = frame @ frame.T
        assert np.abs(gram - np.eye(len(frame))).max() < 1e-12
        assert np.abs(frame @ p.x.coords).max() < 1e-12


def test_xi_is_tangentially_critical(fam_cartan):
    # finite differences of V along hypersurface tangent directions vanish
    sp = sample_points(fam_cartan, 0.5, 1, seed=10)[0]
    h = 1e-6
    for t in sp.tangent_vectors:
        plus = sp.x.coords * np.cos(h) + t * np.sin(h)
        minus = sp.x.coords * np.cos(h) - t * np.sin(h)
        d = (fam_cartan.polynomial.value(plus)
             - fam_cartan.polynomial.value(minus)) / (2 * h)
        assert abs(d) < 1e-8


def test_surface_point_level_mismatch(fam_clifford):
    from isolab import InputContractError
    x = SpherePoint(np.array([0.5, 0.5, 0.5, 0.5]))  # V = 0
    with pytest.raises(InputContractError):
        surface_point(fam_clifford, x, level=0.7)


def test_project_batch_settles_at_the_float_floor(fam_nomizu, monkeypatch):
    # tol 1e-16 lies below the float64 spacing of V near s; rows settle at
    # the floor instead of spinning through every iteration.  The
    # retraction reads one jet, one gradient-bank call, per pass
    calls = []
    gradient = CMPolynomial.gradient

    def counting_gradient(self, x):
        calls.append(1)
        return gradient(self, x)

    monkeypatch.setattr(CMPolynomial, "gradient", counting_gradient)
    raw = np.random.default_rng(11).normal(size=(200, fam_nomizu.ambient_dim))
    out, ok = _project_batch(fam_nomizu, 0.3, raw, tol=1e-16, accept=1e-9)[:2]
    assert 0 < len(calls) < levelset._RETRACT_MAX_ITER + 1
    monkeypatch.undo()
    assert ok.all()
    assert np.abs(fam_nomizu.polynomial.value(out) - 0.3).max() <= 1e-15


FRAME_FAMILIES = (("great-sphere", {"n": 3}), ("clifford", {"k": 1, "n": 2}),
                  ("clifford", {"k": 2, "n": 7}), ("cartan-cubic", {}),
                  ("nomizu-quartic", {"n": 2}), ("nomizu-quartic", {"n": 3}))


def qr_frames(X, xi):
    # the former frame construction, kept as an oracle: a batched QR of
    # [x, xi, coordinate axes]
    b, d = X.shape
    cols = np.empty((b, d, d + 2))
    cols[:, :, 0], cols[:, :, 1], cols[:, :, 2:] = X, xi, np.eye(d)
    return np.swapaxes(np.linalg.qr(cols)[0][:, :, 2:d], 1, 2)


def frame_rows(fam, rng):
    # unit rows off the focal set, every third one with x_0 = 0
    X = rng.normal(size=(60, fam.ambient_dim))
    X[::3, 0] = 0.0
    X = _normalize_rows(X)
    return X[np.linalg.norm(spherical_gradient(fam, X), axis=1) > 1e-2]


def assert_frames(T, normals, n):
    # T (B, n, D): orthonormal rows, each orthogonal to every normal (B, D)
    assert T.shape[1] == n
    assert np.abs(T @ np.swapaxes(T, 1, 2) - np.eye(n)).max() <= 1e-14
    for w in normals:
        assert np.abs(T @ w[:, :, None]).max() <= 1e-14


def test_householder_frames_are_orthonormal_tangent_frames():
    rng = np.random.default_rng(73)
    for label, params in FRAME_FAMILIES:
        fam = catalog(label, **params)
        d = fam.ambient_dim
        X = frame_rows(fam, rng)
        assert (X[:, 0] == 0.0).any() and (X[:, 0] < 0.0).any(), label
        xi, T, vals, wn = _frames_batch(fam, X)
        assert_frames(T, (X, xi), d - 2)
        W = spherical_gradient(fam, X)
        jet = fam.polynomial.jet(X)
        assert np.array_equal(vals, jet[0])
        assert np.array_equal(wn, _row_norms(W))
        assert np.array_equal(xi, W / wn[:, None])
        # frames built from a handed-on jet are the same, bit for bit
        for got, want in zip(_frames_batch(fam, X, jet), (xi, T, vals, wn)):
            assert np.array_equal(got, want), label
        assert_frames(_householder_frames(X), (X,), d - 1)
    # coordinate axes: x_0 = 0 and (H1 xi)_1 = 0 take the + sign
    eye = np.eye(5)
    for i, j in ((2, 3), (0, 4), (1, 2), (4, 1), (3, 0)):
        for sx, sxi in ((1, 1), (-1, 1), (1, -1)):
            X, xi = sx * eye[i:i + 1], sxi * eye[j:j + 1]
            assert_frames(_householder_frames(X, xi), (X, xi), 3)
            assert_frames(_householder_frames(X), (X,), 4)
    # near the focal set <x, xi> is roundoff of the size eps / |grad_S V|;
    # the frames stay normal to both x and xi
    X = frame_rows(catalog("nomizu-quartic", n=2), rng)
    W = rng.normal(size=X.shape)
    W -= np.sum(W * X, axis=1)[:, None] * X
    tilted = _normalize_rows(_normalize_rows(W) + 1e-6 * X)
    assert_frames(_householder_frames(X, tilted), (X, tilted), 4)


def test_householder_frames_span_the_qr_frames():
    rng = np.random.default_rng(79)
    for label, params in FRAME_FAMILIES:
        fam = catalog(label, **params)
        X = frame_rows(fam, rng)
        xi, T = _frames_batch(fam, X)[:2]
        want = qr_frames(X, xi)
        proj = np.swapaxes(T, 1, 2) @ T
        assert np.abs(proj - np.swapaxes(want, 1, 2) @ want).max() <= 1e-13
        sph = _householder_frames(X)
        sph_proj = np.eye(fam.ambient_dim) - X[:, :, None] * X[:, None, :]
        assert np.abs(np.swapaxes(sph, 1, 2) @ sph - sph_proj).max() <= 1e-13


def count_bank_calls(monkeypatch, kinds=("value", "gradient", "hessian")):
    calls = dict.fromkeys(kinds, 0)
    for kind in kinds:
        def counting(self, x, _bank=getattr(CMPolynomial, kind), _kind=kind):
            calls[_kind] += 1
            return _bank(self, x)
        monkeypatch.setattr(CMPolynomial, kind, counting)
    return calls


COUNT_FAMILIES = (("cartan-cubic", {}), ("nomizu-quartic", {"n": 2}),
                  ("clifford", {"k": 2, "n": 7}))


def test_focal_projection_stops_at_roundoff(monkeypatch):
    # the tangency Newton along each frozen circle stops once its update is
    # at the float floor, and the last pass's jet gives the final test
    calls = count_bank_calls(monkeypatch)
    rng = np.random.default_rng(67)
    for label, params in COUNT_FAMILIES:
        fam = catalog(label, **params)
        for side in (1, -1):
            raw = rng.normal(size=(24, fam.ambient_dim))
            Y, _ok = _project_batch(fam, float(side), raw)[:2]
            step = rng.normal(size=Y.shape)
            step -= np.einsum("ij,ij->i", step, Y)[:, None] * Y
            off = _normalize_rows(Y + 1e-3 * _normalize_rows(step))
            for rows in (raw, off):
                calls.update(dict.fromkeys(calls, 0))
                _Y, ok = _project_batch(fam, float(side), rows)[:2]
                assert ok.all(), (label, side)
                assert calls["value"] <= 4 and calls["gradient"] <= 4, calls
                assert calls["hessian"] <= 2, calls


def test_project_batch_takes_its_final_test_from_the_loop(monkeypatch):
    # one jet per pass: the first on every row, each later one on the rows
    # the pass before moved (one `_normalize_rows` call each), and none
    # after the loop; F comes from the jet, never from the value bank
    calls = count_bank_calls(monkeypatch, ("value", "gradient", "jet"))
    calls["normalize"] = 0
    normalize = levelset._normalize_rows

    def counting(x):
        calls["normalize"] += 1
        return normalize(x)

    monkeypatch.setattr(levelset, "_normalize_rows", counting)
    rng = np.random.default_rng(71)
    for label, params in COUNT_FAMILIES:
        fam = catalog(label, **params)
        raw = rng.normal(size=(40, fam.ambient_dim))
        for tol, accept in ((None, None), (1e-16, 1e-9)):
            calls.update(dict.fromkeys(calls, 0))
            X, ok, vals, grads = _project_batch(fam, 0.3, raw, tol=tol,
                                                accept=accept)
            assert ok.all(), (label, tol)
            assert calls["value"] == 0, (label, tol, calls)
            assert calls["jet"] == calls["gradient"] == calls["normalize"], \
                (label, tol, calls)
            # on a regular level it hands on the jet it ended with
            fresh = fam.polynomial.jet(X)
            assert np.abs(vals - fresh[0]).max() <= 1e-15, label
            assert np.abs(grads - fresh[1]).max() <= \
                1e-15 * np.abs(fresh[1]).max(), label
        # on a focal sheet it hands on the values it ended with
        for side in (1.0, -1.0):
            Y, ok, vals = _project_batch(fam, side, raw)
            assert ok.all(), (label, side)
            assert np.abs(vals - fam.polynomial.jet(Y)[0]).max() <= 1e-15, \
                (label, side)
