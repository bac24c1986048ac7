"""Points on level hypersurfaces of V: normals, frames, projection along
normal circles, and deterministic sampling.

Projection exploits the structure of genuine families: along a normal great
circle V is a cosine in the arc parameter, so jumping by the phase difference
(arccos V(x) - arccos s)/g is an exact move, and repeating it is a rapidly
converging iteration that also tolerates approximate (user) polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputContractError, SamplingError, StartAtFocalError
from .families import IsoparametricFamily, _integer, _size, seeded_rng
from .sphere import SpherePoint, TangentFrame, tangent_basis

_GRAD_FLOOR = 1e-8
_FOCAL_OUTER = 3   # frozen normal circles per focal projection
_FOCAL_INNER = 4   # cap on tangency Newton steps along each circle
_RETRACT_MAX_ITER = 40  # cap on phase jumps per regular-level retraction


@dataclass(frozen=True)
class SurfacePoint:
    """A framed point of the level hypersurface M_s (or of a focal
    submanifold when s = +/-1, in which case there is no normal)."""

    family: IsoparametricFamily
    level: float
    x: SpherePoint
    xi: np.ndarray | None
    frame: TangentFrame

    @property
    def tangent_vectors(self):
        """Frame vectors spanning the hypersurface tangent space."""
        return self.frame.surface_tangents


def spherical_gradient(fam: IsoparametricFamily, x):
    """Gradient of V within the sphere at unit x: the ambient gradient minus
    its radial component g F(x) x (Euler's identity)."""
    coords = x.coords if isinstance(x, SpherePoint) else np.asarray(x, float)
    single = coords.ndim == 1
    out = _level_jet(fam, coords[None, :] if single else coords)[1]
    return out[0] if single else out


def _level_jet(fam, X, jet=None):
    """Values F and spherical gradients of V at the rows of X (B, D), from
    the jet (F, grad F) at X when given, else from one `jet` call."""
    vals, grad = fam.polynomial.jet(X) if jet is None else jet
    return vals, grad - fam.g * vals[:, None] * X


def _row_norms(x):
    """Euclidean norms of the rows of x (B, D)."""
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _normalize_rows(x):
    return x / _row_norms(x)[:, None]


def _is_focal(s):
    """Whether the level s is a focal sheet V = +/-1: the one test of it."""
    return abs(abs(s) - 1.0) < 1e-14


def _hypersurface_level(s):
    """s, when it names a level hypersurface M_s: -1 < s < 1 and not a focal
    sheet (`_is_focal`).  Otherwise InputContractError, also for NaN."""
    if not -1.0 < s < 1.0 or _is_focal(s):
        raise InputContractError(
            f"hypersurface levels live in (-1, 1) off +/-1, got {s!r}")
    return s


def _side(side):
    """The focal sheet `side`, an integer (`_integer`) +1 or -1."""
    side = _integer("side", side)
    if side not in (1, -1):
        raise InputContractError("side must be +1 or -1")
    return side


def _project_batch(fam, s, points, tol=None, accept=None):
    """Drive each row of `points` to the level V = s along its own normal
    circle: the one retraction, handing back the values each row ends with.
    Returns (projected, ok, F) on a focal sheet and (projected, ok, F,
    grad F) on a regular level; a row that lost its normal direction
    (gradient below 1e-8 away from the target) or ends more than `accept`
    (1e-10 on a sheet, 1e-12 on a level) off it is not ok.

    On a regular level V is a cosine in arc length along the normal circle,
    so phase jumps by (arccos V - arccos s)/g, exact for a genuine family
    and a contraction otherwise, repeat until |V - s| <= `tol` (1e-14).
    Each pass takes one `jet` call on the rows it tests, so every row's jet
    is that of its final position (a settled row keeps its previous pass's).
    The focal sheets s = +/-1 are quadratically flat extrema of V, where the
    jump loses half the digits; there `_project_focal_batch` follows it with
    a Newton solve of dV/dtau = 0 along the frozen circle, whose simple root
    lands on the focal set to machine precision."""
    if _is_focal(s):
        return _project_focal_batch(fam, float(np.sign(s)), points,
                                    accept=1e-10 if accept is None
                                    else accept)
    tol = 1e-14 if tol is None else tol
    accept = 1e-12 if accept is None else accept
    g = fam.g
    poly = fam.polynomial
    target_phase = float(np.arccos(min(max(s, -1.0), 1.0))) / g
    X = _normalize_rows(np.array(points, dtype=np.float64))
    vals, grads = poly.jet(X)
    ok = np.ones(X.shape[0], dtype=bool)
    # A tol below the float64 spacing of V near s can never be met; a row
    # whose |V - s| stops shrinking once it is acceptable has reached that
    # floor and is settled at its better previous iterate.  Only a row
    # whose error is acceptable can settle, so only such rows save their
    # iterate and jet.
    settled = np.zeros(X.shape[0], dtype=bool)
    prev_err = np.full(X.shape[0], np.inf)
    prev_X, prev_vals, prev_grads = map(np.empty_like, (X, vals, grads))
    for _ in range(_RETRACT_MAX_ITER):
        err = np.abs(vals - s)
        active = ok & ~settled
        stall = active & (err >= prev_err) & (prev_err <= accept)
        if stall.any():
            X[stall], vals[stall] = prev_X[stall], prev_vals[stall]
            grads[stall] = prev_grads[stall]
            settled |= stall
            active &= ~stall
        idx = np.flatnonzero(active & (err > tol))
        if not len(idx):
            break
        prev_err[idx] = el = err[idx]
        near = idx[el <= accept]
        prev_X[near], prev_vals[near] = X[near], vals[near]
        prev_grads[near] = grads[near]
        Xl, vl = X[idx], vals[idx]
        W = grads[idx] - g * vl[:, None] * Xl
        wn = _row_norms(W)
        stuck = wn < _GRAD_FLOOR
        if stuck.any():
            ok[idx[stuck]] = False
            move = ~stuck
            idx, Xl, vl = idx[move], Xl[move], vl[move]
            W, wn = W[move], wn[move]
            if not len(idx):
                continue
        # clipped by hand: np.clip's dispatch costs more than the arithmetic
        tau = np.arccos(np.minimum(np.maximum(vl, -1.0), 1.0)) / g
        tau -= target_phase
        Xl = _normalize_rows(np.cos(tau)[:, None] * Xl
                             + np.sin(tau)[:, None] * (W / wn[:, None]))
        X[idx] = Xl
        vals[idx], grads[idx] = poly.jet(Xl)
    # a settled row sits at its previous iterate with that iterate's jet;
    # every other row's jet was taken where it ends
    ok &= np.abs(vals - s) <= accept
    return X, ok, vals, grads


def _clean_jet(fam, X):
    """`_level_jet` less the residual radial part of each spherical gradient:
    near the focal set |grad_S V| drops to the scale of the Euler-identity
    roundoff, where a phantom radial part of relative size eps/|W| would
    dominate the walking direction and the tangency residual."""
    v, w = _level_jet(fam, X)
    w -= np.einsum("ij,ij->i", w, X)[:, None] * X
    return v, w


def _circle_tangency(fam, base, eta, tau):
    """Newton in the arc parameter from tau on the tangency condition
    dV/dtau = 0 along the circles cos(tau) base + sin(tau) eta (rows, or one
    circle for all of tau), stopping once the largest update is at most
    1e-14 rad (about 50 ulp of tau) or after _FOCAL_INNER steps; a curvature
    below 1e-9 is taken as 1.  Returns the final tau."""
    g = fam.g
    for _ in range(_FOCAL_INNER):
        ct, st = np.cos(tau)[:, None], np.sin(tau)[:, None]
        X = ct * base + st * eta
        vals, W = _clean_jet(fam, X)
        dx = -st * base + ct * eta
        slope = np.einsum("ij,ij->i", W, dx)
        hess = fam.polynomial.hessian(X)
        curv = (dx[:, None, :] @ hess @ dx[:, :, None])[:, 0, 0] - g * vals
        update = slope / np.where(np.abs(curv) < 1e-9, 1.0, curv)
        tau = tau - update
        if np.abs(update).max() <= 1e-14:
            break
    return tau


def _project_focal_batch(fam, side, points, accept=1e-10):
    """Project onto the focal submanifold V = side (+1 or -1).

    Each outer pass freezes the normal circle at the current point (whose
    gradient is still healthy) and solves the tangency condition dV = 0
    along it by `_circle_tangency` from the phase jump; for a genuine family
    the jump is already exact and one step confirms it.  The values and
    gradients that end a pass start the next one, and those of the last pass
    give the final test.  The iteration is gated on the spherical gradient
    norm, not on |V - side|: V is quartically blind to small transverse
    offsets (a point h off the focal set changes V by only O(h^2)), while
    the gradient norm measures the offset linearly (|grad_S V| ~ g^2 h),
    which is what stencil-grade positioning needs.  Returns (projected, ok,
    F), F the values of the jet that gave the final test.
    """
    g = fam.g
    X = _normalize_rows(np.array(points, dtype=np.float64))
    target_phase = 0.0 if side > 0 else np.pi / g
    v, W = _clean_jet(fam, X)
    for _ in range(_FOCAL_OUTER):
        wn = _row_norms(W)
        i2 = np.flatnonzero(wn > 3e-13)
        if not len(i2):
            break
        base, eta = X[i2], W[i2] / wn[i2, None]
        tau = _circle_tangency(
            fam, base, eta,
            np.arccos(np.clip(v[i2], -1.0, 1.0)) / g - target_phase)
        ct, st = np.cos(tau)[:, None], np.sin(tau)[:, None]
        X[i2] = _normalize_rows(ct * base + st * eta)
        v, W = _clean_jet(fam, X)
    # the gradient bound pins the transverse offset; the value bound rejects
    # rows that settled on the opposite focal sheet
    ok = (_row_norms(W) <= 1e-11) & (np.abs(v - side) <= accept)
    return X, ok, v


def _reflector(v, axis):
    """Householder vectors u = v + sign(v_axis) |v| e_axis (the sign of 0
    taken as +) of the rows of v, with 2 / |u|^2: I - 2 u u^T / |u|^2 sends
    each row to -sign(v_axis) |v| e_axis."""
    u = v.copy()
    u[:, axis] += np.where(v[:, axis] < 0, -1.0, 1.0) * _row_norms(v)
    return u, 2.0 / np.einsum("ij,ij->i", u, u)


def _householder_frames(X, xi=None):
    """Orthonormal frames of the orthogonal complement of each row x of X
    (B, D), or of x and the normal xi (B, D) when given: the rows after the
    first one (two) of H1 (H2 H1), with H1 the reflection taking x to the
    e_0 axis and H2 the one taking H1 xi, less its e_0 part, to the e_1 axis
    while fixing e_0.  Both are rank-one updates of the identity, so the
    frames cost O(B D^2) with no factorization, and they are deterministic
    given the input.  Returns (B, D-1, D) or (B, D-2, D)."""
    d = X.shape[1]
    v1, beta1 = _reflector(X, 0)
    if xi is None:
        skip, vecs = 1, v1[:, None, :]
        coefs = (beta1[:, None] * v1[:, 1:])[:, :, None]
    else:
        y = xi - (beta1 * np.einsum("ij,ij->i", v1, xi))[:, None] * v1
        # (H1 xi)_0 = -sign(x_0) <x, xi> is roundoff, and dropping it lets
        # H2 fix e_0, so the frames stay normal to x as well as to xi
        y[:, 0] = 0.0
        v2, beta2 = _reflector(y, 1)
        # row k of H2 H1 is H1 H2 e_k = H1 e_k - beta2 v2_k H1 v2
        h1v2 = v2 - (beta1 * np.einsum("ij,ij->i", v1, v2))[:, None] * v1
        skip, vecs = 2, np.stack([v1, h1v2], axis=1)
        coefs = np.stack([beta1[:, None] * v1[:, 2:],
                          beta2[:, None] * v2[:, 2:]], axis=2)
    frames = -(coefs @ vecs)
    frames[:, :, skip:] += np.eye(d - skip)
    return frames


def _frames_batch(fam, points, jet=None):
    """Normals and hypersurface tangent frames for a batch of points on a
    regular level, with the values and spherical gradient norms they were
    built from.  `jet` is the (F, grad F) at the points when a retraction
    hands it on; without it one `jet` call computes it.  Returns
    (xi (B, D), tangents (B, n, D), F (B,), |grad_S V| (B,)); the tangents
    are `_householder_frames` of x and xi.
    """
    X = np.asarray(points, dtype=np.float64)
    vals, W = _level_jet(fam, X, jet)
    wn = _row_norms(W)
    xi = W / wn[:, None]
    return xi, _householder_frames(X, xi), vals, wn


def surface_point(fam: IsoparametricFamily, x: SpherePoint, level=None) -> SurfacePoint:
    """Wrap a point already lying on a level into a framed SurfacePoint."""
    v = float(fam.polynomial.value(x.coords))
    s = v if level is None else float(level)
    return _framed_point(fam, s, x, v, lambda: spherical_gradient(fam, x))


def _framed_point(fam, s, x, v, gradient):
    """The SurfacePoint at x on the level s, given the value v of V at x and
    a callable for its spherical gradient there, which a focal sheet never
    reads.  InputContractError when v is off the level, StartAtFocalError
    when the gradient is below _GRAD_FLOOR."""
    focal = _is_focal(s)
    if abs(v - s) > (1e-10 if not focal else 1e-8):
        raise InputContractError(f"point has V = {v!r}, not the level {s!r}")
    if focal:
        return SurfacePoint(fam, s, x, None, tangent_basis(x))
    w = gradient()
    wn = float(np.linalg.norm(w))
    if wn < _GRAD_FLOOR:
        raise StartAtFocalError("normal direction undefined at this point")
    xi = w / wn
    return SurfacePoint(fam, s, x, xi, tangent_basis(x, xi))


def project_to_level(fam: IsoparametricFamily, s, x0: SpherePoint) -> SurfacePoint:
    """Walk from x0 along its normal circle to the level V = s and return a
    fully framed point there.

    Raises StartAtFocalError when x0 sits on the focal set with V(x0) != s,
    where the walking direction is undefined; callers restart with a
    perturbed x0.  The guard reads one `jet` call at x0, and the point is
    framed from the values the retraction hands back.
    """
    s = float(s)
    if not -1.0 <= s <= 1.0:
        raise InputContractError("levels live in [-1, 1]")
    v0, w0 = _level_jet(fam, x0.coords[None, :])
    if _row_norms(w0)[0] < _GRAD_FLOOR and abs(v0[0] - s) > 1e-10:
        raise StartAtFocalError(
            "projection started on the focal set; perturb the start point")
    X, ok, *jet = _project_batch(fam, s, x0.coords[None, :])
    if not ok[0]:
        raise StartAtFocalError("projection lost the normal direction")
    # a focal sheet hands back F only, and its point has no normal
    return _framed_point(fam, s, SpherePoint(X[0]), float(jet[0][0]),
                         lambda: _level_jet(fam, X, jet)[1][0])


def sample_points(fam: IsoparametricFamily, s, count, seed) -> list[SurfacePoint]:
    """Deterministic sample of framed points on the level V = s: ambient
    Gaussians pushed to the sphere, then projected; failed projections are
    retried with fresh draws, up to a budget of 10x count."""
    if not -1.0 <= s <= 1.0:  # also rejects NaN
        raise InputContractError(f"levels live in [-1, 1], got {s!r}")
    count = _size("count", count, 1)
    rng = seeded_rng(seed, 0xA11CE)
    out = []
    budget = 10 * count
    drawn = 0
    while len(out) < count and drawn < budget:
        take = min(count - len(out) + 4, budget - drawn)
        drawn += take
        raw = rng.normal(size=(take, fam.ambient_dim))
        X, ok = _project_batch(fam, s, raw)[:2]
        for row, good in zip(X, ok):
            if good and len(out) < count:
                out.append(surface_point(fam, SpherePoint(row), level=s))
    if len(out) < count:
        raise SamplingError(
            f"could not draw {count} points on level {s} within {budget} tries")
    return out
