"""Critical points of spherical distance functions d_p on level hypersurfaces
and on focal submanifolds, found by two independent routes and classified by
two independent index computations.

A level V = s is resolved once (`_sheet`) into a sheet: the regular level
M_s (`_Level`) or the focal submanifold V = +/-1 (`_FocalSheet`).  Each
sheet carries its own Newton residual, exact Jacobian, stencil chart and
gradient, and constants; one Newton body (`_newton`) and one index stencil
(`_index_stencil`) serve both, and the Euclidean spot check's level with a
moving pole (`export._StereoLevel`) runs on the same body and classifier.

Route one is a multistart Newton solve of the criticality condition: x is
critical for d_p exactly when the pole has no component in the tangent
space at x (on a level: p lies in the plane spanned by x and the normal).
Route two uses the normal great circle through p: it meets every level
hypersurface 2g times (and each focal submanifold g times) at arc positions
in closed form from the cosine profile of V, polished in one batch along
that circle alone (`_normal_circle`), and the Newton route, which never
reads these points, must agree with them point for point.

Index route one is the sign count of a finite-difference Hessian; since the
height function <p, .> has the same critical points as d_p and is smooth
everywhere, the Hessian is taken of the height function (central
differences of its Riemannian gradient, never the shape operator) and
converted (Hess d_p = -Hess l_p / sin t at critical points).  Index route
two counts focal points, with multiplicity, strictly between the critical
point and the pole along the connecting geodesic.  The two must agree at
every non-degenerate critical point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (InputContractError, NearFocalPoleError, PoleIsFocalError,
                     SamplingError, StartAtFocalError)
from .families import Report, _size, seeded_rng
from .levelset import (_GRAD_FLOOR, SurfacePoint, _circle_tangency,
                       _frames_batch, _householder_frames,
                       _hypersurface_level, _is_focal, _level_jet,
                       _normalize_rows, _project_batch, _row_norms, _side,
                       surface_point)
from .shape import PrincipalSpectrum, _shape_operators, arccot
from .sphere import SpherePoint, geodesic

DEDUP_RADIUS = 1e-6
_H_HESSIAN = 1e-4
_DEGENERATE_REPORT = 1e-6   # flag threshold in reports
_DEGENERATE_PROBE = 1e-4    # threshold used by the totally-focal probe
_HESSIAN_FLOOR = 1e-6       # below this absolute scale the Hessian is zero
_POLE_MARGIN = 1e-3
_T_GUARD = 1e-8
_PROJECTOR_TOL = 1e-13  # max |P^2 - P| of a focal tangent projector
_FLOW_STEPS = 200   # cap on the steps of one `_level_flow`
_ROUND_ROWS = 2 ** 20  # cap on start rows x D^2 in one Newton batch


@dataclass(frozen=True)
class CriticalPoint:
    """A critical point of d_p on a level set, with both index computations."""

    location: SpherePoint
    t: float
    index_hessian: int
    index_focal: int | None
    degenerate: bool
    min_abs_hessian_eig: float
    hessian_margin: float  # min |eig| / max |eig| of the distance Hessian

    def to_dict(self):
        return {
            "coords": [float(v) for v in self.location.coords],
            "t": self.t,
            "index_hessian": self.index_hessian,
            "index_focal": self.index_focal,
            "degenerate": self.degenerate,
            "margin": self.hessian_margin,
        }


@dataclass
class TightnessReport(Report):
    """Per-pole critical-point counts and index bookkeeping for one level."""

    family: str
    level: float
    g: int
    m1: int
    m2: int
    expected_count: int
    seed: int
    poles: list = field(default_factory=list)
    passed: bool = True
    index_histogram: dict = field(default_factory=dict)
    worst_match_distance: float = 0.0
    worst_level_residual: float = 0.0
    min_hessian_margin: float | None = None  # null over no point
    rejected_poles: int = 0
    failures: list = field(default_factory=list)

    def to_dict(self):
        # histogram keys as strings, in numeric order
        return {**super().to_dict(),
                "index_histogram": {str(k): v for k, v in
                                    sorted(self.index_histogram.items())}}

    def record(self, pole, counts, passed, checks, level_residual, indices,
               margins, points, shown=()):
        """Fold one pole, with `counts` (newton, circle), into the report: a
        failure entry with the `checks` dict unless both counts are expected
        and the other checks `passed`, the report-wide extremes and the
        histogram, and a pole entry with `points` and the `shown` checks.
        An infinite `checks["match_distance"]` (a count mismatch) stays out
        of the worst match and reads null, since JSON has no infinity."""
        self.min_hessian_margin = _extreme(min, self.min_hessian_margin,
                                           *margins)
        entry = {"pole": [float(v) for v in pole.coords],
                 "count_newton": counts[0], "count_circle": counts[1]}
        match = checks["match_distance"]
        if not (passed and counts == (self.expected_count,) * 2):
            self.passed = False
            self.failures.append({**entry, **checks, "match_distance":
                                  match if np.isfinite(match) else None})
        for index in indices:
            self.index_histogram[index] = self.index_histogram.get(index, 0) + 1
        if np.isfinite(match):
            self.worst_match_distance = max(self.worst_match_distance, match)
        self.worst_level_residual = max(self.worst_level_residual,
                                        level_residual)
        self.poles.append({**entry, **{k: checks[k] for k in shown},
                           "points": points})


# -- shared internals --------------------------------------------------------

def _extreme(pick, *margins):
    """`pick` (min or max) of the margins that are not None, and None over
    no margin, since JSON has no infinity."""
    return pick([m for m in margins if m is not None], default=None)


def _pole_rows(p, n):
    """The poles of n rows: p is one pole (D,) for every row or a pole per
    row (n, D).  A read-only view when p is one pole."""
    return np.broadcast_to(p, (n, p.shape[-1]))


def _row_dots(a, b):
    """<a_i, b_i> for the rows of a and b (B, D)."""
    return np.einsum("ij,ij->i", a, b)


def _tangential_residual(p, X, xi):
    """Component of the pole orthogonal to both x and the normal, rowwise;
    p is one pole or a pole per row (`_pole_rows`)."""
    P = _pole_rows(p, len(X))
    return P - _row_dots(X, P)[:, None] * X - _row_dots(xi, P)[:, None] * xi


def _newton_jacobian(fam, p, X, xi, frames, vals, wn):
    """Jacobian of the tangential residual in the tangent frame at each row of
    X: the Riemannian Hessian of the height function l_p on M_s,

        J = -<p, x> I + <p, xi> A,

    with A the shape operator of `_shape_operators`, batched over rows, from
    the normals, frames, values and gradient norms of `_frames_batch`, and p
    one pole or a pole per row (Absil, Mahony and Sepulchre, Optimization
    Algorithms on Matrix Manifolds, 2008)."""
    P = _pole_rows(p, len(X))
    shape_op = _shape_operators(fam, X, frames, vals, wn)
    return (-_row_dots(X, P)[:, None, None] * np.eye(frames.shape[1])
            + _row_dots(xi, P)[:, None, None] * shape_op)


def _pinv_solve(jac, rhs):
    """pinv(jac) @ rhs (pinv's rcond=1e-12 cut) for a batch of symmetric
    matrices jac (B, n, n) and vectors rhs (B, n).

    One batched inverse serves every row whose bound
    kappa_F = |jac|_F |jac^-1|_F is finite and at most 1e10: kappa_F is at
    least the 2-norm condition number max |lambda| / min |lambda|, so such a
    row has no eigenvalue under pinv's cut and its pseudo-inverse is its
    inverse.  The other rows, and the whole batch when `inv` finds an
    exactly singular matrix, take `_eigh_pinv_solve`."""
    try:
        inv = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        return _eigh_pinv_solve(jac, rhs)
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = np.sqrt(np.einsum("bij,bij->b", jac, jac)
                        * np.einsum("bij,bij->b", inv, inv))
    solved = kappa <= 1e10  # false for inf and nan
    if solved.all():
        return (inv @ rhs[:, :, None])[:, :, 0]
    out = np.empty_like(rhs)
    out[solved] = (inv[solved] @ rhs[solved][:, :, None])[:, :, 0]
    out[~solved] = _eigh_pinv_solve(jac[~solved], rhs[~solved])
    return out


def _eigh_pinv_solve(jac, rhs):
    """pinv(jac) @ rhs for symmetric jac (B, n, n) from one batched eigh:
    eigenvalues with |lambda| <= 1e-12 max |lambda| are dropped, which is
    pinv's rcond=1e-12 cut, since the singular values of a symmetric matrix
    are its |lambda|.  eigh reads the lower triangle."""
    lam, vec = np.linalg.eigh(jac)
    mag = np.abs(lam)
    keep = mag > 1e-12 * mag.max(axis=1, keepdims=True)
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    coef = (rhs[:, None, :] @ vec)[:, 0] * inv
    return (vec @ coef[:, :, None])[:, :, 0]


def _chart_step(fam, level, X, chart, jac, resid):
    """One Newton step per row in the chart spanned by the rows of
    chart[b]: the pseudo-inverse step of the symmetric Jacobian
    (`_pinv_solve`: the inverse where it is certified well conditioned, so
    singular Jacobians on critical manifolds still give a step), length
    capped at 0.4, the move retracted to the level.  Returns what the
    retraction `_project_batch` hands back for the moved rows."""
    g0 = np.einsum("bnd,bd->bn", chart, resid)
    delta = -_pinv_solve(jac, g0)
    norms = _row_norms(delta)
    delta *= np.where(norms > 0.4, 0.4 / np.maximum(norms, 0.4), 1.0)[:, None]
    moved = _normalize_rows(X + np.einsum("bi,bid->bd", delta, chart))
    return _project_batch(fam, level, moved, 1e-15, 1e-11)


def _masked_newton(sheet, X, first, tol, max_iter):
    """Masked Newton loop on the sheet, updating the rows of X in place.

    `first` is (residual norms, state) at all of X, as the sheet's `start`
    and `residual` return them: the state a list of per-row arrays, each
    row's pole, residual vector and chart first.  Every row still above
    `tol` takes one `_chart_step` with `sheet.jacobian`, and only the moved
    rows are evaluated again (`sheet.residual`), each with its pole and the
    values that `_project_batch` ends with (F and grad F on a `_Level`, F
    on a `_FocalSheet`).  A row whose move fails has lost the level and
    leaves the loop.  Returns the residual norms and state at the final X,
    each row's from its last evaluation."""
    rnorm, state = first
    idx = np.arange(X.shape[0])
    for _ in range(max_iter):
        idx = idx[rnorm[idx] > tol]
        if not len(idx):
            break
        rows, part = X[idx], [s[idx] for s in state]
        poles, q, chart = part[:3]
        moved, ok, *values = _chart_step(sheet.fam, sheet.level, rows, chart,
                                         sheet.jacobian(rows, part), q)
        idx = idx[ok]
        X[idx] = moved[ok]
        rnorm[idx], fresh = sheet.residual(X[idx], poles[ok],
                                           *(v[ok] for v in values))
        for full, new in zip(state, fresh):
            full[idx] = new
    return rnorm, state


def _level_flow(fam, s, X, value, gradient, sign):
    """Monotone gradient flows of `value` on the regular level M_s from the
    rows of X, descending where `sign` (a scalar or one per row) is -1 and
    ascending where it is +1.  A row steps along its unit Riemannian gradient
    `gradient(rows)`, retracted by `_project_batch`, and keeps the move only
    if `value` improves: the step then doubles, up to 0.5, and else halves.
    At most _FLOW_STEPS steps, stopping once every step is below 1e-9.
    Returns the end rows."""
    X = np.array(X, dtype=np.float64)
    val, step = value(X), np.full(X.shape[0], 0.5)
    for _ in range(_FLOW_STEPS):
        if step.max() < 1e-9:
            break
        grad = gradient(X)
        grad *= (sign * step / np.maximum(_row_norms(grad), 1e-300))[:, None]
        trial, ok = _project_batch(fam, s, _normalize_rows(X + grad))[:2]
        trial_val = value(trial)
        better = ok & (sign * (trial_val - val) > 0)
        X[better], val[better] = trial[better], trial_val[better]
        step = np.where(better, np.minimum(2 * step, 0.5), step / 2)
    return X


def _sheet(fam, s):
    """The sheet V = s: the focal submanifold when `_is_focal(s)`, else the
    regular level M_s.  The one place that tells the two apart."""
    return _FocalSheet(fam, s) if _is_focal(s) else _Level(fam, s)


class _Level:
    """The regular level M_s.  Its Newton residual is the tangential part q
    of p (`_tangential_residual`, max-norm) in the `_frames_batch` chart,
    its Jacobian `_newton_jacobian`; its stencil differences q with normals
    from the jet of the stencil's retraction, never the shape operator."""

    tol, max_iter, polish, accept = 1e-11, 40, 0, 1e-9
    crossings = (1, -1)  # the normal circle meets M_s at +/-arccos s

    def __init__(self, fam, s):
        self.fam, self.level = fam, s

    def solve(self, p, starts, *jet):
        return _newton_multistart(self.fam, self.level, p, starts, *jet)

    def residual(self, rows, poles, *jet):
        xi, frames, vals, wn = _frames_batch(self.fam, rows, jet or None)
        q = _tangential_residual(poles, rows, xi)
        return np.abs(q).max(axis=1), [poles, q, frames, xi, vals, wn]

    start = residual

    def jacobian(self, rows, state):
        poles, _q, frames, xi, vals, wn = state
        return _newton_jacobian(self.fam, poles, rows, xi, frames, vals, wn)

    def stencil_chart(self, rows, frames):
        return _frames_batch(self.fam, rows)[1] if frames is None else frames

    def stencil_gradient(self, poles, rows, *jet):
        xi = _normalize_rows(_level_jet(self.fam, rows, jet or None)[1])
        return _tangential_residual(poles, rows, xi)

    def circle_polish(self, p, eta, tau):
        """Two Newton steps on V - s along the circle cos(tau) p + sin(tau)
        eta; a row stops once its slope is below 1e-9."""
        poly, live = self.fam.polynomial, np.arange(len(tau))
        for _ in range(2):
            ct, st = np.cos(tau[live])[:, None], np.sin(tau[live])[:, None]
            X = ct * p + st * eta
            slope = np.einsum("ij,ij->i", poly.gradient(X), ct * eta - st * p)
            move = np.abs(slope) >= 1e-9
            tau[live[move]] -= (poly.value(X)[move] - self.level) / slope[move]
            live = live[move]
        return tau


class _FocalSheet:
    """The focal submanifold M = {V = side}.  Its Newton residual is the
    tangent part q = sph^T P sph p of p (`_sphere_tangent_part`, 2-norm) in
    the D-1 sphere frame sph, P the projector of `_focal_sphere_projector`;
    its stencil differences q in the chart of the top d_foc eigenvectors of
    P.  A focal set that is a point (d_foc = 0) takes no step and no
    stencil."""

    tol, max_iter, polish, accept = 1e-13, 48, 2, 1e-8
    crossings = (1,)  # the normal circle touches M at arccos side

    def __init__(self, fam, side):
        self.fam, self.level = fam, float(side)

    def solve(self, p, starts, *vals):
        return _focal_newton(self.fam, self.level, p, starts, *vals)

    def tangent(self, rows, vals):
        """`_focal_sphere_projector` at the rows, its traces reduced to their
        common rank d_foc: SamplingError if they differ."""
        sph, proj, dims = _focal_sphere_projector(self.fam, self.level, rows,
                                                  vals)
        if np.any(dims != dims[0]):
            raise SamplingError(
                f"focal tangent ranks disagree: {sorted(set(dims.tolist()))}")
        return sph, proj, int(dims[0])

    def start(self, rows, poles, vals=None):
        """The residual at the starts; 0 where d_foc = 0, since every start
        on a focal point solves it."""
        sph, proj, d_foc = self.tangent(rows, vals)
        rnorm, state = self.residual(rows, poles, vals, (sph, proj))
        return (rnorm if d_foc else np.zeros_like(rnorm)), state

    def residual(self, rows, poles, vals, tangent=None):
        sph, proj = tangent or _focal_sphere_projector(
            self.fam, self.level, rows, vals)[:2]
        q = _sphere_tangent_part(poles, sph, proj)
        return _row_norms(q), [poles, q, sph, proj]

    def jacobian(self, rows, state):
        """P J P + (I - P), J `_focal_jacobian` on the sphere frame: J's
        tangent block on T_yM and the identity across it, so the step moves
        along T_yM only."""
        poles, q, sph, proj = state
        jac = _focal_jacobian(self.fam, self.level, poles, rows, sph, q)
        return proj @ jac @ proj + (np.eye(proj.shape[1]) - proj)

    def stencil_chart(self, rows, vals):
        sph, proj, d_foc = self.tangent(rows, vals)
        if d_foc:
            basis = np.linalg.eigh(proj)[1][:, :, -d_foc:]
            return np.swapaxes(basis, 1, 2) @ sph

    def stencil_gradient(self, poles, rows, vals):
        return _sphere_tangent_part(poles, *_focal_sphere_projector(
            self.fam, self.level, rows, vals)[:2])

    def circle_polish(self, p, eta, tau):
        return _circle_tangency(self.fam, p, eta, tau)


def _newton(sheet, p, starts, handed):
    """Drive each start to a zero of the sheet's residual toward its pole
    (one pole or a pole per start, `_pole_rows`): Newton steps
    (`_chart_step`) in the sheet's chart with its exact Jacobian, each
    retracted to the sheet, until the residual is at most `sheet.tol`; the
    Jacobian only steers.  Each residual reads the values its retraction
    handed on, the first those of the starts' projection (`handed`) when
    given.  The converged rows then take up to `sheet.polish` steps at
    tolerance 0, which push positions along nearly degenerate Hessian
    directions (error up to tol/|J|) to the evaluation-noise floor.  Never
    reads the circle route's points, the expected count or the index
    chart.  Returns (solutions, residual_norms, kept), kept the indices of
    the starts they came from."""
    X = np.array(starts, dtype=np.float64)
    poles = np.array(_pole_rows(p, len(X)))
    rnorm, state = _masked_newton(sheet, X, sheet.start(X, poles, *handed),
                                  sheet.tol, sheet.max_iter)
    kept = np.flatnonzero(rnorm <= sheet.tol)
    sols, rnorm = X[kept], rnorm[kept]
    if sheet.polish:
        rnorm = _masked_newton(sheet, sols, (rnorm, [s[kept] for s in state]),
                               0.0, sheet.polish)[0]
    return sols, rnorm, kept


def _newton_multistart(fam, s, p, starts, *jet):
    """`_newton` on the level M_s, from the starts' jet (F, grad F) when it
    is handed in."""
    return _newton(_Level(fam, s), p, starts, jet)


def _focal_newton(fam, side, p, starts, vals=None):
    """`_newton` on the focal submanifold V = side, from the values F at
    the starts when they are handed in."""
    return _newton(_FocalSheet(fam, side), p, starts, (vals,))


def _dedup(fam, X, rnorm):
    """Merge solutions within geodesic distance DEDUP_RADIUS, keeping the
    best residual."""
    if len(X) == 0:
        return X
    ordered = X[np.argsort(rnorm)]
    # arccos <a, b> < r exactly when <a, b> > cos r: no N^2 arccos
    near = ordered @ ordered.T > np.cos(DEDUP_RADIUS)
    # greedy in residual order: a row survives unless an earlier survivor
    # lies within the radius
    keep = np.zeros(len(ordered), dtype=bool)
    covered = np.zeros(len(ordered), dtype=bool)
    for i in range(len(ordered)):
        if not covered[i]:
            keep[i] = True
            covered |= near[i]
    return ordered[keep]


def _chart_hessians(fam, level, X, charts, accept, gradient):
    """Hessians of a function on the level at each row of X (assumed
    critical) in the chart spanned by the rows of charts[k]: symmetrized
    central differences of the Riemannian gradient along the chart vectors,

        H_ij = <grad(x + h t_i) - grad(x - h t_i), t_j> / 2h.

    The moves X +/- h t_i are retracted in one `_project_batch` call, and
    `gradient(rows, *handed)` (ambient vectors) reads the values it hands
    back.  The gradient vanishes at a critical point, so the part of its
    derivative that leaves the tangent space, and with it the chart's
    curvature, drops out: H is the chart-invariant Riemannian Hessian.
    Returns (M, k, k)."""
    m, k, d = charts.shape
    h = _H_HESSIAN
    step = h * charts
    plus, minus = X[:, None, :] + step, X[:, None, :] - step
    moves = np.stack([plus, minus], axis=2).reshape(-1, d)
    moved, _ok, *handed = _project_batch(fam, level, _normalize_rows(moves),
                                         tol=1e-16, accept=accept)
    grad = gradient(moved, *handed).reshape(m, k, 2, d)
    diff = (grad[:, :, 0] - grad[:, :, 1]) @ np.swapaxes(charts, 1, 2)
    return (diff + np.swapaxes(diff, 1, 2)) / (4 * h)


def _index_stencil(sheet, p, X, handed):
    """Finite-difference Hessians of the height function l_p on the sheet
    at each row of X (assumed critical), p one pole or a pole per row: the
    sheet's stencil gradient differenced by `_chart_hessians` at the
    sheet's `accept`, in the sheet's stencil chart at X (from `handed`, the
    level's frames or the focal values).  None where the sheet has no
    tangent space."""
    charts = sheet.stencil_chart(X, handed)
    if charts is None:
        return None
    # `_chart_hessians` moves each row to 2k stencil points, in row order
    moved_poles = np.repeat(_pole_rows(p, len(X)), 2 * charts.shape[1],
                            axis=0)
    return _chart_hessians(
        sheet.fam, sheet.level, X, charts, sheet.accept,
        lambda rows, *handed: sheet.stencil_gradient(moved_poles, rows,
                                                     *handed))


def _hessian_stencil(fam, s, p, X, frames=None):
    """`_index_stencil` on the level M_s, in the chart of the
    `_frames_batch` frames (computed when not given).  Returns (hessians,
    t)."""
    hessians = _index_stencil(_Level(fam, s), p, X, frames)
    return hessians, np.arccos(np.clip(_row_dots(X, _pole_rows(p, len(X))),
                                       -1.0, 1.0))


def _focal_index(fam, side, p, Y, vals):
    """Height-function Hessian index at each row of Y (values F = `vals`)
    on the focal submanifold V = side, p one pole or a pole per row, from
    `_index_stencil`: no value call and no third-derivative bank, and
    d_foc = 0 takes no eigh.  Returns (indices, margins)."""
    hessians = _index_stencil(_FocalSheet(fam, side), p, Y, vals)
    if hessians is None:
        return [0] * len(Y), [1.0] * len(Y)
    eig = np.linalg.eigvalsh(hessians)
    abs_eig = np.abs(eig)
    top = abs_eig.max(axis=1)
    margins = np.divide(abs_eig.min(axis=1), top, out=np.zeros_like(top),
                        where=top > _HESSIAN_FLOOR)
    # index of d_p = number of positive eigenvalues of Hess l_p
    return (eig > 0).sum(axis=1).tolist(), margins.tolist()


def _classify(fam, s, p, X, degenerate_threshold=_DEGENERATE_REPORT):
    """CriticalPoint records for the rows of X (critical for d_p on M_s), p
    one pole or a pole per row, in one batch on the frames of one
    `_frames_batch` call (both indices are frame-invariant): the stencil's
    distance Hessians -H / sin t and the focal counts of the shape
    operators' eigenvalues.  The records keep the rows' order of poles and
    are sorted by t within each run of rows that share a pole.  A point with
    |V - s| > 1e-10 raises InputContractError, one with |grad_S V| < 1e-8
    StartAtFocalError; a near-focal point gets index_focal None and is
    degenerate."""
    if len(X) == 0:
        return []
    X = np.asarray(X, dtype=np.float64)
    P = _pole_rows(p, len(X))
    xi, frames, vals, wn = _frames_batch(fam, X)
    shape_ops = _shape_operators(fam, X, frames, vals, wn)
    worst = np.abs(vals - s).max()
    if worst > 1e-10:
        raise InputContractError(
            f"a point lies {worst:.3e} off the level {float(s)!r}")
    if (wn < _GRAD_FLOOR).any():
        raise StartAtFocalError("normal direction undefined at this point")
    hessians, ts = _hessian_stencil(fam, s, P, X, frames)
    sin_t = np.maximum(np.sin(ts), 1e-12)
    eig = np.linalg.eigvalsh(-hessians / sin_t[:, None, None])
    max_abs, min_abs = np.abs(eig).max(axis=1), np.abs(eig).min(axis=1)
    margins = np.divide(min_abs, max_abs, out=np.zeros_like(min_abs),
                        where=max_abs > 0)
    indices, near = _focal_counts(P, X, xi, np.linalg.eigvalsh(shape_ops),
                                  np.ones(shape_ops.shape[:2], dtype=int))
    # run k holds the rows of the k-th pole
    runs = np.concatenate([[0], np.cumsum(np.any(P[1:] != P[:-1], axis=1))])
    degenerate = ((max_abs < _HESSIAN_FLOOR)
                  | (min_abs < degenerate_threshold * max_abs) | near)
    return [CriticalPoint(
        location=SpherePoint(X[k]), t=float(ts[k]),
        index_hessian=int(np.sum(eig[k] < 0)),
        index_focal=None if near[k] else int(indices[k]),
        degenerate=bool(degenerate[k]), min_abs_hessian_eig=float(min_abs[k]),
        hessian_margin=float(margins[k]))
        for k in np.lexsort((ts, runs))]


def _focal_counts(p, X, xi, values, mults):
    """Morse indices of d_p at the rows of X (unit normals xi), p one pole
    or a pole per row: the summed multiplicities `mults` (B, k) of the
    principal curvatures `values` (B, k) whose focal points, at arccot of
    the curvatures measured toward the pole, lie strictly between the row
    and p.  Returns (indices, near); `near` marks rows with a focal
    parameter within 1e-8 of the pole distance, where the index is
    undefined."""
    P = _pole_rows(p, len(X))
    px = _row_dots(X, P)
    tangential = P - px[:, None] * X
    t = np.arccos(np.clip(px, -1.0, 1.0))
    # the pole on the normal line at distance ~0: nothing passed
    nothing = (np.linalg.norm(tangential, axis=1) < 1e-12) | (t <= _T_GUARD)
    toward = np.einsum("bd,bd->b", tangential, xi)
    params = arccot(np.where(toward < 0, -1.0, 1.0)[:, None] * values)
    near = ~nothing & (np.abs(params - t[:, None]) < _T_GUARD).any(axis=1)
    passed = np.sum(mults * (params < t[:, None]), axis=1)
    return np.where(nothing, 0, passed), near


# -- public operations -------------------------------------------------------

def index_via_focal_count(pole: SpherePoint, cp: SurfacePoint,
                          spectrum: PrincipalSpectrum) -> int:
    """Morse index of d_pole at the critical point cp, computed as the sum of
    multiplicities of the focal points lying strictly between cp and the pole
    on the connecting geodesic: the one-row case of `_focal_counts`, raising
    NearFocalPoleError where that marks the row near-focal.  A pole of the
    wrong dimension, or a cp on a focal submanifold (no normal), raises
    InputContractError.
    """
    if cp.xi is None:
        raise InputContractError("cp lies on a focal submanifold: no normal")
    cp.family.polynomial._check_points(pole.coords)
    indices, near = _focal_counts(pole.coords, *map(np.atleast_2d, (
        cp.x.coords, cp.xi, spectrum.values, spectrum.multiplicities)))
    if near[0]:
        raise NearFocalPoleError(
            f"focal parameter within {_T_GUARD:g} of the critical distance")
    return int(indices[0])


def _newton_route(fam, s, poles, raw):
    """The Newton route for the poles (K, D) from their ambient draws `raw`
    (K, N, D), in one batch: project all the draws to the sheet V = s
    (`_sheet`), solve from the usable ones with the sheet's solver, each
    toward its own pole (SamplingError when a pole has none), and
    deduplicate pole by pole.  The solver's first residual reads the values
    the projection ends with.  Returns a list of K arrays: the distinct
    critical points of d_p for each pole p."""
    raw = np.asarray(raw, dtype=np.float64)
    count, num_starts, dim = raw.shape
    starts, ok, *handed = _project_batch(fam, s, raw.reshape(-1, dim))
    if not ok.reshape(count, num_starts).any(axis=1).all():
        raise SamplingError("no usable Newton starts")
    owner = np.repeat(np.arange(count), num_starts)[ok]
    sols, rnorm, kept = _sheet(fam, s).solve(poles[owner], starts[ok],
                                             *(h[ok] for h in handed))
    owner = owner[kept]
    return [_dedup(fam, sols[owner == k], rnorm[owner == k])
            for k in range(count)]


def _newton_draws(fam, seed, num_starts):
    """The ambient draws (num_starts, D) of one pole's Newton starts."""
    return seeded_rng(seed, 0x5EED).normal(size=(num_starts, fam.ambient_dim))


def _round_size(fam, num_starts):
    """Poles per Newton batch: at most _ROUND_ROWS start rows x D^2, and at
    least one.  Rounds bound the solver's D^2 memory (its Jacobians and
    inverses), which would otherwise grow with a report's pole count.  The
    start draws themselves, D floats a row, are held for every pole up
    front: 1.15 MB per 100 poles on nomizu-quartic n=2."""
    return max(1, _ROUND_ROWS // (num_starts * fam.ambient_dim ** 2))


def _rounds(fam, s, drawn):
    """The Newton route (`_newton_route`) on the sheet V = s for the drawn
    poles, items (pole, ..., start draws), in rounds of at most
    `_round_size` poles.  Yields (the round's items, their poles (K, D), K
    arrays of critical points) per round."""
    per_round = _round_size(fam, len(drawn[0][-1]))
    for first in range(0, len(drawn), per_round):
        batch = drawn[first:first + per_round]
        poles = np.array([pole.coords for pole, *_ in batch])
        yield batch, poles, _newton_route(fam, s, poles,
                                          [item[-1] for item in batch])


def _split(items, sizes):
    """Consecutive slices of `items` with the given sizes."""
    ends = np.cumsum(sizes).tolist()
    return [items[end - size:end] for size, end in zip(sizes, ends)]


def _classify_poles(fam, s, poles, points,
                    degenerate_threshold=_DEGENERATE_REPORT):
    """`_classify` of the points of every pole in one call: poles (K, D)
    and `points` K arrays.  Returns K lists of CriticalPoint records."""
    sizes = [len(x) for x in points]
    return _split(_classify(fam, s, np.repeat(poles, sizes, axis=0),
                            np.concatenate(points), degenerate_threshold),
                  sizes)


def critical_points_newton(fam, s, pole: SpherePoint, num_starts=None, seed=0,
                           degenerate_threshold=_DEGENERATE_REPORT):
    """All critical points of d_pole on M_s by multistart Newton.

    Starts are drawn deterministically on the level; converged solutions are
    deduplicated at geodesic distance 1e-6 and classified (index via the
    Hessian from central differences of the Riemannian gradient and via the
    focal count, degeneracy flag from the relative smallest Hessian
    eigenvalue).  A one-pole batch of the reports' Newton route.  A pole of
    the wrong dimension raises InputContractError.
    """
    s = _hypersurface_level(s)
    fam.polynomial._check_points(pole.coords)
    num_starts = 60 * fam.g if num_starts is None else _size(
        "num_starts", num_starts, 1)
    (unique,) = _newton_route(fam, s, pole.coords[None, :],
                              _newton_draws(fam, seed, num_starts)[None])
    return _classify(fam, s, pole.coords, unique,
                     degenerate_threshold=degenerate_threshold)


def _normal_circle(fam, s, pole: SpherePoint):
    """The 2g points where the normal great circle cos(tau) p + sin(tau) eta
    through the pole meets the level V = s, or the g where it meets the
    focal sheet V = s = +/-1: V is cos(g (psi0 - tau)) along it, so they sit
    at tau = psi0 - (+/-arccos s + 2 pi j) / g, the signs the sheet's
    `crossings`.  One batch polishes these closed forms along the circle
    (the sheet's `circle_polish`), keeping V at roundoff even for
    polynomials that satisfy the identities only approximately.  Returns
    (eta, points sorted by tau)."""
    p = pole.coords
    v0, w = _level_jet(fam, p[None, :])
    wn = float(np.linalg.norm(w))
    if wn < 1e-8:
        raise PoleIsFocalError("the pole lies on the focal set")
    eta, g, beta = w[0] / wn, fam.g, float(np.arccos(s))
    psi0 = float(np.arccos(np.clip(v0[0], -1.0, 1.0))) / g
    sheet = _sheet(fam, s)
    taus = [psi0 - (sign * beta + 2 * np.pi * j) / g
            for j in range(-g - 1, g + 2) for sign in sheet.crossings]
    tau = sheet.circle_polish(p, eta, np.array(sorted(set(np.round(
        [t for t in taus if -np.pi < t <= np.pi], 14)))))
    return eta, np.cos(tau)[:, None] * p + np.sin(tau)[:, None] * eta


def normal_circle_critical_points(fam, s, pole: SpherePoint, classify=True):
    """Critical points of d_pole on M_s from the normal great circle through
    the pole.

    There is exactly one great circle through a non-focal pole meeting the
    family orthogonally (its direction is the normalized spherical gradient
    of V at the pole); V restricted to it is a cosine of g times arc length,
    so the crossings of the level s sit at 2g closed-form arc positions
    (`_normal_circle`).
    """
    X = _normal_circle(fam, _hypersurface_level(s), pole)[1]
    if classify:
        return _classify(fam, s, pole.coords, X)
    return [surface_point(fam, SpherePoint(row), level=s) for row in X]


def _draw_pole(fam, rng):
    """Uniform pole with |V| at most 1 - _POLE_MARGIN (non-focal, well
    conditioned)."""
    for _ in range(1000):
        raw = rng.normal(size=fam.ambient_dim)
        p = raw / np.linalg.norm(raw)
        if abs(float(fam.polynomial.value(p))) <= 1.0 - _POLE_MARGIN:
            return SpherePoint(p)
    raise SamplingError("could not draw a non-focal pole")


def _draw_poles(fam, s, circle, report, rng, num_poles, draws):
    """The report's num_poles poles, each decided before either route runs.

    Each pole is `_draw_pole`'s from `rng`, with its circle route
    `circle(fam, s, pole)` = (eta, points).  A focal pole is rejected, and
    so is one with a circle point within _T_GUARD of t = 0 or pi, where d_p
    is not smooth; that test reads the chords |x - p| and |x + p|, which
    resolve such a point where arccos <x, p> cannot.  Rejections are
    counted in the report; once 100 * num_poles + 1000 poles are rejected
    the report gives up with SamplingError, naming the count for each
    reason, instead of drawing poles forever.  The k-th accepted pole takes
    the start draws `draws(k)` right after its circle.  Returns the list of
    (pole, eta, circle points, start draws)."""
    rejected, drawn = {"focal pole": 0, "t at 0 or pi": 0}, []
    while len(drawn) < num_poles:
        pole = _draw_pole(fam, rng)
        try:
            eta, circle_x = circle(fam, s, pole)
        except PoleIsFocalError:
            rejected["focal pole"] += 1
        else:
            chords = np.minimum(_row_norms(circle_x - pole.coords),
                                _row_norms(circle_x + pole.coords))
            if chords.min() >= 2 * np.sin(_T_GUARD / 2):
                drawn.append((pole, eta, circle_x, draws(len(drawn))))
                continue
            rejected["t at 0 or pi"] += 1
        report.rejected_poles += 1
        if report.rejected_poles >= 100 * num_poles + 1000:
            counts = ", ".join(f"{k}: {v}" for k, v in rejected.items())
            raise SamplingError(
                f"rejected {report.rejected_poles} poles before certifying "
                f"{num_poles} ({counts})")
    return drawn


def _match_distance(A, B):
    """Greedy geodesic matching of two point sets: each row of A in turn
    takes the nearest unused row of B.  Returns the worst matched distance,
    or inf when the counts differ.  Distances are 2 arcsin(|a - b| / 2),
    which resolves nearly equal points to roundoff (arccos <a, b> cannot
    resolve below sqrt(2 eps))."""
    if len(A) != len(B):
        return float("inf")
    B = np.asarray(B, dtype=np.float64)
    used = np.zeros(len(B), dtype=bool)
    worst = 0.0
    for a in A:
        dist = 2 * np.arcsin(np.minimum(np.linalg.norm(B - a, axis=1) / 2, 1.0))
        dist[used] = np.inf
        j = int(np.argmin(dist))
        used[j] = True
        worst = max(worst, float(dist[j]))
    return worst


def tightness_report(fam, s, num_poles=100, seed=0) -> TightnessReport:
    """Certify the critical-point count 2g for distance functions on M_s.

    For each non-focal pole both algorithms run; the report passes only if
    every pole yields exactly 2g critical points from each, the two point
    sets agree within 1e-6, and the two index computations agree at every
    point.  Nothing is tolerated on the counts themselves.

    Every pole is decided on its normal circle before either route runs
    (`_draw_poles`), so a rejected pole takes no Newton start, and the k-th
    accepted pole takes the Newton seed seed + k.  The poles are then
    solved in rounds of one Newton batch (`_rounds`), and each route's
    points of a round are classified in one call.
    """
    num_poles = _size("num_poles", num_poles, 1)
    s = _hypersurface_level(s)
    report = TightnessReport(
        family=fam.label, level=float(s), g=fam.g, m1=fam.m1, m2=fam.m2,
        expected_count=fam.betti_sum_hypersurface, seed=seed)
    drawn = _draw_poles(fam, s, _normal_circle, report,
                        seeded_rng(seed, 0x7161), num_poles,
                        lambda k: _newton_draws(fam, seed + k, 60 * fam.g))
    for batch, poles, unique in _rounds(fam, s, drawn):
        circles = [circle_x for _, _, circle_x, _ in batch]
        for (pole, _, circle_x, _), found, newton_pts, circle_pts in zip(
                batch, unique, _classify_poles(fam, s, poles, unique),
                _classify_poles(fam, s, poles, circles)):
            match = _match_distance(
                [cp.location.coords for cp in newton_pts],
                [cp.location.coords for cp in circle_pts])
            level_res = float(np.abs(np.atleast_1d(fam.polynomial.value(
                np.concatenate([found, circle_x]))) - s).max())
            index_ok = all(cp.index_focal == cp.index_hessian
                           for cp in newton_pts + circle_pts
                           if not cp.degenerate)
            report.record(
                pole, (len(newton_pts), len(circle_pts)),
                match < DEDUP_RADIUS and index_ok,
                {"match_distance": match, "index_agreement": index_ok},
                level_res, [cp.index_hessian for cp in newton_pts],
                [cp.hessian_margin for cp in newton_pts],
                [cp.to_dict() for cp in newton_pts])
    return report


# -- focal submanifolds ------------------------------------------------------

def _focal_sphere_hessian(fam, Y, vals=None):
    """The sphere frames and the sphere-frame Hessian of V at the rows of Y
    (points with V = +/-1), which `_focal_sphere_projector` reads.

    With sph the Householder frames of the sphere's tangent spaces, the
    Hessian of V restricted to the sphere is bmat = sph (H - g F I) sph^T,
    symmetrized, from one Hessian-bank call and, unless the values F at Y
    are given, one value call.  V is a cosine of g times arc length along
    every normal circle, so bmat is 0 along the focal submanifold and
    -side g^2 across it.  Returns (sph (B, D-1, D), bmat (B, D-1, D-1))."""
    Y = np.asarray(Y, dtype=np.float64)
    sph = _householder_frames(Y)
    hess = fam.polynomial.hessian(Y)
    if vals is None:
        vals = np.atleast_1d(fam.polynomial.value(Y))
    core = hess - fam.g * vals[:, None, None] * np.eye(Y.shape[1])[None, :, :]
    bmat = sph @ core @ np.swapaxes(sph, 1, 2)
    return sph, 0.5 * (bmat + np.swapaxes(bmat, 1, 2))


def _focal_sphere_projector(fam, side, Y, vals=None):
    """Tangent projectors of the focal submanifold V = side at the rows of Y,
    in the sphere frame, by matrix products: the one focal tangent object,
    read by the Newton route and the index route (`_FocalSheet`).

    bmat (`_focal_sphere_hessian`, from the values F at Y when given) has
    eigenvalues 0 on T_yM and -side g^2 on its normal space in the sphere,
    so P = I + (side / g^2) bmat is the tangent projector up to roundoff.
    A row keeps that P where max |P^2 - P| is at most _PROJECTOR_TOL (every
    row of a genuine family), and else the eigenvectors of one eigh of its
    bmat with |lambda| < g^2 / 2, the kernel an O(g^2) gap below the rest.
    Returns (sph (B, D-1, D), projectors (B, D-1, D-1), dims (B,)), dims
    the rounded traces."""
    sph, bmat = _focal_sphere_hessian(fam, Y, vals)
    proj = np.eye(bmat.shape[1]) + (side / fam.g ** 2) * bmat
    slow = np.abs(proj @ proj - proj).max(axis=(1, 2)) > _PROJECTOR_TOL
    if slow.any():
        lam, vec = np.linalg.eigh(bmat[slow])
        vec *= np.abs(lam)[:, None, :] < fam.g ** 2 / 2.0
        proj[slow] = vec @ np.swapaxes(vec, 1, 2)
    dims = np.rint(np.trace(proj, axis1=1, axis2=2)).astype(int)
    return sph, proj, dims


def _sphere_tangent_part(p, sph, proj):
    """q = sph^T P sph p: the tangent part of p (one pole or a pole per
    row), an ambient vector per row, from `_focal_sphere_projector`'s
    frames sph and projectors P."""
    P = _pole_rows(p, len(sph))
    coef = (proj @ (sph @ P[:, :, None]))[:, :, 0]
    return np.einsum("bi,bid->bd", coef, sph)


def _focal_jacobian(fam, side, p, Y, chart, q):
    """The exact Jacobian of the focal residual P(y) p at the rows of Y, in
    the chart rows `chart` (B, k, D), given q = P(y) p, p one pole or a
    pole per row: orthonormal tangent vectors (k = d_foc) give the tangent
    block itself, the sphere frame (k = D-1) gives a matrix whose tangent
    block it is.  One third-derivative bank call per batch.

    On orthonormal tangent vectors u_i of T_yM it is the Riemannian Hessian
    <II(u_i, u_j), p> of the height function on M:

        J_ij = -<p, y> delta_ij + (side / g^2) D^3F(y)[u_i, u_j, p_N],

    with p_N = p - <p, y> y - P(y) p the sphere-normal part of p.  The first
    term is the sphere's.  The second is M's second fundamental form in the
    sphere: along M the spherical gradient of V vanishes and its Hessian is
    -side g^2 on the normal space, so differentiating Hess V(v, nu) = 0
    along M gives <II(u, v), nu> = (side / g^2) nabla^3 V(u, v, nu), and at
    critical points of V that covariant derivative is D^3F on vectors
    orthogonal to y."""
    P = _pole_rows(p, len(Y))
    py = _row_dots(Y, P)
    normal = P - py[:, None] * Y - q
    third = fam.polynomial.hessian_along(Y, normal)
    return (-py[:, None, None] * np.eye(chart.shape[1]) + side / fam.g ** 2
            * (chart @ third @ np.swapaxes(chart, 1, 2)))


def _focal_circle_points(fam, side, pole):
    """The g points where the normal great circle through the pole meets the
    focal submanifold V = side (`_normal_circle`).  Returns (eta, points
    (g, D))."""
    return _normal_circle(fam, float(side), pole)


def focal_tautness_report(fam, side, num_poles=50, seed=0,
                          starts_per_pole=None) -> TightnessReport:
    """Certify the critical-point count g for distance functions on the
    focal submanifold V = side.

    The analytic route intersects the unique normal great circle through
    each pole with the focal level (g points); the Newton route solves the
    tangency condition by multistart on the focal submanifold.  The report
    additionally verifies that all critical points lie on one great circle
    through the pole (collinearity residual below 1e-8).

    Every pole, its circle points and its start draws are drawn up front
    (`_draw_poles`), in the order the pole-by-pole loop drew them; then each
    round (`_rounds`) takes one Newton batch and one `_focal_index` call on
    all its circle points.
    """
    side = float(_side(side))
    num_poles = _size("num_poles", num_poles, 1)
    report = TightnessReport(
        family=fam.label, level=side, g=fam.g, m1=fam.m1, m2=fam.m2,
        expected_count=fam.betti_sum_focal, seed=seed)
    starts_per_pole = 24 * fam.g if starts_per_pole is None else _size(
        "starts_per_pole", starts_per_pole, 1)
    rng = seeded_rng(seed, 0xF0CA)
    drawn = _draw_poles(fam, side, _focal_circle_points, report, rng,
                        num_poles, lambda k: rng.normal(
                            size=(starts_per_pole, fam.ambient_dim)))
    for batch, poles, uniques in _rounds(fam, side, drawn):
        sizes = [len(circle_x) for _, _, circle_x, _ in batch]
        circles = np.concatenate([circle_x for _, _, circle_x, _ in batch])
        vals = np.atleast_1d(fam.polynomial.value(circles))
        index_route = _focal_index(
            fam, side, np.repeat(poles, sizes, axis=0), circles, vals)
        # per pole: indices, margins and level residuals of its circle points
        witness = zip(*(_split(a, sizes) for a in (
            *index_route, np.abs(np.abs(vals) - 1.0))))
        for (pole, eta, circle_x, _), unique, (indices, margins, off) in zip(
                batch, uniques, witness):
            # collinearity: independently found points must lie in
            # span{p, eta}
            plane = np.stack([pole.coords, eta])
            colin = float(np.linalg.norm(unique - unique @ plane.T @ plane,
                                         axis=1).max(initial=0.0))
            match = _match_distance(unique, circle_x)
            report.record(
                pole, (len(unique), len(circle_x)),
                match < 10 * DEDUP_RADIUS and colin < 1e-8,
                {"match_distance": match, "collinearity": colin},
                float(off.max()), indices, margins,
                [{"coords": [float(v) for v in c],
                  "t": float(np.arccos(np.clip(pole.coords @ c, -1, 1))),
                  "index_hessian": int(iv)}
                 for c, iv in zip(circle_x, indices)],
                shown=("collinearity",))
    return report


def totally_focal_probe(fam, s, seed=0, num_nonfocal=50, num_focal=10,
                        num_starts=None):
    """Probe the all-or-nothing degeneracy dichotomy of distance functions.

    (a) For non-focal poles every critical point of d_p on M_s must be
    non-degenerate (relative smallest Hessian eigenvalue above 1e-4).
    (b) For poles placed on a focal submanifold every Newton solution must
    be degenerate by the same threshold; the critical set is then a
    continuum and shows up as a cloud of non-isolated solutions.
    A pole violating the dichotomy in either direction is a hard failure.
    Also reports (without asserting) the margin for a pole offset 1e-5 from
    the focal set, to document boundary behavior.  Each pole takes
    `num_starts` Newton starts (default 60 g); a margin over no point is null.
    A pass needs at least one non-focal pole and one focal point, so a probe
    with `num_nonfocal=0` runs but never passes.

    Every pole and its start draws are drawn up front into one list, in the
    order of the pole-by-pole loop: the non-focal poles, the focal poles on
    alternating sheets, the boundary pole.  Each round of them (`_rounds`)
    then takes one Newton batch and one `_classify` call, and each pole
    kind is summarized in one pass over its slice of the list.
    """
    s = _hypersurface_level(s)
    num_nonfocal = _size("num_nonfocal", num_nonfocal, 0)
    num_focal = _size("num_focal", num_focal, 0)
    num_starts = 60 * fam.g if num_starts is None else _size(
        "num_starts", num_starts, 1)
    rng = seeded_rng(seed, 0x70FA)
    dim = fam.ambient_dim

    def focal_pole(side):
        """A pole projected to the focal sheet V = side from a fresh draw."""
        X, ok = _project_batch(fam, side, rng.normal(size=(1, dim)))[:2]
        if not ok[0]:
            raise SamplingError(
                "failed to reach the focal level from this seed")
        return SpherePoint(X[0])

    # (pole, start draws)
    drawn = [(_draw_pole(fam, rng), _newton_draws(fam, seed + i, num_starts))
             for i in range(num_nonfocal)]
    drawn += [(focal_pole((1.0, -1.0)[i % 2]),
               rng.normal(size=(num_starts, dim))) for i in range(num_focal)]
    # boundary demonstration: a pole just off the focal set
    base = focal_pole(1.0)
    w = rng.normal(size=dim)
    w -= (w @ base.coords) * base.coords
    drawn.append((geodesic(base, w / np.linalg.norm(w), 1e-5),
                  _newton_draws(fam, seed + 991, num_starts)))
    cps = [pts for _, poles, unique in _rounds(fam, s, drawn)
           for pts in _classify_poles(fam, s, poles, unique,
                                      _DEGENERATE_PROBE)]
    summaries, mixed_failures = [], []
    for kind, part, key, pick in (
            ("non-focal", slice(num_nonfocal), "min_margin", min),
            ("focal", slice(num_nonfocal, -1), "max_margin", max)):
        points = [cp for pts in cps[part] for cp in pts]
        summaries.append({
            "poles": len(cps[part]), "points": len(points),
            "degenerate_points": sum(cp.degenerate for cp in points),
            key: _extreme(pick, *(cp.hessian_margin for cp in points))})
        # a pole with both degenerate and non-degenerate points
        mixed_failures += [
            {"pole": [float(v) for v in pole.coords], "kind": kind}
            for (pole, _), pts in zip(drawn[part], cps[part])
            if len({cp.degenerate for cp in pts}) == 2]
    nonfocal, focal = summaries
    boundary = {
        "offset": 1e-5,
        "min_margin": _extreme(min, *(cp.hessian_margin for cp in cps[-1])),
        "count": len(cps[-1]),
    }
    passed = (nonfocal["poles"] > 0
              and nonfocal["degenerate_points"] == 0
              and focal["points"] > 0
              and focal["degenerate_points"] == focal["points"]
              and not mixed_failures)
    return {
        "family": fam.label,
        "level": float(s),
        "seed": seed,
        "nonfocal": nonfocal,
        "focal": focal,
        "boundary": boundary,
        "mixed_failures": mixed_failures,
        "pass": passed,
    }
