"""Shape operators, principal-curvature spectra, parallel curvature
transport, and the constancy check that defines the isoparametric property.

Sign convention: the unit normal xi points toward increasing V, and the
shape operator is minus the tangential derivative of xi.  In the frame of a
SurfacePoint this reduces to

    A[i][j] = -(Hess F(f_i, f_j) - g F(x) delta_ij) / |grad_S V(x)|

restricted to the hypersurface tangent vectors f_i, because the connection
terms of the sphere contribute exactly the g F(x) delta_ij correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClusteringError, FocalCrossingError, FocalDegeneracyError
from .families import Report, _size
from .levelset import (SurfacePoint, _hypersurface_level, sample_points,
                       spherical_gradient)

_VALID_COUNTS = (1, 2, 3, 4, 6)
_DEFAULT_CLUSTER_TOL = 1e-4


def arccot(v):
    """Inverse cotangent with values in (0, pi)."""
    return np.arctan2(1.0, v)


@dataclass(frozen=True)
class PrincipalSpectrum:
    """Clustered principal curvatures in descending order, with their
    multiplicities and the offset angle theta = arccot(largest value)."""

    values: tuple
    multiplicities: tuple
    theta: float

    @property
    def count(self):
        return len(self.values)

    def focal_parameters(self):
        """arccot of each distinct curvature, in (0, pi), ascending."""
        return tuple(float(arccot(v)) for v in self.values)


def shape_operator(sp: SurfacePoint):
    """Shape operator at a regular surface point, as a symmetric matrix in
    the hypersurface tangent frame."""
    fam = sp.family
    x = sp.x.coords
    w = spherical_gradient(fam, sp.x)
    wn = float(np.linalg.norm(w))
    if wn < 1e-8:
        raise FocalDegeneracyError("shape operator undefined on the focal set")
    frame = np.asarray(sp.tangent_vectors)
    hess = fam.polynomial.hessian(x)
    val = float(fam.polynomial.value(x))
    return _shape_matrix(fam.g, frame, hess, np.asarray(val), np.asarray(wn))


def _shape_matrix(g, frames, hess, vals, wn):
    """The shape-operator formula of the module docstring, symmetrized, from
    tangent frames (..., n, D), ambient Hessians (..., D, D), values F and
    gradient norms |grad_S V| (...); leading axes batch."""
    eye = np.eye(frames.shape[-2])
    a = -(frames @ hess @ np.swapaxes(frames, -1, -2)
          - g * vals[..., None, None] * eye) / wn[..., None, None]
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _shape_operators(fam, X, frames, vals, wn):
    """Shape operators (B, n, n) at the rows of X in the tangent frames
    `frames` (B, n, D), given the values F (B,) and the norms |grad_S V| (B,)
    there, as `_frames_batch` returns them, from one Hessian-bank call."""
    return _shape_matrix(fam.g, frames, fam.polynomial.hessian(X), vals, wn)


def principal_curvatures(matrix, cluster_tol=_DEFAULT_CLUSTER_TOL) -> PrincipalSpectrum:
    """Cluster the eigenvalues of a symmetric shape operator.

    Consecutive eigenvalues further apart than cluster_tol start a new
    cluster.  The clustering must be unambiguous (every intra-cluster spread
    below cluster_tol/10) and the cluster count must be a value the theory
    allows, else ClusteringError.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ClusteringError("shape operator must be a square matrix")
    if np.abs(matrix - matrix.T).max() > 1e-9:
        raise ClusteringError("shape operator must be symmetric")
    eig = np.sort(np.linalg.eigvalsh(matrix))[::-1]
    clusters = [[eig[0]]]
    for v in eig[1:]:
        if clusters[-1][-1] - v > cluster_tol:
            clusters.append([v])
        else:
            clusters[-1].append(v)
    spreads = [c[0] - c[-1] for c in clusters]
    if len(clusters) > 1:
        gaps = [clusters[i][-1] - clusters[i + 1][0] for i in range(len(clusters) - 1)]
    else:
        gaps = []
    worst_spread = max(spreads)
    if worst_spread > cluster_tol / 10.0:
        raise ClusteringError(
            f"ambiguous clustering: intra-cluster spread {worst_spread:.3e} "
            f"with cluster gaps {['%.3e' % gv for gv in gaps]} at tol {cluster_tol:g}")
    if len(clusters) not in _VALID_COUNTS:
        raise ClusteringError(
            f"found {len(clusters)} curvature clusters; expected one of "
            f"{_VALID_COUNTS}")
    values = tuple(float(np.mean(c)) for c in clusters)
    mults = tuple(len(c) for c in clusters)
    theta = float(arccot(values[0]))
    return PrincipalSpectrum(values=values, multiplicities=mults, theta=theta)


def parallel_transport_curvature(lam, t):
    """Principal curvature of the parallel hypersurface at oriented distance
    t, for a curvature lam of the base: cot(arccot(lam) - t).

    Raises FocalCrossingError when the transport passes through a focal
    distance (arccot(lam) - t a multiple of pi), carrying the critical t.
    """
    phi = float(arccot(lam))
    psi = phi - float(t)
    if abs(np.sin(psi)) < 1e-12:
        t_critical = phi - np.pi * round((phi - t) / np.pi)
        raise FocalCrossingError(
            f"transport crosses a focal point at t = {t_critical!r}", t_critical)
    return float(np.cos(psi) / np.sin(psi))


@dataclass(frozen=True)
class SpectrumReport(Report):
    """The measured fields default to the values of a failed check."""

    family: str
    level: float
    num_samples: int
    seed: int
    cluster_tol: float
    tol: float
    values: tuple = ()
    multiplicities: tuple = ()
    theta: float = float("nan")
    worst_cluster_spread: float = float("inf")
    worst_spacing_error: float = float("inf")
    alternation_ok: bool = False
    passed: bool = False
    failure: str | None = None


def _alternation_ok(mults, fam):
    """Multiplicities must repeat with period two and use exactly the
    family's pair {m1, m2} (both orders are accepted: which of the two
    leads depends on the normal orientation when m1 != m2)."""
    if any(mults[i] != mults[i % 2] for i in range(len(mults))):
        return False
    if len(mults) == 1:
        return mults[0] == fam.m1 == fam.m2
    return {mults[0], mults[1]} == {fam.m1, fam.m2}


def isoparametric_check(fam, s, num_samples=100, seed=0,
                        tol=1e-7, cluster_tol=_DEFAULT_CLUSTER_TOL) -> SpectrumReport:
    """Certify constancy of the principal-curvature spectrum over a level.

    Computes the clustered spectrum at `num_samples` points of M_s and
    checks: identical cluster values across points (within tol), arccot
    spacing pi/g (within tol), and period-two multiplicity alternation.
    """
    num_samples = _size("num_samples", num_samples, 1)
    pts = sample_points(fam, _hypersurface_level(s), num_samples, seed)
    all_values = []
    failure = None
    mults = None
    try:
        for p in pts:
            spec = principal_curvatures(shape_operator(p), cluster_tol)
            if mults is None:
                mults = spec.multiplicities
            elif spec.multiplicities != mults:
                failure = (f"multiplicity pattern changed between points: "
                           f"{mults} vs {spec.multiplicities}")
                break
            all_values.append(spec.values)
    except ClusteringError as exc:
        failure = f"clustering failed at sample {len(all_values)}: {exc}"
    if failure is not None:
        return SpectrumReport(
            family=fam.label, level=float(s), num_samples=num_samples,
            seed=seed, cluster_tol=cluster_tol, tol=tol,
            multiplicities=mults or (), failure=failure)
    vals = np.array(all_values)
    spread = float((vals.max(axis=0) - vals.min(axis=0)).max())
    mean_vals = vals.mean(axis=0)
    params = np.sort(arccot(mean_vals))
    if len(params) > 1:
        spacing_err = float(np.abs(np.diff(params) - np.pi / fam.g).max())
    else:
        spacing_err = 0.0
    alternation = _alternation_ok(list(mults), fam)
    count_ok = len(mults) == fam.g
    passed = (spread < tol) and (spacing_err < tol) and alternation and count_ok
    if not count_ok:
        failure = f"{len(mults)} clusters but g = {fam.g}"
    return SpectrumReport(
        family=fam.label, level=float(s), num_samples=num_samples, seed=seed,
        cluster_tol=cluster_tol, tol=tol,
        values=tuple(float(v) for v in mean_vals),
        multiplicities=tuple(int(m) for m in mults),
        theta=float(arccot(mean_vals[0])),
        worst_cluster_spread=spread, worst_spacing_error=spacing_err,
        alternation_ok=alternation, passed=passed, failure=failure)


def spectrum_at(sp: SurfacePoint, cluster_tol=_DEFAULT_CLUSTER_TOL) -> PrincipalSpectrum:
    """Convenience: clustered spectrum of the shape operator at one point."""
    return principal_curvatures(shape_operator(sp), cluster_tol)
