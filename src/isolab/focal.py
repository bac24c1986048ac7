"""Focal points along normal great circles, the cosine profile of V under
the offset normal exponential map, and dimension estimation of the focal
submanifolds by local principal component analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SamplingError
from .families import _size, seeded_rng
from .levelset import SurfacePoint, _project_batch, _side, project_to_level
from .shape import PrincipalSpectrum, spectrum_at
from .sphere import SpherePoint

_SIDE_TOL = 1e-6


@dataclass(frozen=True)
class FocalPoint:
    """A focal point of (M, x): location, signed circle parameter t in
    (-pi, pi], the multiplicity of the curvature that produced it, and which
    focal submanifold it lies on (sign of V there)."""

    location: SpherePoint
    t: float
    multiplicity: int
    side: int


def focal_points_along_normal(sp: SurfacePoint, spectrum: PrincipalSpectrum | None = None):
    """The 2g focal points on the normal great circle through a surface
    point: each distinct curvature lambda contributes cos(t) x + sin(t) xi
    at t = arccot(lambda) and t = arccot(lambda) - pi.  Results are sorted
    by t and tagged with multiplicity and side."""
    if spectrum is None:
        spectrum = spectrum_at(sp)
    fam = sp.family
    x = sp.x.coords
    xi = sp.xi
    out = []
    for value, mult in zip(spectrum.values, spectrum.multiplicities):
        base_t = float(np.arctan2(1.0, value))
        for t in (base_t, base_t - np.pi):
            loc = SpherePoint(np.cos(t) * x + np.sin(t) * xi)
            v = float(fam.polynomial.value(loc.coords))
            if abs(v) < 1.0 - _SIDE_TOL:
                # borderline tagging: snap to the nearest focal level first
                target = 1.0 if v >= 0 else -1.0
                snapped, ok = _project_batch(fam, target,
                                             loc.coords[None, :])[:2]
                if ok[0]:
                    loc = SpherePoint(snapped[0])
                    v = float(fam.polynomial.value(loc.coords))
            out.append(FocalPoint(location=loc, t=t, multiplicity=int(mult),
                                  side=1 if v > 0 else -1))
    out.sort(key=lambda f: f.t)
    return out


def _circle_profile(fam, sp: SurfacePoint, grid_size, spectrum=None):
    """The uniform t-grid of `grid_size` points on (-pi, pi] and V(E(t, x))
    on it, where E is the offset normal exponential map at sp with the
    offset theta taken from the spectrum at sp (computed unless given).
    Returns (ts, values)."""
    grid_size = _size("grid_size", grid_size, 1)
    if spectrum is None:
        spectrum = spectrum_at(sp)
    ts = -np.pi + 2 * np.pi * (np.arange(1, grid_size + 1) / grid_size)
    ang = spectrum.theta - ts
    pts = np.cos(ang)[:, None] * sp.x.coords + np.sin(ang)[:, None] * np.asarray(sp.xi)
    return ts, fam.polynomial.value(pts)


def exp_param_check(fam, sp: SurfacePoint, grid_size=720,
                    spectrum: PrincipalSpectrum | None = None):
    """Maximum of |V(E(t, x)) - cos(g t)| over the `_circle_profile` grid,
    reading the spectrum at sp if the caller has it.  For a genuine family
    this is roundoff-sized."""
    ts, vals = _circle_profile(fam, sp, grid_size, spectrum)
    return float(np.abs(vals - np.cos(fam.g * ts)).max())


def _focal_neighbor_cloud(fam, side, base, radius, rng, needed):
    """Points of the focal submanifold within `radius` (chord) of `base`,
    generated by perturb-and-reproject."""
    collected = []
    attempts = 0
    while len(collected) < needed and attempts < 40:
        attempts += 1
        raw = base[None, :] + rng.normal(scale=radius / 2.0,
                                         size=(4 * needed, base.shape[0]))
        proj, ok = _project_batch(fam, side, raw)[:2]
        if not ok.any():
            continue
        proj = proj[ok]
        dist = np.linalg.norm(proj - base[None, :], axis=1)
        keep = proj[(dist <= radius) & (dist > 0)]
        collected.extend(keep)
    return np.array(collected)


def focal_dimension_estimate(fam, side, base_count=4, neighbor_radius=1e-3,
                             seed=0, sv_ratio=1e-3):
    """Intrinsic dimension of the focal submanifold V = side, estimated by
    the singular-value rank of a local neighbor cloud.

    At chord radius r the tangent directions contribute singular values of
    order r while curvature pushes the normal ones to order r^2, so the
    fixed ratio threshold cleanly separates them for r <= 1e-3.  Estimates
    from several base points must agree.
    """
    side = _side(side)
    base_count = _size("base_count", base_count, 1)
    rng = seeded_rng(seed, 0xF0CA1)
    dim = fam.ambient_dim
    needed = 2 * (dim + 2)
    estimates = []
    for _ in range(base_count):
        raw = rng.normal(size=dim)
        base_sp = project_to_level(fam, float(side), SpherePoint(raw))
        base = base_sp.x.coords
        cloud = _focal_neighbor_cloud(fam, float(side), base, neighbor_radius,
                                      rng, needed)
        if len(cloud) < needed:
            raise SamplingError(
                f"only {len(cloud)} neighbors within {neighbor_radius:g}; "
                f"need {needed}")
        centered = cloud - cloud.mean(axis=0, keepdims=True)
        sv = np.linalg.svd(centered, compute_uv=False)
        if sv[0] < 1e-6 * neighbor_radius:
            estimates.append(0)  # isolated point: the cloud collapsed
            continue
        estimates.append(int(np.sum(sv / sv[0] > sv_ratio)))
    if len(set(estimates)) != 1:
        raise SamplingError(f"dimension estimates disagree across base "
                            f"points: {estimates}")
    return estimates[0]
