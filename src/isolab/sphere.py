"""Primitives of the round unit sphere sitting in Euclidean space: geodesics,
distances, orthonormal frames, the normal exponential map, and stereographic
projection.  Everything here is a pure function over immutable values."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputContractError, StereographicPoleError

_MIN_NORM = 1e-8


def _as_vector(v):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise InputContractError("expected a 1-d coordinate vector")
    return v


@dataclass(frozen=True)
class SpherePoint:
    """A point of the unit sphere, stored in ambient coordinates.

    The constructor normalizes its input and rejects vectors of norm below
    1e-8 or with a non-finite entry; downstream formulas all assume exact
    unit norm.
    """

    coords: np.ndarray

    def __init__(self, coords):
        coords = _as_vector(coords)
        if not np.isfinite(coords).all():
            raise InputContractError("coordinates must be finite")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(coords))
        if not np.isfinite(norm):  # the squares overflowed: rescale first
            coords = coords / np.abs(coords).max()
            norm = float(np.linalg.norm(coords))
        if norm < _MIN_NORM:
            raise InputContractError(f"cannot normalize vector of norm {norm:.3e}")
        coords = coords / norm
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def ambient_dim(self):
        return self.coords.shape[0]

    def antipode(self):
        return SpherePoint(-self.coords)

    def __repr__(self):
        return f"SpherePoint({np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal vectors spanning the tangent space of the sphere at `base`.

    When built with a hypersurface normal xi, the last vector is xi itself and
    the preceding ones span the hypersurface tangent space.
    """

    base: SpherePoint
    vectors: np.ndarray
    has_normal: bool = field(default=False)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def surface_tangents(self):
        """Vectors tangent to the hypersurface (excludes the normal slot)."""
        return self.vectors[:-1] if self.has_normal else self.vectors


def _require_unit_tangent(x: SpherePoint, u, what="u"):
    u = _as_vector(u)
    if u.shape != x.coords.shape:
        raise InputContractError(f"{what} has wrong dimension")
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-8:
        raise InputContractError(f"{what} is not a unit vector")
    if abs(float(u @ x.coords)) > 1e-8:
        raise InputContractError(f"{what} is not tangent to the sphere at x")
    return u


def geodesic(x: SpherePoint, u, t: float) -> SpherePoint:
    """Point reached from x after arc length t along the great circle with
    initial direction u (unit, tangent at x)."""
    u = _require_unit_tangent(x, u)
    return SpherePoint(np.cos(t) * x.coords + np.sin(t) * u)


def spherical_distance(p: SpherePoint, x: SpherePoint) -> float:
    """Geodesic distance arccos<p, x> in [0, pi], evaluated through the
    chord length so it stays fully accurate at both endpoints (the raw
    arccos of a clamped inner product loses half the digits near 0 and pi).
    """
    chord = float(np.linalg.norm(x.coords - p.coords))
    if chord <= np.sqrt(2.0):
        return 2.0 * float(np.arcsin(min(chord / 2.0, 1.0)))
    cochord = float(np.linalg.norm(x.coords + p.coords))
    return np.pi - 2.0 * float(np.arcsin(min(cochord / 2.0, 1.0)))


def normal_exponential(t: float, x: SpherePoint, xi, theta: float) -> SpherePoint:
    """Offset normal exponential map cos(theta - t) x + sin(theta - t) xi.

    `theta` is the family offset (distance from x to the first focal point on
    the +xi side), so t = theta reproduces x and t = 0 lands on the focal set.
    """
    xi = _require_unit_tangent(x, xi, what="xi")
    a = theta - t
    return SpherePoint(np.cos(a) * x.coords + np.sin(a) * xi)


def tangent_basis(x: SpherePoint, xi=None) -> TangentFrame:
    """Orthonormal frame at x, completed by Gram-Schmidt over the coordinate
    axes in index order (deterministic, hence reproducible in reports).

    With xi supplied, the first n vectors span the hypersurface tangent space
    (orthogonal to both x and xi) and xi is appended as the last vector.
    """
    dim = x.ambient_dim
    seeds = [x.coords]
    if xi is not None:
        xi = _as_vector(xi)
        if abs(float(np.linalg.norm(xi)) - 1.0) > 1e-8:
            raise InputContractError("xi is not a unit vector")
        if abs(float(xi @ x.coords)) > 1e-8:
            raise InputContractError("xi is not tangent to the sphere at x")
        seeds.append(xi)
    basis = []
    for v in seeds + [np.eye(dim)[i] for i in range(dim)]:
        w = v.astype(float)
        for b in basis:
            w = w - (w @ b) * b
        for b in basis:  # second pass keeps orthogonality at machine precision
            w = w - (w @ b) * b
        n = float(np.linalg.norm(w))
        if n > 1e-6:
            basis.append(w / n)
        if len(basis) == dim:
            break
    frame = np.array(basis[len(seeds):])
    if xi is not None:
        # use the re-orthogonalized copy of xi so the frame meets the
        # 1e-12 orthonormality invariant even for slightly skewed inputs
        frame = np.vstack([frame, basis[1]])
    return TangentFrame(base=x, vectors=frame, has_normal=xi is not None)


def stereographic(x: SpherePoint, pole: SpherePoint):
    """Stereographic projection from `pole` onto the equatorial hyperplane
    through the origin, expressed in the deterministic orthonormal basis of
    pole-orthogonal directions returned by `tangent_basis(pole)`."""
    denom = 1.0 - float(x.coords @ pole.coords)
    if denom < 1e-9:
        raise StereographicPoleError("point coincides with the projection pole")
    basis = tangent_basis(pole).vectors
    return (basis @ x.coords) / denom


def stereographic_inverse(y, pole: SpherePoint) -> SpherePoint:
    """Inverse of `stereographic` for the same pole."""
    y = np.asarray(y, dtype=np.float64)
    basis = tangent_basis(pole).vectors
    if y.shape != (basis.shape[0],):
        raise InputContractError("projected vector has wrong dimension")
    y2 = float(y @ y)
    ambient = (2.0 * (y @ basis) + (y2 - 1.0) * pole.coords) / (y2 + 1.0)
    return SpherePoint(ambient)
