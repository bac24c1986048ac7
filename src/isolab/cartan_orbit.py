"""Independent ground truth for the cubic family: the orbit description.

The degree-3 family in the 4-sphere of traceless symmetric 3x3 matrices is
the family of conjugation orbits of the diagonal matrices

    D_t = sqrt(2/3) diag(cos(t - pi/3), cos(t + pi/3), cos(t + pi)),

0 <= t <= pi/3, with the endpoint orbits (projective planes) forming the
focal set.  Points generated this way never touch the polynomial machinery,
so agreement between V on these orbits and a pure cosine in t validates the
catalog entry without circularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FamilyIntegrityError, InputContractError
from .families import _size, catalog, seeded_rng, sym3_to_ambient
from .sphere import SpherePoint


@dataclass(frozen=True)
class OrbitParams:
    """Orbit parameter t in [0, pi/3] plus the rotation applied to D_t."""

    t: float
    rotation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise InputContractError("rotation must be a 3x3 matrix")
        if np.abs(rot @ rot.T - np.eye(3)).max() > 1e-12:
            raise InputContractError("rotation must be orthogonal to 1e-12")
        object.__setattr__(self, "rotation", rot)


def diagonal_profile(t):
    """Entries of D_t (unit norm, zero trace by construction)."""
    return np.sqrt(2.0 / 3.0) * np.cos(np.array([t - np.pi / 3.0,
                                                 t + np.pi / 3.0,
                                                 t + np.pi]))


def orbit_point(params: OrbitParams) -> SpherePoint:
    """Ambient coordinates of Q D_t Q^T in the shared matrix basis."""
    d = np.diag(diagonal_profile(params.t))
    q = params.rotation
    return SpherePoint(sym3_to_ambient(q @ d @ q.T))


def random_rotation(rng) -> np.ndarray:
    """Haar-ish rotation: QR of a Gaussian matrix with sign fixing and a
    determinant correction; deterministic given the generator state."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def orbit_level_check(t, num_rotations=100, seed=0, fam=None):
    """Evaluate the catalog cubic on `num_rotations` random rotations of the
    orbit at parameter t.  Orbits are level sets, so the spread must be at
    roundoff scale; a larger spread means the catalog polynomial and the
    orbit construction disagree.  Returns (mean V, spread)."""
    num_rotations = _size("num_rotations", num_rotations, 1)
    if fam is None:
        fam = catalog("cartan-cubic")
    rng = seeded_rng(seed, 0x0B17)
    vals = []
    for _ in range(num_rotations):
        pt = orbit_point(OrbitParams(t=float(t), rotation=random_rotation(rng)))
        vals.append(float(fam.polynomial.value(pt.coords)))
    vals = np.array(vals)
    spread = float(vals.max() - vals.min())
    if spread > 1e-9:
        raise FamilyIntegrityError(
            f"orbit at t = {t} is not a level set of the catalog cubic "
            f"(spread {spread:.3e}); calibration or basis mismatch")
    return float(vals.mean()), spread


def fit_cosine_profile(ts, values, frequency=3):
    """Fit values ~ amplitude * cos(frequency * t + phase) by projection.

    Returns (amplitude, phase, max_deviation).  The family fixes only the
    magnitude of the amplitude; the phase relating the orbit parameter to
    the level parameter is a convention and is fitted, not assumed.
    """
    ts = np.asarray(ts, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    a = 2.0 * np.mean(values * np.cos(frequency * ts))
    b = 2.0 * np.mean(values * np.sin(frequency * ts))
    amplitude = float(np.hypot(a, b))
    phase = float(np.arctan2(-b, a))
    fitted = amplitude * np.cos(frequency * ts + phase)
    return amplitude, phase, float(np.abs(values - fitted).max())
