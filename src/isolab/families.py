"""Isoparametric families: structural metadata, the built-in catalog, the
residual verifier for the defining PDE pair, and the JSON interchange format.

A family carries a homogeneous polynomial F of degree g on E^{n+2} satisfying

    |grad F|^2 = g^2 r^{2g-2}        (ambient gradient)
    lap F      = c r^{g-2},   c = ((m1 - m2)/2) g^2

whose restriction V to the unit sphere has isoparametric level sets.  The
verifier below checks both identities pointwise; catalog entries are built
so the identities hold to roundoff, and user-supplied polynomials are
rejected unless they pass the same sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels_py
from .errors import (FamilyIntegrityError, FamilyRejectedError,
                     InputContractError)
from .polynomial import (CMPolynomial, linear_dict, poly_add, poly_mul,
                         squared_norm_dict)
from .sphere import SpherePoint

# The largest ambient dimension a family may have.  The largest planned
# family, fkm(3, 16), has D = 32; at D = 128 the dense Hessian bank of a
# quartic alone takes 545 MB.
MAX_AMBIENT_DIM = 64

_VERIFY_POINTS = 10_000
_VERIFY_RADIUS = 2.0
_VERIFY_SEED = 1234
_TOL_SCALE = 1e-9


@dataclass(frozen=True)
class IsoparametricFamily:
    """A verified family: polynomial plus structural metadata.

    Multiplicity labels follow the Laplacian identity exactly, i.e.
    c = ((m1 - m2)/2) g^2 with c read off from lap F.  Under this labeling
    and the convention that hypersurface normals point toward increasing V,
    the level V = +1 is a focal submanifold of dimension n - m2 and
    V = -1 one of dimension n - m1.
    """

    polynomial: CMPolynomial
    g: int
    m1: int
    m2: int
    c: float
    label: str

    def __post_init__(self):
        if self.g not in (1, 2, 3, 4, 6):
            raise InputContractError(f"g = {self.g} is not one of 1, 2, 3, 4, 6")
        if self.m1 < 1 or self.m2 < 1:
            raise InputContractError("multiplicities must be positive")
        if self.m1 != self.m2 and self.g % 2 != 0:
            raise InputContractError("distinct multiplicities require even g")
        if self.polynomial.degree != self.g:
            raise InputContractError("polynomial degree must equal g")
        expected_c = ((self.m1 - self.m2) / 2.0) * self.g ** 2
        if self.c != expected_c:
            raise InputContractError(
                f"c = {self.c} but ((m1 - m2)/2) g^2 = {expected_c}")
        n = self.hypersurface_dim
        if self.g % 2 == 0:
            mult_sum = (self.g // 2) * (self.m1 + self.m2)
        else:
            mult_sum = self.g * self.m1
        if mult_sum != n:
            raise InputContractError(
                f"multiplicities sum to {mult_sum} around the normal circle "
                f"but the hypersurface dimension is {n}")

    @property
    def ambient_dim(self):
        return self.polynomial.ambient_dim

    @property
    def hypersurface_dim(self):
        return self.ambient_dim - 2

    @property
    def betti_sum_hypersurface(self):
        return 2 * self.g

    @property
    def betti_sum_focal(self):
        return self.g

    def __repr__(self):
        return (f"IsoparametricFamily({self.label!r}, g={self.g}, "
                f"m1={self.m1}, m2={self.m2}, ambient={self.ambient_dim})")


def munzner_residuals(fam: IsoparametricFamily, x):
    """Pointwise residuals of the two defining identities at ambient x != 0.

    Returns (rho1, rho2) with
        rho1 = |grad F|^2 - g^2 |x|^{2g-2}
        rho2 = trace Hess F - c |x|^{g-2}
    """
    F = fam.polynomial
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    # one squared norm per point; the identities need r only through r^2
    r2 = np.einsum("ij,ij->i", pts, pts)
    if np.any(r2 == 0.0):
        raise InputContractError("residuals are undefined at the origin")
    grad = F.gradient(pts)
    g = fam.g
    rho1 = np.einsum("ij,ij->i", grad, grad) - g * g * r2 ** (g - 1)
    if fam.c == 0.0:
        rho2 = F.laplacian(pts)
    else:
        rho2 = F.laplacian(pts) - fam.c * r2 ** ((g - 2) / 2)
    if single:
        return float(rho1[0]), float(rho2[0])
    return rho1, rho2


class Report:
    """A certificate: its JSON form is its dataclass fields in declaration
    order, with `passed` under the key "pass" and tuples as lists."""

    def to_dict(self):
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out["pass" if f.name == "passed" else f.name] = (
                list(value) if isinstance(value, tuple) else value)
        return out


@dataclass(frozen=True)
class VerificationReport(Report):
    family: str
    num_points: int
    radius: float
    seed: int
    max_rho1: float
    max_rho2: float
    worst_scaled_residual: float
    tol_scale: float
    passed: bool


def seeded_rng(seed, *tags):
    """The generator of the seeded entry points: numpy's default generator
    on the entropy (seed, *tags), the tags keeping their streams apart.  A
    seed that is not an integer (`_integer`) raises InputContractError, and
    so does a negative one, since numpy's SeedSequence takes no negative
    entropy."""
    seed = _integer("seed", seed)
    if seed < 0:
        raise InputContractError(f"seed must be non-negative, got {seed!r}")
    return np.random.default_rng(np.random.SeedSequence((seed, *tags)))


def _chunks(count):
    """Row slices of `count` rows, 16 kernel blocks each.  A chunk starts on
    a block boundary, so the kernel sees the blocks of one whole-batch call
    and gives every row the same bits as there."""
    rows = 16 * _kernels_py.BLOCK_ROWS
    return [slice(lo, lo + rows) for lo in range(0, count, rows)]


def _ball_samples(rng, count, dim, radius):
    x = rng.standard_normal(size=(count, dim))
    # radius * u^(1/dim), in place: one N-length array beside the samples
    radii = rng.random(size=(count, 1))
    radii **= 1.0 / dim
    radii *= radius
    # scaled in place a chunk at a time, so that only one chunk's squares
    # and norms are held beside the samples
    for rows in _chunks(count):
        chunk = x[rows]
        norms = np.linalg.norm(chunk, axis=1, keepdims=True)
        # reject a vanishing fraction near the origin; r^{g-2} is singular
        # there
        norms[norms < 1e-12] = 1.0
        chunk /= norms
        chunk *= np.maximum(radii[rows], 1e-3)
    return x


def verify_munzner(fam: IsoparametricFamily, num_points=_VERIFY_POINTS,
                   radius=_VERIFY_RADIUS, seed=_VERIFY_SEED,
                   tol_scale=_TOL_SCALE) -> VerificationReport:
    """Residual sweep over points sampled uniformly in the ball of the given
    radius.  Passes when max(|rho1|, |rho2|) < tol_scale * (1 + |x|^{2g})
    at every sample.  The residuals are taken a chunk of `_chunks` at a
    time, so beyond the samples the sweep holds one chunk's banks."""
    num_points = _size("num_points", num_points, 1)
    rng = seeded_rng(seed)
    pts = _ball_samples(rng, num_points, fam.ambient_dim, radius)
    peaks = []  # per chunk: max |rho1|, max |rho2|, max scaled residual
    for rows in _chunks(num_points):
        chunk = pts[rows]
        rho1, rho2 = map(np.abs, munzner_residuals(fam, chunk))
        allowance = 1.0 + np.einsum("ij,ij->i", chunk, chunk) ** fam.g
        peaks.append((rho1.max(), rho2.max(),
                      (np.maximum(rho1, rho2) / allowance).max()))
    max_rho1, max_rho2, worst = map(float, np.max(peaks, axis=0))
    return VerificationReport(
        family=fam.label,
        num_points=num_points,
        radius=radius,
        seed=seed,
        max_rho1=max_rho1,
        max_rho2=max_rho2,
        worst_scaled_residual=worst,
        tol_scale=tol_scale,
        passed=bool(worst < tol_scale),
    )


def restrict_V(fam: IsoparametricFamily, x) -> float:
    """Value of the sphere restriction V at a unit vector.  A value outside
    [-1, 1] (beyond 1e-9) signals a miscalibrated polynomial and raises."""
    coords = x.coords if isinstance(x, SpherePoint) else np.asarray(x, float)
    if abs(float(np.linalg.norm(coords)) - 1.0) > 1e-9:
        raise InputContractError("restrict_V expects a unit vector")
    v = float(fam.polynomial.value(coords))
    if not -1.0 - 1e-9 <= v <= 1.0 + 1e-9:
        raise FamilyIntegrityError(
            f"V({fam.label}) = {v!r} leaves [-1, 1]; the family is inconsistent")
    return v


# -- the catalog -------------------------------------------------------------

def _integer(name, value):
    """An integer parameter as an int; a value that int() would truncate
    (2.5) or read from a string is an InputContractError."""
    try:
        exact = int(value) == value
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise InputContractError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _size(name, value, least):
    """The integer (`_integer`) size argument `name`, at least `least`."""
    value = _integer(name, value)
    if value < least:
        raise InputContractError(f"{name} must be at least {least}")
    return value


def _ambient(dim):
    """The ambient dimension `dim`, refused above MAX_AMBIENT_DIM before
    any table of that size is built."""
    if dim > MAX_AMBIENT_DIM:
        raise InputContractError(
            f"ambient dimension {dim} exceeds the cap of {MAX_AMBIENT_DIM}")
    return dim


def _great_sphere(n=3, axis=0):
    n, axis = _integer("n", n), _integer("axis", axis)
    dim = _ambient(n + 2)
    if not 0 <= axis < dim:
        raise InputContractError("axis out of range")
    poly = CMPolynomial.from_dict(dim, 1, linear_dict(dim, axis))
    return IsoparametricFamily(poly, g=1, m1=n, m2=n, c=0.0,
                               label="great-sphere")


def _clifford(k, n):
    k, n = _integer("k", k), _integer("n", n)
    if k < 1 or n - k < 1:
        raise InputContractError("clifford needs k >= 1 and n - k >= 1")
    dim = _ambient(n + 2)
    terms = poly_add(squared_norm_dict(dim, range(k + 1)),
                     squared_norm_dict(dim, range(k + 1, dim)), scale=-1.0)
    poly = CMPolynomial.from_dict(dim, 2, terms)
    c = ((k - (n - k)) / 2.0) * 4.0
    return IsoparametricFamily(poly, g=2, m1=k, m2=n - k, c=c, label="clifford")


def sym3_basis():
    """Fixed orthonormal basis of traceless symmetric 3x3 matrices under
    <A, B> = trace(AB); shared by the cubic family and the orbit oracle."""
    b = np.zeros((5, 3, 3))
    b[0] = np.diag([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    b[1] = np.diag([1.0, 1.0, -2.0]) / math.sqrt(6.0)
    b[2, 0, 1] = b[2, 1, 0] = 1.0 / math.sqrt(2.0)
    b[3, 0, 2] = b[3, 2, 0] = 1.0 / math.sqrt(2.0)
    b[4, 1, 2] = b[4, 2, 1] = 1.0 / math.sqrt(2.0)
    return b


def sym3_to_ambient(matrix):
    """Coordinates of a traceless symmetric 3x3 matrix in the fixed basis."""
    basis = sym3_basis()
    return np.array([float(np.trace(matrix @ b)) for b in basis])


def ambient_to_sym3(x):
    basis = sym3_basis()
    x = np.asarray(x, dtype=np.float64)
    return np.einsum("i,ijk->jk", x, basis)


def _trace_cubic_terms():
    # expand trace(X^3) with X = sum x_i B_i over all ordered index triples
    basis = sym3_basis()
    out = {}
    for i in range(5):
        for j in range(5):
            prod_ij = basis[i] @ basis[j]
            for k in range(5):
                coeff = float(np.trace(prod_ij @ basis[k]))
                if abs(coeff) < 1e-15:
                    continue
                e = [0] * 5
                e[i] += 1
                e[j] += 1
                e[k] += 1
                e = tuple(e)
                out[e] = out.get(e, 0.0) + coeff
    return {e: c for e, c in out.items() if abs(c) > 1e-14}


def _cartan_cubic():
    # sqrt(6) tr(X^3) meets |grad F|^2 = 9 r^4 exactly; the integrity check
    # below guards the term expansion
    poly = CMPolynomial.from_dict(5, 3, _trace_cubic_terms())
    fam = IsoparametricFamily(poly.scaled(math.sqrt(6.0)), g=3, m1=1, m2=1,
                              c=0.0, label="cartan-cubic")
    check = verify_munzner(fam, num_points=2000, seed=24680)
    if not check.passed:
        raise FamilyIntegrityError(
            "the cubic fails verification "
            f"(worst scaled residual {check.worst_scaled_residual:.3e})")
    return fam


def _nomizu_quartic(n):
    n = _integer("n", n)
    if n < 2:
        raise InputContractError("the quartic family needs n >= 2")
    dim = _ambient(2 * n + 2)
    u_idx = range(n + 1)
    v_idx = range(n + 1, dim)
    r2 = poly_add(squared_norm_dict(dim, u_idx), squared_norm_dict(dim, v_idx))
    diff = poly_add(squared_norm_dict(dim, u_idx),
                    squared_norm_dict(dim, v_idx), scale=-1.0)
    dot = {}
    for i in range(n + 1):
        e = [0] * dim
        e[i] = 1
        e[n + 1 + i] = 1
        dot[tuple(e)] = 1.0
    terms = poly_mul(r2, r2)
    terms = poly_add(terms, poly_mul(diff, diff), scale=-2.0)
    terms = poly_add(terms, poly_mul(dot, dot), scale=-8.0)
    poly = CMPolynomial.from_dict(dim, 4, terms)
    c = ((n - 2) / 2.0) * 16.0
    return IsoparametricFamily(poly, g=4, m1=n - 1, m2=1, c=c,
                               label="nomizu-quartic")


def _user_polynomial(terms=None, ambient_dim=None, g=None, m1=None, m2=None,
                     label="user-polynomial", verify=True, polynomial=None):
    if g is None or m1 is None or m2 is None:
        raise InputContractError("user-polynomial needs claimed g, m1, m2")
    g, m1, m2 = _integer("g", g), _integer("m1", m1), _integer("m2", m2)
    if polynomial is None:
        if terms is None or ambient_dim is None:
            raise InputContractError(
                "user-polynomial needs `terms` and `ambient_dim`")
        polynomial = CMPolynomial(
            _ambient(_integer("ambient_dim", ambient_dim)), g, terms)
    c = ((m1 - m2) / 2.0) * g ** 2
    fam = IsoparametricFamily(polynomial, g=g, m1=m1, m2=m2, c=c,
                              label=str(label))
    if verify:
        report = verify_munzner(fam)
        if not report.passed:
            raise FamilyRejectedError(
                f"polynomial fails the defining identities: worst scaled "
                f"residual {report.worst_scaled_residual:.6e} "
                f"(max rho1 {report.max_rho1:.3e}, max rho2 {report.max_rho2:.3e})",
                worst_residual=report.worst_scaled_residual)
    return fam


_BUILDERS = {
    "great-sphere": _great_sphere,
    "clifford": _clifford,
    "cartan-cubic": _cartan_cubic,
    "nomizu-quartic": _nomizu_quartic,
    "user-polynomial": _user_polynomial,
}
CATALOG_LABELS = tuple(_BUILDERS)


def catalog(name, **params) -> IsoparametricFamily:
    """Construct a family by its catalog name.

    great-sphere(n=3, axis=0); clifford(k, n); cartan-cubic();
    nomizu-quartic(n); user-polynomial(terms, ambient_dim, g, m1, m2,
    label, verify=True).  User polynomials are verified, not trusted.
    """
    if name not in _BUILDERS:
        raise InputContractError(
            f"unknown family label {name!r}; choose from {CATALOG_LABELS}")
    return _BUILDERS[name](**params)


# -- JSON interchange --------------------------------------------------------

def family_to_json_obj(fam: IsoparametricFamily):
    return {
        "ambient_dim": fam.ambient_dim,
        "degree": fam.polynomial.degree,
        "terms": [[c, list(e)] for c, e in fam.polynomial.terms()],
        "g": fam.g,
        "m1": fam.m1,
        "m2": fam.m2,
        "label": fam.label,
    }


def family_to_json(fam: IsoparametricFamily) -> str:
    return json.dumps(family_to_json_obj(fam), sort_keys=True)


def family_from_json_obj(obj, verify=True) -> IsoparametricFamily:
    try:
        dim = _ambient(_integer("ambient_dim", obj["ambient_dim"]))
        poly = CMPolynomial(dim, _integer("degree", obj["degree"]),
                            [(c, e) for c, e in obj["terms"]])
        return _user_polynomial(polynomial=poly, g=obj["g"], m1=obj["m1"],
                                m2=obj["m2"], label=obj.get("label", "user-polynomial"),
                                verify=verify)
    except KeyError as exc:
        raise InputContractError(f"polynomial JSON missing field {exc}") from exc


def family_from_json(text: str, verify=True) -> IsoparametricFamily:
    return family_from_json_obj(json.loads(text), verify=verify)
