"""Homogeneous polynomials stored as explicit term lists.

All calculus elsewhere in the package (gradients, Hessians, Laplacians) is
produced by the exact power rule on the term list, so no numerical
differentiation error enters any verifier; the only floating-point error is
the rounding of the evaluation arithmetic itself.
"""

from __future__ import annotations

import numpy as np

from . import _kernels_py as kernels
from .errors import InputContractError


def _canonical_terms(ambient_dim, degree, terms):
    """Combine duplicates, drop zeros, sort lexicographically by exponents."""
    merged = {}
    for coeff, exps in terms:
        exps = tuple(int(e) for e in exps)
        if len(exps) != ambient_dim:
            raise InputContractError(
                f"term exponent vector has length {len(exps)}, expected {ambient_dim}"
            )
        if any(e < 0 for e in exps):
            raise InputContractError("negative exponent in term")
        if sum(exps) != degree:
            raise InputContractError(
                f"term {exps} has total degree {sum(exps)}, expected {degree}"
            )
        merged[exps] = merged.get(exps, 0.0) + float(coeff)
    ordered = sorted(e for e, c in merged.items() if c != 0.0)
    return [(merged[e], e) for e in ordered]


class CMPolynomial:
    """A homogeneous polynomial F on Euclidean space E^ambient_dim.

    Terms are (coefficient, integer exponent vector) pairs; every exponent
    vector must sum to `degree`.  Instances are immutable and cache the
    symbolic derivative term lists on first use.
    """

    __slots__ = ("ambient_dim", "degree", "coeffs", "exps", "_banks")

    def __init__(self, ambient_dim, degree, terms):
        ambient_dim = int(ambient_dim)
        degree = int(degree)
        if ambient_dim < 1:
            raise InputContractError("ambient_dim must be positive")
        if degree < 0:
            raise InputContractError("degree must be non-negative")
        canon = _canonical_terms(ambient_dim, degree, terms)
        if not canon:
            # keep one explicit zero term so evaluation stays array-shaped
            canon = [(0.0, tuple([degree] + [0] * (ambient_dim - 1)))]
        self.ambient_dim = ambient_dim
        self.degree = degree
        self.coeffs = np.ascontiguousarray([c for c, _ in canon], dtype=np.float64)
        self.exps = np.ascontiguousarray([e for _, e in canon], dtype=np.int64)
        self._banks = {}

    @classmethod
    def from_dict(cls, ambient_dim, degree, mapping):
        """Build from a {exponent tuple: coefficient} mapping."""
        return cls(ambient_dim, degree, [(c, e) for e, c in mapping.items()])

    def terms(self):
        """Canonical list of (coefficient, exponent tuple) pairs."""
        return [(float(c), tuple(int(v) for v in e))
                for c, e in zip(self.coeffs, self.exps)]

    def as_dict(self):
        return {e: c for c, e in self.terms()}

    def scaled(self, factor):
        return CMPolynomial(self.ambient_dim, self.degree,
                            [(factor * c, e) for c, e in self.terms()])

    def __eq__(self, other):
        if not isinstance(other, CMPolynomial):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.degree == other.degree
                and self.exps.shape == other.exps.shape
                and bool(np.all(self.exps == other.exps))
                and bool(np.all(self.coeffs == other.coeffs)))

    def __repr__(self):
        return (f"CMPolynomial(dim={self.ambient_dim}, degree={self.degree}, "
                f"terms={len(self.coeffs)})")

    # -- differentiation (exact, term-wise) --------------------------------

    def partial(self, i):
        """Symbolic partial derivative with respect to coordinate i."""
        return CMPolynomial(self.ambient_dim, max(self.degree - 1, 0),
                            _power_rule(self.terms(), i))

    def _bank(self, kind):
        """Packed term lists (coeffs, exps, offsets) of the derivatives
        d_{a_1} ... d_{a_r} F for every multi-index of `kind`, built on first
        use and cached: 'gradient' (i), 'hessian' (i <= j), 'laplacian' (i, i)
        and 'third' (k, i, j) with i <= j."""
        if kind not in self._banks:
            d = self.ambient_dim
            upper = [(i, j) for i in range(d) for j in range(i, d)]
            multi = {"gradient": [(i,) for i in range(d)],
                     "hessian": upper,
                     "laplacian": [(i, i) for i in range(d)],
                     "third": [(k,) + ij for k in range(d) for ij in upper]}[kind]
            packed, offsets = [], [0]
            for index in multi:
                terms = self.terms()
                for i in index:
                    terms = _power_rule(terms, i)
                # an explicit zero term keeps segments non-empty for reduceat
                packed += terms or [(0.0, (0,) * d)]
                offsets.append(len(packed))
            self._banks[kind] = (
                np.array([c for c, _ in packed], dtype=np.float64),
                np.array([e for _, e in packed], dtype=np.int64),
                np.array(offsets, dtype=np.int64))
        return self._banks[kind]

    # -- evaluation ---------------------------------------------------------

    def _check_points(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.ambient_dim:
            raise InputContractError(
                f"point has dimension {x.shape[-1]}, expected {self.ambient_dim}"
            )
        return x

    def _eval_bank(self, kind, x):
        return kernels.eval_bank(*self._bank(kind), self._check_points(x))

    def value(self, x):
        x = self._check_points(x)
        return kernels.eval_terms(self.coeffs, self.exps, x)

    def gradient(self, x):
        return self._eval_bank("gradient", x)

    def hessian(self, x):
        return _unpack_upper(self._eval_bank("hessian", x), self.ambient_dim)

    def hessian_along(self, x, w):
        """The third derivative contracted with w, D^3F(x)[., ., w]: the
        directional derivative of the Hessian along w, per row of x and w."""
        d = self.ambient_dim
        flat = self._eval_bank("third", x)
        flat = flat.reshape(flat.shape[:-1] + (d, -1))
        return _unpack_upper(np.einsum("...kp,...k->...p", flat, w), d)

    def laplacian(self, x):
        return self._eval_bank("laplacian", x).sum(axis=-1)


def _power_rule(terms, i):
    """Term list of d/dx_i of the term list `terms` (possibly empty)."""
    out = []
    for c, e in terms:
        if e[i] > 0:
            de = list(e)
            de[i] -= 1
            out.append((c * e[i], tuple(de)))
    return out


def _unpack_upper(flat, d):
    """Symmetric (..., d, d) matrices from their row-major upper triangles."""
    iu = np.triu_indices(d)
    h = np.zeros(flat.shape[:-1] + (d, d))
    h[(...,) + iu] = flat
    h.swapaxes(-1, -2)[(...,) + iu] = flat
    return h


# -- dict arithmetic used to assemble catalog polynomials -------------------

def poly_mul(p, q):
    """Multiply two {exponent tuple: coefficient} mappings."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return out


def poly_add(p, q, scale=1.0):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0.0) + scale * c
    return out


def poly_scale(p, factor):
    return {e: factor * c for e, c in p.items()}


def squared_norm_dict(dim, indices):
    """Mapping for sum of x_i^2 over the given coordinate indices."""
    out = {}
    for i in indices:
        e = [0] * dim
        e[i] = 2
        out[tuple(e)] = 1.0
    return out


def linear_dict(dim, index, coeff=1.0):
    e = [0] * dim
    e[index] = 1
    return {tuple(e): coeff}
