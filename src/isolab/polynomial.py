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

    __slots__ = ("ambient_dim", "degree", "coeffs", "exps", "_grad_bank",
                 "_hess_bank", "_lap_bank")

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
        self._grad_bank = None
        self._hess_bank = None
        self._lap_bank = None

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
        out = []
        for c, e in self.terms():
            if e[i] > 0:
                de = list(e)
                de[i] -= 1
                out.append((c * e[i], tuple(de)))
        return CMPolynomial(self.ambient_dim, max(self.degree - 1, 0), out)

    def _partial_terms(self, i, j=None):
        # raw term list of dF/dx_i (or d2F/dx_i dx_j), possibly empty
        out = []
        for c, e in self.terms():
            if e[i] == 0:
                continue
            c1 = c * e[i]
            e1 = list(e)
            e1[i] -= 1
            if j is None:
                out.append((c1, tuple(e1)))
            elif e1[j] > 0:
                e2 = list(e1)
                e2[j] -= 1
                out.append((c1 * e1[j], tuple(e2)))
        return out

    @staticmethod
    def _pack_bank(dim, polys):
        coeffs, exps, offsets = [], [], [0]
        zero_row = (0.0, (0,) * dim)
        for terms in polys:
            if not terms:
                terms = [zero_row]  # keep segments non-empty for reduceat
            for c, e in terms:
                coeffs.append(c)
                exps.append(e)
            offsets.append(len(coeffs))
        return (np.ascontiguousarray(coeffs, dtype=np.float64),
                np.ascontiguousarray(exps, dtype=np.int64),
                np.ascontiguousarray(offsets, dtype=np.int64))

    def _gradient_bank(self):
        if self._grad_bank is None:
            polys = [self._partial_terms(i) for i in range(self.ambient_dim)]
            self._grad_bank = self._pack_bank(self.ambient_dim, polys)
        return self._grad_bank

    def _hessian_bank(self):
        if self._hess_bank is None:
            d = self.ambient_dim
            polys = [self._partial_terms(i, j) for i in range(d) for j in range(i, d)]
            self._hess_bank = self._pack_bank(d, polys)
        return self._hess_bank

    def _laplacian_bank(self):
        if self._lap_bank is None:
            polys = [self._partial_terms(i, i) for i in range(self.ambient_dim)]
            self._lap_bank = self._pack_bank(self.ambient_dim, polys)
        return self._lap_bank

    # -- evaluation ---------------------------------------------------------

    def _check_points(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.ambient_dim:
            raise InputContractError(
                f"point has dimension {x.shape[-1]}, expected {self.ambient_dim}"
            )
        return x

    def value(self, x):
        x = self._check_points(x)
        return kernels.eval_terms(self.coeffs, self.exps, x)

    def gradient(self, x):
        x = self._check_points(x)
        c, e, o = self._gradient_bank()
        return kernels.eval_bank(c, e, o, x)

    def hessian(self, x):
        x = self._check_points(x)
        c, e, o = self._hessian_bank()
        flat = kernels.eval_bank(c, e, o, x)
        d = self.ambient_dim
        iu = np.triu_indices(d)
        if flat.ndim == 1:
            h = np.zeros((d, d))
            h[iu] = flat
            h.T[iu] = flat
            return h
        h = np.zeros(flat.shape[:-1] + (d, d))
        h[(...,) + iu] = flat
        h.swapaxes(-1, -2)[(...,) + iu] = flat
        return h

    def laplacian(self, x):
        x = self._check_points(x)
        c, e, o = self._laplacian_bank()
        return kernels.eval_bank(c, e, o, x).sum(axis=-1)


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
