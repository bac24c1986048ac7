"""Homogeneous polynomials stored as explicit term lists.

All calculus elsewhere in the package (gradients, Hessians, Laplacians,
third derivatives) is exact: every derivative bank is a coefficient matrix
produced by the power rule on the term list, so no numerical differentiation
error enters any verifier; the only floating-point error is the rounding of
the evaluation arithmetic itself.

Evaluation runs over monomial tables.  Each bank builds its own table
chain, on first use, from the rows its coefficient matrix reads: the
monomials x^(e - alpha) with a coefficient that is not zero, and their
ancestors, one (variable, parent) pair per monomial, the parent being the
monomial divided by its first variable, so the kernel builds each level
from the one below it with one gather-multiply.  Every level holds divisors
of the terms, never more than T * C(g, k) or C(D + k - 1, k) of degree k,
and only those the bank reaches: nomizu-quartic n=5's value bank builds 27
of its 78 degree-2 divisors, and its Laplacian reads the x^(e - 2 e_i)
alone (12 of the 78).  A bank whose terms cancel or whose order exceeds g
(the Laplacian of nomizu-quartic n=2, the third derivatives of a quadric)
has no row and evaluates to exact zeros without a table.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from itertools import combinations_with_replacement

import numpy as np

from . import _kernels_py as kernels
from .errors import InputContractError


def _canonical_terms(ambient_dim, degree, terms):
    """Combine duplicates, drop zeros, sort lexicographically by exponents.
    A NaN or infinite coefficient, or a sum of duplicates that overflows,
    raises InputContractError."""
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
    if not np.isfinite(list(merged.values())).all():
        raise InputContractError("a term coefficient is not finite")
    ordered = sorted(e for e, c in merged.items() if c != 0.0)
    return [(merged[e], e) for e in ordered]


def _chain(rows, degree):
    """The table chain of the sorted degree-`degree` exponent tuples `rows`:
    one (var, parent) pair per degree k = 1..degree that writes monomial j
    of level k as x_var[j] times monomial parent[j] of level k - 1, with
    var[j] its first variable.  Each level below the top holds the sorted
    distinct parents of the level above it, so the chain is `rows` and their
    ancestors and nothing else.  No row gives no level."""
    steps = []
    for _ in range(degree if rows else 0):
        var = [next(i for i, v in enumerate(m) if v) for m in rows]
        lower = [m[:i] + (m[i] - 1,) + m[i + 1:] for m, i in zip(rows, var)]
        rows = sorted(set(lower))
        index = dict(zip(rows, range(len(rows))))
        steps.append((np.array(var, dtype=np.intp),
                      np.array([index[m] for m in lower], dtype=np.intp)))
    return steps[::-1]


class CMPolynomial:
    """A homogeneous polynomial F on Euclidean space E^ambient_dim.

    Terms are (coefficient, integer exponent vector) pairs; every exponent
    vector must sum to `degree`.  Instances are immutable; they build each
    derivative bank's coefficient matrix and table chain on first use and
    cache them.
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
        return list(zip(self.coeffs.tolist(), map(tuple, self.exps.tolist())))

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
        """(steps, matrix) of the bank of derivatives d_{a_1} ... d_{a_r} F,
        built on first use and cached: its coefficient matrix over the
        sorted degree-(g - r) monomials it reads with a coefficient that is
        not zero, and their table chain (`_chain`).  Kinds: 'value'
        (r = 0), 'gradient' (i), 'hessian' (i <= j, row-major), 'laplacian'
        (one column, the sum of the (i, i)) and 'third' (k, i, j) with
        i <= j.

        Each term c x^e feeds the columns of every multi-index alpha it
        survives, i.e. every sub-multiset of e of size r, with the
        coefficient c e! / (e - alpha)! at the row of x^(e - alpha).  A bank
        of order r > g, or whose terms cancel, is zero: a matrix with no
        rows and an empty chain."""
        if kind not in self._banks:
            d = self.ambient_dim
            upper = [(i, j) for i in range(d) for j in range(i, d)]
            multi = {"value": [()],
                     "gradient": [(i,) for i in range(d)],
                     "hessian": upper,
                     "laplacian": [(i, i) for i in range(d)],
                     "third": [(k,) + ij for k in range(d) for ij in upper]}[kind]
            columns = {}
            for col, index in enumerate(multi):
                columns.setdefault(tuple(sorted(index)), []).append(
                    0 if kind == "laplacian" else col)
            width = 1 if kind == "laplacian" else len(multi)
            order = len(multi[0])
            sums = defaultdict(lambda: [0.0] * width)
            for c, e in self.terms():
                support = [i for i, v in enumerate(e) if v]
                for alpha in combinations_with_replacement(support, order):
                    m, coeff = list(e), c
                    for i in alpha:
                        if not m[i]:
                            break
                        coeff *= m[i]
                        m[i] -= 1
                    else:
                        row = sums[tuple(m)]
                        for col in columns.get(alpha, ()):
                            row[col] += coeff
            rows = sorted(m for m, row in sums.items() if any(row))
            matrix = np.array([sums[m] for m in rows], dtype=np.float64)
            self._banks[kind] = (_chain(rows, max(self.degree - order, 0)),
                                 matrix.reshape(len(rows), width))
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
        steps, matrix = self._bank(kind)
        return kernels.eval_bank(steps, matrix, self._check_points(x))

    def _eval_column(self, kind, x):
        # a one-column bank: a float for a single point, else (N,)
        out = self._eval_bank(kind, x)
        return float(out[0]) if out.ndim == 1 else out[:, 0]

    def value(self, x):
        return self._eval_column("value", x)

    def gradient(self, x):
        return self._eval_bank("gradient", x)

    def jet(self, x):
        """(F, grad F) at x (a point or rows) from one gradient-bank call:
        every term is homogeneous of degree g, so Euler's identity
        <x, grad F(x)> = g F(x) gives the value.  A constant polynomial
        (g = 0) has no such identity and reads its value bank."""
        x = self._check_points(x)
        grad = self.gradient(x)
        if not self.degree:
            return self.value(x), grad
        vals = np.einsum("...i,...i->...", x, grad) / self.degree
        return (float(vals) if vals.ndim == 0 else vals), grad

    def hessian(self, x):
        return _unpack_upper(self._eval_bank("hessian", x), self.ambient_dim)

    def hessian_along(self, x, w):
        """The third derivative contracted with w, D^3F(x)[., ., w]: the
        directional derivative of the Hessian along w, per row of x and w."""
        d = self.ambient_dim
        flat = self._eval_bank("third", x)
        flat = flat.reshape(flat.shape[:-1] + (d, -1))
        w = np.asarray(w, dtype=np.float64)
        return _unpack_upper((w[..., None, :] @ flat)[..., 0, :], d)

    def laplacian(self, x):
        return self._eval_column("laplacian", x)


def _power_rule(terms, i):
    """Term list of d/dx_i of the term list `terms` (possibly empty)."""
    out = []
    for c, e in terms:
        if e[i] > 0:
            de = list(e)
            de[i] -= 1
            out.append((c * e[i], tuple(de)))
    return out


@cache
def _upper_positions(d):
    # (d, d) read-only map from (i, j) to the row-major upper-triangle index
    # of (min(i, j), max(i, j))
    iu = np.triu_indices(d)
    pos = np.empty((d, d), dtype=np.intp)
    pos[iu] = pos.T[iu] = np.arange(len(iu[0]))
    pos.flags.writeable = False
    return pos


def _unpack_upper(flat, d):
    """Symmetric (..., d, d) matrices from their row-major upper triangles."""
    return flat[..., _upper_positions(d)]


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
