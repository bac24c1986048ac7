"""Numpy kernels for term-list polynomial evaluation.

The hot path of the whole package: evaluating term-list polynomials (value,
gradient bank, Hessian bank) at one or many points.  Both functions take the
packed representation used by :mod:`isolab.polynomial`: coefficients
``(T,)`` float64, exponents ``(T, D)`` int64, and either one point ``(D,)``
or a batch of points ``(N, D)``.
"""

import numpy as np


def backend_name():
    """Name of the kernel implementation: 'python' (numpy) is the only one."""
    return "python"


def _as_rows(points):
    # (N, D) contiguous float64 rows, and whether a single point was given
    points = np.ascontiguousarray(points, dtype=np.float64)
    single = points.ndim == 1
    return (points[None, :] if single else points), single


def _monomials(exps, points):
    # (N, T) matrix of monomial values; per-dimension power tables keep the
    # exponentiation integer and cheap.
    n = points.shape[0]
    t, d = exps.shape
    acc = np.ones((n, t))
    for j in range(d):
        e = exps[:, j]
        top = int(e.max()) if t else 0
        if top == 0:
            continue
        table = points[:, j, None] ** np.arange(top + 1)
        acc *= table[:, e]
    return acc


def eval_terms(coeffs, exps, points):
    """Evaluate one term-list polynomial at each row of `points` (a float
    for a single point)."""
    rows, single = _as_rows(points)
    out = _monomials(exps, rows) @ coeffs
    return float(out[0]) if single else out


def eval_bank(coeffs, exps, offsets, points):
    """Evaluate a bank of polynomials packed end to end.

    `offsets` has length P+1; polynomial p owns terms
    ``offsets[p]:offsets[p+1]``.  Segments must be non-empty (the packer
    inserts an explicit zero term for vanishing derivatives).  Returns
    ``(N, P)``, or ``(P,)`` for a single point.
    """
    rows, single = _as_rows(points)
    out = np.add.reduceat(_monomials(exps, rows) * coeffs, offsets[:-1], axis=1)
    return out[0] if single else out
