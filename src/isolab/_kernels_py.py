"""Numpy kernel for polynomial banks over monomial tables.

The hot path of the whole package: evaluating a bank of homogeneous
polynomials (the value, the gradient, the Hessian, ... of one polynomial) at
one or many points.  :mod:`isolab.polynomial` describes a bank by

* `steps`, one ``(var, parent)`` pair of int arrays per degree k = 1..deg:
  the degree-k monomials of the table are ``x[var] * m_{k-1}[parent]``, so
  the table is built from the constant monomial up with one gather-multiply
  per degree, not one per coordinate;
* `matrix`, the ``(width of the degree-deg table, P)`` coefficient matrix;

and one bank evaluation is the table chain followed by one matmul.  Rows are
processed in blocks of `BLOCK_ROWS`, so the tables never grow with the
batch.  Points are one point ``(D,)`` or a batch of points ``(N, D)``.
"""

import numpy as np

# Rows per block, sized from the widest table of the catalog's hot families:
# nomizu-quartic n=5's 204 degree-3 monomials take about 0.8 MB at 512 rows,
# within a typical L2 cache, and even nomizu-quartic n=20 (2604 monomials)
# keeps a block near 10 MB however many rows a call brings.
BLOCK_ROWS = 512


def backend_name():
    """Name of the kernel implementation: 'python' (numpy) is the only one."""
    return "python"


def _table(steps, cols):
    # the top-degree monomials of the chain, one row per monomial, at the
    # points whose coordinates are the rows of cols (D, n)
    table = np.ones((1, cols.shape[1]))
    for var, parent in steps:
        table = cols.take(var, axis=0) * table.take(parent, axis=0)
    return table


def eval_bank(steps, matrix, points):
    """Evaluate the bank ``table(points) @ matrix`` block by block.

    Returns ``(N, P)``, or ``(P,)`` for a single point.
    """
    points = np.asarray(points, dtype=np.float64)
    single = points.ndim == 1
    # coordinate-major copy: each table row gathers contiguous runs
    cols = np.ascontiguousarray(np.atleast_2d(points).T)
    out = np.empty((cols.shape[1], matrix.shape[1]))
    for lo in range(0, cols.shape[1], BLOCK_ROWS):
        hi = lo + BLOCK_ROWS
        np.matmul(_table(steps, cols[:, lo:hi]).T, matrix, out=out[lo:hi])
    return out[0] if single else out
