"""Numpy kernel for polynomial banks over monomial tables.

The hot path of the whole package: evaluating a bank of homogeneous
polynomials (the value, the gradient, the Hessian, ... of one polynomial) at
one or many points.  :mod:`isolab.polynomial` describes a bank by

* `steps`, one ``(var, parent)`` pair of int arrays per degree k = 1..deg:
  the degree-k monomials of the table are ``x[var] * m_{k-1}[parent]``, so
  the table is built from the constant monomial up with one gather-multiply
  per degree, not one per coordinate;
* `matrix`, the ``(width of the degree-deg table, P)`` coefficient matrix;

and one bank evaluation is the table chain followed by one matmul.  Each
bank brings its own chain, built from the rows it reads, so the cost of a
call scales with the rows the bank needs; a bank whose matrix has
no rows is zero and reads no table.  Rows are processed in blocks of
`BLOCK_ROWS`, each copied coordinate-major on its own just before its
table is built, so neither the tables nor the copy grow with the batch.
Points are one point ``(D,)`` or a batch of points ``(N, D)``.
"""

import numpy as np

# Rows per block, sized so that a block's working set stays in a 2 MB L2
# cache: the chain holds the gathered table, the table being gathered from
# and one gathered coordinate row set at a time, three tables of the widest
# level.  nomizu-quartic n=5's 204 degree-3 monomials take about 1.2 MB at
# 256 rows (2.5 MB at 512); its gradient bank at 1e5 points measured 58 ms
# at 256 rows against 93 ms at 512 and 63 ms at 128 on a 2-core x86 host
# (benchmarks/bench_backends.py prints this comparison).
BLOCK_ROWS = 256


def backend_name():
    """Name of the kernel implementation: 'python' (numpy) is the only one."""
    return "python"


def _table(steps, cols):
    # the top-degree monomials of the chain, one row per monomial, at the
    # points whose coordinates are the rows of cols (D, n); each level
    # multiplies its gathered parents in place, and the first level's
    # parent is the constant monomial
    if not steps:
        return np.ones((1, cols.shape[1]))
    table = cols.take(steps[0][0], axis=0)
    for var, parent in steps[1:]:
        table = table.take(parent, axis=0)
        table *= cols.take(var, axis=0)
    return table


def eval_bank(steps, matrix, points):
    """Evaluate the bank ``table(points) @ matrix`` block by block.

    Returns ``(N, P)``, or ``(P,)`` for a single point; exact zeros when
    `matrix` has no rows.
    """
    points = np.asarray(points, dtype=np.float64)
    single = points.ndim == 1
    rows = np.atleast_2d(points)
    if not len(matrix):  # a bank with no rows is exactly zero
        out = np.zeros((len(rows), matrix.shape[1]))
    else:
        out = np.empty((len(rows), matrix.shape[1]))
        for lo in range(0, len(rows), BLOCK_ROWS):
            hi = lo + BLOCK_ROWS
            # coordinate-major copy of this block alone: each table row
            # gathers a contiguous run, and no copy of the batch is made
            cols = np.ascontiguousarray(rows[lo:hi].T)
            np.matmul(_table(steps, cols).T, matrix, out=out[lo:hi])
    return out[0] if single else out
