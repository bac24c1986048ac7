#!/usr/bin/env python3
"""Time the polynomial evaluation kernel, bank by bank.

For nomizu-quartic n=2 (d=6) and n=5 (d=12) it prints the cost of one bank
call in ns per point at N = 1, 240 and 24 000 points: the value, gradient,
Hessian and Laplacian banks, the third-derivative bank as the focal solver
reads it (`hessian_along`; at N <= 240 only, its d=12 output at 24 000
points would take 180 MB), and the jet (F and grad F from one gradient-bank
call) that the level retraction reads.  A bank-build row gives the median
milliseconds to construct the polynomial from its terms and build all five
coefficient matrices, over 200 builds alternated with a fixed pure-Python
reference workload, and the ratio of the two medians, which compares across
trees and runs on a host whose speed drifts.  Chain rows give, for
nomizu-quartic n=5 at 100 000 points, each bank's table widths per degree
over all the divisors of the terms and over the chain the bank builds from
the rows it reads, and its kernel cost in ns per point (the third-derivative
bank, 750 MB of output there, is not timed); block rows give the gradient,
Laplacian and value banks' ns per point there with `BLOCK_ROWS` set to 128,
256 and 512 rows.  Classification rows give, on nomizu-quartic n=2, the rows
retracted per critical point and the milliseconds per point for the index
stencil on each sheet (`_hessian_stencil` at the critical points of one pole
on the level 0.3, `_focal_index` at those on the focal sheet V = +1, given
their values; both run the one stencil body `_index_stencil`) and for the
whole batched classifier `_classify` (both witnesses) at the level-0.3
points.  The rows are counted by patching `morse._project_batch`, the
retraction that `_chart_hessians` looks up in morse for every sheet.
Newton-step rows give, at 240 points of the level 0.3 of nomizu-quartic n=2
and clifford(2,7), the microseconds per row of one `_frames_batch` call
(normals and tangent frames) and of one hypersurface `_chart_step` (the
pseudo-inverse step and its retraction to the level).  Newton-solve rows
give the microseconds per row of `_pinv_solve` on the 240 Jacobians of
nomizu-quartic n=2 there: as they are (well conditioned, one batched
inverse) and made singular by a projection (every row takes the eigh
fallback).  Focal Newton-step rows give, at 96 rows of the focal sheet
V = +1 of the same two families, the microseconds per row of one
`_project_batch` of the rows moved 1e-3 off the sheet, of one focal
`_chart_step` as the solver takes it (the step of P J P + (I - P) in the
sphere frame and its retraction to the sheet), and of the tangent
projector at the sheet rows (`_focal_sphere_projector`, matrix products
with its bank calls).  The Newton-route row fits the time of one
`_newton_route` call for one pole on the level 0.3 of nomizu-quartic n=2,
over 60 to 960 start rows, as a fixed cost in ms per call plus a cost in
us per start row; the fixed share is what solving a report's poles in one
batch saves.  Below it, the median ms of one `tightness_report` there at 2,
10 and 100 poles.  The last row times the residual sweep of the
defining identities (`verify_munzner` on nomizu-quartic n=5 at 100 000
points) stage by stage, in milliseconds: the ball sampling, the gradient
bank, the Laplacian bank, the residual arithmetic alone, and the whole
public call; and the peak memory of one whole call as `tracemalloc` traces
it, in MiB.

    python benchmarks/bench_backends.py [--quick]

`--quick` drops N = 24 000, takes 40 builds, the chain and block rows and
the sweep at 2000 points, and fewer Newton-route and report repeats.
"""

import argparse
import pathlib
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from isolab import (_kernels_py, catalog, families, morse,  # noqa: E402
                    tightness_report, verify_munzner)
from isolab.polynomial import CMPolynomial  # noqa: E402

KINDS = ("value", "gradient", "hessian", "laplacian", "third")
ORDERS = {"value": 0, "gradient": 1, "hessian": 2, "laplacian": 2,
          "third": 3}
ROWS = KINDS + ("jet",)
THIRD_MAX_N = 240


def time_call(fn, repeats):
    fn()
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def bank_calls(poly, X):
    W = np.ones_like(X)
    return {"value": lambda: poly.value(X),
            "gradient": lambda: poly.gradient(X),
            "hessian": lambda: poly.hessian(X),
            "laplacian": lambda: poly.laplacian(X),
            "third": lambda: poly.hessian_along(X, W),
            "jet": lambda: poly.jet(X)}


def bench(quick=False):
    sizes = [1, 240] if quick else [1, 240, 24_000]
    print(f"{'bank (ns/pt)':<20}" + "".join(f"{'N=%d' % n:>12}" for n in sizes))
    rng = np.random.default_rng(0)
    for n in (2, 5):
        poly = catalog("nomizu-quartic", n=n).polynomial
        d = poly.ambient_dim
        points = {size: rng.normal(size=(size, d)) for size in sizes}
        points[1] = points[1][0]
        for kind in ROWS:
            cells = []
            for size in sizes:
                if kind == "third" and size > THIRD_MAX_N:
                    cells.append(f"{'-':>12}")
                    continue
                repeats = max(3, min(2000, 100_000 // size)) // (4 if quick else 1)
                dt = time_call(bank_calls(poly, points[size])[kind], repeats)
                cells.append(f"{dt * 1e9 / size:>12.0f}")
            print(f"{'d=%d %s' % (d, kind):<20}" + "".join(cells))

        def build():
            fresh = CMPolynomial(d, poly.degree, poly.terms())
            for kind in KINDS:
                fresh._bank(kind)
        builds = 40 if quick else 200
        t_build, t_ref = interleaved_medians(build, reference, builds)
        print(f"{'d=%d bank build' % d:<20}{t_build * 1e3:>10.2f}ms"
              f"{t_build / t_ref:>10.2f}x reference   (median of {builds})")

    chains_and_blocks(quick)
    classification(quick)
    newton_step(quick)
    newton_solve(quick)
    focal_newton_step(quick)
    newton_route(quick)

    sweep_stages(quick)


def reference():
    """A fixed pure-Python workload of about a millisecond that no isolab
    change touches.  A bank build is mostly interpreter work too, so a build
    time over this time compares across trees and runs even when the host's
    speed drifts between them (over eight alternating processes on a
    shared 2-core host, the build's ratio to a BLAS matmul, which runs on
    every core, spread by 65%, and to a pure-Python sort by 11%)."""
    sorted(range(5000), key=lambda i: i * 7919 % 5003)


def interleaved_medians(fn, ref, count):
    """Median seconds of `count` calls of fn and of ref, alternated so that
    both see the same host load."""
    times = ([], [])
    fn()
    ref()
    for _ in range(count):
        for call, out in ((fn, times[0]), (ref, times[1])):
            t0 = time.perf_counter()
            call()
            out.append(time.perf_counter() - t0)
    return float(np.median(times[0])), float(np.median(times[1]))


def sweep_stages(quick):
    """The residual sweep (`verify_munzner`, nomizu-quartic n=5) stage by
    stage: the ball sampling, the gradient and Laplacian banks, and the
    residual arithmetic alone (the sweep with the samples and both banks'
    outputs for each of its chunks handed in precomputed), then the whole
    public call and the peak traced memory of one call."""
    fam = catalog("nomizu-quartic", n=5)
    poly = fam.polynomial
    size = 2000 if quick else 100_000
    repeats = 3 if quick else 7

    def sample():
        return families._ball_samples(families.seeded_rng(0), size,
                                      fam.ambient_dim, 2.0)

    X = sample()
    stages = {"sample": sample,
              "gradient": lambda: poly.gradient(X),
              "laplacian": lambda: poly.laplacian(X)}
    cells = {name: time_call(call, repeats) for name, call in stages.items()}
    # the banks' outputs per chunk, keyed by the address of the chunk's rows
    banks = {X[rows].ctypes.data: (poly.gradient(X[rows]),
                                   poly.laplacian(X[rows]))
             for rows in families._chunks(size)}
    saved = (families._ball_samples, CMPolynomial.gradient,
             CMPolynomial.laplacian)
    try:
        families._ball_samples = lambda *args: X
        CMPolynomial.gradient = lambda self, x: banks[x.ctypes.data][0]
        CMPolynomial.laplacian = lambda self, x: banks[x.ctypes.data][1]
        cells["arithmetic"] = time_call(
            lambda: verify_munzner(fam, num_points=size, radius=2.0), repeats)
    finally:
        (families._ball_samples, CMPolynomial.gradient,
         CMPolynomial.laplacian) = saved
    cells["total"] = time_call(
        lambda: verify_munzner(fam, num_points=size, radius=2.0), repeats)
    tracemalloc.start()
    try:
        verify_munzner(fam, num_points=size, radius=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"{'residual sweep (ms)':<20}" + "".join(f"{k:>12}" for k in cells)
          + f"{'peak MiB':>12}   (d=12, N={size})")
    print(f"{'':<20}" + "".join(f"{v * 1e3:>12.1f}" for v in cells.values())
          + f"{peak / 2 ** 20:>12.1f}")


def divisor_widths(poly):
    """|S_k|, k = 1..g: the number of degree-k divisors of F's monomials."""
    level = {tuple(e) for e in poly.exps.tolist()}
    widths = []
    for _ in range(poly.degree):
        widths.append(len(level))
        level = {m[:i] + (m[i] - 1,) + m[i + 1:]
                 for m in level for i, v in enumerate(m) if v}
    return widths[::-1]


def chains_and_blocks(quick):
    poly = catalog("nomizu-quartic", n=5).polynomial
    size = 2000 if quick else 100_000
    X = np.random.default_rng(0).normal(size=(size, poly.ambient_dim))
    print(f"{'chain, d=12':<20}{'divisor widths':>20}{'bank widths':>20}"
          f"{'ns/pt':>10}   (N={size})")
    divisors = divisor_widths(poly)
    for kind in KINDS:
        degree = max(poly.degree - ORDERS[kind], 0)
        built = [len(var) for var, _parent in poly._bank(kind)[0]]
        cost = "-"
        if kind != "third":
            dt = time_call(lambda: poly._eval_bank(kind, X), 3)
            cost = f"{dt * 1e9 / size:.0f}"
        print(f"{kind:<20}{'/'.join(map(str, divisors[:degree])) or '-':>20}"
              f"{'/'.join(map(str, built)) or '-':>20}{cost:>10}")

    kinds = ("gradient", "laplacian", "value")
    print(f"{'blocks (ns/pt), d=12':<20}" + "".join(f"{k:>12}" for k in kinds)
          + f"   (N={size})")
    chosen = _kernels_py.BLOCK_ROWS
    try:
        for rows in (128, 256, 512):
            _kernels_py.BLOCK_ROWS = rows
            cells = [time_call(lambda: poly._eval_bank(kind, X), 3) * 1e9
                     / size for kind in kinds]
            print(f"{'BLOCK_ROWS=%d' % rows:<20}"
                  + "".join(f"{c:>12.0f}" for c in cells))
    finally:
        _kernels_py.BLOCK_ROWS = chosen


def classification(quick):
    fam = catalog("nomizu-quartic", n=2)
    pole = morse._draw_pole(fam, np.random.default_rng(0))
    p = pole.coords
    X = np.array([sp.x.coords for sp in morse.normal_circle_critical_points(
        fam, 0.3, pole, classify=False)])
    _eta, Y = morse._focal_circle_points(fam, 1, pole)
    vals = fam.polynomial.value(Y)
    stencils = (("_hessian_stencil", X,
                 lambda: morse._hessian_stencil(fam, 0.3, p, X)),
                ("_focal_index", Y,
                 lambda: morse._focal_index(fam, 1, p, Y, vals)),
                ("_classify", X, lambda: morse._classify(fam, 0.3, p, X)))
    print(f"{'classify, d=6':<20}{'rows/pt':>12}{'ms/pt':>12}")
    project = morse._project_batch
    for name, points, call in stencils:
        rows = []
        morse._project_batch = lambda fam, s, pts, **kw: (
            rows.append(len(pts)) or project(fam, s, pts, **kw))
        try:
            call()
        finally:
            morse._project_batch = project
        dt = time_call(call, 5 if quick else 20)
        print(f"{name:<20}{sum(rows) / len(points):>12.0f}"
              f"{dt * 1e3 / len(points):>12.3f}")


def newton_step(quick, rows=240):
    print(f"{'Newton step, N=%d' % rows:<20}{'frames us/row':>16}"
          f"{'step us/row':>16}")
    for label, params in (("nomizu-quartic", {"n": 2}),
                          ("clifford", {"k": 2, "n": 7})):
        fam = catalog(label, **params)
        rng = np.random.default_rng(0)
        X, ok = morse._project_batch(
            fam, 0.3, rng.normal(size=(2 * rows, fam.ambient_dim)))[:2]
        X = X[ok][:rows]
        p = morse._draw_pole(fam, rng).coords
        xi, frames, vals, wn = morse._frames_batch(fam, X)
        q = morse._tangential_residual(p, X, xi)
        jac = morse._newton_jacobian(fam, p, X, xi, frames, vals, wn)
        repeats = 20 if quick else 200
        t_frames = time_call(lambda: morse._frames_batch(fam, X), repeats)
        t_step = time_call(
            lambda: morse._chart_step(fam, 0.3, X, frames, jac, q), repeats)
        name = label + "".join(f" {k}={v}" for k, v in params.items())
        print(f"{name:<20}{t_frames * 1e6 / rows:>16.2f}"
              f"{t_step * 1e6 / rows:>16.2f}")


def newton_solve(quick, rows=240):
    fam = catalog("nomizu-quartic", n=2)
    rng = np.random.default_rng(0)
    X, ok = morse._project_batch(
        fam, 0.3, rng.normal(size=(2 * rows, fam.ambient_dim)))[:2]
    X = X[ok][:rows]
    p = morse._draw_pole(fam, rng).coords
    xi, frames, vals, wn = morse._frames_batch(fam, X)
    jac = morse._newton_jacobian(fam, p, X, xi, frames, vals, wn)
    # P J P with P = I - v v^T is symmetric and singular
    v = rng.normal(size=jac.shape[:2])
    v /= np.linalg.norm(v, axis=1)[:, None]
    proj = np.eye(jac.shape[1]) - v[:, :, None] * v[:, None, :]
    rhs = rng.normal(size=jac.shape[:2])
    repeats = 20 if quick else 200
    print(f"{'Newton solve, N=%d' % rows:<20}{'us/row':>16}")
    for name, batch in (("well conditioned", jac),
                        ("all fallback", proj @ jac @ proj)):
        dt = time_call(lambda: morse._pinv_solve(batch, rhs), repeats)
        print(f"{name:<20}{dt * 1e6 / rows:>16.2f}")


def focal_newton_step(quick, rows=96):
    print(f"{'focal step, N=%d' % rows:<20}{'project us/row':>16}"
          f"{'step us/row':>16}{'projector us/row':>18}")
    for label, params in (("nomizu-quartic", {"n": 2}),
                          ("clifford", {"k": 2, "n": 7})):
        fam = catalog(label, **params)
        rng = np.random.default_rng(0)
        Y, ok = morse._project_batch(
            fam, 1.0, rng.normal(size=(2 * rows, fam.ambient_dim)))[:2]
        Y = Y[ok][:rows]
        step = rng.normal(size=Y.shape)
        step -= np.einsum("ij,ij->i", step, Y)[:, None] * Y
        off = morse._normalize_rows(
            Y + 1e-3 * step / np.linalg.norm(step, axis=1)[:, None])
        p = morse._draw_pole(fam, rng).coords
        sph, proj, _dims = morse._focal_sphere_projector(fam, 1, Y)
        q = morse._sphere_tangent_part(p, sph, proj)
        jac = morse._focal_jacobian(fam, 1, p, Y, sph, q)
        jac = proj @ jac @ proj + (np.eye(proj.shape[1]) - proj)
        repeats = 10 if quick else 100
        cells = [time_call(call, repeats) for call in (
            lambda: morse._project_batch(fam, 1.0, off),
            lambda: morse._chart_step(fam, 1.0, Y, sph, jac, q),
            lambda: morse._focal_sphere_projector(fam, 1, Y))]
        name = label + "".join(f" {k}={v}" for k, v in params.items())
        print(f"{name:<20}" + "".join(f"{c * 1e6 / rows:>16.2f}"
                                      for c in cells[:2])
              + f"{cells[2] * 1e6 / rows:>18.2f}")


def newton_route(quick):
    """One pole's `_newton_route` on the level 0.3 of nomizu-quartic n=2,
    timed at 60 to 960 start rows and fitted as fixed + per-row cost, then
    whole tightness reports at 2, 10 and 100 poles."""
    fam = catalog("nomizu-quartic", n=2)
    rng = np.random.default_rng(0)
    pole = morse._draw_pole(fam, rng).coords[None, :]
    sizes = (60, 120, 240, 480, 960)
    # nested start sets, so that a larger call adds rows to a smaller one
    raw = rng.normal(size=(1, sizes[-1], fam.ambient_dim))
    repeats = 5 if quick else 30
    for _ in range(3):  # warm-up: lazy banks, caches and clock ramp
        morse._newton_route(fam, 0.3, pole, raw)
    times = []
    for rows in sizes:
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            morse._newton_route(fam, 0.3, pole, raw[:, :rows])
            runs.append(time.perf_counter() - t0)
        times.append(float(np.median(runs)))
    per_row, fixed = np.polyfit(sizes, times, 1)
    print(f"{'Newton route, d=6':<20}{'fixed ms/call':>16}"
          f"{'us/start row':>16}   (fit over {sizes[0]}-{sizes[-1]} rows)")
    print(f"{'':<20}{fixed * 1e3:>16.2f}{per_row * 1e6:>16.2f}")
    cells = []
    for poles in (2, 10, 100):
        runs = []
        for seed in range(max(1, (3 if quick else 20) * 10 // poles)):
            t0 = time.perf_counter()
            tightness_report(fam, 0.3, num_poles=poles, seed=seed)
            runs.append(time.perf_counter() - t0)
        cells.append(float(np.median(runs)))
    print(f"{'tightness (ms)':<20}" + "".join(f"{'%d poles' % n:>12}"
                                            for n in (2, 10, 100)))
    print(f"{'':<20}" + "".join(f"{c * 1e3:>12.1f}" for c in cells))


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    bench(quick=parser.parse_args().quick)
