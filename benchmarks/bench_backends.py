#!/usr/bin/env python3
"""Time the polynomial evaluation kernel.

Measures the two workloads that dominate the package: single/batch term-list
evaluation (the value, the gradient bank and the third-derivative bank of the
Newton and classification inner loops) and the residual sweep of the defining
identities (value + gradient bank + Laplacian bank at 10^4 points).

    python benchmarks/bench_backends.py [--quick]
"""

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from isolab import _kernels_py, catalog, verify_munzner  # noqa: E402


def time_call(fn, repeats):
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def bench(quick=False):
    fam = catalog("nomizu-quartic", n=2)
    poly = fam.polynomial
    rng = np.random.default_rng(0)
    banks = [(kind, poly._bank(kind)) for kind in ("gradient", "third")]

    sizes = [1, 100, 10_000] if not quick else [1, 100]
    print(f"{'workload':<28} {'python':>10}")
    for n in sizes:
        X = np.ascontiguousarray(rng.normal(size=(n, poly.ambient_dim)))
        repeats = max(3, min(2000, 20_000 // n))
        dt = time_call(lambda: _kernels_py.eval_terms(poly.coeffs, poly.exps, X),
                       repeats)
        print(f"{'value, N=%-6d' % n:<28} {dt * 1e6:>8.1f}us")
        for kind, bank in banks:
            dt = time_call(lambda: _kernels_py.eval_bank(*bank, X), repeats)
            print(f"{'%s bank, N=%-6d' % (kind, n):<28} {dt * 1e6:>8.1f}us")

    # end-to-end residual sweep through the public path
    n_sweep = 2000 if quick else 10_000
    t0 = time.perf_counter()
    verify_munzner(fam, num_points=n_sweep)
    print(f"residual sweep ({n_sweep} pts): {time.perf_counter() - t0:.3f} s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    bench(quick=parser.parse_args().quick)
