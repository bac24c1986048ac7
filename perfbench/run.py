#!/usr/bin/env python3
"""Certification benchmark for isolab.

    python3 perfbench/run.py --workload tight --seed 2026 --seconds 25 --trace 0

Runs one workload (see `workloads.py`) closed-loop from this process, one
certification call after another, for about `--seconds` seconds, and checks
every result against theory.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are end to end, measured with tracing off:

* `cert_s`: median wall seconds of one certification call;
* `setup_s`: median, over fresh interpreters, of the seconds taken by
  `import isolab`, `catalog(...)` and one evaluation of each lazily built
  derivative bank;
* `peak_rss_mb`: peak resident memory of this process;
* `pass_frac`: certification units that passed over units attempted
  (`failed` / `attempted` in the JSON are the same units).

With `--trace 1` a fixed batch of calls, sized from `--seconds`, runs once
untraced and twice traced; the metrics are per layer (see `tracing.py`) from
the first traced pass, plus the tracing overhead.  The exact counts of the
two traced passes must agree, or the run fails.

The isolab sources are taken from `src/` next to this directory; without
them the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEFAULT_SEED = 2026      # differs from the acceptance-test seeds 3, 5, 13, 42
MIN_CALLS = 3
SETUP_PROBES = 7
TRACE_PASSES = 2

# Runs in a fresh interpreter; prints the set-up seconds and where isolab
# was imported from.
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import isolab
fam = isolab.catalog({label!r}, **{params!r})
poly = fam.polynomial
x = [fam.ambient_dim ** -0.5] * fam.ambient_dim
for bank in (poly.value, poly.gradient, poly.hessian, poly.laplacian):
    bank(x)
print(time.perf_counter() - t0, isolab.__file__)
"""


def import_isolab():
    """Import isolab from this checkout's sources, never from elsewhere."""
    if not (SRC / "isolab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no isolab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import isolab
    if Path(isolab.__file__).resolve().parent != SRC / "isolab":
        sys.exit(f"perfbench: isolab was imported from {isolab.__file__}")
    return isolab


def setup_seconds(workload):
    """Median set-up time over fresh interpreters."""
    label, params = workload.family
    code = SETUP_PROBE.format(label=label, params=params)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout.split()
        if Path(out[1]).resolve().parent != SRC / "isolab":
            sys.exit(f"perfbench: set-up probe imported isolab from {out[1]}")
        samples.append(float(out[0]))
    return statistics.median(samples)


def call_seed(seed, i):
    """Seed of the i-th certification call of a run."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def certify_once(workload, fam, seed):
    """One timed certification call and its check: (seconds, attempted,
    failed).  An exception fails every unit of the call."""
    t0 = time.perf_counter()
    try:
        result = workload.certify(fam, seed)
        seconds = time.perf_counter() - t0
        attempted, failed = workload.check(fam, result)
    except Exception:
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        return seconds, workload.units, workload.units
    return seconds, attempted, failed


def closed_loop(workload, fam, seed, seconds):
    """Call after call until the next one would end past `seconds`."""
    times, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while (len(times) < MIN_CALLS or time.perf_counter() - start
           + statistics.median(times) <= seconds):
        dt, a, f = certify_once(workload, fam, call_seed(seed, len(times)))
        times.append(dt)
        attempted += a
        failed += f
    return times, attempted, failed


def environment(isolab):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "backend": isolab.backend_name(),
            "nproc": len(os.sched_getaffinity(0))}


def run_untraced(workload, fam, seed, seconds, setup_s):
    times, attempted, failed = closed_loop(workload, fam, seed, seconds)
    q1, med, q3 = statistics.quantiles(times, n=4)
    print(f"cert_s median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
          f"over {len(times)} calls")
    print(f"fail_frac {failed}/{attempted}")
    metrics = {
        "cert_s": (med, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb":
            (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_frac": (1.0 - failed / attempted, "frac"),
    }
    return failed == 0, attempted, failed, metrics


def run_traced(workload, fam, seed, seconds):
    from tracing import Tracer, layer_metrics
    calls = max(1, int(seconds / ((1 + 1.25 * TRACE_PASSES) * workload.call_s)))
    seeds = [call_seed(seed, i) for i in range(calls)]
    plain = [certify_once(workload, fam, s) for s in seeds]
    passes = []
    for _ in range(TRACE_PASSES):
        tracer = Tracer()
        with tracer.installed():
            runs = [certify_once(workload, fam, s) for s in seeds]
        passes.append((tracer, runs))
    counts = [tracer.counts() for tracer, _ in passes]
    deterministic = all(c == counts[0] for c in counts)
    if not deterministic:
        print("perfbench: layer counts differ between traced runs at one seed",
              file=sys.stderr)
    tracer, runs = passes[0]
    traced_med = statistics.median(dt for dt, _, _ in runs)
    plain_med = statistics.median(dt for dt, _, _ in plain)
    wall = sum(dt for dt, _, _ in runs)
    metrics = layer_metrics(tracer, wall)
    metrics["trace.overhead_s"] = (traced_med - plain_med, "s")
    print(f"traced batch of {calls} calls; cert_s untraced {plain_med:.4f} "
          f"traced {traced_med:.4f} overhead "
          f"{(traced_med - plain_med) / plain_med:+.1%}")
    print(f"{'span':24} {'calls':>8} {'self_s':>9} {'self%':>6} {'incl%':>6}")
    for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:24} {st['calls']:8d} {st['self_s']:9.4f} "
              f"{st['self_s'] / wall:6.1%} {st['incl_s'] / wall:6.1%}")
    print("counts " + json.dumps(counts[0], sort_keys=True))
    everything = plain + [r for _, runs_ in passes for r in runs_]
    attempted = sum(a for _, a, _ in everything)
    failed = sum(f for _, _, f in everything)
    return deterministic and failed == 0, attempted, failed, metrics


def main(argv=None):
    isolab = import_isolab()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_seconds(workload)
    fam = workload.make_family()
    workload.warm_up(fam)
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(isolab), sort_keys=True))
    if args.trace:
        correct, attempted, failed, metrics = run_traced(
            workload, fam, args.seed, args.seconds)
    else:
        correct, attempted, failed, metrics = run_untraced(
            workload, fam, args.seed, args.seconds, setup_s)
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
