#!/usr/bin/env python3
"""Self-test of the certification benchmark.

    python3 perfbench/selftest.py

Checks, in about two minutes on two cores:

* a one-second run of every workload, untraced and traced, exits 0, reports
  `correct`, and prints every metric that BENCHMARK.json names, with its
  declared unit;
* two traced runs at one seed print identical layer counts;
* the traced runs reproduce the stress each workload was chosen for;
* the theoretical checks accept genuine reports of asymmetric families and
  reject a family that violates the defining identities (the perturbed
  Clifford polynomial of the test suite gives fail_frac = 1).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import import_isolab  # noqa: E402

isolab = import_isolab()

from workloads import (WORKLOADS, check_pole_report, sweep_call,  # noqa: E402
                       sweep_check)

SEED = 31


def run(workload, trace, seed=SEED):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    counts = next((ln for ln in lines if ln.startswith("counts ")), None)
    return result["metrics"], counts


def check_metrics(metrics, declared, label):
    for spec in declared:
        got = metrics.get(spec["name"])
        assert got is not None, f"{label}: {spec['name']} not printed"
        assert got["unit"] == spec["unit"], (label, spec, got)
        assert isinstance(got["value"], (int, float)), (label, got)
    extra = set(metrics) - {spec["name"] for spec in declared}
    assert not extra, f"{label}: undeclared metrics {sorted(extra)}"


def morse_incl(m):
    return {k: v["value"] for k, v in m.items()
            if k.startswith("morse.") and k.endswith(".incl_s")}


def share(m, *names):
    return sum(m[n]["value"] for n in names) / m["trace.wall_s"]["value"]


def check_stress(traced):
    tight, focal = traced["tight"], traced["focal"]
    incl = morse_incl(tight)
    assert max(incl, key=incl.get) == "morse.newton.incl_s", incl
    incl = morse_incl(focal)
    assert max(incl, key=incl.get) == "morse.focal_newton.incl_s", incl
    names = ("morse.classify.incl_s", "morse.dedup.self_s")
    assert share(traced["degenerate"], *names) > share(tight, *names)
    assert share(traced["sweep"], "polynomial.self_s") >= 0.9


def check_theory_checks():
    """The ladder checks accept genuine reports of families with unequal
    multiplicities, and the sweep check rejects a perturbed polynomial."""
    for fam, level in ((isolab.catalog("nomizu-quartic", n=3), 0.3),
                       (isolab.catalog("clifford", k=1, n=3), 0.3),
                       (isolab.catalog("cartan-cubic"), 0.2)):
        report = isolab.tightness_report(fam, level, num_poles=1, seed=SEED)
        assert check_pole_report(fam, report, 1) == (1, 0), fam
        for side in (1, -1):
            report = isolab.focal_tautness_report(fam, side, num_poles=1,
                                                  seed=SEED)
            assert check_pole_report(fam, report, 1, side=side) == (1, 0), \
                (fam, side)
    base = isolab.catalog("clifford", k=1, n=2)
    terms = base.polynomial.terms()
    coeff, exps = terms[0]
    terms[0] = (coeff + 1e-3, exps)
    perturbed = isolab.catalog("user-polynomial", terms=terms, ambient_dim=4,
                               g=2, m1=1, m2=1, label="perturbed-clifford",
                               verify=False)
    attempted, failed = sweep_check(perturbed, sweep_call(perturbed, SEED))
    assert attempted >= 1 and failed / attempted == 1.0, (attempted, failed)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    check_theory_checks()
    print("theory checks: ok")
    traced, counts_by = {}, {}
    for name in WORKLOADS:
        metrics, _ = run(name, 0)
        check_metrics(metrics, spec["end_to_end"], f"{name} trace=0")
        metrics, counts = run(name, 1)
        check_metrics(metrics, spec["per_layer"], f"{name} trace=1")
        traced[name], counts_by[name] = metrics, counts
        print(f"{name}: ok")
    _, again = run("tight", 1)
    assert again == counts_by["tight"], "traced counts differ between runs"
    check_stress(traced)
    print("determinism and stress: ok")


if __name__ == "__main__":
    main()
