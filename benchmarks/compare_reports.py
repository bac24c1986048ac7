#!/usr/bin/env python3
"""Compare the JSON reports of two source trees, report by report.

    python benchmarks/compare_reports.py OLD_ROOT NEW_ROOT [--quick]

Each root is a checkout of this repository.  Its `src` is imported in a
subprocess of its own, which writes the JSON of every report below (its
`to_dict()`, or the dict the probe returns), keys unsorted, so that a change
of key order counts as a difference.  For nomizu-quartic n=2, cartan-cubic,
clifford(1,2) and great-sphere(n=3), at seeds 3 and 2026: the residual sweep
(`verify_munzner`), the spectrum check, the tightness report and the totally
focal probe at the level 0.3, and the focal tautness reports on both sheets;
plus the Euclidean spot check on clifford(1,2) at both seeds: at the level 0
from `SPOT_POLE` and from `DISTORTED_POLE`, whose image is stretched enough
that Newton from the grid alone misses an extreme, so that only its
gradient-flow starts find it, and at `SPOT_LEVEL` = -0.5 from `SPOT_POLE`,
a torus off the minimal one whose grid starts lie far from most critical
points; and the residual sweep of the benchmark's `sweep` workload
(nomizu-quartic n=5 at 100 000 points of the ball of radius 2) at both
seeds, which the sweep takes in 25 chunks, the last one partial.  Full
runs take 10 poles per report, 40 spectrum samples and 8 spot-check
centers, and the probe takes 10 non-focal and 2 focal poles; `--quick`
takes 1, 4 and 2, and 1 and 1.

One line is printed per report that differs or that one tree lacks.  It
names the leaves that differ: how many float leaves move, with the largest
absolute and the largest relative change, and every other leaf (counts,
flags, ladders, labels) by path.  The exit code is 1 if any report differs,
else 0.
"""

import argparse
import json
import pathlib
import subprocess
import sys

FAMILIES = (("nomizu-quartic", {"n": 2}), ("cartan-cubic", {}),
            ("clifford", {"k": 1, "n": 2}), ("great-sphere", {"n": 3}))
SEEDS = (3, 2026)
LEVEL = 0.3
SPOT_POLE = (0.12, 0.23, 0.34, 0.90)
DISTORTED_POLE = (0.5, -0.2, 0.1, 0.8)
SPOT_LEVEL = -0.5


def _reports(quick):
    """(name, report) pairs, in a fixed order, from the isolab on sys.path."""
    import numpy as np
    from isolab import (SpherePoint, catalog, euclidean_taut_spot_check,
                        focal_tautness_report, isoparametric_check,
                        tightness_report, totally_focal_probe,
                        verify_munzner)

    poles, samples, centers = (1, 4, 2) if quick else (10, 40, 8)
    focal_poles = 1 if quick else 2
    for label, params in FAMILIES:
        fam = catalog(label, **params)
        name = label + json.dumps(params, sort_keys=True)
        for seed in SEEDS:
            yield f"{name} seed={seed} verify", verify_munzner(fam, seed=seed)
            yield (f"{name} seed={seed} spectrum",
                   isoparametric_check(fam, LEVEL, samples, seed))
            yield (f"{name} seed={seed} tight",
                   tightness_report(fam, LEVEL, num_poles=poles, seed=seed))
            yield (f"{name} seed={seed} probe",
                   totally_focal_probe(fam, LEVEL, seed=seed,
                                       num_nonfocal=poles,
                                       num_focal=focal_poles))
            for side in (1, -1):
                yield (f"{name} seed={seed} focal {side:+d}",
                       focal_tautness_report(fam, side, num_poles=poles,
                                             seed=seed))
    fam = catalog("clifford", k=1, n=2)
    for tag, coords, level in (("", SPOT_POLE, 0.0),
                               (" distorted", DISTORTED_POLE, 0.0),
                               (f" level={SPOT_LEVEL}", SPOT_POLE,
                                SPOT_LEVEL)):
        pole = SpherePoint(np.array(coords))
        for seed in SEEDS:
            yield (f"clifford seed={seed} spot check{tag}",
                   euclidean_taut_spot_check(fam, level, pole,
                                             num_centers=centers, seed=seed))
    fam = catalog("nomizu-quartic", n=5)
    name = "nomizu-quartic" + json.dumps({"n": 5})
    for seed in SEEDS:
        yield (f"{name} seed={seed} sweep",
               verify_munzner(fam, num_points=100_000, radius=2.0, seed=seed))


def _dump(root, quick):
    """Write one `name<TAB>json` line per report of the tree at `root`."""
    src = pathlib.Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    import isolab
    if pathlib.Path(isolab.__file__).resolve().parent != src / "isolab":
        sys.exit(f"imported {isolab.__file__}, not the tree under {root}")
    for name, report in _reports(quick):
        body = report if isinstance(report, dict) else report.to_dict()
        print(f"{name}\t{json.dumps(body)}")


def _load(root, quick):
    cmd = [sys.executable, __file__, "--dump", str(root)]
    proc = subprocess.run(cmd + ["--quick"] * quick, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"reports of {root} failed:\n{proc.stderr}")
    return dict(line.split("\t", 1) for line in proc.stdout.splitlines())


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _describe(old_text, new_text):
    """What differs between two JSON reports, in one line."""
    old = list(_leaves(json.loads(old_text)))
    new = list(_leaves(json.loads(new_text)))
    if [p for p, _ in old] != [p for p, _ in new]:
        return "keys, key order or list lengths differ"
    moves, exact = [], []
    for (path, a), (_, b) in zip(old, new):
        if json.dumps(a) == json.dumps(b):
            continue
        if isinstance(a, float) and isinstance(b, float):
            moves.append((abs(a - b), abs(a - b) / max(abs(a), abs(b)), path))
        else:
            exact.append(path)
    parts = []
    if moves:
        absolute = max(moves, key=lambda m: m[0])
        relative = max(moves, key=lambda m: m[1])
        parts.append(f"{len(moves)} floats move, by up to {absolute[0]:.2e} "
                     f"({absolute[2]}) and {relative[1]:.2e} relative "
                     f"({relative[2]})")
    if exact:
        more = " ..." if len(exact) > 5 else ""
        parts.append(f"{len(exact)} other leaves differ: "
                     f"{', '.join(exact[:5])}{more}")
    return "; ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare the reports of two source trees.")
    parser.add_argument("old_root")
    parser.add_argument("new_root")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    old = _load(args.old_root, args.quick)
    new = _load(args.new_root, args.quick)
    differing = 0
    for name in dict.fromkeys([*old, *new]):
        if name not in old or name not in new:
            print(f"{name}: only in {'new' if name in new else 'old'}")
        elif old[name] != new[name]:
            print(f"{name}: {_describe(old[name], new[name])}")
        else:
            continue
        differing += 1
    print(f"{differing} of {len(new)} reports differ")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"]:
        _dump(sys.argv[2], "--quick" in sys.argv[3:])
    else:
        sys.exit(main())
