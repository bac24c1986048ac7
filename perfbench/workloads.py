"""The four certification workloads and their checks against theory.

Every workload calls one public certification entry point of isolab, once
per sample, on inputs drawn from the run seed.  Each call is checked against
what the theory of isoparametric families predicts, never against stored
outputs; a check returns (units attempted, units failed), where a unit is a
pole, or the whole call for `sweep`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import isolab

LEVEL = 0.3          # the nomizu-quartic level of the acceptance suite
SWEEP_POINTS = 100_000
SWEEP_RADIUS = 2.0
SWEEP_TOL = 1e-9


def index_ladder(fam, side=None):
    """Morse index multiset of a height function on a level hypersurface
    (side None) or on the focal submanifold V = side.

    With multiplicities m_i alternating m1, m2 (starting with m2 on the
    side -1 focal submanifold), the focal indices are the partial sums
    S_k = sum_{i<k} m_i for k < g, and the hypersurface indices are the S_k
    together with n - S_k.
    """
    first, second = (fam.m2, fam.m1) if side == -1 else (fam.m1, fam.m2)
    mults = [first if i % 2 == 0 else second for i in range(fam.g)]
    partial = [sum(mults[:k]) for k in range(fam.g)]
    if side is None:
        partial += [fam.hypersurface_dim - v for v in partial]
    return Counter(partial)


def check_pole_report(fam, report, num_poles, side=None):
    """Units and failures of a tightness or focal-tautness report: a pole
    fails unless the report accepts it, both routes count exactly 2g (g on
    a focal sheet) and its indices form the theoretical ladder."""
    expected = 2 * fam.g if side is None else fam.g
    if report.expected_count != expected:
        return num_poles, num_poles
    ladder = index_ladder(fam, side)
    flagged = {tuple(f["pole"]) for f in report.failures}
    failed = num_poles - len(report.poles)
    for pole in report.poles:
        indices = Counter(p["index_hessian"] for p in pole["points"])
        failed += not (tuple(pole["pole"]) not in flagged
                       and pole["count_newton"] == expected
                       and pole["count_circle"] == expected
                       and indices == ladder)
    return num_poles, failed


@dataclass(frozen=True)
class Workload:
    name: str
    family: tuple            # (catalog label, parameters)
    units: int               # certification units per call
    call_s: float            # rough seconds per call on a 2-core x86 box
    certify: Callable        # (fam, seed) -> result
    check: Callable          # (fam, result) -> (attempted, failed)
    warm_up: Callable        # (fam) -> None, a small call filling lazy state

    def make_family(self):
        label, params = self.family
        return isolab.catalog(label, **params)


# -- tight: criterion 4, Newton with finite-difference Jacobians -------------

TIGHT_POLES = 2


def _tight(fam, seed):
    return isolab.tightness_report(fam, LEVEL, num_poles=TIGHT_POLES, seed=seed)


def _tight_check(fam, report):
    return check_pole_report(fam, report, TIGHT_POLES)


# -- focal: criterion 5, both focal sheets -----------------------------------

FOCAL_POLES = 1


def _focal(fam, seed):
    return [isolab.focal_tautness_report(fam, side, num_poles=FOCAL_POLES,
                                         seed=seed) for side in (1, -1)]


def _focal_check(fam, reports):
    attempted = failed = 0
    for side, report in zip((1, -1), reports):
        a, f = check_pole_report(fam, report, FOCAL_POLES, side=side)
        attempted += a
        failed += f
    return attempted, failed


# -- degenerate: criterion 7, focal poles give clouds of solutions ----------

DEGENERATE_NONFOCAL = 1
DEGENERATE_FOCAL = 1


def _degenerate(fam, seed):
    return isolab.totally_focal_probe(fam, LEVEL, seed=seed,
                                      num_nonfocal=DEGENERATE_NONFOCAL,
                                      num_focal=DEGENERATE_FOCAL)


def _degenerate_check(fam, probe):
    """No non-focal point is degenerate, each non-focal pole has exactly 2g
    critical points, and every focal-pole point is degenerate.  The probe
    aggregates over poles, so a violation fails every pole of the call."""
    units = DEGENERATE_NONFOCAL + DEGENERATE_FOCAL
    nonfocal, focal = probe["nonfocal"], probe["focal"]
    ok = (probe["pass"]
          and nonfocal["poles"] == DEGENERATE_NONFOCAL
          and nonfocal["points"] == 2 * fam.g * DEGENERATE_NONFOCAL
          and nonfocal["degenerate_points"] == 0
          and focal["poles"] == DEGENERATE_FOCAL
          and focal["points"] > 0
          and focal["degenerate_points"] == focal["points"]
          and not probe["mixed_failures"])
    return units, 0 if ok else units


# -- sweep: criterion 1, the defining PDE pair at 1e5 points ----------------

def sweep_call(fam, seed, num_points=SWEEP_POINTS):
    return isolab.verify_munzner(fam, num_points=num_points,
                                 radius=SWEEP_RADIUS, seed=seed)


def sweep_check(fam, report, num_points=SWEEP_POINTS):
    """The whole sweep is one unit: every scaled residual below 1e-9."""
    ok = (report.passed and report.num_points == num_points
          and report.worst_scaled_residual < SWEEP_TOL)
    return 1, 0 if ok else 1


WORKLOADS = {w.name: w for w in (
    Workload(
        name="tight",
        family=("nomizu-quartic", {"n": 2}),
        units=TIGHT_POLES, call_s=1.0,
        certify=_tight, check=_tight_check,
        warm_up=lambda fam: isolab.tightness_report(fam, LEVEL, num_poles=1,
                                                    seed=1)),
    Workload(
        name="focal",
        family=("nomizu-quartic", {"n": 2}),
        units=2 * FOCAL_POLES, call_s=1.7,
        certify=_focal, check=_focal_check,
        warm_up=lambda fam: isolab.focal_tautness_report(fam, 1, num_poles=1,
                                                         seed=1)),
    Workload(
        name="degenerate",
        family=("nomizu-quartic", {"n": 2}),
        units=DEGENERATE_NONFOCAL + DEGENERATE_FOCAL, call_s=3.7,
        certify=_degenerate, check=_degenerate_check,
        warm_up=lambda fam: isolab.totally_focal_probe(
            fam, LEVEL, seed=1, num_nonfocal=1, num_focal=0)),
    Workload(
        name="sweep",
        family=("nomizu-quartic", {"n": 5}),
        units=1, call_s=4.7,
        certify=sweep_call, check=sweep_check,
        warm_up=lambda fam: sweep_call(fam, 1, num_points=1000)),
)}
