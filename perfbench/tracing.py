"""Per-layer spans recorded from outside the library.

A `Tracer` wraps the public and module-level functions of each isolab layer
for the duration of a `with tracer.installed():` block.  A function is
replaced in every isolab module that holds it, because `morse` and `focal`
bind `_project_batch`, `_frames_batch` and `spectrum_at` at import time and
look them up in their own globals; the `CMPolynomial` banks are wrapped on
the class.  Leaving the block restores every original.

Each call opens a span.  A span's self time is its duration minus the time
covered by its child spans; inclusive time is counted only for the outermost
span of a name.  Spans are folded into per-span-name totals as they close,
and counts (rows, starts, converged, ...) are taken at the same boundary
from the call's arguments and result.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from isolab import families, levelset, morse, shape
from isolab.polynomial import CMPolynomial


def _rows(x):
    # the banks accept one point (ndim 1) or a batch of rows
    return 1 if np.ndim(x) == 1 else len(x)


# -- count hooks: (stats, args, result, child span counts) -------------------

def _count_rows(stats, args, result, children):
    stats["rows"] += _rows(args[1])


def _count_project(stats, args, result, children):
    stats["rows"] += len(args[2])
    stats["ok"] += int(result[1].sum())


def _count_newton(stats, args, result, children):
    stats["starts"] += len(args[3])
    stats["converged"] += len(result[0])
    stats["iters"] += children["levelset.frames"] - 1


def _count_focal_newton(stats, args, result, children):
    stats["starts"] += len(args[3])
    stats["converged"] += len(result[0])


def _count_dedup(stats, args, result, children):
    stats["rows_in"] += len(args[1])
    stats["kept"] += len(result)


def _count_points(stats, args, result, children):
    stats["points"] += len(args[3])


def _count_report(stats, args, result, children):
    stats["rejected"] += getattr(result, "rejected_poles", 0)


# (module or class, attribute, span name, count hook)
LAYERS = (
    (CMPolynomial, "value", "polynomial.value", _count_rows),
    (CMPolynomial, "gradient", "polynomial.gradient", _count_rows),
    (CMPolynomial, "hessian", "polynomial.hessian", _count_rows),
    (CMPolynomial, "laplacian", "polynomial.laplacian", _count_rows),
    (levelset, "_project_batch", "levelset.project", _count_project),
    (levelset, "_project_focal_batch", "levelset.project_focal", _count_project),
    (levelset, "_frames_batch", "levelset.frames", None),
    (morse, "_newton_multistart", "morse.newton", _count_newton),
    (morse, "_focal_newton", "morse.focal_newton", _count_focal_newton),
    (morse, "_dedup", "morse.dedup", _count_dedup),
    (morse, "_classify", "morse.classify", _count_points),
    (morse, "_hessian_stencil", "morse.stencil", _count_points),
    (morse, "_focal_index", "morse.focal_index", _count_points),
    (morse, "normal_circle_critical_points", "morse.circle", None),
    (morse, "_focal_circle_points", "morse.circle", None),
    (morse, "_draw_pole", "morse.poles", None),
    (morse, "tightness_report", "morse.report", _count_report),
    (morse, "focal_tautness_report", "morse.report", _count_report),
    (morse, "totally_focal_probe", "morse.report", None),
    (shape, "spectrum_at", "shape.spectrum", None),
    (families, "munzner_residuals", "families.residuals", _count_rows),
)

# per-layer counts that must repeat exactly at a fixed seed
EXACT = ("calls", "rows", "ok", "starts", "converged", "iters", "rows_in",
         "kept", "points", "rejected")


def _isolab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "isolab" or name.startswith("isolab."))]


class Tracer:
    """Spans and counts per layer, folded into totals as each span closes."""

    def __init__(self):
        self.stats = defaultdict(Counter)
        self._stack = []
        self._depth = Counter()

    def _wrap(self, name, fn, hook):
        stats = self.stats[name]
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def span(*args, **kwargs):
            children = Counter()
            frame = [0.0, children]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                stats["calls"] += 1
                stats["self_s"] += dt - frame[0]
                if not depth[name]:
                    stats["incl_s"] += dt
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1][name] += 1
            if hook is not None:
                hook(stats, args, result, children)
            return result

        span.traced_layer = name
        return span

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer function where its callers look it up; restore
        all of them on exit, also when the traced code raises."""
        patches = []
        try:
            for owner, attr, name, hook in LAYERS:
                orig = owner.__dict__[attr]
                wrapper = self._wrap(name, orig, hook)
                holders = [owner] if isinstance(owner, type) else _isolab_modules()
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, key, wrapper)
                            patches.append((holder, key, orig))
            yield self
        finally:
            for holder, key, orig in reversed(patches):
                setattr(holder, key, orig)
            assert_unpatched()

    def counts(self):
        """Exact counts per layer; two runs at one seed must agree on them."""
        return {name: {k: int(v) for k, v in sorted(stats.items()) if k in EXACT}
                for name, stats in sorted(self.stats.items())}


def assert_unpatched():
    """Raise if any layer function is still replaced by a span wrapper."""
    for holder in _isolab_modules() + [CMPolynomial]:
        for key, value in vars(holder).items():
            if getattr(value, "traced_layer", None) is not None:
                raise RuntimeError(f"{holder.__name__}.{key} is still traced")


# Per-layer metrics: span name -> the stats reported for it.  A `*_frac`
# stat is the ratio of two counts of the same span (see RATIOS).
REPORTED = {
    "polynomial.value": ("calls", "rows", "self_s"),
    "polynomial.gradient": ("calls", "rows", "self_s"),
    "polynomial.hessian": ("calls", "rows", "self_s"),
    "polynomial.laplacian": ("calls", "rows", "self_s"),
    "levelset.project": ("calls", "rows", "ok_frac", "self_s", "incl_s"),
    "levelset.project_focal": ("calls", "rows", "ok_frac", "self_s"),
    "levelset.frames": ("calls", "self_s"),
    "morse.newton": ("calls", "starts", "converged_frac", "iters", "self_s",
                     "incl_s"),
    "morse.focal_newton": ("calls", "starts", "converged_frac", "self_s",
                           "incl_s"),
    "morse.dedup": ("rows_in", "kept_frac", "self_s"),
    "morse.classify": ("points", "self_s", "incl_s"),
    "morse.stencil": ("points", "self_s"),
    "morse.focal_index": ("points", "self_s", "incl_s"),
    "morse.circle": ("calls", "self_s", "incl_s"),
    "morse.report": ("self_s",),
    "shape.spectrum": ("calls", "self_s"),
    "families.residuals": ("rows", "self_s"),
}
RATIOS = {"ok_frac": ("ok", "rows"), "converged_frac": ("converged", "starts"),
          "kept_frac": ("kept", "rows_in")}
UNITS = {"calls": "count", "starts": "count", "iters": "count",
         "points": "count", "rows": "rows", "rows_in": "rows",
         "self_s": "s", "incl_s": "s"}


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, wall_s):
    """The per-layer metrics of one traced batch, as {name: (value, unit)}.

    `wall_s` is the summed wall time of the traced certification calls; it is
    reported so that every time can be read as a share of it.
    """
    st = tracer.stats
    out = {}
    for span, reported in REPORTED.items():
        for stat in reported:
            if stat in RATIOS:
                num, den = RATIOS[stat]
                out[f"{span}.{stat}"] = (_frac(st[span][num], st[span][den]),
                                         "frac")
            else:
                out[f"{span}.{stat}"] = (st[span][stat], UNITS[stat])
    banks = [st[f"polynomial.{b}"] for b in
             ("value", "gradient", "hessian", "laplacian")]
    calls = sum(b["calls"] for b in banks)
    rows = sum(b["rows"] for b in banks)
    self_s = sum(b["self_s"] for b in banks)
    out["polynomial.self_s"] = (self_s, "s")
    out["polynomial.rows_per_call"] = (_frac(rows, calls), "rows/call")
    out["polynomial.ns_per_row"] = (_frac(self_s * 1e9, rows), "ns/row")
    drawn = st["morse.poles"]["calls"]
    out["morse.poles.drawn"] = (drawn, "count")
    out["morse.poles.rejected_frac"] = (
        _frac(st["morse.report"]["rejected"], drawn), "frac")
    out["trace.wall_s"] = (wall_s, "s")
    return out
