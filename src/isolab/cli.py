"""Command-line interface.

Subcommands: verify, spectrum, focal, tight, taut-focal, totally-focal,
export-mesh, export-curves.  Each report is one JSON object that echoes
every option it ran with and holds no timestamps, so it is deterministic
given its options.  Exit codes: 0 when all asserted checks pass, 1 on
verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import FamilyRejectedError, InputContractError, IsolabError
from .families import (CATALOG_LABELS, catalog, family_from_json_obj,
                       seeded_rng, verify_munzner)
from .focal import exp_param_check, focal_dimension_estimate
from .levelset import _hypersurface_level, sample_points
from .morse import focal_tautness_report, tightness_report, totally_focal_probe
from .shape import isoparametric_check, spectrum_at
from .sphere import SpherePoint
from . import export as export_mod

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# each command that reads --tol, with its own default
_TOL_DEFAULTS = {"verify": 1e-9, "spectrum": 1e-7, "focal": 1e-7}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse's own rejections (an unknown flag, a bad choice or type, a
    missing argument) are usage errors like any other: one `usage error:`
    line on stderr and exit 2, not the usage block.  Subcommand parsers
    are built from this class too."""

    def error(self, message):
        raise _UsageError(message)


def _tolerance(text):
    """The --tol type: a positive finite number."""
    tol = float(text)
    if not (np.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {tol!r}")
    return tol


def _build_parser():
    parser = _Parser(
        prog="isolab",
        description="Verification laboratory for isoparametric hypersurfaces "
                    "in spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--family", required=True,
                       help=" | ".join(CATALOG_LABELS))
        p.add_argument("--params", default="{}",
                       help="family parameters as JSON, e.g. "
                            "'{\"k\": 1, \"n\": 2}'")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the JSON report here")

    for name in ("verify", "spectrum", "focal", "tight", "taut-focal",
                 "totally-focal", "export-mesh", "export-curves"):
        p = sub.add_parser(name)
        add_common(p)
        # each flag only where a command reads it
        if name not in ("verify", "taut-focal"):
            p.add_argument("--level", type=float, default=0.3)
        if name in _TOL_DEFAULTS:
            p.add_argument("--tol", type=_tolerance,
                           default=_TOL_DEFAULTS[name])
        if name in ("spectrum", "focal", "export-mesh"):
            p.add_argument("--samples", type=int, default=100)
        if name in ("tight", "taut-focal", "totally-focal"):
            p.add_argument("--poles", type=int, default=100)
        if name == "spectrum":
            # the one command with a second output format
            p.add_argument("--format", choices=("json", "csv"),
                           default="json")
        if name == "taut-focal":
            p.add_argument("--side", type=int, choices=(1, -1), default=1)
        if name == "export-mesh":
            p.add_argument("--resolution", type=int, default=64)
            p.add_argument("--pole", default=None,
                           help="projection pole as a JSON list of ambient "
                                "coordinates")
    return parser


def _load_family(args):
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed --params JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise _UsageError("--params must be a JSON object")
    path = params.pop("file", None) if args.family == "user-polynomial" else None
    try:
        if path is not None:
            return family_from_json_obj(_read_json_file(path))
        return catalog(args.family, **params)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad parameters for {args.family}: {exc}") from exc


def _read_json_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read polynomial file: {exc}") from exc
    except ValueError as exc:  # malformed JSON or text encoding
        raise _UsageError(f"malformed polynomial file {path}: {exc}") from exc


def _emit(args, payload):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report(args, fam, body):
    """Emit one report: the command, the configuration it ran with (every
    option of the command but --out, with --params parsed, and the family's
    metadata) and the body.  The exit code reads body["pass"]."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "out")}
    config.update(family=fam.label, params=json.loads(args.params), g=fam.g,
                  m1=fam.m1, m2=fam.m2, ambient_dim=fam.ambient_dim)
    _emit(args, {"command": args.command, "config": config, **body})
    return EXIT_PASS if body["pass"] else EXIT_FAIL


def _cmd_verify(args, fam):
    report = verify_munzner(fam, seed=args.seed + 1234, tol_scale=args.tol)
    return _report(args, fam, report.to_dict())


def _cmd_spectrum(args, fam):
    if args.format == "csv":
        if not args.out:
            raise _UsageError("--format csv needs --out")
        export_mod.export_spectrum_csv(fam, args.level, args.samples,
                                       args.seed, args.out)
    report = isoparametric_check(fam, args.level, args.samples, args.seed,
                                 tol=args.tol)
    if args.format == "csv":
        return EXIT_PASS if report.passed else EXIT_FAIL
    return _report(args, fam, report.to_dict())


def _cmd_focal(args, fam):
    if args.samples < 1:
        raise _UsageError(f"--samples must be at least 1, got {args.samples}")
    pts = sample_points(fam, _hypersurface_level(args.level),
                        max(1, args.samples // 10), args.seed)
    profile, spacing = [], []
    for p in pts:
        spec = spectrum_at(p)
        profile.append(exp_param_check(fam, p, spectrum=spec))
        params = sorted(spec.focal_parameters())
        both = params + [t - np.pi for t in params]
        both.sort()
        gaps = np.diff(both + [both[0] + 2 * np.pi])
        spacing.append(float(np.abs(gaps - np.pi / fam.g).max()))
    dims = {"+1": focal_dimension_estimate(fam, 1, seed=args.seed),
            "-1": focal_dimension_estimate(fam, -1, seed=args.seed)}
    return _report(args, fam, {
        "worst_profile_error": max(profile),
        "worst_spacing_error": max(spacing),
        "focal_dimensions": dims,
        "pass": max(profile) < 1e-8 and max(spacing) < args.tol})


def _cmd_tight(args, fam):
    report = tightness_report(fam, args.level, num_poles=args.poles,
                              seed=args.seed)
    return _report(args, fam, report.to_dict())


def _cmd_taut_focal(args, fam):
    report = focal_tautness_report(fam, args.side, num_poles=args.poles,
                                   seed=args.seed)
    return _report(args, fam, {"side": args.side, **report.to_dict()})


def _cmd_totally_focal(args, fam):
    if args.poles < 1:
        raise _UsageError(f"--poles must be at least 1, got {args.poles}")
    return _report(args, fam, totally_focal_probe(
        fam, args.level, seed=args.seed,
        num_nonfocal=max(1, args.poles // 2),
        num_focal=max(1, args.poles // 10)))


def _default_pole(fam, seed):
    rng = seeded_rng(seed, 0xB0B)
    for _ in range(100):
        raw = rng.normal(size=fam.ambient_dim)
        p = raw / np.linalg.norm(raw)
        if abs(float(fam.polynomial.value(p))) < 0.9:
            return SpherePoint(p)
    raise InputContractError("no usable projection pole found")


def _cmd_export_mesh(args, fam):
    if not args.out:
        raise _UsageError("export-mesh needs --out")
    if args.pole is not None:
        try:  # JSONDecodeError and InputContractError are ValueErrors
            pole = SpherePoint(np.asarray(json.loads(args.pole), dtype=float))
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"bad --pole {args.pole}: {exc}") from exc
        if pole.ambient_dim != fam.ambient_dim:
            raise _UsageError(f"--pole needs {fam.ambient_dim} coordinates")
    else:
        pole = _default_pole(fam, args.seed)
    if fam.ambient_dim != 4:
        export_mod.export_point_cloud_csv(fam, args.level, args.samples,
                                          args.seed, pole, args.out)
        print(f"ambient dimension {fam.ambient_dim} > 4: wrote a CSV point "
              f"cloud to {args.out}")
        return EXIT_PASS
    mesh = export_mod.export_mesh(fam, args.level, pole,
                                  resolution=args.resolution, path=args.out)
    for note in mesh.warnings:
        print(f"warning: {note}")
    print(f"wrote {len(mesh.vertices)} vertices, {len(mesh.faces)} faces "
          f"to {args.out}")
    return EXIT_PASS


def _cmd_export_curves(args, fam):
    if not args.out:
        raise _UsageError("export-curves needs --out")
    export_mod.export_focal_circle_csv(fam, args.level, args.seed, args.out)
    print(f"wrote the normal-circle profile to {args.out}")
    return EXIT_PASS


_COMMANDS = {
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "focal": _cmd_focal,
    "tight": _cmd_tight,
    "taut-focal": _cmd_taut_focal,
    "totally-focal": _cmd_totally_focal,
    "export-mesh": _cmd_export_mesh,
    "export-curves": _cmd_export_curves,
}


def main(argv=None):
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # --help prints and exits 0
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
        if args.seed < 0:
            raise _UsageError(f"--seed must be non-negative, got {args.seed}")
        fam = _load_family(args)
        return _COMMANDS[args.command](args, fam)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FamilyRejectedError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except InputContractError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if exc.filename is None or exc.filename != args.out:
            raise
        print(f"usage error: cannot write --out {args.out}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_USAGE
    except IsolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
