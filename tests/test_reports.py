"""The report format: every report serializes from its own fields, and
benchmarks/compare_reports.py compares two trees report by report."""

import dataclasses
import importlib.util
import json
import pathlib
import subprocess
import sys

import numpy as np

from isolab import (SpherePoint, euclidean_taut_spot_check,
                    focal_tautness_report, isoparametric_check,
                    tightness_report, verify_munzner)
from isolab import morse

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMPARE = ROOT / "benchmarks" / "compare_reports.py"


def test_report_keys_are_the_field_names(fam_clifford):
    pole = SpherePoint(np.array([0.12, 0.23, 0.34, 0.90]))
    reports = [verify_munzner(fam_clifford, num_points=100),
               isoparametric_check(fam_clifford, 0.3, num_samples=3),
               tightness_report(fam_clifford, 0.3, num_poles=1),
               focal_tautness_report(fam_clifford, 1, num_poles=1),
               euclidean_taut_spot_check(fam_clifford, 0.0, pole,
                                         num_centers=1)]
    for report in reports:
        names = [f.name for f in dataclasses.fields(report)]
        assert list(report.to_dict()) == [
            "pass" if name == "passed" else name for name in names]
    spectrum, tight = reports[1].to_dict(), reports[2].to_dict()
    assert spectrum["values"] == list(reports[1].values)
    assert list(tight["index_histogram"]) == ["0", "1", "2"]


def test_count_mismatch_is_a_null_match_in_both_reports(fam_clifford,
                                                        monkeypatch):
    # the Newton route drops a point at the first pole: the match distance
    # is infinite there, so it stays out of the worst match and reads null
    # in the failure entry, and the report stays JSON (which has no
    # infinity)
    route = morse._newton_route

    def dropping(*args):
        out = route(*args)
        out[0] = out[0][:-1]
        return out

    monkeypatch.setattr(morse, "_newton_route", dropping)
    for name, report in (
            ("tight", lambda: tightness_report(fam_clifford, 0.3,
                                               num_poles=2, seed=3)),
            ("focal", lambda: focal_tautness_report(fam_clifford, 1,
                                                    num_poles=2, seed=3))):
        out = report()
        assert not out.passed and len(out.failures) == 1, name
        assert out.failures[0]["pole"] == out.poles[0]["pole"], name
        assert out.failures[0]["match_distance"] is None, name
        assert 0.0 < out.worst_match_distance < 1e-6, name
        json.dumps(out.to_dict(), allow_nan=False)


def test_report_without_newton_points_has_a_null_margin(fam_clifford,
                                                        monkeypatch):
    # a margin taken over no point reads null, since JSON has no infinity
    monkeypatch.setattr(morse, "_newton_route", lambda fam, s, poles, raw: (
        [np.empty((0, fam.ambient_dim))] * len(poles)))
    report = tightness_report(fam_clifford, 0.3, num_poles=1, seed=3)
    assert not report.passed and report.min_hessian_margin is None
    json.dumps(report.to_dict(), allow_nan=False)


def test_compare_reports_finds_no_difference_within_one_tree():
    proc = subprocess.run([sys.executable, str(COMPARE), str(ROOT), str(ROOT),
                           "--quick"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["0 of 56 reports differ"]


def test_compare_reports_names_what_differs():
    spec = importlib.util.spec_from_file_location("compare_reports", COMPARE)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    assert compare._describe('{"a": 1, "b": 2}', '{"b": 2, "a": 1}') == (
        "keys, key order or list lengths differ")
    assert compare._describe('{"x": [1.0, 2.0], "n": 4, "pass": true}',
                             '{"x": [1.0, 2.5], "n": 3, "pass": false}') == (
        "1 floats move, by up to 5.00e-01 (.x[1]) and 2.00e-01 relative "
        "(.x[1]); 2 other leaves differ: .n, .pass")


CODE_LINES = ROOT / "benchmarks" / "code_lines.py"
SYNTHETIC = '''"""A module docstring
over two lines."""

import os  # a trailing comment


# a comment line
def join(a, b):
    """One line."""
    return os.path.join(a,
                        b)


class Box:
    """A class
    docstring."""

    label = """a string
    that is not a docstring"""
'''


def test_code_lines_counts_code_only(tmp_path, capsys):
    # import, def, the two lines of the call, class and the two lines of
    # the assignment; blank lines, comments and docstrings do not count
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    assert code_lines.code_lines(SYNTHETIC) == 7
    (tmp_path / "a.py").write_text(SYNTHETIC)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    code_lines.main([str(tmp_path)])
    *rows, (total, count) = [line.split() for line in
                             capsys.readouterr().out.splitlines()]
    assert [(pathlib.Path(name).name, int(code)) for name, code in
            rows] == [("a.py", 7), ("b.py", 1)]
    assert total == "total"
    assert int(count) == sum(int(code) for _, code in rows)
