"""CLI: subcommands, exit codes, determinism of reports."""

import argparse
import json
import subprocess
import sys

import pytest

from isolab import catalog, cli, family_to_json_obj, focal, morse
from isolab.cli import main
from isolab.levelset import sample_points


def run_cli(*args):
    return main(list(args))


def test_verify_pass(capsys):
    assert run_cli("verify", "--family", "cartan-cubic") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["worst_scaled_residual"] < 1e-9


def test_tight_clifford(tmp_path):
    out = tmp_path / "tight.json"
    code = run_cli("tight", "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--level", "0.3", "--poles", "4",
                   "--seed", "1", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert all(p["count_newton"] == 4 for p in payload["poles"])
    assert payload["config"]["seed"] == 1


def test_spectrum_and_focal(tmp_path):
    assert run_cli("spectrum", "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--level", "0.2", "--samples", "15",
                   "--out", str(tmp_path / "s.json")) == 0
    assert run_cli("focal", "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--level", "0.2", "--samples", "20",
                   "--out", str(tmp_path / "f.json")) == 0
    focal = json.loads((tmp_path / "f.json").read_text())
    assert focal["focal_dimensions"] == {"+1": 1, "-1": 1}


def test_taut_focal_and_totally_focal(tmp_path):
    assert run_cli("taut-focal", "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--side", "1", "--poles", "3",
                   "--out", str(tmp_path / "t.json")) == 0
    assert run_cli("totally-focal", "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--level", "0.3", "--poles", "6",
                   "--out", str(tmp_path / "p.json")) == 0


def test_usage_errors():
    assert run_cli("tight", "--family", "nosuch") == 2
    assert run_cli("tight", "--family", "clifford", "--params", "not json") == 2
    assert run_cli("tight", "--family", "clifford", "--params",
                   '{"k": 9, "n": 2}') == 2
    assert run_cli() == 2


def test_rejected_polynomial_is_verification_failure(tmp_path):
    fam = catalog("clifford", k=1, n=2)
    obj = family_to_json_obj(fam)
    obj["terms"][0][0] += 1e-3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code = run_cli("tight", "--family", "user-polynomial", "--params",
                   json.dumps({"file": str(path)}))
    assert code == 1


def test_user_polynomial_file_accepted(tmp_path):
    fam = catalog("clifford", k=1, n=2)
    path = tmp_path / "good.json"
    path.write_text(json.dumps(family_to_json_obj(fam)))
    assert run_cli("verify", "--family", "user-polynomial", "--params",
                   json.dumps({"file": str(path)}),
                   "--out", str(tmp_path / "v.json")) == 0
    payload = json.loads((tmp_path / "v.json").read_text())
    assert payload["pass"] is True


def test_export_mesh_and_curves(tmp_path):
    mesh_path = tmp_path / "m.obj"
    assert run_cli("export-mesh", "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--level", "0.0", "--resolution", "12",
                   "--out", str(mesh_path)) == 0
    assert mesh_path.read_text().startswith("v ")
    curve_path = tmp_path / "c.csv"
    assert run_cli("export-curves", "--family", "cartan-cubic", "--level",
                   "0.2", "--out", str(curve_path)) == 0
    assert curve_path.read_text().startswith("t,V,side")


def test_export_mesh_high_dim_writes_point_cloud(tmp_path):
    out = tmp_path / "cloud.csv"
    assert run_cli("export-mesh", "--family", "cartan-cubic", "--level",
                   "0.2", "--samples", "30", "--out", str(out)) == 0
    assert out.read_text().startswith("y1,")


def test_export_mesh_explicit_pole(tmp_path):
    out = tmp_path / "m.obj"
    assert run_cli("export-mesh", "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--level", "0.0", "--resolution", "8",
                   "--pole", "[0.1, 0.2, 0.3, 0.9]", "--out", str(out)) == 0
    assert sum(1 for l in out.read_text().splitlines()
               if l.startswith("v ")) == 64


def test_export_mesh_pole_of_huge_norm(tmp_path):
    # a direction whose squared norm overflows is the same pole as at unit
    # scale
    out = tmp_path / "m.obj"
    assert run_cli("export-mesh", "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--resolution", "8",
                   "--pole", "[1e308, 0, 1e308, 0]", "--out", str(out)) == 0
    assert out.exists()


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("tight", "--family", "clifford", "--params", '{"k": 1, "n": 2}',
            "--level", "0.3", "--poles", "3", "--seed", "5")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "isolab.cli", "verify", "--family",
         "great-sphere", "--params", '{"n": 2}'],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def assert_usage_error(capsys, *args):
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_missing_polynomial_file_is_usage_error(tmp_path, capsys):
    assert_usage_error(capsys, "tight", "--family", "user-polynomial",
                       "--params",
                       json.dumps({"file": str(tmp_path / "missing.json")}))


def test_malformed_polynomial_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"terms": [1,')
    assert_usage_error(capsys, "tight", "--family", "user-polynomial",
                       "--params", json.dumps({"file": str(path)}))


def test_unknown_user_polynomial_parameter_is_usage_error(capsys):
    assert_usage_error(capsys, "tight", "--family", "user-polynomial",
                       "--params", '{"bogus": 1}')


@pytest.mark.parametrize("level", ["nan", "inf", "2", "1",
                                   "0.999999999999999", "-0.999999999999999"])
@pytest.mark.parametrize("command", ["spectrum", "focal", "export-curves",
                                     "export-mesh", "tight", "totally-focal"])
def test_level_outside_the_sphere_is_usage_error(tmp_path, capsys, command,
                                                 level):
    # within 1e-14 of +/-1 a level is a focal sheet, which has no
    # hypersurface to certify
    assert_usage_error(capsys, command, "--family", "cartan-cubic",
                       "--level", level, "--out", str(tmp_path / "out"))


@pytest.mark.parametrize("args", [
    ("tight", "--poles", "0"),
    ("taut-focal", "--poles", "-3"),
    ("export-mesh", "--level", "0.0", "--resolution", "1"),
    ("export-mesh", "--level", "0.0", "--resolution", "2"),
    ("export-mesh", "--level", "0.0", "--resolution", "-4"),
    ("totally-focal", "--poles", "0"),
    ("totally-focal", "--poles", "-5"),
])
def test_vacuous_certificates_are_usage_errors(tmp_path, capsys, args):
    # no pole certifies nothing, and a mesh needs 3 vertices per circle to
    # close up
    out = tmp_path / "out"
    assert_usage_error(capsys, *args, "--family", "clifford", "--params",
                       '{"k": 1, "n": 2}', "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
@pytest.mark.parametrize("command", ["verify", "focal"])
def test_tol_must_be_positive_and_finite(tmp_path, capsys, command, tol):
    assert_usage_error(capsys, command, "--family", "cartan-cubic",
                       f"--tol={tol}", "--out", str(tmp_path / "out"))



@pytest.mark.parametrize("command, flag, value", [
    ("verify", "--level", "0.5"), ("taut-focal", "--level", "0.3"),
    ("tight", "--tol", "1e-3"), ("export-mesh", "--tol", "1"),
])
def test_level_and_tol_are_options_of_the_commands_that_read_them(
        tmp_path, capsys, command, flag, value):
    # --tol belongs to verify, spectrum and focal; verify and taut-focal
    # read no level
    out = tmp_path / "out"
    assert_usage_error(capsys, command, "--family", "clifford", "--params",
                       '{"k": 1, "n": 2}', flag, value, "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("args", [("spectrum", "--format", "csv"),
                                  ("export-mesh",), ("export-curves",)])
def test_file_writing_commands_need_out(capsys, args):
    assert_usage_error(capsys, *args, "--family", "clifford", "--params",
                       '{"k": 1, "n": 2}')


def _option_dests(command):
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


@pytest.mark.parametrize("command, args", [
    ("verify", ()), ("spectrum", ("--samples", "3")),
    ("focal", ("--samples", "10")), ("tight", ("--poles", "1")),
    ("taut-focal", ("--poles", "1")), ("totally-focal", ("--poles", "2")),
])
def test_report_config_echoes_every_option_but_out(tmp_path, command, args):
    out = tmp_path / "r.json"
    assert run_cli(command, "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--seed", "4", *args,
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    config = payload["config"]
    assert payload["command"] == command
    assert set(config) == (_option_dests(command) - {"out"}
                           | {"g", "m1", "m2", "ambient_dim"})
    assert config["params"] == {"k": 1, "n": 2} and config["seed"] == 4
    assert all(config[flag[2:]] == int(value)
               for flag, value in zip(args[::2], args[1::2]))
    if "tol" in config:
        assert config["tol"] == {"verify": 1e-9, "spectrum": 1e-7,
                                 "focal": 1e-7}[command]


@pytest.mark.parametrize("command", ["verify", "spectrum", "focal", "tight",
                                     "taut-focal", "totally-focal",
                                     "export-mesh", "export-curves"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    # numpy's SeedSequence takes no negative entropy
    out = tmp_path / "out"
    assert_usage_error(capsys, command, "--family", "clifford", "--params",
                       '{"k": 1, "n": 2}', "--seed", "-1", "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("level", ["1", "-1"])
@pytest.mark.parametrize("command", ["spectrum", "focal", "export-curves"])
def test_focal_level_is_usage_error(tmp_path, capsys, command, level):
    # the focal levels have no shape operator, so nothing there to report
    out = tmp_path / "out"
    assert_usage_error(capsys, command, "--family", "cartan-cubic",
                       f"--level={level}", "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("family, params, pole", [
    ("clifford", '{"k": 1, "n": 2}', "nope"),
    ("clifford", '{"k": 1, "n": 2}', '[1, 0, 0, "a"]'),
    ("clifford", '{"k": 1, "n": 2}', '{"a": 1}'),
    ("clifford", '{"k": 1, "n": 2}', "[NaN, 0, 0, 1]"),
    ("clifford", '{"k": 1, "n": 2}', "[Infinity, 0, 0, 1]"),
    ("clifford", '{"k": 1, "n": 2}', "[[1, 0], [0, 1]]"),
    ("clifford", '{"k": 1, "n": 2}', "[0, 0, 0, 0]"),
    ("clifford", '{"k": 1, "n": 2}', "[1, 0, 0]"),
    ("cartan-cubic", "{}", "[1, 0, 0]"),
])
def test_bad_pole_is_usage_error(tmp_path, capsys, family, params, pole):
    out = tmp_path / "out"
    assert_usage_error(capsys, "export-mesh", "--family", family, "--params",
                       params, "--level", "0.2", "--resolution", "8",
                       "--samples", "10", "--pole", pole, "--out", str(out))
    assert not out.exists()


def test_bad_parameter_values_are_usage_errors(tmp_path, capsys):
    assert_usage_error(capsys, "tight", "--family", "clifford", "--params",
                       '{"k": "a", "n": 2}')
    obj = family_to_json_obj(catalog("clifford", k=1, n=2))
    bad_exponent = [[c, ["a", *e[1:]]] for c, e in obj["terms"]]
    not_finite = [[float("nan"), e] for _c, e in obj["terms"]]
    for bad in ({**obj, "terms": "x"}, {**obj, "terms": bad_exponent},
                {**obj, "terms": not_finite}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert_usage_error(capsys, "tight", "--family", "user-polynomial",
                           "--params", json.dumps({"file": str(path)}))


@pytest.mark.parametrize("args", [
    ("tight", "--poles", "1"),
    ("spectrum", "--format", "csv", "--samples", "3"),
    ("export-curves",),
    ("export-mesh", "--level", "0.0", "--resolution", "4"),
])
def test_unwritable_out_is_usage_error(tmp_path, capsys, args):
    out = str(tmp_path / "missing" / "out")
    assert run_cli(*args, "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert out in err


@pytest.mark.parametrize("command", ["verify", "focal", "tight",
                                     "taut-focal", "totally-focal",
                                     "export-mesh", "export-curves"])
def test_format_is_a_spectrum_option(tmp_path, capsys, command):
    # only `spectrum` writes a second format; elsewhere the flag is refused
    out = tmp_path / "out"
    assert run_cli(command, "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--format", "csv",
                   "--out", str(out)) == 2
    assert not out.exists()


def test_spectrum_formats_are_json_and_csv(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("spectrum", "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--format", "obj", "--out",
                   str(out)) == 2
    assert not out.exists()
    assert run_cli("spectrum", "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--format", "json", "--samples", "3",
                   "--out", str(out)) == 0
    assert json.loads(out.read_text())["command"] == "spectrum"


def test_spectrum_checks_the_level_once_in_either_format(tmp_path,
                                                         monkeypatch):
    calls = []
    check = cli.isoparametric_check
    monkeypatch.setattr(cli, "isoparametric_check",
                        lambda *a, **k: calls.append(1) or check(*a, **k))
    for fmt in ("json", "csv"):
        calls.clear()
        assert run_cli("spectrum", "--family", "clifford", "--params",
                       '{"k": 1, "n": 2}', "--format", fmt, "--samples", "3",
                       "--out", str(tmp_path / fmt)) == 0
        assert calls == [1], fmt


def test_taut_focal_without_usable_starts_fails_on_one_line(capsys,
                                                            monkeypatch):
    project = morse._project_batch

    def no_starts(fam, s, points, **kwargs):
        X, ok, *handed = project(fam, s, points, **kwargs)
        return X, ok & False, *handed

    monkeypatch.setattr(morse, "_project_batch", no_starts)
    assert run_cli("taut-focal", "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--side", "1", "--poles", "1") == 1
    err = capsys.readouterr().err
    assert "no usable Newton starts" in err and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("params", ['{"n": 1e9}', '{"n": 63}', '{"n": 2.5}'])
def test_family_size_is_usage_error(capsys, params):
    assert_usage_error(capsys, "verify", "--family", "great-sphere",
                       "--params", params)


@pytest.mark.parametrize("args", [
    ("tight", "--family", "clifford", "--params", '{"k": 1, "n": 2}',
     "--bogus"),
    ("taut-focal", "--family", "clifford", "--params", '{"k": 1, "n": 2}',
     "--side", "2"),
    ("spectrum", "--family", "clifford", "--params", '{"k": 1, "n": 2}',
     "--format", "obj"),
    ("tight", "--family", "clifford", "--params", '{"k": 1, "n": 2}',
     "--format", "csv"),
])
def test_argparse_rejections_are_one_line_usage_errors(capsys, args):
    # argparse's own rejections print no usage block, only the usage line
    assert_usage_error(capsys, *args)


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_focal_samples_below_one_is_usage_error(tmp_path, capsys, samples):
    # a sample count below 1 is refused, not rounded up to one sample
    out = tmp_path / "out"
    assert_usage_error(capsys, "focal", "--family", "clifford", "--params",
                       '{"k": 1, "n": 2}', f"--samples={samples}",
                       "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("verify", "--samples"), ("tight", "--samples"),
    ("taut-focal", "--samples"), ("totally-focal", "--samples"),
    ("export-curves", "--samples"), ("verify", "--poles"),
    ("spectrum", "--poles"), ("focal", "--poles"), ("export-mesh", "--poles"),
    ("export-curves", "--poles"),
])
def test_count_flags_are_options_of_the_commands_that_read_them(
        tmp_path, capsys, command, flag):
    # --samples belongs to spectrum, focal and export-mesh, --poles to
    # tight, taut-focal and totally-focal; elsewhere argparse refuses them
    out = tmp_path / "out"
    assert_usage_error(capsys, command, "--family", "clifford", "--params",
                       '{"k": 1, "n": 2}', f"{flag}=-3", "--out", str(out))
    assert not out.exists()


def test_focal_computes_each_spectrum_once(tmp_path, monkeypatch):
    # the profile check reads the spectrum the spacing check computes
    calls = []
    spectrum_at = cli.spectrum_at

    def counting(sp, *args, **kwargs):
        calls.append(1)
        return spectrum_at(sp, *args, **kwargs)

    monkeypatch.setattr(cli, "spectrum_at", counting)
    monkeypatch.setattr(focal, "spectrum_at", counting)
    out = tmp_path / "f.json"
    assert run_cli("focal", "--family", "clifford", "--params",
                   '{"k": 1, "n": 2}', "--level", "0.2", "--samples", "40",
                   "--out", str(out)) == 0
    assert len(calls) == 4
    fam = catalog("clifford", k=1, n=2)
    pts = sample_points(fam, 0.2, 4, 0)
    assert json.loads(out.read_text())["worst_profile_error"] == max(
        focal.exp_param_check(fam, sp) for sp in pts)
