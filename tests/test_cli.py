"""Command-line behaviour: subcommands, outputs, and the exit-code contract."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kropina
from kropina.cli import main
from kropina.scenarios import load_scenario

CONFORMAL = {
    "schema": "scenario/1",
    "name": "euclid_conformal",
    "dimension": 3,
    "representation": "ab",
    "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "vector": ["0.4*x1", "0.4*x2", "0.4*x3"],
    "constants": {"preset": "ricInf"},
    "box": [[0.5, 1.0], [0.4, 0.9], [0.6, 1.1]],
    "points": 2,
    "directions": 8,
    "seed": 23,
}


def write_scenario(tmp_path, doc, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- exit codes ---------------------------------------------------------------


def test_exit_0_on_pass(capsys):
    assert main(["check", "--scenario", "euclid_parallel"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "thm61" in out


def test_exit_1_on_usage_errors(capsys):
    assert main(["check"]) == 1
    assert main(["check", "--scenario", "euclid_parallel", "--bogus"]) == 1
    assert main(["bogus"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_exit_1_on_missing_scenario(capsys):
    assert main(["check", "--scenario", "no_such_thing"]) == 1
    assert "no builtin scenario" in capsys.readouterr().err


def test_exit_1_on_a_negative_random_seed(capsys):
    assert main(["check", "--scenario", "random:-1"]) == 1
    assert capsys.readouterr().err == (
        "kropina: random scenario wants a non-negative integer seed, "
        "got '-1'\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["verify", "--points", "0"],
     "points override: 0 is less than the minimum of 1 (at /points)"),
    (["verify", "--points", "100000"],
     "points override: 100000 is greater than the maximum of 200 "
     "(at /points)"),
    (["verify", "--dirs", "-2"],
     "directions override: -2 is less than the minimum of 1 "
     "(at /directions)"),
    (["check", "--seed", "-1"],
     "seed override: -1 is less than the minimum of 0 (at /seed)"),
    (["convert", "--to", "ab", "--seed", "-1"],
     "seed override: -1 is less than the minimum of 0 (at /seed)"),
])
def test_exit_1_on_a_sampling_override_outside_the_schema(
        argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--scenario", "euclid_parallel"]) == 1
    assert capsys.readouterr().err == f"kropina: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_weight_constant_overflowing_to_inf_is_an_input_problem(tmp_path,
                                                                capsys):
    """1e999 is valid JSON that overflows to inf: the CLI exits 1 with
    the constant's pointer, not with an OverflowError."""
    doc = json.dumps(load_scenario("s3_hopf").as_dict())
    path = tmp_path / "scen.json"
    path.write_text(doc.replace('"constants": {"a": 1, "c": 0}',
                                '"constants": {"a": 1e999, "c": 0}'))
    assert '1e999' in path.read_text()
    assert main(["check", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == (
        "kropina: weight constants must be finite numbers "
        "(at /constants/a)\n")


def test_float_power_overflow_in_a_metric_is_an_input_problem(tmp_path,
                                                             capsys):
    """A power past the float range exits 1 with one line naming the
    power and the metric's pointer, as an exp overflow does, not with
    an OverflowError traceback."""
    doc = load_scenario("s3_hopf").as_dict()
    doc["metric"][0][0] = "1 + 0*(1e200*x1)^2"
    path = write_scenario(tmp_path, doc)
    assert main(["check", "--scenario", path]) == 1
    assert capsys.readouterr().err == (
        "kropina: range overflow in '(1e+200 * x1)^2' (at /metric)\n")


def test_float_sin_of_inf_in_a_metric_is_an_input_problem(tmp_path, capsys):
    """A sin of a float past the float range exits 1 with one line
    naming the call and the metric's pointer, not math's bare domain
    error under another field's pointer."""
    doc = load_scenario("s3_hopf").as_dict()
    doc["metric"][0][0] = "1 + 0*sin(1e200*x1*1e200)"
    path = write_scenario(tmp_path, doc)
    assert main(["check", "--scenario", path]) == 1
    assert capsys.readouterr().err == (
        "kropina: domain error in 'sin(1e+200 * x1 * 1e+200)' (at /metric)\n")


def test_jet_exp_overflow_in_a_weight_is_an_input_problem(tmp_path, capsys):
    """An exp whose order-2 jets overflow in verify's x-stage exits 1
    with one line naming the call, as the float route's range overflow
    does, not with an OverflowError traceback."""
    doc = load_scenario("euclid_gaussian").as_dict()
    doc["weight"] = "exp(1000*x1)"
    doc["box"][0] = [0.8, 0.9]
    path = write_scenario(tmp_path, doc)
    assert main(["verify", "--scenario", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("kropina: exp of base value ")
    assert err.endswith(" overflows in 'exp(1000.0 * x1)'\n")
    assert err.count("\n") == 1


def test_exit_2_on_verdict_failure(tmp_path, capsys):
    path = write_scenario(tmp_path, CONFORMAL)
    assert main(["check", "--scenario", path]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_exit_1_on_a_non_ascii_letter(tmp_path, capsys):
    doc = dict(CONFORMAL, metric=[["1", "0", "0"], ["0", "1 + é", "0"],
                                  ["0", "0", "1"]])
    path = write_scenario(tmp_path, doc)
    assert main(["check", "--scenario", path]) == 1
    assert ("unexpected character 'é' (offset 4) (at /metric/1/1)"
            in capsys.readouterr().err)


@pytest.mark.parametrize("defs, entry, pointer", [
    ([], "(" * 3000 + "1" + ")" * 3000, "/metric/0/0"),
    (["x1"] + [f"${k} + 1" for k in range(3000)], "1 + 0*$3000", "/defs/"),
])
def test_exit_1_on_nesting_too_deep(tmp_path, capsys, defs, entry, pointer):
    metric = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    metric[0][0] = entry
    path = write_scenario(tmp_path, dict(CONFORMAL, defs=defs, metric=metric))
    assert main(["check", "--scenario", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("kropina: expression nested deeper than")
    assert f"(at {pointer}" in err and err.count("\n") == 1


def test_exit_1_on_a_converted_document_nested_too_deep(tmp_path, capsys):
    """A source within MAX_DEPTH (a 193-level def chain in metric/0/0)
    whose conversion nests deeper: the one error line names the
    converted document, and its pointer is marked as one into the
    emitted document."""
    doc = load_scenario("torus_wind").as_dict()
    doc["defs"] = ["x1"] + [f"${k} + 1" for k in range(190)]
    doc["metric"][0][0] = "1 + 0*$190"
    path = write_scenario(tmp_path, doc)
    load_scenario(path).space()
    assert main(["convert", "--scenario", path, "--to", "nav"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "kropina: converted document 'torus_wind_nav' does not load: "
        "expression nested deeper than 200 levels (at /defs/")
    assert err.endswith(" of the emitted document)\n")
    assert err.count("\n") == 1


def test_exit_3_on_precondition(capsys):
    assert main(["check", "--scenario", "euclid_twist"]) == 3
    out = capsys.readouterr().out
    assert "PRECONDITION" in out


def test_exit_3_on_regime_mismatch(capsys):
    assert main(["check", "--scenario", "s3_hopf", "--theorem", "61"]) == 3
    assert "regime" in capsys.readouterr().out


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "check" in capsys.readouterr().out


# -- check outputs --------------------------------------------------------------


def test_check_json_out_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["check", "--scenario", "s3_hopf", "--no-timings"]
    assert main(args + ["--json-out", str(a)]) == 0
    assert main(args + ["--json-out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["schema"] == "report/2"
    assert doc["verdict"] == "PASS"
    assert "timings_ms" not in doc


def test_check_json_includes_timings_by_default(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["check", "--scenario", "euclid_parallel",
                 "--json-out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert "timings_ms" in doc
    assert doc["timings_ms"]


def test_check_csv_out(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["check", "--scenario", "euclid_parallel",
                 "--csv-out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("table,")
    assert any("einstein-residual-formula" in line for line in lines)


def test_check_seed_override_still_passes(capsys):
    assert main(["check", "--scenario", "s3_hopf", "--seed", "99"]) == 0
    capsys.readouterr()


def test_check_tol_flag(capsys):
    assert main(["check", "--scenario", "euclid_twist",
                 "--theorem", "41", "--tol", "10"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_check_tol_must_be_finite_and_positive(tol, capsys):
    """--tol takes what the schema's tolerance takes, a finite number
    above 0; anything else is an input problem (exit 1)."""
    assert main(["check", "--scenario", "s3_hopf", "--tol", tol]) == 1
    assert "check tolerance must be finite and > 0" in capsys.readouterr().err


def test_non_finite_box_in_a_file_is_an_input_problem(tmp_path, capsys):
    """A box bound of -Infinity is refused when the file is parsed, not
    met later by the sampler."""
    text = json.dumps(CONFORMAL).replace("0.5, 1.0", "-Infinity, 1.0")
    path = tmp_path / "scen.json"
    path.write_text(text)
    assert main(["check", "--scenario", str(path)]) == 1
    assert "-Infinity is not a JSON number" in capsys.readouterr().err


def test_standard_error_bh_density_tolerance_in_a_file_is_an_input_problem(
        tmp_path, capsys):
    """A file holding the old bh-density tolerance of 3 standard errors
    exits 1 and names the tolerance, instead of judging a relative
    deviation against 300%."""
    doc = dict(load_scenario("s3_hopf").as_dict(),
               tolerances={"bh-density": 3.0})
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scenario", str(path)]) == 1
    assert "/tolerances/bh-density" in capsys.readouterr().err


# -- verify and convert ----------------------------------------------------------


def test_verify_cli_pass(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = main(["verify", "--scenario", "euclid_parallel",
                 "--points", "2", "--dirs", "5", "--json-out", str(out)])
    assert code == 0
    assert "verify euclid_parallel: PASS" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    names = {t["name"] for t in doc["tables"]}
    assert {"spray", "ricci", "bh-density"} <= names


def test_verify_cli_fail_on_impossible_tolerance(tmp_path, capsys):
    doc = dict(load_scenario("s3_hopf").as_dict(), tolerances={"ricci": 1e-16})
    path = write_scenario(tmp_path, doc)
    assert main(["verify", "--scenario", path,
                 "--points", "1", "--dirs", "4"]) == 2
    capsys.readouterr()


def test_convert_cli_writes_loadable_scenario(tmp_path, capsys):
    out = tmp_path / "hopf_ab.json"
    code = main(["convert", "--scenario", "s3_hopf", "--to", "ab",
                 "--out", str(out)])
    assert code == 0
    assert str(out) in capsys.readouterr().out
    emitted = json.loads(out.read_text())
    sc = load_scenario(emitted)
    assert sc.representation == "ab"
    assert main(["check", "--scenario", str(out)]) == 0
    capsys.readouterr()


def test_convert_cli_rejects_bad_gauge(capsys):
    assert main(["convert", "--scenario", "euclid_parallel",
                 "--to", "ab", "--gauge", "-1"]) == 1
    assert "positive" in capsys.readouterr().err


def test_convert_cli_requires_target(capsys):
    assert main(["convert", "--scenario", "euclid_parallel"]) == 1
    capsys.readouterr()


def test_scenarios_list(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("euclid_parallel", "s3_hopf", "euclid_gaussian",
                 "euclid_twist", "torus_wind", "random:<seed>"):
        assert name in out


def test_module_entry_point_subprocess():
    """End-to-end through the interpreter, exactly as a shell would run it,
    with the kropina this suite imported first on the child's path."""
    src = str(Path(kropina.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "kropina", "check",
         "--scenario", "euclid_parallel", "--no-timings"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout

    proc = subprocess.run(
        [sys.executable, "-m", "kropina", "check", "--scenario",
         "euclid_twist"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 3
