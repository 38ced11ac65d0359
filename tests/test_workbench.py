"""Run drivers: check/verify/convert reports, verdict folding, round trips."""
import json
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from kropina.forms import GaugeError, finsler_stage
from kropina.jets import Jet
from kropina.reports import ReportDocument, tool_version
from kropina.scenarios import (
    COMPARISON_CUTOFF,
    ScenarioError,
    builtin_names,
    load_scenario,
    random_scenario,
    scenario_samples,
)
from kropina import workbench
from kropina.workbench import VERIFY_TOLS, run_check, run_convert, run_verify

CONFORMAL = {
    "schema": "scenario/1",
    "name": "euclid_conformal",
    "description": "conformal drift; isotropic but not Einstein",
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


def report_validator():
    text = resources.files("kropina").joinpath(
        "schemas/report-2.schema.json"
    ).read_text()
    return Draft202012Validator(json.loads(text))


# -- reports -------------------------------------------------------------------


def _settled(*verdicts):
    """(verdict, exit code) of a fresh document settled on verdicts."""
    doc = ReportDocument(kind="check", scenario={"name": "x"})
    doc.settle(*verdicts)
    return doc.verdict, doc.exit_code


def test_merge_verdicts_severity():
    """settle keeps the most severe verdict, the first of equally severe
    ones, and its exit code."""
    assert _settled("PASS", "PASS") == ("PASS", 0)
    assert _settled("PASS", "FAIL") == ("FAIL", 2)
    assert _settled("FAIL", "PRECONDITION") == ("PRECONDITION", 3)
    assert _settled("PRECONDITION", "ERROR") == ("PRECONDITION", 3)
    assert _settled("ERROR") == ("ERROR", 2)
    assert _settled("FAIL", "ERROR") == ("FAIL", 2)
    # no verdict, or one, leaves the document's own in the race
    assert _settled() == ("PASS", 0)
    assert _settled("PRECONDITION") == ("PRECONDITION", 3)


def test_tool_version_stable_and_nonempty():
    v = tool_version()
    assert v
    assert v == tool_version()


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    import kropina

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        version = tomllib.load(f)["project"]["version"]
    assert version == kropina.__version__ == tool_version()


def test_report_document_strips_timings():
    doc = ReportDocument(kind="check", scenario={"name": "x"})
    with doc.timed("stage"):
        pass
    assert "stage" in doc.timings_ms
    assert "timings_ms" not in json.loads(doc.to_json(timings=False))
    assert "timings_ms" in json.loads(doc.to_json(timings=True))


def test_check_and_verify_time_their_chart_points():
    """Building the run, the x-stage and generic pass of every chart
    point, is timed under its own label in both drivers."""
    for run in (run_check, run_verify):
        assert "chart points" in run("s3_hopf").timings_ms


def test_report_csv_unions_columns():
    doc = ReportDocument(kind="verify", scenario={"name": "x"})
    doc.tables.append({"name": "t1", "rows": [{"a": 1.0, "b": 2.0}]})
    doc.tables.append({"name": "t2", "rows": [{"c": [1.0, 2.0]}]})
    lines = doc.to_csv().strip().splitlines()
    assert lines[0] == "table,a,b,c"
    assert len(lines) == 3


# -- run_check -----------------------------------------------------------------


def test_check_parallel_auto_is_61_pass():
    doc = run_check("euclid_parallel")
    assert doc.verdict == "PASS"
    assert doc.exit_code == 0
    assert [c["theorem"] for c in doc.checks] == ["61"]
    assert doc.checks[0]["verdict"] == "PASS"


def test_check_parallel_passes_every_regime():
    base = load_scenario("euclid_parallel").as_dict()
    for constants, theorem in (
        ({"preset": "ricInf"}, "41"),
        ({"preset": "ricInf"}, "44"),
        ({"a": "0", "c": "3/8"}, "51"),
        ({"preset": "pric"}, "61"),
    ):
        doc = dict(base, constants=constants, name="flat_regime")
        out = run_check(doc, theorem=theorem)
        assert out.verdict == "PASS", (constants, theorem, out.checks)


def test_check_hopf_both_checkers_pass():
    doc = run_check("s3_hopf")
    assert doc.verdict == "PASS"
    assert [(c["theorem"], c["verdict"]) for c in doc.checks] == [
        ("41", "PASS"), ("44", "PASS"),
    ]
    scalars = doc.checks[0]["scalars"]
    assert all(abs(mu - 1.0) < 1e-8 for mu in scalars["mu"])
    assert all(abs(s - 1.0) < 1e-8 for s in scalars["sigma_formula"])


def test_check_s5_hopf_passes():
    doc = run_check("s5_hopf")
    assert doc.verdict == "PASS"
    assert [(c["theorem"], c["verdict"]) for c in doc.checks] == [
        ("41", "PASS"), ("44", "PASS"),
    ]


@pytest.mark.parametrize("seed", range(1, 9))
def test_verify_s5_hopf_within_ladder(seed):
    """The round 5-sphere with its unit Hopf wind: det g and the spray
    come from one elimination, so S and Sdot keep their accuracy at
    n = 5 (a Leibniz determinant missed the s-dot tolerance here)."""
    doc = run_verify("s5_hopf", points=4, dirs=10, seed=seed)
    assert doc.verdict == "PASS"
    for t in doc.tables:
        assert t["max_rel_dev"] <= t["tol"], t["name"]


def test_verify_s5_hopf_at_its_defaults():
    doc = run_verify("s5_hopf")
    assert doc.verdict == "PASS"
    for t in doc.tables:
        assert t["max_rel_dev"] <= t["tol"], t["name"]


def test_check_twist_precondition_exit_3():
    doc = run_check("euclid_twist")
    assert doc.verdict == "PRECONDITION"
    assert doc.exit_code == 3
    by_theorem = {c["theorem"]: c["verdict"] for c in doc.checks}
    assert by_theorem["44"] == "PRECONDITION"
    assert by_theorem["41"] == "FAIL"


def test_check_conformal_fails_exit_2():
    doc = run_check(CONFORMAL)
    assert doc.verdict == "FAIL"
    assert doc.exit_code == 2


def test_check_explicit_regime_mismatch_is_precondition():
    doc = run_check("s3_hopf", theorem="61")
    assert doc.verdict == "PRECONDITION"
    assert doc.exit_code == 3
    assert doc.errors[0]["kind"] == "dispatch"
    assert doc.checks[0]["error"]


def test_a_jet_overflow_in_the_x_stage_is_an_error_not_a_crash():
    """A weight near -200, whose density e^{-(n+1) f} overflows exp's
    range in the x-stage's jets, makes each checker an ERROR entry that
    names the overflow and that density, not an OverflowError out of
    run_check; an
    exp(1000*x1) weight, whose own jets overflow, fails verify with an
    ExprDomainError that names the call."""
    from kropina.expr import ExprDomainError

    doc = load_scenario("euclid_gaussian").as_dict()
    doc["weight"] = "-200 + 0.1*x1"
    report = run_check(load_scenario(doc))
    assert [c["verdict"] for c in report.checks] == ["ERROR", "ERROR"]
    for c in report.checks:
        assert c["error"].startswith("exp of base value 79")
        assert c["error"].endswith(
            " overflows in the weight density e^{-(n+1) f}")
    doc = load_scenario("euclid_gaussian").as_dict()
    doc["weight"] = "exp(1000*x1)"
    doc["box"][0] = [0.8, 0.9]
    with pytest.raises(ExprDomainError,
                       match=r" overflows in 'exp\(1000\.0 \* x1\)'$"):
        run_verify(load_scenario(doc))


def test_check_unknown_theorem_id():
    with pytest.raises(ValueError, match="theorem id"):
        run_check("euclid_parallel", theorem="62")


def test_check_report_is_schema_valid_and_deterministic():
    validator = report_validator()
    a = run_check("s3_hopf", seed=5)
    b = run_check("s3_hopf", seed=5)
    validator.validate(json.loads(a.to_json()))
    assert a.to_json(timings=False) == b.to_json(timings=False)


def test_check_tol_override_flips_verdict():
    doc = run_check("euclid_twist", theorem="41", tol=10.0)
    assert doc.verdict == "PASS"  # generous tolerance swallows the twist


def test_check_tables_mirror_conditions():
    doc = run_check("euclid_parallel")
    assert doc.tables
    names = [row["name"] for row in doc.tables[0]["rows"]]
    assert "einstein-residual-formula" in names


# -- run_verify ----------------------------------------------------------------


def test_verify_parallel_tight():
    doc = run_verify("euclid_parallel", points=2, dirs=6)
    assert doc.verdict == "PASS"
    assert doc.exit_code == 0
    by_name = {t["name"]: t for t in doc.tables}
    for name in ("spray", "nav-spray", "ricci", "s-curvature", "s-dot",
                 "nav-ricci", "bh-density"):
        assert name in by_name
    for name in ("spray", "nav-spray", "ricci"):
        assert by_name[name]["max_rel_dev"] < 1e-10


def test_verify_bh_density_rows_hold_closed_quadrature_and_rel_dev():
    """One bh-density row per chart point, the closed density against
    the sphere quadrature, judged as a relative deviation."""
    sc = load_scenario("s3_hopf")
    doc = run_verify(sc, points=3, dirs=2)
    table = next(t for t in doc.tables if t["name"] == "bh-density")
    assert table["tol"] == VERIFY_TOLS["bh-density"] < 1e-3
    assert table["passed"] is True and table["samples"] == 3
    for k, (row, (x, _)) in enumerate(
            zip(table["rows"], scenario_samples(sc, points=3, directions=2))):
        assert list(row) == ["point", "closed", "quadrature", "rel_dev"]
        assert row["point"] == k and doc.samples[k]["x"] == list(x)
        assert row["rel_dev"] == pytest.approx(
            abs(row["closed"] - row["quadrature"])
            / max(1.0, row["closed"], row["quadrature"]), rel=1e-12)


@pytest.mark.parametrize("doc", [*builtin_names(), random_scenario(3, 4)],
                         ids=lambda d: d if isinstance(d, str) else "random-3-4")
def test_sigma_bh_off_by_a_thousandth_fails_verify(monkeypatch, doc):
    """A closed density scaled by 1.001 fails the bh-density table, and
    with it verify, at 1 x 2 on every builtin and a 4-D random one."""
    closed = workbench.sigma_bh
    monkeypatch.setattr(workbench, "sigma_bh",
                        lambda space, x: 1.001 * closed(space, x))
    report = run_verify(doc, points=1, dirs=2)
    table = next(t for t in report.tables if t["name"] == "bh-density")
    assert table["passed"] is False
    # the report names the failing row and how far it missed
    worst = table["rows"][table["worst_at"]]
    assert worst["rel_dev"] == table["max_rel_dev"] > table["tol"]
    assert table["margin"] == table["max_rel_dev"] / table["tol"] > 1
    assert report.verdict == "FAIL" and report.exit_code == 2


def test_verify_hopf_within_ladder():
    doc = run_verify("s3_hopf", points=2, dirs=6)
    assert doc.verdict == "PASS"
    for t in doc.tables:
        assert t["max_rel_dev"] <= t["tol"], t["name"]


def test_verify_weighted_scenario_has_weight_tables():
    doc = run_verify("euclid_gaussian", points=2, dirs=5)
    names = {t["name"] for t in doc.tables}
    assert "s-weighted" in names
    assert "weight-hessian" in names
    assert doc.verdict == "PASS"


def test_verify_unweighted_scenario_skips_weight_tables():
    doc = run_verify("euclid_parallel", points=1, dirs=4)
    names = {t["name"] for t in doc.tables}
    assert "s-weighted" not in names
    assert "weight-hessian" not in names


def test_verify_random_scenario_within_ladder():
    doc = run_verify("random:11", points=2, dirs=5)
    assert doc.verdict == "PASS"


@pytest.mark.parametrize("dim", [2, 4, 5, 6])
def test_verify_random_scenario_of_other_dimensions(dim):
    # order-4 jets in 2n variables: n = 6 takes about 1 s at 1 x 3
    points, dirs = (2, 5) if dim <= 4 else (1, 3)
    doc = run_verify(random_scenario(3, dimension=dim), points=points,
                     dirs=dirs)
    assert doc.verdict == "PASS"


def test_verify_skips_nav_ricci_off_hypothesis():
    doc = run_verify("torus_wind", points=2, dirs=5)
    by_name = {t["name"]: t for t in doc.tables}
    assert by_name["nav-ricci"]["skipped"] == 10
    # a table that compared nothing is no evidence either way
    assert by_name["nav-ricci"]["passed"] is None
    assert by_name["nav-ricci"]["reason"] == (
        "no row compared: all 10 rows were skipped")
    # nor is it a measured deviation of 0.0
    assert by_name["nav-ricci"]["max_rel_dev"] is None
    assert by_name["nav-ricci"]["worst_at"] is None
    assert by_name["nav-ricci"]["margin"] is None
    line = next(ln for ln in doc.summary().splitlines() if "nav-ricci" in ln)
    assert "pass" not in line and "FAIL" not in line
    assert "skipped" in line and "None" not in line
    rows = by_name["nav-ricci"]["rows"]
    assert all(r.get("skipped") for r in rows)
    assert doc.verdict == "PASS"


def test_verify_rows_carry_samples_and_values():
    doc = run_verify("s3_hopf", points=1, dirs=3)
    spray = next(t for t in doc.tables if t["name"] == "spray")
    row = spray["rows"][0]
    assert "x" not in row and "y" not in row
    x, y = doc.samples[0]["x"], doc.samples[0]["ys"][row["sample"]]
    assert len(x) == 3 and len(y) == 3
    assert len(row["closed"]) == 3
    assert row["rel_dev"] <= spray["max_rel_dev"]
    assert spray["rows"][spray["worst_at"]]["rel_dev"] == spray["max_rel_dev"]


def test_verify_report_deterministic_and_schema_valid():
    validator = report_validator()
    a = run_verify("torus_wind", points=1, dirs=4, seed=2)
    b = run_verify("torus_wind", points=1, dirs=4, seed=2)
    validator.validate(json.loads(a.to_json()))
    assert a.to_json(timings=False) == b.to_json(timings=False)


@pytest.mark.parametrize("name", builtin_names())
def test_reports_of_every_builtin_are_schema_valid(name):
    """check, verify and convert reports of every builtin hold report/2:
    check reports list no samples; a verify or convert report lists
    each sampled chart point once, with its directions (verify: and
    their beta), and its rows name them by in-range indices."""
    validator = report_validator()
    sc = load_scenario(name)
    check = run_check(sc)
    validator.validate(json.loads(check.to_json()))
    assert check.samples is None
    verify_plan = scenario_samples(sc, points=2, directions=3,
                                   cutoff=COMPARISON_CUTOFF)
    for doc, plan in ((run_verify(sc, points=2, dirs=3), verify_plan),
                      (run_convert(sc, "nav"), scenario_samples(sc)),
                      (run_convert(sc, "ab"), scenario_samples(sc))):
        validator.validate(json.loads(doc.to_json()))
        assert [(s["x"], s["ys"]) for s in doc.samples] == [
            (list(x), [list(y) for y in ys]) for x, ys in plan]
        for s in doc.samples:
            if doc.kind == "verify":
                assert len(s["beta"]) == len(s["ys"])
                assert all(b > 0 for b in s["beta"])
            else:
                assert "beta" not in s
        count = sum(len(s["ys"]) for s in doc.samples)
        for table in doc.tables:
            if table["name"] == "bh-density":
                index, size = "point", len(doc.samples)
            else:
                index, size = "sample", count
            assert [row[index] for row in table["rows"]] == list(range(size))


def test_report_schema_refuses_repeated_or_missing_samples():
    """report/2 holds each sample in samples alone: a row carrying its
    own x, a verify report without samples and a check report with them
    are refused, as is a judged table without worst_at."""
    validator = report_validator()
    doc = json.loads(run_verify("s3_hopf", points=1, dirs=2).to_json())
    assert validator.is_valid(doc)
    bad = json.loads(json.dumps(doc))
    bad["tables"][0]["rows"][0]["x"] = doc["samples"][0]["x"]
    assert not validator.is_valid(bad)
    assert not validator.is_valid({k: v for k, v in doc.items()
                                   if k != "samples"})
    bad = json.loads(json.dumps(doc))
    del bad["tables"][0]["worst_at"]
    assert not validator.is_valid(bad)
    check = json.loads(run_check("euclid_parallel").to_json())
    assert validator.is_valid(check)
    assert not validator.is_valid(dict(check, samples=doc["samples"]))


def test_verify_tolerance_override_fails_run():
    doc = dict(load_scenario("s3_hopf").as_dict(),
               tolerances={"ricci": 1e-16})
    out = run_verify(doc, points=1, dirs=4)
    assert out.verdict == "FAIL"
    assert out.exit_code == 2


@pytest.mark.parametrize("run, pointer", [
    (lambda: run_verify("euclid_parallel", points=0), "/points"),
    (lambda: run_verify("euclid_parallel", points=100000), "/points"),
    (lambda: run_verify("euclid_parallel", dirs=0), "/directions"),
    (lambda: run_verify("euclid_parallel", dirs=-2), "/directions"),
    (lambda: run_verify("euclid_parallel", seed=-1), "/seed"),
    (lambda: run_check("euclid_parallel", seed=-1), "/seed"),
    (lambda: run_convert("euclid_parallel", to="ab", seed=-1), "/seed"),
    # held to the schema as given: not truncated to an int first
    (lambda: run_verify("euclid_parallel", points=2.5), "/points"),
    (lambda: run_verify("euclid_parallel", points=True), "/points"),
    (lambda: run_verify("euclid_parallel", dirs=True), "/directions"),
    (lambda: run_verify("euclid_parallel", dirs=1.5), "/directions"),
    (lambda: run_check("euclid_parallel", seed=False), "/seed"),
    (lambda: run_convert("euclid_parallel", to="ab", seed=0.5), "/seed"),
])
def test_sampling_overrides_outside_the_schema_bounds_raise(run, pointer):
    with pytest.raises(ScenarioError) as err:
        run()
    assert err.value.pointer == pointer


def test_verify_tols_cover_every_table():
    doc = run_verify("euclid_gaussian", points=1, dirs=3)
    for t in doc.tables:
        assert t["name"] in VERIFY_TOLS


# -- run_convert ---------------------------------------------------------------


def test_convert_nav_to_ab_and_back_reproduces_components():
    """nav -> ab -> nav -> ab round trip, compared at chart points."""
    src = load_scenario("s3_hopf")
    out_ab = run_convert(src, to="ab")
    assert out_ab.verdict == "PASS"
    assert out_ab.tables[0]["max_rel_dev"] < 1e-12

    back = run_convert(out_ab.emitted, to="nav")
    assert back.verdict == "PASS"
    again = run_convert(back.emitted, to="ab")
    assert again.verdict == "PASS"

    first = load_scenario(out_ab.emitted).space()
    second = load_scenario(again.emitted).space()
    from kropina.expr import eval_expr
    for x in src.probe_points():
        env = [float(v) for v in x]
        for i in range(3):
            for j in range(3):
                va = eval_expr(first.a.exprs[i][j], env)
                vb = eval_expr(second.a.exprs[i][j], env)
                assert abs(float(va) - float(vb)) < 1e-12
            ba = eval_expr(first.b[i], env)
            bb = eval_expr(second.b[i], env)
            assert abs(float(ba) - float(bb)) < 1e-12


def test_convert_ab_to_nav_f_agreement():
    doc = run_convert("torus_wind", to="nav")
    assert doc.verdict == "PASS"
    assert doc.emitted["representation"] == "nav"
    assert "gauge" in doc.emitted
    assert doc.tables[0]["max_rel_dev"] < 1e-10


def test_convert_with_custom_gauge_agrees():
    a = run_convert("euclid_parallel", to="ab", gauge="2")
    b = run_convert("euclid_parallel", to="ab", gauge="1 + 0.1*x1")
    assert a.verdict == "PASS" and b.verdict == "PASS"
    assert a.tables[0]["max_rel_dev"] < 1e-10
    assert b.tables[0]["max_rel_dev"] < 1e-10
    # same F through different gauges at a shared sample
    sa = load_scenario(a.emitted).space()
    sb = load_scenario(b.emitted).space()
    x, y = [0.2, -0.1, 0.3], [1.0, 0.4, -0.2]
    assert abs(finsler_stage(sa, x).f([y])[0]
               - finsler_stage(sb, x).f([y])[0]) < 1e-10


def test_convert_emitted_scenario_loads_clean():
    doc = run_convert("euclid_gaussian", to="ab")
    sc = load_scenario(doc.emitted)
    assert sc.representation == "ab"
    # the weight is printed with the other fields, not copied as written
    assert sc.weight == "0.1 * (x1^2 + x2^2 + x3^2)"
    rerun = run_check(sc)
    assert rerun.verdict == "PASS"  # thm41/44 again through the ab data


def test_convert_rejects_nonpositive_gauge():
    with pytest.raises(GaugeError, match="positive"):
        run_convert("euclid_parallel", to="ab", gauge="-1")
    with pytest.raises(GaugeError, match="positive"):
        run_convert("euclid_parallel", to="ab", gauge="x1")


def test_convert_rejects_unknown_target():
    with pytest.raises(ValueError, match="representation"):
        run_convert("euclid_parallel", to="polar")


def test_convert_report_deterministic():
    a = run_convert("s3_hopf", to="ab", seed=4)
    b = run_convert("s3_hopf", to="ab", seed=4)
    assert a.to_json(timings=False) == b.to_json(timings=False)
    report_validator().validate(json.loads(a.to_json()))


# -- non-finite values ---------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"report JSON holds the non-standard constant {name}")


def _every_third_non_finite(monkeypatch, module, name, period=1):
    """Patch module.name, which gives one value per direction, so that
    its values, in direction order across calls, come in blocks of
    `period`: the first block keeps the real values, the next holds
    NaN, the next Inf, and the cycle repeats."""
    real = getattr(module, name)
    calls = []

    def patched(*args):
        values = np.array(real(*args), dtype=float)
        for k in range(len(values)):
            block = (len(calls) // period) % 3
            calls.append(block)
            values[k] = (values[k], float("nan"), float("inf"))[block]
        return values

    monkeypatch.setattr(module, name, patched)


def test_verify_non_finite_closed_values_fail(monkeypatch):
    import kropina.workbench as workbench

    _every_third_non_finite(monkeypatch, workbench, "kropina_ricci_closed")
    doc = run_verify("s3_hopf")
    ricci = next(t for t in doc.tables if t["name"] == "ricci")
    assert not ricci["passed"]
    assert doc.verdict == "FAIL" and doc.exit_code == 2
    bad = [k for k in range(len(ricci["rows"])) if k % 3]
    assert ricci["non_finite_rows"] == bad
    other = next(t for t in doc.tables if t["name"] == "spray")
    assert other["passed"] and "non_finite_rows" not in other

    parsed = json.loads(doc.to_json(timings=False),
                        parse_constant=_reject_constant)
    rows = next(t for t in parsed["tables"] if t["name"] == "ricci")["rows"]
    assert rows[1]["closed"] == "nan" and rows[1]["rel_dev"] == "nan"
    assert rows[2]["closed"] == "inf" and rows[2]["rel_dev"] == "nan"
    assert isinstance(rows[0]["rel_dev"], float)
    report_validator().validate(parsed)


def test_check_non_finite_residuals_fail(monkeypatch):
    import kropina.einstein as einstein

    # s3_hopf samples 10 directions per chart point and checker 41 runs
    # first: its fit sees NaN at point 1 and Inf at point 2
    _every_third_non_finite(monkeypatch, einstein, "kropina_ricci_closed",
                            period=10)
    doc = run_check("s3_hopf")
    assert doc.verdict == "FAIL" and doc.exit_code == 2
    thm41 = next(c for c in doc.checks if c["theorem"] == "41")
    assert thm41["verdict"] == "FAIL"
    conds = {c["name"]: c for c in thm41["conditions"]}
    agree = conds["theta-sigma-fit-agreement"]
    assert not agree["passed"]
    assert agree["note"] == "non-finite residual at row 1"
    fitted = conds["einstein-residual-fitted"]
    assert not fitted["passed"]
    assert fitted["note"] == "non-finite residual at row 10"
    assert conds["einstein-tensor"]["passed"]

    parsed = json.loads(doc.to_json(timings=False),
                        parse_constant=_reject_constant)
    thm41 = next(c for c in parsed["checks"] if c["theorem"] == "41")
    residuals = {c["name"]: c["residual"] for c in thm41["conditions"]}
    assert residuals["theta-sigma-fit-agreement"] == "nan"


@pytest.mark.parametrize("name", ["s3_hopf", "euclid_gaussian"])
@pytest.mark.parametrize("directions", [None, 13])
def test_checkers_add_each_condition_once_per_chart_point(monkeypatch, name,
                                                          directions):
    """Every condition gets one residual add per chart point, a float or
    a block of all its directions, whatever the number of directions."""
    import kropina.einstein as einstein

    adds = {}
    real_add = einstein._Residuals.add

    def add(self, cond, residuals, kind="condition"):
        adds.setdefault(self, Counter())[cond] += 1
        real_add(self, cond, residuals, kind)

    monkeypatch.setattr(einstein._Residuals, "add", add)
    doc = load_scenario(name).as_dict()
    if directions is not None:
        doc["directions"] = directions
    report = run_check(doc)
    assert report.verdict == "PASS"
    assert len(adds) == len(report.checks)
    for counts, check in zip(adds.values(), report.checks):
        assert list(counts) == [c["name"] for c in check["conditions"]]
        assert set(counts.values()) == {check["points"]}
        assert check["directions"] == check["points"] * (directions or 10)


def test_report_json_is_strict():
    doc = ReportDocument(kind="verify", scenario={"name": "x"})
    doc.tables.append({"name": "t", "rows": [
        {"rel_dev": float("nan"), "closed": [1.0, float("-inf")],
         "sigma": [np.float64(0.5), np.float64("inf")]},
    ]})
    text = doc.to_json(timings=False)
    parsed = json.loads(text, parse_constant=_reject_constant)
    assert parsed["tables"][0]["rows"][0] == {
        "rel_dev": "nan", "closed": [1.0, "-inf"], "sigma": [0.5, "inf"],
    }


# -- work per point ------------------------------------------------------------


def _count_work(monkeypatch):
    """Record every drift-bundle build and every (theta, sigma) fit (its
    chart point) and every generic curvature pass: one list per call,
    with each chart point's x, its directions and whether its S against
    the unit-ball density has a density of its own, not the sample's."""
    import kropina.einstein as einstein
    import kropina.forms as forms

    bundles, fits, passes = [], [], []
    real_init = forms.AbFields.__init__

    def point_x():
        # the x of the ChartPoint whose method (fld or fitted) made the
        # recorded call
        return tuple(float(v) for v in sys._getframe(2).f_locals["self"].x)

    def init(self, *arrays):
        bundles.append(point_x())
        real_init(self, *arrays)

    real_fit = einstein.fit_theta_sigma

    def fit(inv, cfg):
        fits.append(point_x())
        return real_fit(inv, cfg)

    real_samples = einstein.curvature_samples

    def samples(points):
        out = real_samples(points)
        passes.append([(tuple(float(v) for v in stage.x),
                        tuple(tuple(float(v) for v in y) for y in ys),
                        log_sigma_bh is not None)
                       for stage, ys, _, log_sigma_bh in points])
        return out

    monkeypatch.setattr(forms.AbFields, "__init__", init)
    monkeypatch.setattr(einstein, "fit_theta_sigma", fit)
    monkeypatch.setattr(einstein, "curvature_samples", samples)
    return bundles, fits, passes


def _one_pass_per_run(passes, sc):
    """One curvature pass in the run, over every chart point and each of
    its directions exactly once."""
    [points] = passes
    assert len(points) == sc.points == len({x for x, _, _ in points})
    pairs = [(x, y) for x, ys, _ in points for y in ys]
    assert len(pairs) == len(set(pairs)) == sc.points * sc.directions
    return points


def test_verify_builds_once_per_point(monkeypatch):
    bundles, fits, passes = _count_work(monkeypatch)
    sc = load_scenario("s3_hopf")
    run_verify(sc)
    assert len(bundles) == sc.points == len(set(bundles))
    points = _one_pass_per_run(passes, sc)
    assert not any(has_bh for *_, has_bh in points)
    assert fits == []

    # with a weight, the same pass also takes S against the unit-ball
    # density, apart from the weighted one, for the S-curvature pair
    bundles.clear()
    passes.clear()
    sc = load_scenario("euclid_gaussian")
    run_verify(sc)
    assert len(bundles) == sc.points == len(set(bundles))
    points = _one_pass_per_run(passes, sc)
    assert all(has_bh for *_, has_bh in points)


def test_verify_runs_hess_form_only_for_a_weight_hessian_table(monkeypatch):
    """The generic side of the weight-hessian pair is computed once per
    chart point on a weighted scenario and never on an unweighted one,
    which writes no weight-hessian table."""
    calls = []
    real = workbench.hess_form

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(workbench, "hess_form", counted)
    run_verify("s3_hopf")
    assert calls == []
    sc = load_scenario("euclid_gaussian")
    doc = run_verify(sc)
    assert len(calls) == sc.points == len(doc.samples)


def test_check_builds_once_per_point_per_run(monkeypatch):
    """Checkers 41 and 44 share each chart point's drift bundle and its
    (theta, sigma) fit, and the run's one generic curvature pass over
    every point's directions."""
    bundles, fits, passes = _count_work(monkeypatch)
    for name in ("s3_hopf", "torus_wind"):
        for work in (bundles, fits, passes):
            work.clear()
        sc = load_scenario(name)
        doc = run_check(sc)
        assert [c["theorem"] for c in doc.checks] == ["41", "44"]
        assert len(bundles) == sc.points == len(set(bundles))
        assert len(fits) == sc.points == len(set(fits))
        assert set(fits) == set(bundles)
        _one_pass_per_run(passes, sc)


def test_f_x_stage_runs_once_per_point_per_run(monkeypatch):
    """The jets of F's stages, a_ij(x) and b_i(x) over the order-4
    seeds of x, come from one evaluation per run over the block of all
    its chart points, however many directions and checkers use them,
    and a run of one point (verify at one point) makes it over a block
    of one.  chart_points makes it before the run's one
    curvature_samples call, and none runs inside that call, where a
    stage would evaluate its own."""
    import kropina.einstein as einstein
    import kropina.forms as forms

    calls = []
    real = einstein.evaluate
    real_samples = einstein.curvature_samples

    def evaluate(env, *parts):
        if isinstance(env[0], Jet) and env[0].space.order == 4:
            xs = np.stack([seed.coef[..., 0] for seed in env], axis=-1)
            calls.append(("order 4", [tuple(x) for x in xs.tolist()]))
        return real(env, *parts)

    def samples(points):
        calls.append(("samples", [tuple(stage.x.tolist())
                                  for stage, *_ in points]))
        out = real_samples(points)
        calls.append(("done", None))
        return out

    monkeypatch.setattr(einstein, "evaluate", evaluate)
    monkeypatch.setattr(forms, "evaluate", evaluate)
    monkeypatch.setattr(einstein, "curvature_samples", samples)
    for name in ("s3_hopf", "euclid_gaussian"):
        sc = load_scenario(name)
        assert sc.points > 1
        for run, points in ((lambda: run_check(sc), sc.points),
                            (lambda: run_verify(sc), sc.points),
                            (lambda: run_verify(sc, points=1), 1)):
            calls.clear()
            run()
            [(order4, block), (kind, xs), (done, _)] = calls
            assert (order4, kind, done) == ("order 4", "samples", "done")
            assert len(xs) == len(set(xs)) == points
            assert block == xs


def test_one_jet_evaluation_per_signature_per_point(monkeypatch):
    """The chart points of a run walk the space's trees in one
    evaluation over their n chart variables to order 2, and F's stages
    in one over the same n variables to order 4 when their jets run,
    each over the block of every point: check and verify on torus_wind,
    and verify at one point over a block of one, make exactly these jet
    evaluations per run, and none at (n, 1) or over the 2n variables."""
    import kropina.riemann as riemann

    counts = Counter()
    real = riemann.eval_expr

    def counted(exprs, env):
        if len(env) and isinstance(env[0], Jet):
            sp = env[0].space
            counts[(sp.nvars, sp.order, env[0].coef.shape[:-1])] += 1
        return real(exprs, env)

    monkeypatch.setattr(riemann, "eval_expr", counted)
    sc = load_scenario("torus_wind")
    n = sc.dimension
    for run, block in ((lambda: run_check(sc), (sc.points,)),
                       (lambda: run_verify(sc), (sc.points,)),
                       (lambda: run_verify(sc, points=1), (1,))):
        counts.clear()
        run()
        assert counts == {(n, 2, block): 1, (n, 4, block): 1}


def test_one_float_x_stage_per_point(monkeypatch):
    """Over floats a chart point walks the space's trees once to sample
    its directions and once for F's stage, whose values and domain
    serve the domain check and the BH density quadrature; verify adds
    the closed sigma_BH.  convert's evidence evaluates F of each
    view once per point, beside the sampling's own evaluation.  (verify
    made 6 per point while the domain and the box were stages apart.)"""
    import kropina.riemann as riemann

    counts = Counter()
    real = riemann.eval_expr

    def counted(exprs, env):
        if len(env) and not isinstance(env[0], Jet):
            counts[tuple(env)] += 1
        return real(exprs, env)

    for name in ("torus_wind", "s3_hopf"):
        sc = load_scenario(name)
        xs = [tuple(float(v) for v in x) for x, _ in scenario_samples(sc)]
        monkeypatch.setattr(riemann, "eval_expr", counted)
        for run, per_point in ((lambda: run_check(sc), 2),
                               (lambda: run_verify(sc), 3)):
            counts.clear()
            run()
            assert Counter(counts.values()) == {per_point: sc.points}
        for to in ("nav", "ab"):
            counts.clear()
            run_convert(sc, to)
            assert [counts[x] for x in xs] == [1 + 2] * sc.points
        monkeypatch.undo()


# -- load once: the scenario's space serves every driver ------------------------


def _record_space_builds(monkeypatch):
    """Record the name of every space built through from_ab / from_nav."""
    import kropina.forms as forms

    built = []
    for name in ("from_ab", "from_nav"):
        real = forms.KropinaSpace.__dict__[name].__func__

        def build(cls, *args, _real=real, **kwargs):
            space = _real(cls, *args, **kwargs)
            built.append(space.name)
            return space

        monkeypatch.setattr(forms.KropinaSpace, name, classmethod(build))
    return built


def _record_parses(monkeypatch):
    import kropina.expr as expr
    import kropina.forms as forms
    import kropina.scenarios as scenarios
    import kropina.workbench as workbench

    parsed = []
    real = expr.parse_expr

    def parse(text, dim):
        parsed.append(text)
        return real(text, dim)

    for module in (expr, forms, scenarios, workbench):
        monkeypatch.setattr(module, "parse_expr", parse)
    return parsed


def test_check_and_verify_reuse_the_loaded_space(monkeypatch):
    for name in ("torus_wind", "euclid_gaussian"):
        sc = load_scenario(name)
        built = _record_space_builds(monkeypatch)
        parsed = _record_parses(monkeypatch)
        run_check(sc)
        run_verify(sc, points=1, dirs=2)
        assert built == [] and parsed == []
        monkeypatch.undo()


def test_convert_builds_only_the_emitted_space(monkeypatch):
    for name, to in (("s3_hopf", "ab"), ("torus_wind", "nav")):
        sc = load_scenario(name)
        built = _record_space_builds(monkeypatch)
        doc = run_convert(sc, to)
        assert doc.verdict == "PASS"
        assert built == [f"{name}_{to}"]
        monkeypatch.undo()


def test_convert_to_own_representation_emits_the_source_view():
    """An ab scenario converted to ab without a gauge emits its own
    (a, b), not trees re-derived through the navigation view."""
    sc = load_scenario("random:3")
    doc = run_convert(sc, "ab")
    assert doc.verdict == "PASS"
    # compact JSON; the parent's re-derived trees made it 157 KB
    assert len(json.dumps(json.loads(doc.to_json(timings=False)))) < 10_000
    assert doc.tables[0]["name"] == "f-agreement"
    assert doc.tables[0]["max_rel_dev"] == 0.0
    again = run_convert(doc.emitted, "ab")
    assert again.emitted["metric"] == doc.emitted["metric"]
    assert again.emitted["vector"] == doc.emitted["vector"]


def test_convert_evidence_evaluates_f_once_per_point(monkeypatch):
    """F is evaluated once per chart point and view, over the block of
    every sampled direction of that point."""
    import kropina.workbench as workbench

    calls = []
    real = workbench.finsler_stage

    def counted(space, x):
        stage = real(space, x)

        def f(ys):
            calls.append(len(ys))
            return stage.f(ys)

        return stage._replace(f=f)

    monkeypatch.setattr(workbench, "finsler_stage", counted)
    sc = load_scenario("torus_wind")
    doc = run_convert(sc, "nav")
    assert doc.verdict == "PASS"
    assert calls == [sc.directions] * (2 * sc.points)
    assert len(doc.tables[0]["rows"]) == sc.points * sc.directions


def test_verify_builds_one_w_invariants_per_point(monkeypatch):
    """R_ij and its siblings are cached on the navigation point, and
    verify builds one navigation point per chart point."""
    from functools import cached_property

    import kropina.forms as forms
    from kropina.riemann import FieldPoint

    points = []
    real = FieldPoint.r.func

    def counted(fp):
        # drift bundles of the (alpha, beta) view are FieldPoints too
        if isinstance(fp, forms.NavPoint):
            points.append(id(fp))
        return real(fp)

    traced = cached_property(counted)
    traced.__set_name__(FieldPoint, "r")
    monkeypatch.setattr(FieldPoint, "r", traced)
    for name in ("s3_hopf", "torus_wind"):
        points.clear()
        sc = load_scenario(name)
        doc = run_verify(sc)
        assert len(points) == len(set(points)) == sc.points
    nav_ricci = next(t for t in doc.tables if t["name"] == "nav-ricci")
    assert nav_ricci["skipped"] == sc.points * sc.directions


def test_round_tripped_document_evaluates_each_cos_node_once(monkeypatch):
    """The nav -> ab round trip of torus_wind prints h and W as long
    texts of few distinct subexpressions; one evaluation of the view
    runs Jet.cos at most once per distinct cos node."""
    from dataclasses import is_dataclass

    from kropina.expr import Call, eval_expr
    from kropina.jets import jet_space

    there = run_convert("torus_wind", "nav")
    back = run_convert(there.emitted, "ab")
    space = load_scenario(back.emitted).space()
    exprs = [e for row in space.h.exprs for e in row] + list(space.w)

    canon = {}   # id(node) -> structural key
    cos_keys = set()

    def key(node):
        if id(node) not in canon:
            parts = [type(node).__name__]
            for name in node._fields:
                value = getattr(node, name)
                parts.append(key(value) if is_dataclass(value) else value)
            canon[id(node)] = k = tuple(parts)
            if isinstance(node, Call) and node.fn == "cos":
                cos_keys.add(k)
        return canon[id(node)]

    for e in exprs:
        key(e.root)
    calls = []
    real = Jet.cos
    monkeypatch.setattr(Jet, "cos", lambda j: calls.append(1) or real(j))
    values = eval_expr(exprs, jet_space(space.dim, 2).seed([0.1, -0.2, 0.3]))
    # a folded constant entry evaluates to a float, not a jet
    assert all(np.isfinite(v if isinstance(v, float) else v.value)
               for v in values)
    assert 0 < len(calls) <= len(cos_keys)
