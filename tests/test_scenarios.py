"""Scenario documents: schema, builtins, sampling, load-time guards."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kropina
from kropina import scenarios
from kropina.expr import eval_expr
from kropina.scenarios import (
    COMPARISON_CUTOFF,
    DEFAULT_CUTOFF,
    Scenario,
    MAX_DEPTH,
    ScenarioError,
    admissibility_rate,
    builtin_names,
    builtin_summaries,
    load_scenario,
    random_scenario,
    sample_directions,
    scenario_samples,
)
from kropina.workbench import run_convert


def doc_for(name):
    return load_scenario(name).as_dict()


# -- builtins ---------------------------------------------------------------


def test_builtin_registry_contents():
    names = builtin_names()
    assert names == sorted(names)
    for expected in ("euclid_parallel", "s3_hopf", "euclid_gaussian",
                     "euclid_twist", "torus_wind"):
        assert expected in names


def test_every_builtin_loads_and_builds():
    for name in builtin_names():
        sc = load_scenario(name)
        space = sc.space()
        cfg = sc.config()
        assert space.dim == sc.dimension
        assert cfg.regime in ("nu!=0", "nu=0,kappa!=0", "nu=0,kappa=0")


def test_builtin_summaries_shape():
    rows = builtin_summaries()
    assert len(rows) == len(builtin_names())
    for name, dim, rep, desc in rows:
        assert rep in ("nav", "ab")
        assert dim >= 2
        assert desc


def test_parallel_dispatches_to_61_and_hopf_to_41_44():
    assert load_scenario("euclid_parallel").config().checkers == ("61",)
    assert load_scenario("s3_hopf").config().checkers == ("41", "44")


def test_load_accepts_scenario_passthrough():
    sc = load_scenario("s3_hopf")
    assert load_scenario(sc) is sc


def test_dict_round_trip():
    sc = load_scenario("torus_wind")
    again = load_scenario(sc.as_dict())
    assert again.as_dict() == sc.as_dict()


def test_load_from_file(tmp_path):
    path = tmp_path / "par.json"
    path.write_text(json.dumps(doc_for("euclid_parallel")))
    sc = load_scenario(str(path))
    assert sc.name == "euclid_parallel"


def test_unknown_name_lists_builtins():
    with pytest.raises(ScenarioError, match="euclid_parallel"):
        load_scenario("definitely_not_a_scenario")


def test_malformed_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(str(path))


def test_non_object_json_file(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ScenarioError, match="scenario object"):
        load_scenario(str(path))


# -- schema and semantic validation ------------------------------------------


def test_missing_dimension_pointer():
    doc = doc_for("euclid_parallel")
    doc.pop("dimension")
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.pointer == "/dimension"
    assert "/dimension" in str(err.value)


def test_bad_representation_pointer():
    doc = doc_for("euclid_parallel")
    doc["representation"] = "polar"
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.pointer == "/representation"


def test_wrong_schema_tag():
    doc = doc_for("euclid_parallel")
    doc["schema"] = "scenario/9"
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.pointer == "/schema"


def test_expression_error_carries_offset_and_pointer():
    doc = doc_for("euclid_parallel")
    doc["metric"][0][0] = "1 + sin("
    with pytest.raises(ScenarioError, match="offset") as err:
        load_scenario(doc)
    assert err.value.pointer == "/metric/0/0"


def test_out_of_range_variable_rejected():
    doc = doc_for("euclid_parallel")
    doc["vector"] = ["x9", "0", "0"]
    with pytest.raises(ScenarioError, match="out of range") as err:
        load_scenario(doc)
    assert err.value.pointer == "/vector/0"


def test_metric_shape_must_match_dimension():
    doc = doc_for("euclid_parallel")
    doc["metric"] = [["1", "0"], ["0", "1"]]
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.pointer == "/metric"


def test_metric_must_be_symmetric_textually():
    doc = doc_for("torus_wind")
    doc["metric"][0][1] = "0.2*cos(x3)"
    with pytest.raises(ScenarioError, match="diagonal") as err:
        load_scenario(doc)
    assert err.value.pointer == "/metric/0/1"


# -- defs ---------------------------------------------------------------------


def test_a_reference_is_the_def_node():
    doc = doc_for("torus_wind")
    plain = load_scenario(doc).space()
    doc["defs"] = ["cos(x3)", "0.1*$0"]
    doc["metric"][0][1] = doc["metric"][1][0] = "$1"
    doc["weight"] = "0.1*sin(x1 + x2) + 0*$0"
    sc = load_scenario(doc)
    assert sc.as_dict()["defs"] == doc["defs"]
    assert sc.space().a.exprs[0][1].root is plain.a.exprs[0][1].root
    assert sc.space().weight.root.lhs is plain.weight.root


@pytest.mark.parametrize("defs, pointer", [
    (["x1", "$1 + 1"], "/defs/1"),  # a def naming itself
    (["$1 * 2", "x1"], "/defs/0"),  # a def naming a later one
])
def test_a_def_names_only_earlier_defs(defs, pointer):
    doc = doc_for("torus_wind")
    doc["defs"] = defs
    with pytest.raises(ScenarioError, match="names none of") as err:
        load_scenario(doc)
    assert err.value.pointer == pointer


def test_an_out_of_range_reference_carries_offset_and_pointer():
    doc = doc_for("torus_wind")
    doc["defs"] = ["cos(x3)"]
    doc["metric"][0][1] = doc["metric"][1][0] = "0.1*$1"
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert str(err.value) == ("reference '$1' names none of 1 defs "
                              "(offset 4) (at /metric/0/1)")
    assert err.value.pointer == "/metric/0/1"


def test_a_bare_dollar_is_an_unexpected_character():
    doc = doc_for("torus_wind")
    doc["defs"] = ["cos(x3)"]
    doc["metric"][2][2] = "1 + $"
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert str(err.value) == (
        "unexpected character '$' (offset 4) (at /metric/2/2)")


def test_defs_must_be_non_empty_strings():
    doc = doc_for("torus_wind")
    doc["defs"] = ["x1", ""]
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.pointer == "/defs/1"


def test_nesting_too_deep_to_parse_is_rejected_at_load():
    doc = doc_for("euclid_parallel")
    doc["metric"][0][0] = "(" * 3000 + "1" + ")" * 3000
    with pytest.raises(ScenarioError, match="nested deeper") as err:
        load_scenario(doc)
    assert err.value.pointer == "/metric/0/0"


def test_a_chain_of_defs_too_deep_is_rejected_at_load():
    doc = doc_for("euclid_parallel")
    # def k is k + 1 levels deep
    doc["defs"] = ["x1"] + [f"${k} + 1" for k in range(3000)]
    doc["metric"][0][0] = "1 + 0*$3000"
    with pytest.raises(ScenarioError, match="nested deeper") as err:
        load_scenario(doc)
    assert err.value.pointer == f"/defs/{MAX_DEPTH}"


def test_a_chain_of_defs_at_the_depth_bound_runs():
    from kropina.workbench import run_check, run_verify

    doc = doc_for("torus_wind")
    doc["defs"] = ["x1"] + [f"${k} + 1" for k in range(MAX_DEPTH - 4)]
    doc["metric"][2][2] = f"1 + 0.1*cos(x2) + 0*${MAX_DEPTH - 4}"
    sc = load_scenario(doc)
    assert run_check(sc).verdict == run_check("torus_wind").verdict
    assert run_verify(sc, points=1, dirs=2).verdict == "PASS"


def test_gauge_rejected_in_ab_representation():
    doc = doc_for("torus_wind")
    doc["gauge"] = "2"
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.pointer == "/gauge"


def test_box_needs_positive_volume():
    doc = doc_for("euclid_parallel")
    doc["box"][1] = [0.3, 0.3]
    with pytest.raises(ScenarioError, match="volume") as err:
        load_scenario(doc)
    assert err.value.pointer == "/box/1"


def test_constants_reject_extra_keys():
    doc = doc_for("euclid_parallel")
    doc["constants"] = {"a": 1, "c": 0, "kappa": 2}
    with pytest.raises(ScenarioError):
        load_scenario(doc)


def test_unknown_preset_fails_at_load():
    doc = doc_for("euclid_parallel")
    doc["constants"] = {"preset": "ricSomething"}
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.pointer == "/constants/preset"


def test_rational_constants_parse_exactly():
    from fractions import Fraction

    doc = doc_for("euclid_parallel")
    doc["constants"] = {"a": "0", "c": "3/8"}
    cfg = load_scenario(doc).config()
    assert cfg.a == Fraction(0)
    assert cfg.c == Fraction(3, 8)
    assert cfg.checkers == ("51",)


def test_bad_rational_constant():
    doc = doc_for("euclid_parallel")
    doc["constants"] = {"a": "three", "c": 0}
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.pointer == "/constants/a"


def test_non_unit_wind_rejected_at_load():
    doc = doc_for("euclid_parallel")
    doc["vector"] = ["2", "0", "0"]
    with pytest.raises(ScenarioError, match="h-unit"):
        load_scenario(doc)


def test_tolerance_overrides():
    doc = doc_for("euclid_parallel")
    doc["tolerances"] = {"check": 1e-3, "ricci": 1e-9}
    sc = load_scenario(doc)
    assert sc.tolerance("check", 1e-6) == 1e-3
    assert sc.tolerance("ricci", 1e-7) == 1e-9
    assert sc.tolerance("spray", 1e-8) == 1e-8


def test_tolerance_keys_are_the_run_tolerances():
    from importlib import resources

    from kropina.workbench import VERIFY_TOLS

    schema = json.loads(resources.files("kropina").joinpath(
        "schemas/scenario-1.schema.json").read_text())
    tolerances = schema["properties"]["tolerances"]
    assert tolerances["additionalProperties"] is False
    assert set(tolerances["properties"]) == {"check", "convert"} | set(VERIFY_TOLS)


def test_misspelled_tolerance_key_rejected():
    doc = doc_for("s3_hopf")
    doc["tolerances"] = {"chek": 1e-30}
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.pointer == "/tolerances"


@pytest.mark.parametrize("field, value, pointer", [
    ("box", [[float("-inf"), 0.5]] + [[-0.5, 0.5]] * 2, "/box/0"),
    ("box", [[-0.5, 0.5], [-0.5, float("inf")], [-0.5, 0.5]], "/box/1"),
    ("tolerances", {"spray": float("inf")}, "/tolerances/spray"),
    ("tolerances", {"check": float("nan")}, "/tolerances/check"),
    ("constants", {"a": float("inf"), "c": 0}, "/constants/a"),
    ("constants", {"a": 1, "c": float("nan")}, "/constants/c"),
    ("constants", {"a": 1, "c": float("-inf")}, "/constants/c"),
])
def test_non_finite_box_or_tolerance_rejected(field, value, pointer):
    """A dict document may hold floats JSON cannot: a non-finite box
    bound, tolerance or weight constant is refused at load, with its
    pointer."""
    doc = doc_for("s3_hopf")
    doc[field] = value
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.pointer == pointer


@pytest.mark.parametrize("tol", [1, 1.0, 3.0, 1e6])
def test_bh_density_tolerance_of_one_or_more_rejected(tol):
    """The bh-density tolerance is a relative bound: a file written for
    the standard-error units of old, with 3.0, would pass a density off
    by 300%.  One or more is refused at load, with its pointer; a bound
    below 1 is taken as it is."""
    doc = doc_for("s3_hopf")
    doc["tolerances"] = {"bh-density": tol}
    with pytest.raises(ScenarioError, match="relative bound") as err:
        load_scenario(doc)
    assert err.value.pointer == "/tolerances/bh-density"
    doc["tolerances"] = {"bh-density": 0.5}
    assert load_scenario(doc).tolerance("bh-density", 1e-12) == 0.5


@pytest.mark.parametrize("text", [
    '"box": [[-Infinity, 0.5], [-0.5, 0.5], [-0.5, 0.5]]',
    '"tolerances": {"spray": Infinity}',
    '"tolerances": {"ricci": NaN}',
])
def test_scenario_file_refuses_non_json_constants(tmp_path, text):
    """NaN, Infinity and -Infinity are not JSON: a scenario file that
    holds one is refused when it is parsed."""
    doc = json.dumps(doc_for("s3_hopf"))
    path = tmp_path / "scen.json"
    path.write_text(doc[:-1] + ", " + text + "}")
    with pytest.raises(ScenarioError, match="is not a JSON number"):
        load_scenario(str(path))


def test_integer_sampling_overrides_of_any_integer_type_are_accepted():
    """numpy integers, and floats the schema counts as integers, give
    the plan of the plain ints."""
    sc = load_scenario("euclid_parallel")
    plain = scenario_samples(sc, points=2, directions=3, seed=5)
    for ints in ((np.int64(2), np.int32(3), np.uint8(5)), (2.0, 3.0, 5.0)):
        plan = scenario_samples(sc, points=ints[0], directions=ints[1],
                                seed=ints[2])
        assert len(plan) == 2 and all(len(ys) == 3 for _, ys in plan)
        for (x, ys), (x0, ys0) in zip(plan, plain):
            assert np.array_equal(x, x0) and np.array_equal(ys, ys0)


def test_sampling_overrides_take_the_schema_bounds_inclusive():
    sc = load_scenario("euclid_parallel")
    plan = scenario_samples(sc, points=200, directions=1, seed=0)
    assert len(plan) == 200 and all(len(ys) == 1 for _, ys in plan)
    for kwargs, pointer in (({"points": 201}, "/points"),
                            ({"directions": 501}, "/directions")):
        with pytest.raises(ScenarioError) as err:
            scenario_samples(sc, **kwargs)
        assert err.value.pointer == pointer


def test_admissibility_guard_triggers():
    """A drift whose square root leaves the chart kills every probe point."""
    doc = {
        "schema": "scenario/1",
        "name": "bad_chart",
        "dimension": 3,
        "representation": "ab",
        "metric": [["1/sqrt(x1)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "vector": ["1", "0", "0"],
        "box": [[-1.0, -0.5], [-0.5, 0.5], [-0.5, 0.5]],
    }
    with pytest.raises(ScenarioError, match="admissible"):
        load_scenario(doc)


def test_admissibility_rate_for_healthy_scenario():
    sc = load_scenario("s3_hopf")
    rate = admissibility_rate(sc.space(), sc.box, sc.seed)
    assert 0.3 < rate < 0.7  # unit wind: half of isotropic directions


# -- sampling ----------------------------------------------------------------


def test_scenario_samples_shape_and_admissibility():
    sc = load_scenario("s3_hopf")
    space = sc.space()
    samples = scenario_samples(sc)
    assert len(samples) == sc.points
    box = np.asarray(sc.box)
    for x, ys in samples:
        assert len(ys) == sc.directions
        assert np.all(x >= box[:, 0]) and np.all(x <= box[:, 1])
        env = [float(v) for v in x]
        h = np.array([[eval_expr(space.h.exprs[i][j], env) for j in range(3)]
                      for i in range(3)])
        w = np.array([eval_expr(e, env) for e in space.w], dtype=float)
        for y in ys:
            assert abs(float(y @ h @ y) - 1.0) < 1e-12
            assert float((h @ w) @ y) > DEFAULT_CUTOFF


def test_scenario_samples_deterministic():
    sc = load_scenario("torus_wind")
    a = scenario_samples(sc)
    b = scenario_samples(sc)
    for (xa, ya), (xb, yb) in zip(a, b):
        assert np.array_equal(xa, xb)
        assert all(np.array_equal(u, v) for u, v in zip(ya, yb))


def test_seed_override_changes_draws():
    sc = load_scenario("torus_wind")
    a = scenario_samples(sc, seed=1)
    b = scenario_samples(sc, seed=2)
    assert not np.array_equal(a[0][0], b[0][0])


def test_comparison_cutoff_enforced():
    sc = load_scenario("euclid_parallel")
    space = sc.space()
    rng = np.random.default_rng(0)
    ys = sample_directions(space, [0.1, 0.0, -0.2], 40, rng,
                           cutoff=COMPARISON_CUTOFF)
    w_low = np.array([1.0, 0.0, 0.0])
    for y in ys:
        assert float(w_low @ y) > COMPARISON_CUTOFF


def test_sampler_gives_up_on_starved_cone():
    sc = load_scenario("euclid_parallel")
    space = sc.space()
    rng = np.random.default_rng(3)
    with pytest.raises(ScenarioError, match="too rare"):
        sample_directions(space, [0.0, 0.0, 0.0], 5, rng, cutoff=2.0)


def test_sampler_names_the_starved_point_in_plain_floats():
    space = load_scenario("euclid_parallel").space()
    rng = np.random.default_rng(3)
    with pytest.raises(ScenarioError) as err:
        sample_directions(space, np.array([0.2, 0.0, 0.0]), 1, rng,
                          cutoff=0.9999)
    message = str(err.value)
    assert "too rare at [0.2, 0.0, 0.0]: " in message
    assert "np.float64" not in message


def test_probe_points_stay_in_box_and_repeat():
    sc = load_scenario("s3_hopf")
    pts = sc.probe_points()
    box = np.asarray(sc.box)
    for p in pts:
        p = np.asarray(p)
        assert np.all(p >= box[:, 0]) and np.all(p <= box[:, 1])
    assert pts == sc.probe_points()


# -- random scenarios ---------------------------------------------------------


def test_random_scenario_deterministic():
    assert random_scenario(42) == random_scenario(42)
    assert random_scenario(42) != random_scenario(43)


def test_random_scenario_loads_and_samples():
    sc = load_scenario("random:6")
    assert sc.name == "random_6"
    samples = scenario_samples(sc)
    assert len(samples) == sc.points


def test_random_scenario_dimensions():
    for n in (2, 3, 4, 5, 6):
        sc = load_scenario(random_scenario(9, dimension=n))
        assert sc.dimension == n
        assert sc.space().dim == n
    for n in (1, 7):
        with pytest.raises(ScenarioError):
            random_scenario(9, dimension=n)


def test_random_scenario_box_rows_are_separate_lists():
    """Editing one interval of a returned document leaves the others."""
    doc = random_scenario(0, 3)
    doc["box"][1][0] = -0.1
    assert doc["box"] == [[-0.35, 0.35], [-0.1, 0.35], [-0.35, 0.35]]


def test_random_prefix_wants_integer():
    with pytest.raises(ScenarioError, match="integer seed"):
        load_scenario("random:x")


def test_random_prefix_rejects_a_negative_seed():
    with pytest.raises(ScenarioError) as err:
        load_scenario("random:-1")
    assert str(err.value) == (
        "random scenario wants a non-negative integer seed, got '-1'"
    )


# -- which documents are validated -----------------------------------------


def _schema_errors(doc):
    """The faults of doc under the scenario schema: every error of
    jsonschema's Draft202012Validator, then the package's own fault."""
    from importlib import resources

    from jsonschema import Draft202012Validator

    schema = json.loads(resources.files("kropina").joinpath(
        "schemas/scenario-1.schema.json").read_text())
    errors = [e.message for e in Draft202012Validator(schema).iter_errors(doc)]
    fault = scenarios._schema_fault(schema, doc)
    return errors if fault is None else [*errors, fault[2]]


_TRUSTED = {name: scenarios._BUILTINS[name] for name in builtin_names()}
_TRUSTED.update({f"random({seed}, {n})": random_scenario(seed, n)
                 for seed in (0, 3, 17) for n in (2, 3, 4, 5, 6)})


@pytest.mark.parametrize("label", list(_TRUSTED))
def test_trusted_documents_hold_to_the_schema(label):
    """The builtins and the random documents load without the schema,
    so every one of them is held to it here."""
    assert _schema_errors(_TRUSTED[label]) == []


@pytest.mark.parametrize("to, gauge", [("nav", None), ("ab", None),
                                       ("ab", "1 + x1^2")])
@pytest.mark.parametrize("name", [*builtin_names(), "random:3"])
def test_emitted_documents_hold_to_the_schema(name, to, gauge):
    """convert loads the document it emits as trusted, without the
    schema, so the emitted documents are held to it here."""
    assert _schema_errors(run_convert(name, to, gauge=gauge).emitted) == []


def test_only_files_and_dicts_are_validated_at_load(monkeypatch, tmp_path):
    checked = []
    real = scenarios._schema_check
    monkeypatch.setattr(scenarios, "_schema_check",
                        lambda doc: checked.append(doc["name"]) or real(doc))
    for name in builtin_names():
        load_scenario(name)
    load_scenario("random:3")
    assert checked == []
    load_scenario(random_scenario(5))
    path = tmp_path / "hopf.json"
    path.write_text(json.dumps(doc_for("s3_hopf")))
    load_scenario(str(path))
    assert checked == ["random_5", "s3_hopf"]


_IMPORT_PROBE = """
import sys

import kropina.cli
from kropina.scenarios import load_scenario, random_scenario
from kropina.workbench import run_check, run_convert

load_scenario("s3_hopf")
run_check("s3_hopf")
before = "jsonschema" in sys.modules
if sys.argv[1] == "dict":
    load_scenario(random_scenario(3))
elif sys.argv[1] == "seed":
    run_check("s3_hopf", seed=5)
elif sys.argv[1] == "convert":
    run_convert("s3_hopf", "ab")
print(before, "jsonschema" in sys.modules)
"""


@pytest.mark.parametrize("then, imported", [
    ("nothing", "False False"),
    ("dict", "False False"),
    ("seed", "False False"),
    ("convert", "False False"),
])
def test_jsonschema_is_imported_only_to_validate(then, imported):
    """A fresh interpreter imports the CLI, loads and checks a builtin,
    validates a dict document and a seed override, and converts, all
    without importing jsonschema: the package validates by itself."""
    src = str(Path(kropina.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, then],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == imported


_NO_JSONSCHEMA_PROBE = """
import json
import sys

sys.modules["jsonschema"] = None  # any import of jsonschema now fails

import kropina.cli
from kropina.scenarios import ScenarioError, load_scenario

doc = load_scenario("s3_hopf").as_dict()
with open(sys.argv[1], "w") as out:
    json.dump(dict(doc, points=0), out)
for source in (dict(doc, dimension=9), sys.argv[1]):
    try:
        load_scenario(source)
    except ScenarioError as e:
        print(e.pointer)
print(kropina.cli.main(["check", "--scenario", "s3_hopf", "--seed", "-1"]))
"""


def test_validation_runs_where_jsonschema_cannot_be_imported(tmp_path):
    """With jsonschema unimportable, a faulty dict and a faulty file
    still raise ScenarioError, and an out-of-range --seed exits 1."""
    src = str(Path(kropina.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_JSONSCHEMA_PROBE,
         str(tmp_path / "scen.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["/dimension", "/points", "1"]
    assert proc.stderr == (
        "kropina: seed override: -1 is less than the minimum of 0 "
        "(at /seed)\n")


# -- load once -----------------------------------------------------------------


def test_load_parses_each_distinct_string_once(monkeypatch):
    import kropina.scenarios as scenarios

    parsed = []
    real = scenarios.parse_expr

    def counting(text, dim, refs=()):
        parsed.append(text)
        return real(text, dim, refs)

    monkeypatch.setattr(scenarios, "parse_expr", counting)
    for source in ("torus_wind", "s3_hopf", "random:3"):
        parsed.clear()
        sc = load_scenario(source)
        strings = {e for row in sc.metric for e in row} | set(sc.vector)
        strings |= {s for s in (sc.gauge, sc.weight) if s is not None}
        assert sorted(parsed) == sorted(strings)
        space = sc.space()
        if sc.representation == "ab":
            assert space.a.exprs[0][1] is space.a.exprs[1][0]
        else:
            assert space.h.exprs[0][1] is space.h.exprs[1][0]
    assert len(set(parsed)) == len(parsed)


def test_space_is_built_once_and_replaced_scenarios_build_their_own():
    from dataclasses import replace

    sc = load_scenario("torus_wind")
    assert sc.space() is sc.space()
    fewer = replace(sc, points=1)
    assert fewer.space() is not sc.space()
    assert fewer.space() is fewer.space()


def test_admissibility_reads_the_ab_view_only(monkeypatch):
    """On an ab document the rate evaluates a_ij and b_i, never the
    adjugate-derived h_ij or W^i."""
    import kropina.riemann as riemann

    sc = load_scenario("torus_wind")
    space = sc.space()
    seen = []
    real = riemann.eval_expr

    def recording(asts, env):
        seen.extend(id(e) for e in asts)
        return real(asts, env)

    monkeypatch.setattr(riemann, "eval_expr", recording)
    rate = admissibility_rate(space, sc.box, sc.seed)
    assert 0.3 < rate < 0.7
    derived = {id(e) for row in space.h.exprs for e in row}
    derived |= {id(e) for e in space.w}
    source = {id(e) for row in space.a.exprs for e in row}
    source |= {id(e) for e in space.b}
    assert seen and not derived & set(seen)
    assert set(seen) == source
