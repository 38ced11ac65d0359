"""The package's own scenario validator, held to jsonschema's.

scenarios._schema_fault enforces scenario-1.schema.json by itself.  Here
it is held to Draft202012Validator, with best_match and the pointer
mapping of oracles.schema_fault_oracle: both pass every builtin, random
and emitted document, agree on whether each single-fault mutation of
those documents is valid, and give the same message and pointer for it.
The validator must know every keyword the schema uses and refuse any
other.
"""
import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from kropina import scenarios
from kropina.scenarios import builtin_names, random_scenario
from oracles import schema_fault_oracle

SCHEMA = scenarios._load_schema("scenario-1.schema.json")
IGNORED = {"$schema", "$id", "title", "$defs"}


def package_fault(doc, schema=SCHEMA):
    fault = scenarios._schema_fault(schema, doc)
    return None if fault is None else (fault[1], fault[2])


def base_docs():
    """A strategy over the trusted documents: the builtins and
    random_scenario(seed, n) for every dimension the schema accepts,
    each through JSON, so that no two of its rows are one list."""
    builtins = st.sampled_from(builtin_names()).map(
        lambda name: scenarios._BUILTINS[name])
    randoms = st.builds(random_scenario, st.integers(0, 10_000),
                        st.integers(2, 6))
    return st.one_of(builtins, randoms).map(lambda doc: json.loads(json.dumps(doc)))


# values of every type but one, for a field of that type
_WRONG = {
    "string": [True, None, 2.5, 7, [], {}],
    "integer": [True, False, None, 2.5, "3", [], {}],
    "number": [True, False, None, "0.5", [], {}],
    "array": [True, None, 2.5, "x", {}],
    "object": [False, None, 7, "x", []],
}
# (path, type) of fields a document holds or may hold
_TYPED = [
    (("name",), "string"), (("dimension",), "integer"),
    (("points",), "integer"), (("directions",), "integer"),
    (("seed",), "integer"), (("metric",), "array"), (("metric", 0), "array"),
    (("metric", 0, 1), "string"), (("vector",), "array"),
    (("vector", 1), "string"), (("box",), "array"), (("box", 0), "array"),
    (("box", 1, 0), "number"), (("constants",), "object"),
    (("tolerances",), "object"), (("defs",), "array"),
    (("gauge",), "string"), (("weight",), "string"),
    (("description",), "string"),
]
_TOLERANCE_KEYS = list(SCHEMA["properties"]["tolerances"]["properties"])


def _mutate(doc, data):
    """doc with one fault put in, chosen by data."""
    draw = data.draw
    n = len(doc["metric"])
    kind = draw(st.sampled_from([
        "drop", "type", "range", "enum", "unknown", "constants", "empty",
        "pattern", "box", "tolerance"]))
    if kind == "drop":
        del doc[draw(st.sampled_from(SCHEMA["required"]))]
    elif kind == "type":
        path, of_type = draw(st.sampled_from(_TYPED))
        target = doc
        for part in path[:-1]:
            target = target[part]
        target[path[-1]] = draw(st.sampled_from(_WRONG[of_type]))
    elif kind == "range":
        key, value = draw(st.sampled_from([
            ("dimension", 1), ("dimension", 7), ("points", 0),
            ("points", 201), ("directions", 0), ("directions", 501),
            ("seed", -1)]))
        doc[key] = value
    elif kind == "enum":
        key, value = draw(st.sampled_from([
            ("representation", "alpha"), ("representation", 1),
            ("schema", "scenario/2"), ("schema", None)]))
        doc[key] = value
    elif kind == "unknown":
        where = draw(st.sampled_from(["root", "constants", "tolerances"]))
        target = doc if where == "root" else doc.setdefault(where, {})
        target[draw(st.sampled_from(["extra", "kappa", "zz"]))] = 1
    elif kind == "constants":
        doc["constants"] = draw(st.sampled_from([
            {"a": 1, "c": 0, "preset": "pric"}, {}, {"a": 1}, {"c": "1/2"}]))
    elif kind == "empty":
        path = draw(st.sampled_from([
            ("name",), ("metric", 0, 0), ("vector", n - 1), ("gauge",),
            ("weight",), ("defs", 0), ("constants", "preset")]))
        if path[0] == "defs":
            doc["defs"] = ["x1"]
        if path[0] == "constants":
            doc["constants"] = {"preset": "plain"}
        target = doc
        for part in path[:-1]:
            target = target[part]
        target[path[-1]] = ""
    elif kind == "pattern":
        doc["name"] = draw(st.sampled_from(["a b", "x/y", "café", "#1"]))
    elif kind == "box":
        i = draw(st.integers(0, n - 1))
        doc["box"] = [[-0.5, 0.5] for _ in range(n)]
        doc["box"][i] = draw(st.sampled_from([[0.1], [0.1, 0.2, 0.3]]))
    else:
        doc["tolerances"] = {draw(st.sampled_from(_TOLERANCE_KEYS)):
                             draw(st.sampled_from([0, -1e-3, True]))}
    return doc


@settings(max_examples=400, deadline=None)
@given(base_docs(), st.data())
def test_single_faults_match_the_reference_validator(doc, data):
    assert package_fault(doc) is None
    doc = _mutate(doc, data)
    want = schema_fault_oracle(SCHEMA, doc)
    assert want is not None, doc
    assert package_fault(doc) == want


@pytest.mark.parametrize("name", builtin_names())
def test_fixed_faults_in_each_builtin_match_the_reference(name):
    """Each builtin, with each fault in one fixed form, against the
    reference; the hypothesis test draws the rest."""
    faults = [
        lambda d: d.pop("vector"),
        lambda d: d.update(dimension=True),
        lambda d: d.update(dimension=3.5),
        lambda d: d.update(points=0),
        lambda d: d.update(representation="alpha"),
        lambda d: d.update(extra=1),
        lambda d: d.update(constants={"a": 1, "c": 0, "preset": "plain"}),
        lambda d: d.update(constants={}),
        lambda d: d.update(constants={"a": True, "c": 0}),
        lambda d: d.update(name=""),
        lambda d: d.update(name="a b"),
        lambda d: d["box"].__setitem__(0, [0.1]),
        lambda d: d["box"].__setitem__(0, [0.1, 0.2, 0.3]),
        lambda d: d.update(tolerances={"check": 0}),
        lambda d: d.update(tolerances={"spray": -1}),
        lambda d: d.update(tolerances={"ricci": True}),
    ]
    for fault in faults:
        doc = copy.deepcopy(scenarios._BUILTINS[name])
        fault(doc)
        want = schema_fault_oracle(SCHEMA, doc)
        assert want is not None
        assert package_fault(doc) == want


@pytest.mark.parametrize("key, values", [
    ("points", [0, 1, 200, 201, 3.0, 2.5, True, False, "3", None]),
    ("directions", [0, 500, 501, 1.5, True]),
    ("seed", [-1, 0, 2**70, 0.5, False]),
])
def test_override_subschemas_match_the_reference_validator(key, values):
    sub = SCHEMA["properties"][key]
    for value in values:
        assert package_fault(value, sub) == schema_fault_oracle(sub, value)


def _keywords(schema):
    """Every keyword used in schema and its subschemas, with its
    argument; the names under properties and $defs are not keywords."""
    for key, arg in schema.items():
        yield key, arg
        if key in ("properties", "$defs"):
            for sub in arg.values():
                yield from _keywords(sub)
        elif key == "items":
            yield from _keywords(arg)
        elif key == "oneOf":
            for sub in arg:
                yield from _keywords(sub)


def test_the_validator_knows_every_keyword_of_the_schema():
    used = dict(_keywords(SCHEMA))
    assert set(used) == {
        "type", "const", "enum", "minLength", "pattern", "minimum",
        "maximum", "exclusiveMinimum", "minItems", "maxItems", "items",
        "properties", "required", "additionalProperties", "oneOf", "$ref",
        *IGNORED}
    for key, arg in _keywords(SCHEMA):
        for probe in (None, "", 0, 1.5, [], [1], {}, {"a": 1}):
            scenarios._schema_fault({key: arg}, probe, root=SCHEMA)


@pytest.mark.parametrize("where, keyword, arg", [
    ((), "minProperties", 1),
    (("properties", "name"), "maxLength", 40),
    (("properties", "tolerances"), "additionalProperties", True),
    (("$defs", "tolerance"), "multipleOf", 0.5),
    (("properties", "description"), "type", "boolean"),
])
def test_an_unknown_keyword_makes_the_validator_raise(where, keyword, arg):
    """A keyword, a keyword form or a type name the validator does not
    know, added to a copy of the schema, makes it raise."""
    schema = copy.deepcopy(SCHEMA)
    target = schema
    for part in where:
        target = target[part]
    target[keyword] = arg
    doc = copy.deepcopy(scenarios._BUILTINS["s3_hopf"])
    doc["tolerances"] = {"check": 0.5}
    with pytest.raises(NotImplementedError, match=keyword):
        scenarios._schema_fault(schema, doc)
