"""Scenario files: schema validation, builtins, and admissible sampling.

A scenario pins down one Kropina space together with a sampling plan:
chart box, point and direction counts, seed, weight constants, and
optional tolerance overrides.  Scenarios are plain JSON documents that
hold to the packaged ``scenario/1`` schema, so a run is reproducible
from the file and the tool version alone.

Documents from outside the package, files and dicts, are validated
against that schema when they load, by this module's own validator
(_schema_fault).  So are the sampling overrides of a run (``--seed``,
``--points`` and ``--dirs``), as given: a bool or a fractional count is
refused, not truncated.  The documents the package writes itself, the
builtins, ``random:<seed>`` and the document convert emits, are trusted
and load without it (through load_trusted); the tests hold every one of
them to the schema.

Loading is strict on purpose.  Schema violations carry a JSON-pointer
path, expression problems keep the parser's offset message, and a
scenario whose admissible cone is (numerically) empty is rejected up
front rather than failing deep inside a curvature routine.
"""

import json
import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from importlib import resources
from pathlib import Path

import numpy as np

from .einstein import WeightConfig, weight_preset
from .expr import ExprError, _children, parse_expr
from .forms import KropinaSpace
from .riemann import RiemannianMetric, evaluate

SCENARIO_SCHEMA_ID = "scenario/1"

# Direction admissibility: the conic domain is {beta > 0}; sampled
# directions keep a small safety margin so order-4 jets stay accurate.
DEFAULT_CUTOFF = 1e-3
# Cross-validation between formula routes compares high-order jets, so
# the comparison sampler stays further from the cone boundary.
COMPARISON_CUTOFF = 0.05

_ADMISSIBILITY_FLOOR = 0.10
# load-time probe points of a scenario, and the random directions the
# admissibility rate draws at each
_PROBE_POINTS = 3
_PROBE_DRAWS = 64

# Deepest expression DAG a scenario may hold: evaluation, printing and
# the spaces derived from a scenario recurse once per level.
MAX_DEPTH = 200


class ScenarioError(ValueError):
    """A scenario document that cannot be turned into a runnable space."""

    def __init__(self, message, pointer=""):
        suffix = f" (at {pointer})" if pointer else ""
        super().__init__(f"{message}{suffix}")
        self.reason = message
        self.pointer = pointer


@cache
def _load_schema(name):
    """The packaged schema, parsed once and shared: callers read it only."""
    text = resources.files("kropina").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def _is_type(value, name):
    """JSON Schema's types: true and false are neither integers nor
    numbers, and an integral float such as 3.0 is an integer."""
    if name in ("integer", "number"):
        return not isinstance(value, bool) and (
            isinstance(value, int) or isinstance(value, float)
            and value.is_integer()
            or name == "number" and isinstance(value, numbers.Number))
    kind = {"string": str, "array": list, "object": dict}.get(name)
    if kind is None:
        raise NotImplementedError(f"schema type {name!r}")
    return isinstance(value, kind)


def _schema_fault(schema, value, path=(), root=None):
    """The first fault of value under schema, as (depth, pointer,
    message), or None; path is value's place in the document.  Keywords
    go in the schema's order, items and properties in order; a oneOf
    that no branch holds reports its deepest branch fault if no other
    lies as deep, else itself.  Messages and types are those of the
    Draft 2020-12 reference validator.  A keyword, or a keyword form,
    that scenario-1.schema.json does not use raises NotImplementedError.
    """
    root = schema if root is None else root
    for key, arg in schema.items():
        fault = message = name = None
        if key == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_is_type(value, t) for t in types):
                message = (f"{value!r} is not of type "
                           f"{', '.join(map(repr, types))}")
        elif key in ("const", "enum"):
            if not any(value == o and isinstance(o, bool) == isinstance(
                    value, bool) for o in ([arg] if key == "const" else arg)):
                message = (f"{arg!r} was expected" if key == "const"
                           else f"{value!r} is not one of {arg!r}")
        elif key in ("minLength", "minItems"):
            if (isinstance(value, str if key == "minLength" else list)
                    and len(value) < arg):
                message = f"{value!r} " + (
                    "should be non-empty" if arg == 1 else "is too short")
        elif key == "maxItems":
            if isinstance(value, list) and len(value) > arg:
                message = f"{value!r} is too long"
        elif key == "pattern":
            if isinstance(value, str) and not re.search(arg, value):
                message = f"{value!r} does not match {arg!r}"
        elif key in ("minimum", "exclusiveMinimum", "maximum"):
            if _is_type(value, "number") and (
                    value > arg if key == "maximum" else value <= arg
                    if key == "exclusiveMinimum" else value < arg):
                message = f"{value!r} is " + {
                    "minimum": "less than the minimum",
                    "exclusiveMinimum": "less than or equal to the minimum",
                    "maximum": "greater than the maximum"}[key] + f" of {arg!r}"
        elif key in ("items", "properties"):
            if isinstance(value, list if key == "items" else dict):
                subs = (enumerate([arg] * len(value)) if key == "items" else
                        [(k, sub) for k, sub in arg.items() if k in value])
                fault = next(filter(None, (
                    _schema_fault(sub, value[k], (*path, k), root)
                    for k, sub in subs)), None)
        elif key == "required":
            if isinstance(value, dict):
                name = next((k for k in arg if k not in value), None)
            if name is not None:
                message = f"{name!r} is a required property"
        elif key == "additionalProperties" and arg is False:
            extras = isinstance(value, dict) and sorted(
                set(value) - set(schema.get("properties", ())), key=str)
            if extras:
                message = ("Additional properties are not allowed ("
                           f"{', '.join(map(repr, extras))} "
                           f"{'was' if len(extras) == 1 else 'were'} "
                           "unexpected)")
        elif key == "oneOf":
            faults = [_schema_fault(sub, value, path, root) for sub in arg]
            held = [sub for sub, f in zip(arg, faults) if f is None]
            faults = sorted(filter(None, faults), key=lambda f: -f[0])
            if len(held) > 1:
                message = (f"{value!r} is valid under each of "
                           + ", ".join(map(repr, held[1:] + held[:1])))
            elif not held and len(faults) > 1 and faults[1][0] == faults[0][0]:
                message = (f"{value!r} is not valid under any of the given "
                           "schemas")
            elif not held:
                fault = faults[0]
        elif key == "$ref" and arg.startswith("#/"):
            target = reduce(dict.__getitem__, arg[2:].split("/"), root)
            fault = _schema_fault(target, value, path, root)
        elif key not in ("$schema", "$id", "title", "$defs"):
            raise NotImplementedError(f"schema keyword {key!r}: {arg!r}")
        if message:
            parts = path if name is None else (*path, name)
            return len(path), "/" + "/".join(map(str, parts)), message
        if fault:
            return fault
    return None


def _schema_check(doc):
    fault = _schema_fault(_load_schema("scenario-1.schema.json"), doc)
    if fault is not None:
        raise ScenarioError(fault[2], fault[1])


def _coeff(value, pointer):
    """Weight constant from JSON: int stays exact, strings go through
    Fraction so '3/8' and '0.375' both mean the exact rational."""
    if isinstance(value, float) and math.isfinite(value):
        return value
    if isinstance(value, (bool, float)):
        raise ScenarioError("weight constants must be finite numbers", pointer)
    if isinstance(value, int):
        return Fraction(value)
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(
            f"cannot read weight constant {value!r} as a rational", pointer
        ) from None


@dataclass(frozen=True)
class Scenario:
    """One validated scenario document and its space, ready to sample."""

    name: str
    dimension: int
    representation: str
    metric: tuple  # tuple of tuples of component source strings
    vector: tuple  # wind W^i (nav) or drift b_i (ab) source strings
    gauge: str | None
    weight: str | None
    constants: dict
    box: tuple  # tuple of (lo, hi) pairs
    points: int
    directions: int
    seed: int
    tolerances: dict
    description: str = ""
    defs: tuple = ()  # the subexpressions "$k" names, as source strings

    def space(self):
        """The scenario's one KropinaSpace, built and probe-checked on
        first use (at load, for a loaded scenario) and shared after."""
        return self._space

    @cached_property
    def _space(self):
        """The space of the source strings.

        The defs are parsed first, in order, so def k names only defs
        below k; then each distinct field string is parsed once, with the
        JSON pointer of its first use, so a mirrored metric entry shares
        the upper entry's tree.  A navigation space is checked for an
        h-unit wind at the probe points.
        """
        n = self.dimension
        refs, asts, depths = [], {}, {}

        def parse(text, pointer):
            if text not in asts:
                try:
                    ast = parse_expr(text, n, refs)
                except ExprError as e:
                    raise ScenarioError(str(e), pointer) from None
                except RecursionError:
                    ast = None
                if ast is None or _depth(ast.root, depths) > MAX_DEPTH:
                    raise ScenarioError(
                        f"expression nested deeper than {MAX_DEPTH} levels",
                        pointer)
                asts[text] = ast
            return asts[text]

        for k, text in enumerate(self.defs):
            refs.append(parse(text, f"/defs/{k}").root)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = parse(self.metric[i][j],
                                                f"/metric/{i}/{j}")
        metric = RiemannianMetric(n, tuple(tuple(row) for row in rows))
        vector = [parse(e, f"/vector/{i}") for i, e in enumerate(self.vector)]
        weight = None if self.weight is None else parse(self.weight, "/weight")
        if self.representation == "nav":
            gauge = None if self.gauge is None else parse(self.gauge, "/gauge")
            return KropinaSpace.from_nav(
                metric, vector, gauge=gauge, weight=weight, name=self.name,
                check_at=self.probe_points(),
            )
        return KropinaSpace.from_ab(metric, vector, weight=weight,
                                    name=self.name)

    def config(self):
        c = self.constants
        if "preset" in c:
            return weight_preset(c["preset"], self.dimension)
        return WeightConfig(
            _coeff(c["a"], "/constants/a"),
            _coeff(c["c"], "/constants/c"),
            self.dimension,
        )

    def tolerance(self, key, default):
        return float(self.tolerances.get(key, default))

    def probe_points(self):
        """Deterministic chart points used for load-time validation."""
        return _probe_plan(self.box, self.seed)[0]

    def as_dict(self):
        doc = {
            "schema": SCENARIO_SCHEMA_ID,
            "name": self.name,
            "dimension": self.dimension,
            "representation": self.representation,
            "metric": [list(r) for r in self.metric],
            "vector": list(self.vector),
            "constants": dict(self.constants),
            "box": [list(pair) for pair in self.box],
            "points": self.points,
            "directions": self.directions,
            "seed": self.seed,
        }
        if self.defs:
            doc["defs"] = list(self.defs)
        if self.gauge is not None:
            doc["gauge"] = self.gauge
        if self.weight is not None:
            doc["weight"] = self.weight
        if self.tolerances:
            doc["tolerances"] = dict(self.tolerances)
        if self.description:
            doc["description"] = self.description
        return doc


def _depth(node, memo):
    """The levels of node's DAG; memo maps id(m) to the depth of each
    node m measured so far."""
    depth = memo.get(id(node))
    if depth is None:
        depth = memo[id(node)] = 1 + max(
            (_depth(c, memo) for c in _children(node)), default=0)
    return depth


def _probe_plan(box, seed):
    """The load-time probe points (the box centre, then seeded uniform
    draws) and the generator that drew them."""
    box = np.asarray(box, dtype=float)
    rng = np.random.default_rng([int(seed), 0xAD0B17])
    pts = [0.5 * (box[:, 0] + box[:, 1])]
    for _ in range(_PROBE_POINTS - 1):
        pts.append(rng.uniform(box[:, 0], box[:, 1]))
    return [list(map(float, p)) for p in pts], rng


def load_trusted(doc, origin):
    """The scenario of doc, a document that holds to the schema: one the
    package wrote itself, which loads with no schema check, or one
    validated already; origin names it in error messages."""
    n = int(doc["dimension"])

    metric = doc["metric"]
    if len(metric) != n or any(len(row) != n for row in metric):
        raise ScenarioError(f"metric must be {n} x {n}", "/metric")
    for i in range(n):
        for j in range(i + 1, n):
            if metric[i][j] != metric[j][i]:
                raise ScenarioError(
                    "metric entries must match across the diagonal",
                    f"/metric/{i}/{j}",
                )

    vector = doc["vector"]
    if len(vector) != n:
        raise ScenarioError(f"vector needs {n} components", "/vector")

    gauge = doc.get("gauge")
    if gauge is not None and doc["representation"] == "ab":
        raise ScenarioError(
            "the ab representation derives its gauge from the drift",
            "/gauge",
        )

    constants = dict(doc.get("constants", {"preset": "plain"}))
    box = doc.get("box", [[-0.5, 0.5]] * n)
    if len(box) != n:
        raise ScenarioError(f"box needs {n} intervals", "/box")
    for i, (lo, hi) in enumerate(box):
        if not -np.inf < float(lo) < float(hi) < np.inf:
            raise ScenarioError(
                "box interval needs finite bounds and positive volume",
                f"/box/{i}")
    tolerances = dict(doc.get("tolerances", {}))
    for key, tol in tolerances.items():
        if not np.isfinite(tol):
            raise ScenarioError("tolerance not finite", f"/tolerances/{key}")

    scenario = Scenario(
        name=doc["name"],
        dimension=n,
        representation=doc["representation"],
        metric=tuple(tuple(row) for row in metric),
        vector=tuple(vector),
        gauge=gauge,
        weight=doc.get("weight"),
        constants=constants,
        box=tuple((float(lo), float(hi)) for lo, hi in box),
        points=int(doc.get("points", 4)),
        directions=int(doc.get("directions", 12)),
        seed=int(doc.get("seed", 0)),
        tolerances=tolerances,
        description=doc.get("description", ""),
        defs=tuple(doc.get("defs", ())),
    )

    try:
        space = scenario.space()
    except ScenarioError:
        raise
    except ExprError as e:
        raise ScenarioError(str(e), "/metric") from None
    except ValueError as e:
        # from_nav's unit-wind check, or a shape problem deeper down
        raise ScenarioError(f"{origin}: {e}", "/vector") from None

    # Resolve constants now so a bad preset fails at load, not mid-run.
    try:
        scenario.config()
    except ScenarioError:
        raise
    except ValueError as e:
        pointer = "/constants/preset" if "preset" in constants else "/constants"
        raise ScenarioError(str(e), pointer) from None

    rate = admissibility_rate(space, scenario.box, scenario.seed)
    if rate <= _ADMISSIBILITY_FLOOR:
        raise ScenarioError(
            f"admissible directions too rare: rate {rate:.3f} on the box "
            f"(needs > {_ADMISSIBILITY_FLOOR:.2f}); the drift is degenerate "
            "or the metric fails to evaluate on the chart"
        )
    return scenario


def _not_json(constant):
    raise ValueError(f"{constant} is not a JSON number")


def load_scenario(source):
    """Scenario from a builtin name, 'random:<seed>', a path, or a dict.

    A file's or a dict's document is validated against the schema first;
    a builtin or random document is written by this module and is not.
    """
    if isinstance(source, Scenario):
        return source
    if isinstance(source, dict):
        _schema_check(source)
        return load_trusted(source, origin="<dict>")
    text = str(source)
    if text in _BUILTINS:
        doc = json.loads(json.dumps(_BUILTINS[text]))
        return load_trusted(doc, origin=text)
    if text.startswith("random:"):
        tail = text[len("random:"):]
        try:
            seed = int(tail)
            if seed < 0:
                raise ValueError(seed)
        except ValueError:
            raise ScenarioError(
                f"random scenario wants a non-negative integer seed, "
                f"got {tail!r}"
            ) from None
        return load_trusted(random_scenario(seed), origin=text)
    path = Path(text)
    if not path.exists():
        raise ScenarioError(
            f"no builtin scenario or file named {text!r}; "
            f"builtins: {', '.join(builtin_names())}"
        )
    try:
        doc = json.loads(path.read_text(), parse_constant=_not_json)
    except ValueError as e:  # a JSONDecodeError or _not_json's refusal
        raise ScenarioError(f"invalid JSON in {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path} does not hold a scenario object")
    _schema_check(doc)
    return load_trusted(doc, origin=str(path))


# -- sampling -------------------------------------------------------------


def admissibility_rate(space, box, seed):
    """Fraction of isotropic random directions with beta = b_i y^i > 0.

    beta > 0 is the conic domain in both views (b_i = 2 e^{-2 rho} W_i),
    so the rate reads the (alpha, beta) view at the probe points.
    Evaluation failures of a_ij or b_i at a probe point count the whole
    point as inadmissible; a metric that cannot be evaluated on its own
    box is as unusable as an empty cone.
    """
    pts, rng = _probe_plan(box, seed)
    hits = 0
    for x in pts:
        try:
            _, b_low = evaluate(x, space.a, space.b)
        except (ExprError, ArithmeticError):
            continue
        ys = rng.standard_normal((_PROBE_DRAWS, space.dim))
        hits += int(np.sum(ys @ b_low > 0.0))
    return hits / (_PROBE_DRAWS * len(pts))


def sample_directions(space, x, count, rng, cutoff=DEFAULT_CUTOFF):
    """Admissible directions at x: uniform on the h-unit sphere with the
    degenerate cone boundary rejected (W_0 above the cutoff)."""
    h, w = evaluate(x, space.h, space.w)
    w_low = h @ w
    out = []
    tries = 0
    limit = 400 * count + 400
    while len(out) < count:
        tries += 1
        if tries > limit:
            raise ScenarioError(
                f"admissible directions too rare at {np.asarray(x).tolist()}: "
                f"{len(out)}/{count} after {tries} draws"
            )
        y = rng.standard_normal(space.dim)
        norm2 = float(y @ h @ y)
        if norm2 < 1e-16:
            continue
        y = y / np.sqrt(norm2)
        if float(w_low @ y) > cutoff:
            out.append(y)
    return out


def box_points(scenario, count, rng):
    box = np.asarray(scenario.box, dtype=float)
    return rng.uniform(box[:, 0], box[:, 1], size=(count, scenario.dimension))


def _sampling(scenario, key, override):
    """The scenario's points, directions or seed, or the override held
    to the schema's own subschema for that key."""
    if override is None:
        return getattr(scenario, key)
    # numpy integers are integers too, though JSON Schema knows only int
    override = int(override) if isinstance(override, np.integer) else override
    schema = _load_schema("scenario-1.schema.json")
    fault = _schema_fault(schema["properties"][key], override)
    if fault is not None:
        raise ScenarioError(f"{key} override: {fault[2]}", f"/{key}")
    return int(override)


def scenario_samples(
    scenario,
    points=None,
    directions=None,
    seed=None,
    cutoff=DEFAULT_CUTOFF,
):
    """The seeded sampling plan over the scenario's space:
    [(x, [y, ...]), ...].

    Deterministic for a fixed (scenario, seed); the scenario's own
    values apply unless an override is given, and an override outside
    the schema's bounds for that key raises ScenarioError.
    """
    space = scenario.space()
    rng = np.random.default_rng(_sampling(scenario, "seed", seed))
    n_pts = _sampling(scenario, "points", points)
    n_dirs = _sampling(scenario, "directions", directions)
    xs = box_points(scenario, n_pts, rng)
    return [
        (x, sample_directions(space, x, n_dirs, rng, cutoff=cutoff))
        for x in xs
    ]


# -- builtin scenarios ----------------------------------------------------

_EYE3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]

_BUILTINS = {
    "euclid_parallel": {
        "schema": SCENARIO_SCHEMA_ID,
        "name": "euclid_parallel",
        "description": "constant wind on flat space; Einstein in every regime",
        "dimension": 3,
        "representation": "nav",
        "metric": _EYE3,
        "vector": ["1", "0", "0"],
        "constants": {"preset": "pric"},
        "box": [[-0.6, 0.6], [-0.6, 0.6], [-0.6, 0.6]],
        "points": 3,
        "directions": 10,
        "seed": 7,
    },
    "s3_hopf": {
        "schema": SCENARIO_SCHEMA_ID,
        "name": "s3_hopf",
        "description": "unit Killing wind on the round 3-sphere",
        "dimension": 3,
        "representation": "nav",
        "metric": [
            ["1", "0", "0"],
            ["0", "sin(x1)^2", "0"],
            ["0", "0", "cos(x1)^2"],
        ],
        "vector": ["0", "1", "1"],
        "constants": {"a": 1, "c": 0},
        "box": [[0.5, 0.9], [0.1, 0.5], [0.3, 0.7]],
        "points": 3,
        "directions": 10,
        "seed": 11,
    },
    "s5_hopf": {
        "schema": SCENARIO_SCHEMA_ID,
        "name": "s5_hopf",
        "description": "unit Hopf wind on the round 5-sphere",
        "dimension": 5,
        "representation": "nav",
        "metric": [
            ["1", "0", "0", "0", "0"],
            ["0", "sin(x1)^2", "0", "0", "0"],
            ["0", "0", "cos(x1)^2", "0", "0"],
            ["0", "0", "0", "sin(x1)^2*cos(x2)^2", "0"],
            ["0", "0", "0", "0", "sin(x1)^2*sin(x2)^2"],
        ],
        "vector": ["0", "0", "1", "1", "1"],
        "constants": {"a": 1, "c": 0},
        "box": [[0.5, 0.9], [0.4, 0.8], [0.1, 0.5], [0.3, 0.7], [0.2, 0.6]],
        "points": 3,
        "directions": 10,
        "seed": 23,
    },
    "euclid_gaussian": {
        "schema": SCENARIO_SCHEMA_ID,
        "name": "euclid_gaussian",
        "description": "flat wind with a quadratic weight; weakly weighted Einstein",
        "dimension": 3,
        "representation": "nav",
        "metric": _EYE3,
        "vector": ["1", "0", "0"],
        "weight": "0.1*(x1^2 + x2^2 + x3^2)",
        "constants": {"a": 1, "c": 0},
        "box": [[-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5]],
        "points": 3,
        "directions": 10,
        "seed": 13,
    },
    "euclid_twist": {
        "schema": SCENARIO_SCHEMA_ID,
        "name": "euclid_twist",
        "description": "unit wind twisting with x2; fails the checkers by design",
        "dimension": 3,
        "representation": "nav",
        "metric": _EYE3,
        "vector": ["cos(0.5*x2)", "sin(0.5*x2)", "0"],
        "constants": {"preset": "ricInf"},
        "box": [[-0.6, 0.6], [-0.6, 0.6], [-0.6, 0.6]],
        "points": 3,
        "directions": 10,
        "seed": 17,
    },
    "torus_wind": {
        "schema": SCENARIO_SCHEMA_ID,
        "name": "torus_wind",
        "description": "periodic coefficients in the (alpha, beta) representation",
        "dimension": 3,
        "representation": "ab",
        "metric": [
            ["1.3 + 0.2*sin(x1)", "0.1*cos(x3)", "0"],
            ["0.1*cos(x3)", "1.1", "0"],
            ["0", "0", "1 + 0.1*cos(x2)"],
        ],
        "vector": ["1 + 0.2*sin(x2)", "0.3*cos(x1)", "0.2"],
        "weight": "0.1*sin(x1 + x2)",
        "constants": {"a": 1, "c": 0},
        "box": [[0.2, 1.2], [0.3, 1.1], [0.1, 0.9]],
        "points": 3,
        "directions": 10,
        "seed": 19,
    },
}


def builtin_names():
    return sorted(_BUILTINS)


def builtin_summaries():
    """(name, dimension, representation, description) rows for listings."""
    rows = []
    for name in builtin_names():
        doc = _BUILTINS[name]
        rows.append(
            (name, doc["dimension"], doc["representation"],
             doc.get("description", ""))
        )
    return rows


def random_scenario(seed, dimension=3):
    """Seeded scenario with small polynomial coefficients, ab form.

    Perturbations stay well inside positive definiteness on the box, so
    every generated scenario is admissible; the same seed reproduces the
    same document byte for byte.
    """
    if dimension not in (2, 3, 4, 5, 6):
        raise ScenarioError("random scenarios support dimensions 2..6")
    n = dimension
    rng = np.random.default_rng([int(seed), 0x5EED])

    def coeff(scale):
        return format(float(rng.uniform(-scale, scale)), ".4f")

    metric = [["0"] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        metric[i][i] = (
            f"1 + {coeff(0.06)}*x{i + 1}^2 + {coeff(0.05)}*x{j + 1}"
        )
    for i in range(n):
        for j in range(i + 1, n):
            entry = f"{coeff(0.04)}*x{(j % n) + 1}"
            metric[i][j] = entry
            metric[j][i] = entry

    vector = [f"1 + {coeff(0.1)}*x{(i % n) + 1}" if i == 0
              else f"{coeff(0.15)} + {coeff(0.1)}*x{(i % n) + 1}"
              for i in range(n)]
    weight = f"{coeff(0.1)}*x1 + {coeff(0.08)}*x2^2"

    return {
        "schema": SCENARIO_SCHEMA_ID,
        "name": f"random_{int(seed)}",
        "description": "seeded polynomial-coefficient scenario",
        "dimension": n,
        "representation": "ab",
        "metric": metric,
        "vector": vector,
        "weight": weight,
        "constants": {"a": 1, "c": 0},
        "box": [[-0.35, 0.35]] * n,
        "points": 3,
        "directions": 8,
        "seed": int(seed),
    }
