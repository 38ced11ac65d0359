"""One pass per chart point and one generic pass per run: the batched
curvature samples, drift invariants and closed forms against the
per-direction routes, and a run's samples against each point's alone.

A ChartPoint runs every direction of its block through the generic and
the closed routes at once.  Each row must carry the bits that the route
of its direction alone gives (oracles.staged_sample, DirectionInvariants,
closed_per_direction), whatever the batch: one direction, two, ten, and
one that holds a direction twice.  A direction that fails fails the
whole block with the per-direction route's error, and caches nothing.

The chart points of one run (einstein.chart_points) share one
curvature_samples call over all of their blocks.  Each point must get
the bits of its run of one, whatever the sizes of the other blocks.

The rest of a run's x-stage is stacked too: one order-2 tree pass and
one order-4 pass of a_ij and b_i over the seeds of a block of chart
points, and one log_densities call on the tree pass's arrays as they
are, strided views with a leading point axis.  Each point's slice must
have the bits of its own pass.  A run that has a point at fault stores
no stage, and every point computes alone: the one at fault must fail as
it fails alone, the others keeping the bits of their runs of one.
"""
from dataclasses import fields, replace

import numpy as np
import pytest

from kropina.einstein import (
    ChartPoint,
    WeightConfig,
    _tree_pass,
    chart_points,
    ric_ac,
    thm41_check,
    weight_preset,
)
from kropina.expr import ExprDomainError
from kropina.forms import (
    HypothesisNotMetError,
    hess_f_closed,
    kropina_ricci_closed,
    kropina_spray_closed,
    log_densities,
    nav_ricci_isotropic,
    nav_spray,
    s_bh_closed,
    s_closed,
    s_dot_closed,
)
from kropina.generic import ConicDomainError, CurvatureSample, curvature_samples
from kropina.jets import Jet, jet_space
from kropina.riemann import SingularMetricError, evaluate
from kropina.scenarios import (
    COMPARISON_CUTOFF,
    builtin_names,
    load_scenario,
    random_scenario,
    scenario_samples,
)
from oracles import (
    DIRECTION_INVARIANTS,
    DirectionInvariants,
    LoopMetric,
    LoopStage,
    chart_point,
    closed_per_direction,
    flat_wind,
    log_density,
    loop_metric,
    point_samples,
    ric_ac_per_direction,
    sample_row,
    staged_sample,
)

SOURCES = [*builtin_names(), flat_wind(4),
           *(random_scenario(3, n) for n in range(2, 7))]
# DIRECTION_INVARIANTS that do not depend on y: AbFields holds them
FIELD_SCALARS = ("r_scalar", "div_s", "sksk", "ss")
SAMPLE_FIELDS = ("g", "spray", "connection", "riemann", "ricci", "tau", "s",
                 "sdot", "s_bh")


def _source_id(source):
    return source if isinstance(source, str) else (
        f"{source['name']}_{source['dimension']}")


def _bits(v):
    v = np.asarray(v, dtype=float)
    return v.shape, v.tobytes()


def _batches(source):
    """(space, x, batch) for the batch sizes 1, 2 and 10 at one sampled
    chart point, and a batch that holds a direction twice."""
    sc = load_scenario(source)
    [(x, ys)] = scenario_samples(sc, points=1, directions=10, seed=3,
                                 cutoff=COMPARISON_CUTOFF)
    space = sc.space()
    for batch in (ys[:1], ys[:2], ys, [ys[1], ys[0], ys[1]]):
        yield space, x, batch


@pytest.mark.parametrize("source", SOURCES, ids=_source_id)
def test_batched_samples_equal_the_per_direction_route(source):
    """Every field of every row of a chart point's curvature samples has
    the bits of the staged sample of its direction alone."""
    rows = 0
    for space, x, batch in _batches(source):
        pt = chart_point(space, x, batch)
        ref = loop_metric(space)
        for k, y in enumerate(pt.ys):
            got = sample_row(pt.samples, k)
            want = staged_sample(ref, pt.x, y, *pt.log_densities)
            for name in SAMPLE_FIELDS:
                assert _bits(getattr(got, name)) == _bits(
                    getattr(want, name)), (k, name)
            rows += 1
    assert rows == 1 + 2 + 10 + 3


@pytest.mark.parametrize("source", SOURCES, ids=_source_id)
def test_batched_invariants_and_closed_forms_equal_the_per_direction_route(
        source):
    """Every AbInvariants contraction, every closed form verify compares
    and ric_ac have, row by row, the bits of the route of one direction
    and one float at a time."""
    forms = {
        "spray": kropina_spray_closed, "ricci": kropina_ricci_closed,
        "s-curvature": s_bh_closed, "s-weighted": s_closed,
        "s-dot": s_dot_closed, "weight-hessian": hess_f_closed,
    }
    for space, x, batch in _batches(source):
        pt = chart_point(space, x, batch)
        inv = pt.inv
        closed = {name: form(inv) for name, form in forms.items()}
        closed["nav-spray"] = nav_spray(pt.nav, pt.ys)
        try:
            closed["nav-ricci"] = nav_ricci_isotropic(pt.nav, pt.ys)
        except HypothesisNotMetError:
            closed["nav-ricci"] = None
        weighted = {cfg: ric_ac(inv, cfg) for cfg in (
            weight_preset("ricInf", space.dim),
            WeightConfig(0.7, -1.3, space.dim))}
        for k, y in enumerate(pt.ys):
            one = DirectionInvariants(pt.fld, y)
            for name in DIRECTION_INVARIANTS:
                # the direction-free scalars are the bundle's
                got = getattr(pt.fld if name in FIELD_SCALARS else inv, name)
                got = got[k] if np.ndim(got) else got
                assert _bits(got) == _bits(getattr(one, name)), (k, name)
            want = closed_per_direction(pt.fld, y, nav=pt.nav)
            for name, value in closed.items():
                if want[name] is None:
                    assert value is None, name
                    continue
                assert _bits(value[k]) == _bits(want[name]), (k, name)
            for cfg, value in weighted.items():
                assert _bits(value[k]) == _bits(
                    ric_ac_per_direction(pt.fld, cfg, y)), (k, cfg)


def quartic_metric():
    """F = (y1^4 + y2^4)^(1/4) on the plane: g is singular along the
    axes, where the unit circle is flat to third order, and regular
    elsewhere."""

    def f(y):
        q = y[0] * y[0] * y[0] * y[0] + y[1] * y[1] * y[1] * y[1]
        return q.sqrt().sqrt() if isinstance(q, Jet) else np.sqrt(np.sqrt(q))

    stage = LoopStage(f, lambda y: np.ones(np.shape(y[0]), dtype=bool))
    return LoopMetric(dim=2, at=lambda x: stage, name="quartic")


def _error(call):
    with pytest.raises(ValueError) as info:
        call()
    return type(info.value), str(info.value)


def test_one_failing_direction_fails_the_block_as_it_fails_alone():
    """A block with one direction outside the cone raises the
    per-direction route's ConicDomainError, in the generic and the
    closed route, and one with a numerically singular g its
    SingularMetricError; the point caches no partial result."""
    sc = load_scenario("s3_hopf")
    space = sc.space()
    [(x, ys)] = scenario_samples(sc, points=1, directions=3,
                                 cutoff=COMPARISON_CUTOFF)
    out = -ys[1]
    pt = chart_point(space, x, [ys[0], out, ys[2]])
    # the route refuses the direction before any jet work; it runs on
    # the loop metric named as the point's stage, whose name the message
    # carries
    ref = replace(loop_metric(space), name=pt.stage.name)
    alone = _error(lambda: staged_sample(ref, x, out, *pt.log_densities))
    assert alone[0] is ConicDomainError
    assert _error(lambda: pt.samples) == alone
    assert _error(lambda: pt.inv) == _error(
        lambda: DirectionInvariants(pt.fld, out))
    assert "samples" not in vars(pt) and "inv" not in vars(pt)
    assert _error(lambda: pt.samples) == alone

    F = quartic_metric()
    x = [0.1, -0.2]
    log_sigma = log_density(lambda p: 1.0, x)
    flat = [1.0, 0.0]
    alone = _error(lambda: staged_sample(F, x, flat, log_sigma))
    assert alone == (SingularMetricError,
                     "fundamental tensor is numerically singular")
    assert _error(lambda: point_samples(
        F.stage(x), [[1.0, 0.5], flat, [0.3, 0.9]], log_sigma)) == alone
    point_samples(F.stage(x), [[1.0, 0.5], [0.3, 0.9]], log_sigma)


# -- one generic pass per run ---------------------------------------------------

RUN_SOURCES = [*builtin_names(), *(random_scenario(3, n) for n in range(2, 7))]
# ragged blocks: the directions of the run's three points
RUN_BLOCKS = (1, 3, 10)


def _run_plan(source, blocks=RUN_BLOCKS):
    """(space, plan): sampled chart points of the source, one per entry
    of blocks, each with that many of its directions."""
    sc = load_scenario(source)
    samples = scenario_samples(sc, points=len(blocks), directions=10,
                               seed=3, cutoff=COMPARISON_CUTOFF)
    return sc.space(), [(x, ys[:size])
                        for (x, ys), size in zip(samples, blocks)]


def _same_bits(got: CurvatureSample, want: CurvatureSample):
    for f in fields(CurvatureSample):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), f.name


X_STAGE = {"_trees", "log_densities", "stage", "samples"}


@pytest.mark.parametrize("source", RUN_SOURCES, ids=_source_id)
def test_a_run_gives_each_point_the_bits_of_its_run_of_one(source):
    """chart_points fills the trees, log densities, stage and samples of
    every point of its run, a run of three or a run of one, and each
    has the bits of the same point built alone, which computes them on
    first read: the trees and densities array for array, the stage's
    jets (from the run's one order-4 pass) num and den, and the samples
    field for field; s_bh is s itself where there is no unit-ball
    density of its own."""
    for blocks in (RUN_BLOCKS, (3,)):
        space, plan = _run_plan(source, blocks)
        run = chart_points(space, plan)
        assert len(run) == len(blocks)
        for pt, (x, ys) in zip(run, plan):
            assert X_STAGE <= set(vars(pt))
            alone = ChartPoint(space, x, ys)
            for got, want in zip(pt._trees, alone._trees):
                assert _bits(got) == _bits(want)
            for got, want in zip(pt.log_densities, alone.log_densities):
                assert (got is None) is (want is None)
                if want is not None:
                    assert _bits(got.coef) == _bits(want.coef)
            for got, want in zip(pt.stage.jets(pt.ys), alone.stage.jets(ys)):
                assert _bits(got) == _bits(want)
            got = pt.samples
            _same_bits(got, alone.samples)
            assert len(got.y) == len(ys)
            if pt.log_densities[1] is None:
                assert got.s_bh is got.s
            else:
                assert got.s_bh is not got.s


def _x_stage(pt):
    """The names of the x-stage bundles the point holds."""
    return X_STAGE & set(vars(pt))


def _cone_fault_plan():
    """Three s3_hopf chart points whose middle one has a direction
    outside the cone."""
    space, plan = _run_plan("s3_hopf")
    x, ys = plan[1]
    plan[1] = (x, [ys[0], -ys[1], ys[2]])
    return space, plan


def test_a_failing_point_fails_alone_and_its_run_keeps_the_others():
    """In a run of three s3_hopf points whose middle point has a
    direction outside the cone, the outer points keep the bits of their
    runs of one, and the middle one raises its own error on every read
    and caches nothing.  A curvature_samples call over three
    quartic_metric blocks whose middle one has a singular g raises the
    error that block raises alone."""
    space, plan = _cone_fault_plan()
    run = chart_points(space, plan)
    alone = [ChartPoint(space, x, ys) for x, ys in plan]
    error = _error(lambda: alone[1].samples)
    assert error[0] is ConicDomainError
    for _ in range(2):
        assert _error(lambda: run[1].samples) == error
        assert "samples" not in vars(run[1])
    for k in (0, 2):
        _same_bits(run[k].samples, alone[k].samples)

    F = quartic_metric()
    x = [0.1, -0.2]
    log_sigma = log_density(lambda p: 1.0, x)
    blocks = [[[1.0, 0.5]], [[1.0, 0.5], [1.0, 0.0], [0.3, 0.9]],
              [[0.3, 0.9], [-0.7, 0.2]]]
    error = _error(lambda: point_samples(F.stage(x), blocks[1], log_sigma))
    assert error[0] is SingularMetricError
    assert _error(lambda: curvature_samples(
        [(F.stage(x), ys, log_sigma, None) for ys in blocks])) == error


def test_a_run_with_a_point_at_fault_fills_no_point_partly():
    """A run whose stacked passes raise stores no x-stage bundle on any
    of its points, so each computes alone on first read, a run of one
    as a run of three; a healthy run of three, or of one, stores all
    four on every point."""
    space, plan = _cone_fault_plan()
    for run in (plan, plan[1:2]):
        for pt in chart_points(space, run):
            assert _x_stage(pt) == set()
    for blocks in (RUN_BLOCKS, (3,)):
        healthy = chart_points(*_run_plan("s3_hopf", blocks))
        assert len(healthy) == len(blocks)
        for pt in healthy:
            assert _x_stage(pt) == X_STAGE


def test_a_checker_over_a_failing_run_raises_as_over_points_alone(
        monkeypatch):
    """thm41 over three s3_hopf points whose middle one has a direction
    outside the cone raises the error it raises over three runs of one
    (its fits need five directions a point), and run_check writes the
    same report, ERROR entry and all, from a run as from runs of one."""
    import kropina.workbench as workbench

    space, plan = _run_plan("s3_hopf", (5, 7, 10))
    x, ys = plan[1]
    plan[1] = (x, [ys[0], -ys[1], *ys[2:]])
    cfg = weight_preset("ricInf", space.dim)
    error = _error(lambda: thm41_check(
        [ChartPoint(space, x, ys) for x, ys in plan], cfg))
    assert error[0] is ConicDomainError
    assert _error(lambda: thm41_check(chart_points(space, plan), cfg)
                  ) == error

    monkeypatch.setattr(workbench, "scenario_samples",
                        lambda *args, **kwargs: plan)
    batched = workbench.run_check("s3_hopf").to_json(timings=False)
    monkeypatch.setattr(workbench, "chart_points", lambda space, samples: [
        ChartPoint(space, x, ys) for x, ys in samples])
    doc = workbench.run_check("s3_hopf")
    assert [c["verdict"] for c in doc.checks] == ["ERROR", "ERROR"]
    assert doc.checks[0]["error"] == error[1]
    assert batched == doc.to_json(timings=False)


# -- one x-stage per run ---------------------------------------------------------

STACK_SOURCES = [*builtin_names(), *(random_scenario(s, n) for s in (1, 2)
                                     for n in range(2, 7))]


def _tree_parts(space):
    """Every tree a chart point reads, as its order-2 pass takes them."""
    return (space.a, space.b_up, space.h, space.w, space.gauge) + (
        () if space.weight is None else (space.weight,))


def _block(source):
    """(space, xs): three sampled chart points of the source, (3, n)."""
    sc = load_scenario(source)
    samples = scenario_samples(sc, points=3, directions=1, seed=5)
    return sc.space(), np.array([x for x, _ in samples])


@pytest.mark.parametrize("source", STACK_SOURCES, ids=_source_id)
def test_tree_passes_over_a_block_give_each_point_its_bits(source):
    """riemann.evaluate over the seeds of a (P, n) block of chart
    points, to order 2 of every tree a chart point reads and to order 4
    of a_ij and b_i, gives each point a C-contiguous slice with the bits
    of the same evaluation at its x alone."""
    space, xs = _block(source)
    for order, parts in ((2, _tree_parts(space)), (4, (space.a, space.b))):
        sp = jet_space(space.dim, order)
        block = evaluate(sp.seed(xs), *parts)
        for k, x in enumerate(xs):
            alone = evaluate(sp.seed(x), *parts)
            assert len(block) == len(alone)
            for got, want in zip(block, alone):
                assert got[k].flags.c_contiguous
                assert _bits(got[k]) == _bits(want), (order, k)


@pytest.mark.parametrize("source", STACK_SOURCES, ids=_source_id)
def test_log_densities_of_a_block_give_each_point_its_bits(source):
    """forms.log_densities over the stacked trees of three chart points,
    a batch of metrics a_ij with batches of gauges and weights, gives
    each point the bits of its own call (a ChartPoint's log_densities):
    both over the arrays np.stack makes of the points' trees and over
    the strided views one tree pass over their block gives, which
    chart_points hands it as they are."""
    space, xs = _block(source)
    points = [ChartPoint(space, x, ()) for x in xs]
    trees = [pt._trees for pt in points]
    sp = jet_space(space.dim, 2)
    stacked = _tree_pass(space, xs)
    assert not stacked[0].flags.c_contiguous
    for a, scalars in (
            (np.stack([t[0] for t in trees]),
             [np.stack(parts) for parts in zip(*(t[4:] for t in trees))]),
            (stacked[0], stacked[4:])):
        log_sigma, log_bh = log_densities(a, *(Jet(sp, c) for c in scalars))
        for k, pt in enumerate(points):
            want_sigma, want_bh = pt.log_densities
            assert _bits(log_sigma.coef[k]) == _bits(want_sigma.coef)
            assert (log_bh is None) is (want_bh is None)
            if want_bh is not None:
                assert _bits(log_bh.coef[k]) == _bits(want_bh.coef)


def _ab_document(a11, weight=None):
    """An (alpha, beta) space on the 3-box whose a_11 is the text a11,
    with b = dx1 and the given weight."""
    doc = {
        "schema": "scenario/1", "name": "stack_fault", "dimension": 3,
        "representation": "ab",
        "metric": [[a11, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "vector": ["1", "0", "0"],
        "constants": {"a": 1, "c": 0},
        "box": [[-0.5, 0.5]] * 3, "points": 3, "directions": 3, "seed": 1,
    }
    if weight is not None:
        doc["weight"] = weight
    return doc


def _outcome(read):
    """None when read() returns, else the type and message it raises."""
    try:
        read()
    except ValueError as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("a11, weight, bad_x1", [
    ("1", "ln(x1 + 1)", -1.2),         # the weight's ln at -0.2
    ("1 + sqrt(x1^2)", None, 0.0),     # sqrt of a zero jet value; F is
                                       # defined there over floats
    ("1 + ln(x1 + 1)", None, -1.1),    # the float stage fails too
], ids=["ln-weight", "sqrt-metric", "ln-metric"])
def test_a_point_failing_a_stacked_pass_fails_alone(a11, weight, bad_x1):
    """In a run of three chart points whose middle one fails the
    stacked tree pass, by a ln or a sqrt whose argument has a value out
    of the jet's domain there, every read of that point (its trees,
    bundle, densities, stage and samples) returns or raises what the
    same point built alone does, on every read, and the outer points
    keep every bit of their runs of one.  The stacked tree pass raises,
    so the run stores nothing and every point computes alone."""
    space = load_scenario(_ab_document(a11, weight)).space()
    ys = [[1.0, 0.2, -0.1], [0.8, -0.3, 0.5], [1.2, 0.4, 0.3]]
    plan = [([0.3, 0.1, -0.2], ys), ([bad_x1, 0.2, 0.1], ys),
            ([0.25, -0.1, 0.3], ys)]
    run = chart_points(space, plan)
    alone = [ChartPoint(space, x, ys) for x, ys in plan]
    error = _outcome(lambda: alone[1]._trees)
    assert error is not None and error[0] is ExprDomainError
    for name in ("_trees", "fld", "log_densities", "stage", "samples"):
        want = _outcome(lambda: getattr(alone[1], name))
        for _ in range(2):
            assert _outcome(lambda: getattr(run[1], name)) == want, name
    assert _outcome(lambda: run[1].samples) is not None
    assert "samples" not in vars(run[1])
    for k in (0, 2):
        _same_bits(run[k].samples, alone[k].samples)
        for got, want in zip(run[k]._trees, alone[k]._trees):
            assert _bits(got) == _bits(want)
