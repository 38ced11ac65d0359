"""One pass per chart point: the batched curvature samples, drift
invariants and closed forms against the per-direction routes.

A ChartPoint runs every direction of its block through the generic and
the closed routes at once.  Each row must carry the bits that the route
of its direction alone gives (oracles.staged_sample, DirectionInvariants,
closed_per_direction), whatever the batch: one direction, two, ten, and
one that holds a direction twice.  A direction that fails fails the
whole block with the per-direction route's error, and caches nothing.
"""
import numpy as np
import pytest

from kropina.einstein import WeightConfig, ric_ac, weight_preset
from kropina.forms import (
    HypothesisNotMetError,
    hess_f_closed,
    kropina_ricci_closed,
    kropina_spray_closed,
    nav_ricci_isotropic,
    nav_spray,
    s_bh_closed,
    s_closed,
    s_dot_closed,
)
from kropina.generic import (
    ConicDomainError,
    FinslerEvaluator,
    curvature_samples,
)
from kropina.jets import Jet
from kropina.riemann import SingularMetricError
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
    chart_point,
    closed_per_direction,
    flat_wind,
    jets_by_direction,
    log_density,
    loop_evaluator,
    ric_ac_per_direction,
    sample_row,
    staged_sample,
)

SOURCES = [*builtin_names(), flat_wind(4),
           *(random_scenario(3, n) for n in range(2, 7))]
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
        ref = loop_evaluator(space)
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
                got = getattr(inv, name)
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


def quartic_evaluator():
    """F = (y1^4 + y2^4)^(1/4) on the plane: g is singular along the
    axes, where the unit circle is flat to third order, and regular
    elsewhere."""

    def at(x):
        def f(y):
            q = y[0] * y[0] * y[0] * y[0] + y[1] * y[1] * y[1] * y[1]
            return q.sqrt().sqrt() if isinstance(q, Jet) else np.sqrt(
                np.sqrt(q))
        return f

    def domain_at(x):
        return lambda y: np.ones(np.shape(y[0]), dtype=bool)

    return FinslerEvaluator(dim=2, at=at, domain_at=domain_at,
                            name="quartic", jets_at=jets_by_direction(at))


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
    # the route refuses the direction before any jet work, so it runs on
    # the point's own evaluator, whose name the message carries
    alone = _error(lambda: staged_sample(pt.evaluator, x, out,
                                         *pt.log_densities))
    assert alone[0] is ConicDomainError
    assert _error(lambda: pt.samples) == alone
    assert _error(lambda: pt.inv) == _error(
        lambda: DirectionInvariants(pt.fld, out))
    assert "samples" not in vars(pt) and "inv" not in vars(pt)
    assert _error(lambda: pt.samples) == alone

    F = quartic_evaluator()
    x = [0.1, -0.2]
    log_sigma = log_density(lambda p: 1.0, x)
    flat = [1.0, 0.0]
    alone = _error(lambda: staged_sample(F, x, flat, log_sigma))
    assert alone == (SingularMetricError,
                     "fundamental tensor is numerically singular")
    assert _error(lambda: curvature_samples(
        F, x, [[1.0, 0.5], flat, [0.3, 0.9]], log_sigma)) == alone
    curvature_samples(F, x, [[1.0, 0.5], [0.3, 0.9]], log_sigma)
