"""Record-then-replay evaluation: a replayed tape gives the walk's bits
and the walk's errors."""
import math

import numpy as np
import pytest

from kropina import expr
from kropina.expr import ExprDomainError, eval_expr, parse_expr
from kropina.jets import Jet, jet_space
from kropina.scenarios import builtin_names, load_scenario, random_scenario
from kropina.workbench import run_convert

# the only NaN these tests make (ROADMAP: a NaN that meets a NaN of the
# other sign takes a sign set by numpy's loop, not by the operation)
NAN = math.inf * 0.0


def _scenarios():
    sources = [load_scenario(name) for name in builtin_names()]
    sources += [load_scenario(random_scenario(s, n))
                for s in (1, 2) for n in range(2, 7)]
    for sc in sources:
        yield sc
        other = "nav" if sc.representation == "ab" else "ab"
        yield load_scenario(run_convert(sc, other).emitted)


def _tree_sets(space):
    a = [e for row in space.a.exprs for e in row]
    h = [e for row in space.h.exprs for e in row]
    named = [e for e in (space.gauge, space.rho, space.weight)
             if e is not None]
    return [[*a, *space.b], [*h, *space.w], [*space.b_up, *named]]


def _environments(box, orders):
    """Floats at the box centre, single and block jet seeds of each
    order, and arrays over the box with signed zeros, inf and a NaN."""
    box = np.asarray(box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    mid = 0.5 * (lo + hi)
    n = len(mid)
    envs = [[float(v) for v in mid]]
    for order in orders:
        space = jet_space(n, order)
        block = np.stack([mid, lo + 0.3 * (hi - lo)])
        envs += [space.seed(mid), space.seed(block)]
    grid = np.stack([lo, mid, hi, np.zeros(n), -np.zeros(n),
                     np.full(n, math.inf), np.full(n, NAN)], axis=1)
    envs.append(list(grid))
    return envs


def _bits(value):
    if isinstance(value, Jet):
        return "Jet", value.coef.shape, value.coef.tobytes()
    a = np.asarray(value)
    return type(value).__name__, a.dtype.str, a.shape, a.tobytes()


@pytest.fixture
def walks(monkeypatch):
    """The number of walks eval_expr has run since the fixture was made."""
    count = []
    real = expr._walk
    monkeypatch.setattr(
        expr, "_walk", lambda *args: count.append(1) or real(*args))
    return count


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_replay_has_the_bits_of_the_walk(walks):
    """Each tree set of every builtin, of random documents in dimensions
    2..6 and of each one's converted document is walked at every
    environment, then the last walk's tape replays at them all."""
    for sc in _scenarios():
        orders = (2, 4) if sc.dimension <= 3 else (2,)
        envs = _environments(sc.box, orders)
        for asts in _tree_sets(sc.space()):
            roots = tuple(e.root for e in asts)
            walked = []
            for env in envs:
                expr._TAPES.pop(roots, None)
                walked.append([_bits(v) for v in eval_expr(asts, env)])
            assert roots in expr._TAPES
            before = len(walks)
            for env, bits in zip(envs, walked):
                assert [_bits(v) for v in eval_expr(asts, env)] == bits
            assert len(walks) == before, f"{sc.name}: a replay walked"


def test_signed_zeros_keep_their_bits_on_replay(walks):
    asts = [parse_expr(t, 1)
            for t in ("-x1", "x1*0", "0 - x1", "-(x1 - x1)")]
    for x in (0.0, -0.0, 2.0, -2.0):
        expr._TAPES.pop(tuple(e.root for e in asts), None)
        walked = [_bits(v) for v in eval_expr(asts, [x])]
        assert [_bits(v) for v in eval_expr(asts, [x])] == walked
    assert len(walks) == 4


@pytest.mark.parametrize("text, good, bad, message", [
    ("x1 + 1/(x1 - 1)", 2.0, 1.0, "division by zero"),
    ("x1 + (x1 - 1)^-2", 2.0, 1.0, "zero base with negative exponent"),
    ("x1 + ln(x1 - 1)", 2.0, 0.5, "ln of nonpositive value -0.5"),
    ("x1 + sqrt(x1 - 1)", 2.0, 0.5, "sqrt of negative value -0.5"),
    ("x1 + exp(1000*x1)", 0.1, 1.0, "range overflow"),
    ("x1 + (1e200*x1)^2", 1e-150, 1.0, "range overflow"),
])
def test_a_failing_replay_raises_the_walks_error(text, good, bad, message):
    """The tape is recorded at a good point and replayed at a bad one."""
    ast = parse_expr(text, 1)
    node = ast.root.rhs
    eval_expr(ast, [good])
    assert (ast.root,) in expr._TAPES
    with pytest.raises(ExprDomainError) as err:
        eval_expr(ast, [bad])
    assert str(err.value) == f"{message} in '{expr.print_node(node)}'"
    assert err.value.node is node


def test_a_failing_jet_replay_raises_the_walks_error():
    ast = parse_expr("x1 + 1/(x1 - 1)", 1)
    eval_expr(ast, jet_space(1, 2).seed([2.0]))
    with pytest.raises(ExprDomainError) as err:
        eval_expr(ast, jet_space(1, 2).seed([1.0]))
    assert str(err.value).startswith("division by zero in ")
    assert err.value.node is ast.root.rhs


def test_the_first_failure_in_walk_order_wins_on_replay():
    """Across a sequence the walk's first failing node names the error,
    also where a later root holds a node the walk reaches first."""
    exprs = [parse_expr("x2 + 1/(x1 - 1)", 2), parse_expr("ln(x1 - 1)", 2),
             parse_expr("ln(x1 - 1)/x2 + sqrt(x2 - 2)", 2)]
    eval_expr(exprs, [2.0, 3.0])
    with pytest.raises(ExprDomainError) as err:
        eval_expr(exprs, [1.0, 1.0])
    assert str(err.value) == "division by zero in '1.0 / (x1 - 1.0)'"
    assert err.value.node is exprs[0].root.rhs
    eval_expr(exprs[1:], [2.0, 3.0])
    with pytest.raises(ExprDomainError) as err:
        eval_expr(exprs[1:], [0.5, 1.0])
    assert str(err.value) == "ln of nonpositive value -0.5 in 'ln(x1 - 1.0)'"
    assert err.value.node is exprs[1].root


def test_a_full_cache_keeps_the_newest_tapes_and_evaluates_the_rest(
        monkeypatch, walks):
    monkeypatch.setattr(expr, "_TAPES", {})
    limit = expr._TAPE_LIMIT
    asts = [parse_expr(f"x1*x2 + {k}", 2) for k in range(limit + 3)]
    for k, ast in enumerate(asts):
        assert eval_expr(ast, [2.0, 3.0]) == 6.0 + k
    assert len(expr._TAPES) == limit
    assert (asts[0].root,) not in expr._TAPES
    assert (asts[-1].root,) in expr._TAPES
    before = len(walks)
    assert eval_expr(asts[-1], [0.5, 4.0]) == 2.0 + limit + 2
    assert len(walks) == before
    # an evicted tree set is walked, and recorded, again
    assert eval_expr(asts[0], [0.5, 4.0]) == 2.0
    assert len(walks) == before + 1 and len(expr._TAPES) == limit
    assert (asts[0].root,) in expr._TAPES
