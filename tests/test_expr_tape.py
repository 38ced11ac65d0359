"""Tape evaluation: each tree set compiles to a tape once, and every run
of it has the bits and the errors of a recursive walk of its DAG
(oracles.eval_tree_oracle)."""
import gc
import math
import struct

import numpy as np
import pytest

from kropina import expr
from kropina.expr import (
    Add, Const, ExprDomainError, Mul, Var, as_ast, eval_expr, parse_expr)
from kropina.jets import Jet, jet_space
from kropina.scenarios import builtin_names, load_scenario, random_scenario
from kropina.workbench import run_convert

from oracles import eval_tree_oracle

# the only NaN these tests make (ROADMAP: a NaN that meets a NaN of the
# other sign takes a sign set by the loop or the interpreter, not by the
# operation)
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
    """One float environment per column of a grid over the box (its
    ends and centre, signed zeros, +-inf and a NaN), then single and
    block jet seeds of each order."""
    box = np.asarray(box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    mid = 0.5 * (lo + hi)
    n = len(mid)
    columns = [lo, mid, hi, np.zeros(n), -np.zeros(n), np.full(n, math.inf),
               np.full(n, -math.inf), np.full(n, NAN)]
    envs = [[float(v) for v in column] for column in columns]
    for order in orders:
        space = jet_space(n, order)
        block = np.stack([mid, lo + 0.3 * (hi - lo)])
        envs += [space.seed(mid), space.seed(block)]
    return envs


def _bits(value):
    """value's bits; a float NaN's sign is left out, since where NaNs of
    both signs meet, CPython's specialised float operation keeps the
    other operand's NaN than its generic one, so the sign changes once
    the operation's call site has warmed up."""
    if isinstance(value, Jet):
        return "Jet", value.coef.shape, value.coef.tobytes()
    if value != value:
        return type(value).__name__, "nan"
    return type(value).__name__, struct.pack("<d", value)


def _outcome(evaluate, asts, env):
    """The bits of each value of asts at env, or the error raised as
    (type, message, node)."""
    try:
        return [_bits(v) for v in evaluate(asts, env)]
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err), getattr(err, "node", None)


@pytest.fixture
def compiles(monkeypatch):
    """The number of tapes eval_expr has compiled since the fixture was
    made."""
    count = []
    real = expr._compile
    monkeypatch.setattr(
        expr, "_compile", lambda *args: count.append(1) or real(*args))
    return count


def test_a_replay_has_the_bits_of_the_walk(compiles):
    """Each tree set of every builtin, of random documents in dimensions
    2..6 and of each one's converted document is compiled once, and its
    tape gives the oracle's bits, or the oracle's error, at every
    environment."""
    for sc in _scenarios():
        envs = _environments(sc.box, (2, 4) if sc.dimension <= 3 else (2,))
        for asts in _tree_sets(sc.space()):
            roots = tuple(e.root for e in asts)
            expr._TAPES.pop(roots, None)
            before = len(compiles)
            for env in envs:
                assert (_outcome(eval_expr, asts, env)
                        == _outcome(eval_tree_oracle, asts, env)), sc.name
            assert roots in expr._TAPES
            assert len(compiles) == before + 1, f"{sc.name}: compiled again"


def test_signed_zeros_keep_their_bits_on_replay(compiles):
    asts = [parse_expr(t, 1)
            for t in ("-x1", "x1*0", "0 - x1", "-(x1 - x1)")]
    for x in (0.0, -0.0, 2.0, -2.0):
        expr._TAPES.pop(tuple(e.root for e in asts), None)
        want = [_bits(v) for v in eval_tree_oracle(asts, [x])]
        assert [_bits(v) for v in eval_expr(asts, [x])] == want
        assert [_bits(v) for v in eval_expr(asts, [x])] == want
    assert len(compiles) == 4


@pytest.mark.parametrize("first", ["good point first", "bad point first"])
@pytest.mark.parametrize("text, good, bad, message", [
    ("x1 + 1/(x1 - 1)", 2.0, 1.0, "division by zero"),
    ("x1 + (x1 - 1)^-2", 2.0, 1.0, "zero base with negative exponent"),
    ("x1 + ln(x1 - 1)", 2.0, 0.5, "ln of nonpositive value -0.5"),
    ("x1 + sqrt(x1 - 1)", 2.0, 0.5, "sqrt of negative value -0.5"),
    ("x1 + exp(1000*x1)", 0.1, 1.0, "range overflow"),
    ("x1 + (1e200*x1)^2", 1e-150, 1.0, "range overflow"),
])
def test_a_failing_replay_raises_the_walks_error(
        text, good, bad, message, first, compiles):
    """The tape is compiled at a good point and run at a bad one, or
    compiled by a first call at the bad point, which keeps it."""
    ast = parse_expr(text, 1)
    node = ast.root.rhs
    expr._TAPES.pop((ast.root,), None)
    if first == "good point first":
        eval_expr(ast, [good])
    with pytest.raises(ExprDomainError) as err:
        eval_expr(ast, [bad])
    assert str(err.value) == f"{message} in '{expr.print_node(node)}'"
    assert err.value.node is node
    assert (ast.root,) in expr._TAPES
    assert eval_expr(ast, [good]) == eval_tree_oracle([ast], [good])[0]
    assert len(compiles) == 1


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


def _chain(k, steps):
    """x1*x2 + k + 1 + 1 + ..., a tree set of one root and steps steps."""
    node = Add(Mul(Var(1), Var(2)), Const(float(k)))
    for _ in range(steps - 2):
        node = Add(node, Const(1.0))
    return as_ast(node, 2)


def test_a_full_cache_keeps_the_newest_tapes_and_evaluates_the_rest(
        monkeypatch, compiles):
    """The tapes kept hold at most _TAPE_STEPS steps; the oldest go
    first, as many as a new tape needs."""
    monkeypatch.setattr(expr, "_TAPES", {})
    steps = 64
    limit = expr._TAPE_STEPS // steps
    asts = [_chain(k, steps) for k in range(limit + 3)]
    for k, ast in enumerate(asts):
        assert eval_expr(ast, [2.0, 3.0]) == 6.0 + k + steps - 2
    assert len(expr._TAPES) == limit
    assert (asts[2].root,) not in expr._TAPES
    assert (asts[3].root,) in expr._TAPES
    before = len(compiles)
    assert eval_expr(asts[-1], [0.5, 4.0]) == 2.0 + limit + 2 + steps - 2
    assert len(compiles) == before
    # an evicted tree set is compiled, and kept, again
    assert eval_expr(asts[0], [0.5, 4.0]) == 2.0 + steps - 2
    assert len(compiles) == before + 1 and len(expr._TAPES) == limit
    assert (asts[0].root,) in expr._TAPES
    assert (asts[3].root,) not in expr._TAPES
    # a tape three times the size evicts the three oldest
    big = _chain(-1, 3 * steps)
    assert eval_expr(big, [2.0, 3.0]) == 5.0 + 3 * steps - 2
    held = sum(len(tape[2]) for tape in expr._TAPES.values())
    assert held == expr._TAPE_STEPS and len(expr._TAPES) == limit - 2
    assert [(a.root,) in expr._TAPES for a in asts[4:8]] == [False] * 3 + [True]


def test_a_compile_leaves_no_cyclic_garbage(monkeypatch, compiles):
    """A compile frees what it built by reference counting alone."""
    sc = load_scenario("s3_hopf")
    asts = _tree_sets(sc.space())[0]
    env = [float(v) for v in np.mean(sc.box, axis=1)]
    monkeypatch.setattr(expr, "_TAPES", {})
    before = len(compiles)
    gc.collect()
    gc.disable()
    try:
        eval_expr(asts, env)
        assert len(compiles) == before + 1
        assert gc.collect() == 0
    finally:
        gc.enable()
