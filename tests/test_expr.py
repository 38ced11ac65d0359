"""Parser, printer, and evaluator behaviour for the expression DSL."""
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kropina import expr
from kropina.expr import (
    FUNCTIONS,
    Add,
    Call,
    Const,
    Div,
    ExprDomainError,
    ExprIndexError,
    ExprNameError,
    ExprSyntaxError,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    as_ast,
    e_add,
    e_call,
    e_const,
    e_div,
    e_mul,
    e_neg,
    e_pow,
    eval_expr,
    parse_expr,
    print_node,
)
from kropina.jets import Jet, jet_space


def free_vars(ast) -> set[int]:
    """1-based indices of the variables an expression reads."""
    out: set[int] = set()

    def walk(node):
        if isinstance(node, Var):
            out.add(node.index)
        elif isinstance(node, (Add, Sub, Mul, Div)):
            walk(node.lhs)
            walk(node.rhs)
        elif isinstance(node, Pow):
            walk(node.base)
        elif isinstance(node, Neg):
            walk(node.operand)
        elif isinstance(node, Call):
            walk(node.arg)

    walk(ast.root)
    return out


def test_parse_product_structure():
    ast = parse_expr("x1*x2 + sin(x1)", 2)
    assert isinstance(ast.root, Add)
    assert ast.root.lhs == Mul(Var(1), Var(2))
    assert ast.root.rhs == Call("sin", Var(1))
    assert free_vars(ast) == {1, 2}


def test_precedence_and_power():
    ast = parse_expr("2*x1^2", 1)
    assert ast.root == Mul(Const(2.0), Pow(Var(1), 2))
    # power binds tighter than unary minus
    ast = parse_expr("-x1^2", 1)
    assert ast.root == Neg(Pow(Var(1), 2))
    # negative literal exponent
    ast = parse_expr("x1^-2", 1)
    assert ast.root == Pow(Var(1), -2)
    # right-associative exponent chain folds to an integer
    ast = parse_expr("x1^2^3", 1)
    assert ast.root == Pow(Var(1), 8)


def test_subtraction_left_associative():
    ast = parse_expr("x1 - x2 - 1", 2)
    assert ast.root == Sub(Sub(Var(1), Var(2)), Const(1.0))


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x1 + + 2", 2)
    assert err.value.offset == 5


def test_unknown_identifier():
    with pytest.raises(ExprNameError):
        parse_expr("foo(x1)", 1)
    with pytest.raises(ExprNameError):
        parse_expr("y1 + 1", 1)


def test_variable_index_out_of_range():
    with pytest.raises(ExprIndexError):
        parse_expr("x3", 2)
    with pytest.raises(ExprIndexError):
        parse_expr("x0", 2)


def test_function_requires_parens():
    with pytest.raises(ExprSyntaxError):
        parse_expr("sin x1", 1)


def test_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1 )", 1)


def test_eval_floats():
    ast = parse_expr("x1*x2", 2)
    assert eval_expr(ast, [2.0, 3.0]) == 6.0


def test_eval_division_by_zero():
    ast = parse_expr("1/x1", 1)
    with pytest.raises(ExprDomainError):
        eval_expr(ast, [0.0])


def test_eval_ln_domain():
    ast = parse_expr("ln(x1)", 1)
    with pytest.raises(ExprDomainError):
        eval_expr(ast, [-2.0])
    assert eval_expr(ast, [math.e]) == pytest.approx(1.0)


def test_float_power_overflow_is_a_domain_error():
    """A float power past the float range raises ExprDomainError, as an
    exp that overflows does, not a bare OverflowError."""
    for text, x in (("x1^2", 1e200), ("x1^-2", 1e-200)):
        ast = parse_expr(text, 1)
        with pytest.raises(ExprDomainError) as err:
            eval_expr(ast, [x])
        assert str(err.value) == f"range overflow in '{text}'"
        assert err.value.node is ast.root


def test_eval_env_length_checked():
    ast = parse_expr("x1", 1)
    with pytest.raises(ValueError):
        eval_expr(ast, [1.0, 2.0])


def test_eval_jets_sin():
    ast = parse_expr("sin(x1)", 1)
    s = jet_space(1, 3)
    jv = eval_expr(ast, s.seed([0.0]))
    assert jv.value == 0.0
    assert jv.partial((1,)) == 1.0
    assert abs(jv.partial((3,)) + 1.0) < 1e-15


def test_eval_arrays_vectorised():
    ast = parse_expr("x1^2 + x2", 2)
    x = np.array([1.0, 2.0, 3.0])
    got = eval_expr(ast, [x, 0.5])
    assert np.allclose(got, x**2 + 0.5)


def test_eval_array_division_produces_nonfinite_not_error():
    ast = parse_expr("1/x1", 1)
    got = eval_expr(ast, [np.array([0.0, 2.0])])
    assert not np.isfinite(got[0])
    assert got[1] == 0.5


_leaf = st.one_of(
    st.integers(min_value=1, max_value=2).map(Var),
    st.floats(
        min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
    ).map(lambda v: Const(round(v, 3))),
)


def _combine(children):
    a, b = children
    return st.sampled_from(
        [Add(a, b), Sub(a, b), Mul(a, b), Neg(a), Pow(a, 2), Call("sin", a), Call("cos", b)]
    )


_node = st.recursive(_leaf, lambda inner: st.tuples(inner, inner).flatmap(_combine), max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(_node, st.integers(0, 10 ** 6))
def test_print_parse_roundtrip_evaluates_identically(node, seed):
    ast = as_ast(node, 2)
    text = print_node(ast.root)
    reparsed = parse_expr(text, 2)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        env = [float(v) for v in rng.uniform(-2, 2, size=2)]
        assert eval_expr(ast, env) == eval_expr(reparsed, env)


def test_roundtrip_negative_constant():
    node = Mul(Const(-2.0), Var(1))
    ast = as_ast(node, 1)
    text = print_node(ast.root)
    reparsed = parse_expr(text, 1)
    assert eval_expr(ast, [3.0]) == eval_expr(reparsed, [3.0])


# -- shared nodes ----------------------------------------------------------------


def test_equal_nodes_are_one_object():
    text = "sin(x1)*x2 - 2.5/(x1 + 1)^3 + ln(x2)"
    assert parse_expr(text, 2).root is parse_expr(text, 2).root
    a = parse_expr("x1 + x2", 2).root
    assert e_mul(a, e_const(2)) is e_mul(a, e_const(2.0))
    assert e_add(a, a) is e_add(a, a)
    assert e_div(a, a) is e_div(a, a)
    assert e_neg(a) is e_neg(a)
    assert e_pow(a, 3) is e_pow(a, 3)
    assert e_call("cos", a) is e_call("cos", a)
    # the same subtree inside two texts is one node too
    assert parse_expr("cos(x1 + x2) * 3", 2).root.lhs.arg is a


_X1, _X2 = Var(1), Var(2)
_EACH_CLASS = [
    (Const(2.5), []),
    (_X1, []),
    (Add(_X1, _X2), [_X1, _X2]),
    (Sub(_X2, _X1), [_X2, _X1]),
    (Mul(_X2, _X1), [_X2, _X1]),
    (Div(_X1, _X2), [_X1, _X2]),
    (Pow(_X2, 3), [_X2]),
    (Neg(_X2), [_X2]),
    (Call("sin", _X1), [_X1]),
]


@pytest.mark.parametrize("node, children", _EACH_CLASS,
                         ids=[type(n).__name__ for n, _ in _EACH_CLASS])
def test_children_follow_the_fields_in_order(node, children):
    """_children reads a node's fields in declared order, the operands
    only; _fields is the order dataclasses.fields reports."""
    from dataclasses import fields

    assert node._fields == tuple(f.name for f in fields(node))
    assert expr._children(node) == children


def test_building_equal_structures_gives_one_object():
    """A node built from its class with the fields of a live node is
    that node, parsed or built; equality and hashing are identity."""
    root = parse_expr("sin(x1)*x2 - 2.5/(x1 + 1)^-3", 2).root
    built = Sub(Mul(Call("sin", Var(1)), Var(2)),
                Div(Const(2.5), Pow(Add(Var(1), Const(1.0)), -3)))
    assert built is root
    classes = expr._Node.__subclasses__()
    assert len(classes) == 9
    assert all(cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
               for cls in classes)
    assert Add(Var(1), Var(2)) != Add(Var(2), Var(1))
    assert Const(0.0) is not Const(-0.0) and Const(0.0) != Const(-0.0)
    assert repr(Pow(Var(1), 2)) == "Pow(base=Var(index=1), exponent=2)"
    with pytest.raises(AttributeError, match="immutable"):
        root.lhs = Var(1)
    with pytest.raises(AttributeError, match="immutable"):
        del root.rhs
    with pytest.raises(TypeError, match="fields"):
        Add(Var(1))
    assert copy.deepcopy(root) is root
    assert pickle.loads(pickle.dumps(root)) is root


def test_signed_zero_constants_stay_distinct():
    pos, neg = e_const(0.0), e_const(-0.0)
    assert pos is e_const(0) and neg is e_const(-0.0)
    assert pos is not neg
    assert print_node(pos) == "0.0"
    assert print_node(neg) == "-0.0"
    assert math.copysign(1.0, eval_expr(as_ast(neg, 1), [1.0])) == -1.0


def test_sequence_evaluates_each_shared_node_once(monkeypatch):
    from kropina.jets import Jet

    calls = []
    real = Jet.sin
    monkeypatch.setattr(Jet, "sin", lambda j: calls.append(1) or real(j))
    exprs = [parse_expr("sin(x1*x2) + 1", 2), parse_expr("2*sin(x1*x2)", 2)]
    env = jet_space(2, 2).seed([0.3, 0.7])
    # the second call replays the first one's tape
    for call in (1, 2):
        first, second = eval_expr(exprs, env)
        assert len(calls) == call
        assert first.value == math.sin(0.21) + 1
        assert second.value == 2 * math.sin(0.21)
    assert tuple(e.root for e in exprs) in expr._TAPES
    assert eval_expr(exprs, [0.3, 0.7]) == [eval_expr(e, [0.3, 0.7]) for e in exprs]


def test_domain_error_in_shared_subtree_keeps_its_message():
    """The first failing node, in walk order, names the error, as when
    each component is evaluated on its own."""
    exprs = [parse_expr("x2 + 2*ln(x1 - 1)", 2), parse_expr("ln(x1 - 1)/x2", 2)]
    message = "ln of nonpositive value -0.5 in 'ln(x1 - 1.0)'"
    for each in exprs:
        with pytest.raises(ExprDomainError) as alone:
            eval_expr(each, [0.5, 1.0])
        assert str(alone.value) == message
    with pytest.raises(ExprDomainError) as err:
        eval_expr(exprs, [0.5, 1.0])
    assert str(err.value) == message
    assert err.value.node is exprs[1].root.lhs
    # an earlier failure in walk order still wins
    with pytest.raises(ExprDomainError) as err:
        eval_expr([parse_expr("1/(x2 - 1)", 2), *exprs], [0.5, 1.0])
    assert str(err.value) == "division by zero in '1.0 / (x2 - 1.0)'"


# -- folding in the constructors -------------------------------------------------


def test_constructors_fold_trivial_identities():
    x = parse_expr("x1 + x2", 2).root
    zero, one = e_const(0.0), e_const(1.0)
    assert e_add(e_const(1.5), e_const(2.0)) is e_const(3.5)
    assert e_mul(zero, x) is zero and e_mul(x, e_const(-0.0)) is zero
    assert e_mul(one, x) is x and e_mul(x, one) is x
    assert e_add(x, zero) is x and e_add(e_const(-0.0), x) is x
    assert e_div(x, one) is x and e_div(zero, x) is zero
    assert e_neg(e_neg(x)) is x and e_neg(e_const(2.0)) is e_const(-2.0)
    assert e_pow(e_const(2.0), 3) is e_const(8.0)
    # the fold leaves what raises or is not finite to evaluation
    assert isinstance(e_div(one, zero), Div)
    assert isinstance(e_div(zero, zero), Div)
    assert isinstance(e_pow(zero, -1), Pow)
    assert isinstance(e_pow(e_const(1e200), 2), Pow)
    assert isinstance(e_add(e_const(1e308), e_const(1e308)), Add)
    # the inexact corner: a folded 0*e drops an e that would raise
    ln = e_call("ln", x)
    assert e_mul(zero, ln) is zero


@pytest.mark.parametrize("text, cls", [
    ("0*x1", Mul), ("x1*1", Mul), ("x1 + 0", Add), ("0 + x1", Add),
    ("x1/1", Div), ("0/x1", Div), ("-(-x1)", Neg), ("-2", Neg),
    ("2^3", Pow), ("1 + 2", Add), ("2*3", Mul), ("1/0", Div),
])
def test_parse_never_folds(text, cls):
    assert type(parse_expr(text, 1).root) is cls


def test_parsed_zero_product_still_raises():
    with pytest.raises(ExprDomainError):
        eval_expr(parse_expr("0*ln(x1)", 1), [-1.0])


_fold_leaf = st.one_of(
    st.integers(1, 2).map(lambda i: ("var", i)),
    st.sampled_from([0.0, -0.0, 1.0]).map(lambda v: ("const", v)),
    st.floats(-3.0, 3.0).map(lambda v: ("const", round(v, 2))),
)


def _fold_combine(children):
    a, b = children
    return st.one_of(
        st.sampled_from(["add", "sub", "mul", "div"]).map(
            lambda op: (op, a, b)),
        st.just(("neg", a)),
        st.integers(-2, 3).map(lambda p: ("pow", a, p)),
        st.sampled_from(FUNCTIONS).map(lambda fn: ("call", fn, a)),
    )


_fold_recipe = st.recursive(
    _fold_leaf, lambda inner: st.tuples(inner, inner).flatmap(_fold_combine),
    max_leaves=10)

_BINARY = {"add": (e_add, Add), "mul": (e_mul, Mul), "div": (e_div, Div)}


def _build(recipe, fold):
    """The tree of recipe, through the folding e_* constructors or
    through raw interning."""
    kind = recipe[0]
    if kind == "var":
        return Var(recipe[1])
    if kind == "const":
        return e_const(recipe[1])
    if kind == "neg":
        operand = _build(recipe[1], fold)
        return e_neg(operand) if fold else Neg(operand)
    if kind == "pow":
        base = _build(recipe[1], fold)
        return e_pow(base, recipe[2]) if fold else Pow(base, recipe[2])
    if kind == "call":
        return e_call(recipe[1], _build(recipe[2], fold))
    lhs, rhs = _build(recipe[1], fold), _build(recipe[2], fold)
    if kind == "sub":
        return Sub(lhs, rhs)
    make, cls = _BINARY[kind]
    return make(lhs, rhs) if fold else cls(lhs, rhs)


def _coefs(value, like):
    """value as an array shaped like the unfolded value like: a jet's
    coefficients, an array, or a float lifted to either."""
    if isinstance(like, Jet):
        if isinstance(value, Jet):
            return value.coef
        out = np.zeros_like(like.coef)
        out[0] = value
        return out
    return np.broadcast_to(np.asarray(value, dtype=float), np.shape(like))


X1, X2, LN_X1 = ("var", 1), ("var", 2), ("call", "ln", ("var", 1))


@settings(max_examples=300, deadline=None)
@given(_fold_recipe, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@example(("add", ("const", 1.5), ("const", -0.25)), 0.5, 0.3)
@example(("mul", ("const", 0.0), LN_X1), 0.5, 0.3)
@example(("mul", X2, ("const", -0.0)), -0.5, -0.3)
@example(("mul", ("const", 1.0), X1), 0.5, 0.3)
@example(("mul", X1, ("const", 1.0)), 0.5, 0.3)
@example(("add", X2, ("const", -0.0)), 0.5, -0.0)
@example(("add", ("const", 0.0), LN_X1), 0.5, 0.3)
@example(("div", X1, ("const", 1.0)), 0.5, 0.3)
@example(("div", ("const", 0.0), ("sub", X1, X2)), 0.5, 0.3)
@example(("neg", ("neg", X1)), 0.5, 0.3)
@example(("neg", ("const", 1.0)), 0.5, 0.3)
@example(("pow", ("const", 0.5), -2), 0.5, 0.3)
@example(("div", X1, ("call", "ln", ("mul", ("const", 0.0), X1))), 0.0, 0.0)
def test_folded_trees_evaluate_as_unfolded(recipe, x1, x2):
    raw, folded = _build(recipe, False), _build(recipe, True)
    envs = [
        [x1, x2],
        jet_space(2, 2).seed([x1, x2]),
        [np.array([x1, 0.0, -1.0, 0.5]), np.array([x2, 1.0, 0.0, -0.5])],
    ]
    for env in envs:
        with np.errstate(all="ignore"):
            try:
                want = eval_expr(as_ast(raw, 2), env)
            except (ExprDomainError, ArithmeticError):
                continue
            want_coefs = _coefs(want, want)
            if not np.all(np.isfinite(want_coefs)):
                continue
            got = eval_expr(as_ast(folded, 2), env)
        assert np.array_equal(_coefs(got, want), want_coefs)
