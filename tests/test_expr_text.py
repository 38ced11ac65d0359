"""Printing and parsing held against the tree-walking oracles.

print_node and parse_expr must give the oracles' bytes, nodes and
errors; print_expr must write a document's texts and defs so that
loading them gives back the very nodes printed, each distinct node
printed once.  The run plan is tools/report_bytes.py's.
"""
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kropina.expr as expr
from kropina.expr import (
    FUNCTIONS,
    Add,
    Call,
    Const,
    Div,
    ExprError,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    as_ast,
    parse_expr,
    print_expr,
    print_node,
)
from kropina.scenarios import load_scenario
from kropina.workbench import run_convert
from oracles import parse_expr_oracle, print_node_oracle

_spec = importlib.util.spec_from_file_location(
    "report_bytes",
    Path(__file__).resolve().parent.parent / "tools" / "report_bytes.py")
report_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_bytes)


def views(space):
    """Every expression of both views of a space."""
    out = [e for row in space.a.exprs for e in row] + list(space.b)
    out += list(space.b_up) + [e for row in space.h.exprs for e in row]
    out += list(space.w) + [space.gauge, space.rho]
    if space.weight is not None:
        out.append(space.weight)
    return out


def fields(doc):
    """{JSON pointer: text} of the expression fields a loader reads
    from doc, defs aside: the metric's upper triangle, the vector, and
    the gauge and weight when present."""
    n = doc["dimension"]
    out = {f"/metric/{i}/{j}": doc["metric"][i][j]
           for i in range(n) for j in range(i, n)}
    out.update((f"/vector/{i}", e) for i, e in enumerate(doc["vector"]))
    out.update((f"/{k}", doc[k]) for k in ("gauge", "weight") if k in doc)
    return out


def oracle_roots(doc):
    """{pointer: node} of doc's fields, its defs parsed in order, all
    through the eager oracle."""
    n, refs = doc["dimension"], []
    for text in doc.get("defs", ()):
        refs.append(parse_expr_oracle(text, n, refs).root)
    return {p: parse_expr_oracle(t, n, refs).root
            for p, t in fields(doc).items()}


def dag_size(roots):
    """(distinct nodes, edges between them) of the DAG under roots."""
    seen, edges = set(), 0

    def walk(node):
        nonlocal edges
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in expr._children(node):
            edges += 1
            walk(child)

    for root in roots:
        walk(root)
    return len(seen), edges


@pytest.fixture(scope="module")
def run_plan():
    """(spaces, documents): the space of every scenario of the run plan
    and every document its conversions emit, by label."""
    spaces, docs = {}, {}
    for name in report_bytes.SCENARIOS:
        sc = load_scenario(name)
        spaces[name] = sc.space()
        for to in ("nav", "ab"):
            there = run_convert(sc, to)
            docs[f"{name} to {to}"] = there.emitted
            if to != sc.representation:
                back = run_convert(there.emitted, sc.representation)
                docs[f"{name} to {to} and back"] = back.emitted
    return spaces, docs


def test_printer_matches_the_tree_walk(run_plan):
    spaces, docs = run_plan
    for space in spaces.values():
        for e in views(space):
            assert print_node(e.root) == print_node_oracle(e.root)
    for doc in docs.values():
        # printing the loaded fields again gives the document back
        roots = oracle_roots(doc)
        texts, defs = print_expr([as_ast(r, doc["dimension"])
                                  for r in roots.values()])
        assert dict(zip(roots, texts)) == fields(doc)
        assert defs == doc.get("defs", [])


def test_reparse_gives_the_same_node(run_plan):
    spaces, docs = run_plan
    for space in spaces.values():
        for e in views(space):
            assert parse_expr(print_node(e.root), e.dim).root is e.root
    for doc in docs.values():
        n, refs = doc["dimension"], []
        for text in doc.get("defs", ()):
            refs.append(parse_expr(text, n, refs).root)
        expected = oracle_roots(doc)
        for pointer, text in fields(doc).items():
            assert parse_expr(text, n, refs).root is expected[pointer]


def test_tree_text_loads_as_its_defs(run_plan):
    """A document without defs, each field printed whole as print_node
    writes it, loads to the same nodes as the document with defs."""
    for doc in run_plan[1].values():
        tree = {k: v for k, v in doc.items() if k != "defs"}
        n = doc["dimension"]
        text = {p: print_node(r) for p, r in oracle_roots(doc).items()}
        tree["metric"] = [[text[f"/metric/{min(i, j)}/{max(i, j)}"]
                           for j in range(n)] for i in range(n)]
        tree["vector"] = [text[f"/vector/{i}"] for i in range(n)]
        tree.update((k, text[f"/{k}"]) for k in ("gauge", "weight")
                    if k in doc)
        shared, whole = (load_scenario(d).space() for d in (doc, tree))
        assert all(a.root is b.root
                   for a, b in zip(views(shared), views(whole)))


def test_printer_prints_each_distinct_node_once(run_plan, monkeypatch):
    doc = run_plan[1]["torus_wind to nav and back"]
    space = load_scenario(doc).space()
    visits = []
    real = expr._Printer.text

    def counting(self, node):
        visits.append(id(node))
        return real(self, node)

    monkeypatch.setattr(expr._Printer, "text", counting)
    exprs = [e for row in space.h.exprs for e in row] + list(space.w)
    for e in exprs:
        visits.clear()
        text = print_node(e.root)
        nodes, edges = dag_size([e.root])
        # the root, then each child of each distinct node: a node met
        # again is looked up, not walked
        assert len(set(visits)) == nodes
        assert len(visits) == 1 + edges
        assert text == print_node_oracle(e.root)
    visits.clear()
    print_expr(exprs)
    nodes, edges = dag_size([e.root for e in exprs])
    assert len(set(visits)) == nodes
    assert len(visits) == len(exprs) + edges


def test_folded_round_trips_stay_small(run_plan):
    """Conversions fold trivial identities as they build and name each
    shared subexpression once, so converting there and back emits text
    near the size of what was written."""
    docs = run_plan[1]
    assert len(json.dumps(docs["torus_wind to nav and back"])) <= 1_000
    assert len(json.dumps(docs["s3_hopf to ab and back"])) <= 600


def test_repeated_conversion_reaches_a_plateau():
    """random:3 to nav, to ab and to nav again: the third document is
    at most twice the first and under 4 KB."""
    sizes, doc = [], "random:3"
    for to in ("nav", "ab", "nav"):
        doc = run_convert(doc, to).emitted
        sizes.append(len(json.dumps(doc)))
    assert sizes[2] <= 2 * sizes[0]
    assert sizes[2] <= 4_000


# -- documents with defs ------------------------------------------------------

_X1, _X2 = Var(1), Var(2)
# sin(x1) + cos(x2) over two shared calls prints "$0 + $1": a text that
# starts with "$" but is no reference, so a parent must parenthesize it
_SIN, _COS = Call("sin", _X1), Call("cos", _X2)
_SUM = Add(_SIN, _COS)


@st.composite
def dags(draw):
    """Roots over a DAG built by combining earlier nodes, so nodes are
    shared; constants are non-negative, as the parser builds them."""
    pool = [_X1, _X2, Const(0.5), Const(2.0)]

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 14))):
        cls = draw(st.sampled_from([Add, Sub, Mul, Div, Neg, Pow, Call]))
        if cls is Neg:
            node = Neg(pick())
        elif cls is Pow:
            node = Pow(pick(), draw(st.sampled_from([-2, 2, 3])))
        elif cls is Call:
            node = Call(draw(st.sampled_from(FUNCTIONS)), pick())
        else:
            node = cls(pick(), pick())
        pool.append(node)
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(dags())
@example([Mul(_SUM, _X1), _SIN, _COS])
@example([Mul(_SUM, _X1), Pow(_SUM, 2), _SIN, _COS])
@example([Sub(_X1, _SUM), Div(_X2, _SUM), _SIN, _COS])
def test_defs_load_back_to_the_printed_roots(roots):
    texts, defs = print_expr([as_ast(r, 2) for r in roots])
    refs = []
    for text in defs:
        # a def names only earlier defs
        refs.append(parse_expr(text, 2, refs).root)
    assert all(parse_expr(t, 2, refs).root is r for t, r in zip(texts, roots))
    assert len(set(map(id, refs))) == len(refs)


def test_a_text_opening_with_a_reference_is_parenthesized():
    texts, defs = print_expr([as_ast(r, 2)
                              for r in (Mul(_SUM, _X1), _SIN, _COS)])
    assert defs == ["sin(x1)", "cos(x2)"]
    assert texts == ["($0 + $1) * x1", "$0", "$1"]
    texts, defs = print_expr([as_ast(r, 2) for r in
                              (Mul(_SUM, _X1), _SUM, _SIN, _COS)])
    assert defs == ["sin(x1)", "cos(x2)", "$0 + $1"]
    assert texts == ["$2 * x1", "$2", "$0", "$1"]


def test_short_and_leaf_nodes_stay_inline():
    # ten shared calls take $0..$9, so "-x1" is no longer than its "$10";
    # a node used only as a root, however often, is no def either
    calls = [Call(fn, x) for x in (_X1, _X2) for fn in FUNCTIONS]
    neg, c = Neg(_X1), Const(2.5)
    roots = [cls(f, _X1) for f in calls for cls in (Add, Sub)]
    twice = Mul(_X1, _X2)
    roots += [Add(neg, c), Mul(neg, _X1), Mul(_X2, c),
              neg, twice, twice]
    texts, defs = print_expr([as_ast(r, 2) for r in roots])
    assert defs == [print_node(r) for r in calls]
    assert texts[:2] == ["$0 + x1", "$0 - x1"]
    assert texts[20:] == ["-x1 + 2.5", "-x1 * x1", "x2 * 2.5", "-x1",
                          "x1 * x2", "x1 * x2"]


# -- errors -------------------------------------------------------------------

MALFORMED = [
    # unbalanced parentheses
    "(x1 + x2", "x1 + x2)", "((x1)", "sin(x1", ")(", "(x1))(x2",
    "(x1 + (x2 * x3)", "()", "sin()", "(x1)(x2)",
    # bad characters
    "x1 + $", "x1 + é", "é", "xé", "x1 # 2", "(x1 + x2) * (x1 + x2) + é",
    "x1 x2 $", "(x1 + $) * (x1 + $)", "1 + ²", "x1 + ~",
    # '.' with no digits
    "x1 + .", "x1 * .e3", "1 + . 5", "(x1 + .)",
    # exponent chains
    "x1^2^-1", "x1^2^3^4", "x1^1.5", "x1^2e1", "x1^x2", "x1^99999",
    "x1^2^20", "x1^-", "x1^", "x1^(2)", "(x1 + 1)^2^-1",
    # out-of-range variables
    "x7", "(x1 + x7)", "sin(x1) * sin(x7)", "x0",
    # unknown names
    "foo(x1)", "tan(x1)", "y", "sin x1", "sin", "(x1 + y1) * 2",
    # an error placed after a repeated group
    "(x1 + x2) * (x1 + x2) x3", "sin(x1) * sin(x1) + foo",
    "(x1 + 1)^2 + (x1 + 1)^2 $", "(x1) + (x1) + x9",
    "cos(x2 * (x1 + 1)) - cos(x2 * (x1 + 1)) * (",
    "(x1 + x2) * (x1 + x2) * (x1 + x2", "((x1)) + ((x1)) )",
    # a failure that is no expression error, then a bad character
    "x1^" + "9" * 5000 + " $", "(" * 3000 + "x1" + ")" * 3000 + " $",
    # references, with two defs to name
    "$", "$ 0", "$x1", "x1 + $2", "$9 * x1", "$0 $1", "$0^$1", "$1.5",
    "$-1", "sin($7) + é", "$0 + ($1", "$٣",
]

REFS = (parse_expr("x1 + x2", 3).root, parse_expr("sin(x3)", 3).root)


def outcome(parse, text):
    try:
        root = parse(text, 3, REFS).root
    except (ExprError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return root


@pytest.mark.parametrize("text", MALFORMED)
def test_errors_match_the_eager_parser(text):
    expected = outcome(parse_expr_oracle, text)
    assert isinstance(expected, tuple)
    assert outcome(parse_expr, text) == expected


def test_references_parse_as_the_eager_parser_does():
    for text in ("$0", "$1 * $0", "-$0^2", "sin($1) / ($0 + $1)", "$01"):
        assert outcome(parse_expr, text) is outcome(parse_expr_oracle, text)
    assert parse_expr("$1", 3, REFS).root is REFS[1]


def test_unusual_characters_parse_as_the_eager_parser_does():
    # a Unicode decimal digit is a number, Unicode space separates
    for text in ("x1 + ٣", "x1 + x2", "\tx1\n*\rx2 "):
        assert parse_expr(text, 3).root is parse_expr_oracle(text, 3).root


def test_non_ascii_letter_is_an_unexpected_character():
    with pytest.raises(expr.ExprSyntaxError) as err:
        parse_expr("x1 + é", 2)
    assert str(err.value) == "unexpected character 'é' (offset 5)"
    assert err.value.offset == 5


def test_a_bare_dollar_is_an_unexpected_character():
    with pytest.raises(expr.ExprSyntaxError) as err:
        parse_expr("x1 + $", 2, REFS)
    assert str(err.value) == "unexpected character '$' (offset 5)"
