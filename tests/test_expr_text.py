"""Printing and parsing held against the tree-walking oracles.

parse_expr and print_expr must give the oracles' bytes, nodes and errors
while doing work in proportion to distinct subexpressions: each distinct
node printed once per call, each distinct parenthesized group parsed
once per document.  The run plan is tools/report_bytes.py's.
"""
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kropina.expr as expr
import kropina.scenarios as scenarios
from kropina.expr import ExprError, parse_expr, print_expr
from kropina.scenarios import load_scenario
from kropina.workbench import run_convert
from oracles import pair_parens_oracle, parse_expr_oracle, print_node_oracle

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


def strings(doc):
    """The distinct expression strings a loader parses from doc."""
    n = doc["dimension"]
    out = {doc["metric"][i][j] for i in range(n) for j in range(i, n)}
    out |= set(doc["vector"])
    return out | {doc[k] for k in ("gauge", "weight") if doc.get(k)}


def group_texts(text):
    """The text inside each balanced pair of parentheses of text."""
    return {text[o + 1:c] for o, c in pair_parens_oracle(text).items()}


def dag_size(root):
    """(distinct nodes, edges between them) of the DAG under root."""
    seen, edges = set(), 0

    def walk(node):
        nonlocal edges
        if id(node) in seen:
            return
        seen.add(id(node))
        for value in vars(node).values():
            if not isinstance(value, (int, float, str)):
                edges += 1
                walk(value)

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
            assert print_expr(e) == print_node_oracle(e.root)
    for doc in docs.values():
        # metric and vector are printed; a weight is copied as written
        printed = {e for row in doc["metric"] for e in row}
        printed |= set(doc["vector"])
        for text in strings(doc):
            ast = parse_expr_oracle(text, doc["dimension"])
            assert print_expr(ast) == print_node_oracle(ast.root)
            assert text not in printed or print_expr(ast) == text


def test_reparse_gives_the_same_node(run_plan):
    spaces, docs = run_plan
    for space in spaces.values():
        for e in views(space):
            assert parse_expr(print_expr(e), e.dim).root is e.root
    for doc in docs.values():
        groups = {}
        for text in sorted(strings(doc)):
            n = doc["dimension"]
            assert (parse_expr(text, n, groups).root
                    is parse_expr_oracle(text, n).root)


def test_load_parses_each_distinct_group_once(run_plan, monkeypatch):
    """Loading the nav -> ab round trip of torus_wind parses each
    distinct string once and each distinct group text once, all
    through one group memo."""
    doc = run_plan[1]["torus_wind to nav and back"]
    memos, calls = [], []
    real_parse = scenarios.parse_expr
    real_expression = expr._Parser.expression

    def parse(text, dim, groups=None):
        memos.append(groups)
        return real_parse(text, dim, groups)

    def expression(self):
        calls.append(1)
        return real_expression(self)

    monkeypatch.setattr(scenarios, "parse_expr", parse)
    monkeypatch.setattr(expr._Parser, "expression", expression)
    load_scenario(doc)
    texts = strings(doc)
    assert len(memos) == len(texts)
    assert all(m is memos[0] for m in memos)
    parsed = memos[0][doc["dimension"]]
    assert set(parsed) == set().union(*map(group_texts, texts))
    # one expression() per distinct string and per distinct group
    assert len(calls) == len(texts) + len(parsed)
    assert len(parsed) < sum(t.count("(") for t in texts) / 10


def test_printer_prints_each_distinct_node_once(run_plan, monkeypatch):
    doc = run_plan[1]["torus_wind to nav and back"]
    space = load_scenario(doc).space()
    visits = []
    real = expr._print

    def counting(node, memo):
        visits.append(id(node))
        return real(node, memo)

    monkeypatch.setattr(expr, "_print", counting)
    for e in [e for row in space.a.exprs for e in row] + list(space.b):
        visits.clear()
        text = print_expr(e)
        nodes, edges = dag_size(e.root)
        # the root, then each child of each distinct node: a node met
        # again is looked up, not walked
        assert len(set(visits)) == nodes
        assert len(visits) == 1 + edges
        assert text == print_node_oracle(e.root)


def test_folded_round_trips_stay_small(run_plan):
    """Conversions fold trivial identities as they build, so converting
    there and back emits text near the size of what was written."""
    docs = run_plan[1]
    assert len(json.dumps(docs["torus_wind to nav and back"])) <= 20_000
    assert len(json.dumps(docs["s3_hopf to ab and back"])) <= 2_000


# -- parenthesis pairing ------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="(()) x+1é", max_size=80))
@example("")
@example(")(")
@example("((x1) + (")
@example("(x1)) + (x2)")
@example("(é) + ((x1)")
@example("(" * 300 + "x1" + ")" * 299)
def test_pairing_matches_the_stack(text):
    assert expr._pair_parens(text) == pair_parens_oracle(text)


def test_pairing_matches_the_stack_on_emitted_text(run_plan):
    for doc in run_plan[1].values():
        for text in strings(doc):
            assert expr._pair_parens(text) == pair_parens_oracle(text)


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
]

# well-formed texts holding the groups of MALFORMED, parsed first into a
# shared memo so that the malformed ones meet repeated groups
WARM = ["(x1 + x2) * sin(x1) + (x1 + 1)^2 + (x1) + cos(x2 * (x1 + 1))",
        "((x1)) * (x1 + (x2 * x3)) + (2)"]


def outcome(parse, text, *memo):
    try:
        root = parse(text, 3, *memo).root
    except (ExprError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return root


@pytest.mark.parametrize("text", MALFORMED)
def test_errors_match_the_eager_parser(text):
    expected = outcome(parse_expr_oracle, text)
    assert isinstance(expected, tuple)
    assert outcome(parse_expr, text) == expected
    groups = {}
    for good in WARM:
        parse_expr(good, 3, groups)
    assert outcome(parse_expr, text, groups) == expected


def test_unusual_characters_parse_as_the_eager_parser_does():
    # a Unicode decimal digit is a number, Unicode space separates
    for text in ("x1 + ٣", "x1 + x2", "\tx1\n*\rx2 "):
        assert parse_expr(text, 3).root is parse_expr_oracle(text, 3).root


def test_non_ascii_letter_is_an_unexpected_character():
    with pytest.raises(expr.ExprSyntaxError) as err:
        parse_expr("x1 + é", 2)
    assert str(err.value) == "unexpected character 'é' (offset 5)"
    assert err.value.offset == 5
