"""A report's text and rows against their per-value routes.

ReportDocument.to_json writes a report in one walk; tests/oracles.py
writes it as json.dumps does over _strict's tree, and the two must give
the same bytes.  workbench._pair_rows builds a chart point's verify rows
from whole blocks; oracles.pair_rows_per_row builds them one direction
at a time, and the two must give the same rows, bit for bit, each
naming its (x, y) by the same sample index.
"""
import numpy as np
import pytest

from kropina.forms import HypothesisNotMetError
from kropina.reports import ReportDocument
from kropina.scenarios import builtin_names
from kropina.workbench import _pair_rows, _table, run_check, run_convert, run_verify
from oracles import pair_rows_per_row, report_json

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name", builtin_names())
def test_to_json_writes_the_oracle_bytes_on_every_builtin(name):
    docs = [run_check(name), run_verify(name, points=2, dirs=2),
            run_convert(name, "nav"), run_convert(name, "ab")]
    for doc in docs:
        for timings in (True, False):
            assert doc.to_json(timings) == report_json(doc, timings)


ADVERSARIAL = {
    "strings": ["plain", "café 中 \U0001F600", "\x00\x01\x1f\x7f",
                "tab\tnew\nline\r", 'quote " and back \\ slash', "/", ""],
    "keÿ \"quoted\"": {"": [], "nested": [[], {}, [[{}]], {"a": {}}]},
    "tuple": (1.0, (2, "two"), ()),
    "numpy": [np.float64(0.5), np.float64(INF), np.float64(-INF),
              np.float64(NAN)],
    "numpy_finite": [np.float64(1.25), np.float64(-3e-300)],
    "numpy_scalar": np.float64(NAN),
    "floats": [-0.0, 0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308,
               0.1, -2.5],
    "non_finite": [1.0, NAN, -INF, INF],
    "nan": NAN,
    "mixed": [True, 1, 1.0, False, 0, 0.0, None, "1"],
    "big": [10 ** 30, -2 ** 70, 2 ** 63],
    "bools": {"t": True, "f": False, "one": 1, "zero": 0},
}


def test_to_json_writes_the_oracle_bytes_on_an_adversarial_tree():
    doc = ReportDocument(kind="check", scenario=ADVERSARIAL)
    doc.tables.append({"name": "t", "rows": [ADVERSARIAL, ADVERSARIAL]})
    doc.emitted = {"deep": [[[[ADVERSARIAL["floats"]]]]]}
    doc.timings_ms = {"sampling": 0.125}
    for timings in (True, False):
        assert doc.to_json(timings) == report_json(doc, timings)
    assert doc.to_json().isascii()


@pytest.mark.parametrize("bad", [np.int64(1), np.bool_(True), {1, 2}],
                         ids=["int64", "bool_", "set"])
def test_to_json_refuses_what_json_dumps_refuses(bad):
    for tree in ({"bad": bad}, {"list": [1.0, bad]}, {"list": [bad]}):
        doc = ReportDocument(kind="check", scenario=tree)
        with pytest.raises(TypeError):
            report_json(doc)
        with pytest.raises(TypeError):
            doc.to_json()


# -- block rows ----------------------------------------------------------------

SPECIALS = (NAN, INF, -INF, -0.0, 0.0, 1e308, -1e308)


def _block(rng, shape):
    """Values over many magnitudes and both signs, a fifth of them
    replaced by NaN, +-inf, signed zeros or values near the overflow."""
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(
        -4, 4, size=shape)
    special = rng.random(shape) < 0.2
    values[special] = rng.choice(SPECIALS, size=int(special.sum()))
    return values


def _first(rng):
    """A chart point's first sample index, as a Python int."""
    return int(rng.integers(0, 1000))


@pytest.mark.parametrize("d", [1, 10])
@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_pair_rows_equal_the_per_row_route(d, vector):
    rng = np.random.default_rng(2022)
    for _ in range(40):
        first = _first(rng)
        shape = (d, 3) if vector else (d,)
        closed, generic = _block(rng, shape), _block(rng, shape)
        got = _pair_rows(first, lambda: closed, generic)
        with np.errstate(all="ignore"):
            want = pair_rows_per_row(first, lambda: closed, generic)
        # repr tells NaN, -0.0, int from float and list from tuple apart
        assert repr(got) == repr(want)
        table = _table("t", 1e-7, got, "rel_dev")
        devs = [row["rel_dev"] for row in want]
        bad = [k for k, dev in enumerate(devs) if not np.isfinite(dev)]
        assert table.get("non_finite_rows", []) == bad
        # the worst row: the first non-finite one, else the first largest
        worst_at = bad[0] if bad else devs.index(max(devs))
        assert table["worst_at"] == worst_at
        assert repr(table["max_rel_dev"]) == repr(devs[worst_at])
        assert repr(table["margin"]) == repr(devs[worst_at] / 1e-7)
        if bad:
            assert table["passed"] is False


def test_pair_rows_at_a_one_row_special_block():
    first = _first(np.random.default_rng(7))
    for a in SPECIALS:
        for b in SPECIALS + (1.5,):
            closed, generic = np.array([a]), np.array([b])
            got = _pair_rows(first, lambda: closed, generic)
            with np.errstate(all="ignore"):
                want = pair_rows_per_row(first, lambda: closed, generic)
            assert repr(got) == repr(want)


def test_pair_rows_skipped_where_the_hypothesis_fails():
    first = _first(np.random.default_rng(3))

    def closed():
        raise HypothesisNotMetError("W is not of unit length at x")

    got = _pair_rows(first, closed, np.zeros(4))
    assert repr(got) == repr(pair_rows_per_row(first, closed, np.zeros(4)))
    assert [sorted(row) for row in got] == [
        ["reason", "sample", "skipped"]] * 4
    assert [row["sample"] for row in got] == list(range(first, first + 4))
    table = _table("t", 1e-7, got, "rel_dev")
    assert table["passed"] is None and table["samples"] == 0
    assert table["skipped"] == 4 and "non_finite_rows" not in table
    assert table["reason"] == "no row compared: all 4 rows were skipped"
    # nothing was measured, so no deviation, row or margin is reported
    assert table["max_rel_dev"] is None
    assert table["worst_at"] is None and table["margin"] is None
