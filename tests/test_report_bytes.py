"""tools/report_bytes.py's comparison (what moved between two report
sets), run on the whole report/2 text it records."""
import copy
import csv
import importlib.util
import json
from pathlib import Path

import pytest

from kropina.scenarios import builtin_names
from kropina.workbench import run_convert, run_verify

_spec = importlib.util.spec_from_file_location(
    "report_bytes",
    Path(__file__).resolve().parent.parent / "tools" / "report_bytes.py")
report_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_bytes)


def _texts(reports):
    return {label: json.dumps(doc, sort_keys=True, indent=2) + "\n"
            for label, doc in reports.items()}


def test_compare_counts_moved_leaves_and_names_non_floats():
    reference = {
        "same": {"verdict": "PASS", "rows": [1.0, 2.0]},
        "floats": {"verdict": "PASS", "rows": [1.0, 2.0, 4.0]},
        "mixed": {"verdict": "PASS", "passed": True, "samples": 3,
                  "max": 1.0, "rows": [0.5, 0.25], "gone": "x"},
        "dropped": {},
    }
    current = {
        "same": {"verdict": "PASS", "rows": [1.0, 2.0]},
        "floats": {"verdict": "PASS", "rows": [1.0, 2.5, 4.0001]},
        "mixed": {"verdict": "FAIL", "passed": False, "samples": 4,
                  "max": 1.0, "rows": [0.5], "new": 0.0},
        "added": {},
    }
    lines, same = report_bytes.compare(_texts(current), _texts(reference))
    assert not same
    assert lines == [
        "added: missing from reference",
        "dropped: missing from this run",
        "floats: differs at /rows/1; 2 leaves moved, largest relative move "
        "0.2 at /rows/1 (2.0 -> 2.5)",
        "mixed: differs at /gone; 6 leaves moved",
        '  not a float: /gone: "x" -> null',
        "  not a float: /new: null -> 0.0",
        "  not a float: /passed: true -> false",
        "  not a float: /rows/1: 0.25 -> null",
        "  not a float: /samples: 3 -> 4",
        '  not a float: /verdict: "PASS" -> "FAIL"',
        "same: identical",
    ]
    assert report_bytes.compare(_texts(reference), _texts(reference))[1]


def test_compare_names_texts_that_differ_with_equal_values():
    doc = {"verdict": "PASS", "rows": [1.0, 2.0]}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    current = {"indent": json.dumps(doc, sort_keys=True, indent=1) + "\n",
               "float": text.replace("1.0", "1.00"),
               "newline": text[:-1],
               "same": text}
    reference = dict.fromkeys(current, text)
    lines, same = report_bytes.compare(current, reference)
    assert not same
    assert lines == [
        "float: text differs at line 3",
        "indent: text differs at line 2",
        "newline: text differs at line 7",
        "same: identical",
    ]


# -- the whole report/2 text -------------------------------------------------


def _table(doc, name):
    return next(k for k, t in enumerate(doc.tables) if t["name"] == name)


def test_a_wrong_sample_index_shows_as_moved_x_and_y_leaves():
    """A row whose sample index names another direction of its point,
    or whose point index names another point, moves that index leaf;
    nothing else moves."""
    doc = run_verify("s3_hopf", points=2, dirs=3)
    spray, bh = _table(doc, "spray"), _table(doc, "bh-density")
    wrong = copy.deepcopy(doc)
    wrong.tables[spray]["rows"][0]["sample"] = 1
    wrong.tables[bh]["rows"][1]["point"] = 0
    reference = {"verify": report_bytes._canonical(doc)}
    current = {"verify": report_bytes._canonical(wrong)}

    moved = report_bytes.moved_leaves(json.loads(reference["verify"]),
                                      json.loads(current["verify"]))
    assert [where for where, *_ in moved] == [
        f"/tables/{spray}/rows/0/sample", f"/tables/{bh}/rows/1/point"]
    lines, same = report_bytes.compare(current, reference)
    assert not same
    assert lines[0] == (f"verify: differs at /tables/{spray}/rows/0/sample; "
                        f"2 leaves moved")


def _double_beta(doc):
    doc.samples[1]["beta"][0] *= 2
    return "/samples/1/beta/0"


def _shift_worst_at(doc):
    k = _table(doc, "spray")
    doc.tables[k]["worst_at"] += 1
    return f"/tables/{k}/worst_at"


def _double_margin(doc):
    k = _table(doc, "ricci")
    doc.tables[k]["margin"] *= 2
    return f"/tables/{k}/margin"


def _measure_a_skipped_table(doc):
    k = _table(doc, "nav-ricci")
    assert doc.tables[k]["max_rel_dev"] is None
    doc.tables[k]["max_rel_dev"] = 0.0
    return f"/tables/{k}/max_rel_dev"


@pytest.mark.parametrize("mutate", [_double_beta, _shift_worst_at,
                                    _double_margin, _measure_a_skipped_table])
def test_the_gate_sees_every_report2_field(mutate):
    """A verify report of torus_wind (whose nav-ricci rows are all
    skipped) differs from itself with one beta, worst_at, margin or
    skipped table's null changed, at that field's pointer."""
    doc = run_verify("torus_wind", points=2, dirs=2)
    moved = copy.deepcopy(doc)
    where = mutate(moved)
    lines, same = report_bytes.compare(
        {"verify": report_bytes._canonical(moved)},
        {"verify": report_bytes._canonical(doc)})
    assert not same
    assert lines[0].startswith(f"verify: differs at {where}; 1 leaves moved")


def _csv_cell(value):
    return " ".join(repr(float(v)) for v in value)


@pytest.mark.parametrize("name", builtin_names())
def test_csv_keeps_the_report1_columns(name):
    """--csv-out of every builtin's verify and convert report: the row
    of sample k gets the x of point k // D and direction k % D of that
    point as its y (D directions per point), a point row that point's x
    alone."""
    for doc in (run_verify(name), run_convert(name, "nav"),
                run_convert(name, "ab")):
        text = doc.to_csv()
        assert text.startswith("table,x,")
        d = len(doc.samples[0]["ys"])
        rows = [row for table in doc.tables for row in table["rows"]]
        lines = list(csv.DictReader(text.splitlines()))
        assert len(lines) == len(rows)
        for row, line in zip(rows, lines):
            if "sample" in row:
                point = doc.samples[row["sample"] // d]
                y = _csv_cell(point["ys"][row["sample"] % d])
            else:
                point, y = doc.samples[row["point"]], ""
            assert (line["x"], line["y"]) == (_csv_cell(point["x"]), y)
