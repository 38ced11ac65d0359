"""tools/report_bytes.py's comparison (what moved between two report
sets) and its expansion of a report/2 document into report/1."""
import importlib.util
import json
from pathlib import Path

import pytest

from kropina.reports import ReportDocument
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


# -- report/2 expanded into report/1 -----------------------------------------


def _report2(doc):
    return json.loads(doc.to_json(timings=False))


def test_a_wrong_sample_index_shows_as_moved_x_and_y_leaves():
    """A row whose sample index names another direction of its point
    moves that row's y leaves, and one whose point index names another
    point moves that row's x leaves; nothing else moves."""
    data = _report2(run_verify("s3_hopf", points=2, dirs=3))
    reference = {"verify": json.dumps(report_bytes.as_report1(data))}
    spray = next(k for k, t in enumerate(data["tables"])
                 if t["name"] == "spray")
    bh = next(k for k, t in enumerate(data["tables"])
              if t["name"] == "bh-density")
    wrong = json.loads(json.dumps(data))
    wrong["tables"][spray]["rows"][0]["sample"] = 1
    wrong["tables"][bh]["rows"][1]["point"] = 0
    current = {"verify": json.dumps(report_bytes.as_report1(wrong))}

    moved = list(report_bytes.moved_leaves(
        json.loads(reference["verify"]), json.loads(current["verify"])))
    assert moved
    assert {where.rsplit("/", 1)[0] for where, *_ in moved} == {
        f"/tables/{spray}/rows/0/y", f"/tables/{bh}/rows/1/x"}
    lines, same = report_bytes.compare(current, reference)
    assert not same
    assert lines[0].startswith(
        f"verify: differs at /tables/{spray}/rows/0/y/")


def test_as_report1_restores_the_report1_tree():
    """Rows get their x and y back in place of the index, the samples
    list, worst_at and margin go, an all-skipped table reads 0.0 again
    and the schema id is report/1; a report/1 tree is left as it is."""
    data = report_bytes.as_report1(_report2(run_verify(
        "torus_wind", points=2, dirs=2)))
    assert data["schema"] == "report/1" and "samples" not in data
    for table in data["tables"]:
        assert "worst_at" not in table and "margin" not in table
        for row in table["rows"]:
            assert "sample" not in row and "point" not in row
            assert ("y" in row) == (table["name"] != "bh-density")
            assert len(row["x"]) == 3
    nav_ricci = next(t for t in data["tables"] if t["name"] == "nav-ricci")
    assert nav_ricci["passed"] is None and nav_ricci["max_rel_dev"] == 0.0
    assert report_bytes.as_report1(data) is data


@pytest.mark.parametrize("name", builtin_names())
def test_csv_keeps_the_report1_columns(name):
    """--csv-out of every builtin's verify and convert report: each
    row's sample (or point) index resolves back to its x and y columns,
    so the CSV is the one of the report expanded to report/1."""
    for doc in (run_verify(name), run_convert(name, "nav"),
                run_convert(name, "ab")):
        # the document's own tree, whose rows keep their key order
        old = report_bytes.as_report1(doc._tree(timings=False))
        expanded = ReportDocument(kind=doc.kind, scenario=doc.scenario,
                                  tables=old["tables"])
        assert doc.to_csv() == expanded.to_csv()
        assert doc.to_csv().splitlines()[0].startswith("table,x,")
