"""tools/report_bytes.py's comparison: what moved between two report sets."""
import importlib.util
import json
from pathlib import Path

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
