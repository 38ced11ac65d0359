"""Run reports: schema-versioned documents with deterministic output.

A report echoes its scenario, names the tool version that produced it,
and carries the per-operation tables and checker verdicts.  verify and
convert reports list their sampled chart points once, in samples, each
with its directions ys: a table row names its (x, y) by a sample index,
counted over the points in order and over each point's directions
within it, or its chart point alone by a point index.  For a fixed
(scenario, seed) two runs serialize byte-identically once timings are
excluded; timings are the only nondeterministic field and live in their
own block so callers can strip them.

A report's JSON text is written in one walk by _json: sorted keys, a
two-space indent, ASCII-escaped strings, numbers as their repr, and each
non-finite float as the string "nan", "inf" or "-inf", so the JSON
stays strict.  These are the bytes json.dumps(sort_keys=True, indent=2)
writes over the test oracle's _strict tree (tests/oracles.py,
report_json).
"""

import csv
import io
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import __version__

REPORT_SCHEMA_ID = "report/2"

_EXIT_FOR = {"PASS": 0, "FAIL": 2, "ERROR": 2, "PRECONDITION": 3}
# severity order when merging verdicts: a precondition failure outranks
# a plain failure (the run never reached the theorem's hypotheses)
_RANK = {"PASS": 0, "FAIL": 1, "ERROR": 1, "PRECONDITION": 2}


def tool_version():
    """The package version; report bytes do not depend on the checkout."""
    return __version__


def _json(obj, nl="\n"):
    """obj as strict JSON text at the indentation nl opens, each
    non-finite float as a quoted string.  TypeError on what json.dumps
    refuses (a numpy int or bool, a set) and on a dict key that is not a
    str."""
    if isinstance(obj, float):
        text = float.__repr__(obj)
        # a finite float's text holds no "n"; "nan" and "inf" are quoted
        return '"' + text + '"' if "n" in text else text
    inner = nl + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            text = sep.join(map(float.__repr__, obj))
        except TypeError:  # an entry that is not a float
            text = None
        if text is None or "n" in text:
            text = sep.join([_json(v, inner) for v in obj])
        return "[" + inner + text + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + sep.join(
            [encode_basestring_ascii(k) + ": " + _json(v, inner)
             for k, v in sorted(obj.items())]) + nl + "}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable")


def _resolved(row, points, pairs):
    """row's (key, value) items, a sample index replaced in place by the
    x and y of that sample and a point index by the x of that point."""
    for key, value in row.items():
        if key == "sample":
            yield from pairs[value].items()
        elif key == "point":
            yield "x", points[value]["x"]
        else:
            yield key, value


@dataclass
class ReportDocument:
    """One run's result: verdict, samples, tables, checker output,
    timings."""

    kind: str
    scenario: dict
    verdict: str = "PASS"
    exit_code: int = 0
    checks: list = field(default_factory=list)
    tables: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    emitted: Optional[dict] = None
    samples: Optional[list] = None
    timings_ms: dict = field(default_factory=dict)

    @contextmanager
    def timed(self, label):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings_ms[label] = round(
                1000.0 * (time.perf_counter() - t0), 3
            )

    def settle(self, *verdicts):
        """Fold component verdicts into the document's overall state:
        the most severe one wins, the first of equally severe ones."""
        # a tuple, since max of one string would iterate its characters
        self.verdict = max((self.verdict, *verdicts), key=_RANK.__getitem__)
        self.exit_code = _EXIT_FOR[self.verdict]

    def to_json(self, timings=True):
        """The report as strict JSON text, written by _json in one walk."""
        return _json(self._tree(timings)) + "\n"

    def _tree(self, timings):
        doc = {
            "schema": REPORT_SCHEMA_ID,
            "kind": self.kind,
            "tool": {"name": "kropina", "version": tool_version()},
            "scenario": self.scenario,
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "checks": self.checks,
            "tables": self.tables,
            "errors": self.errors,
        }
        if self.emitted is not None:
            doc["emitted"] = self.emitted
        if self.samples is not None:
            doc["samples"] = self.samples
        if timings:
            doc["timings_ms"] = self.timings_ms
        return doc

    def to_csv(self):
        """Flatten every table row into one CSV (a `table` column keys
        them).  A row's sample index becomes the x and y columns of that
        sample, and its point index the x column of that point."""
        points = self.samples or []
        pairs = [{"x": p["x"], "y": y} for p in points for y in p["ys"]]
        rows = []
        columns = ["table"]
        for table in self.tables:
            for row in table.get("rows", []):
                flat = {"table": table["name"]}
                for key, value in _resolved(row, points, pairs):
                    if isinstance(value, (list, tuple)):
                        value = " ".join(repr(float(v)) for v in value)
                    flat[key] = value
                    if key not in columns:
                        columns.append(key)
                rows.append(flat)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()

    def summary(self):
        """Plain-text digest: one line per check condition or table."""
        lines = [
            f"{self.kind} {self.scenario.get('name', '?')}: "
            f"{self.verdict} (exit {self.exit_code})"
        ]
        for check in self.checks:
            head = f"  thm{check['theorem']}: {check['verdict']}"
            if "error" in check:
                head += f"  [{check['error']}]"
            lines.append(head)
            for cond in check.get("conditions", []):
                mark = "pass" if cond["passed"] else "FAIL"
                tag = " (precondition)" if cond.get("kind") == "precondition" else ""
                lines.append(
                    f"    {cond['name']:<28} {cond['residual']:>12.3e}  "
                    f"tol {cond['tol']:.0e}  {mark}{tag}"
                )
        for table in self.tables:
            if "max_rel_dev" in table:
                passed = table.get("passed", True)
                mark = ("skipped" if passed is None
                        else "pass" if passed else "FAIL")
                skipped = table.get("skipped", 0)
                note = f"  ({skipped} skipped)" if skipped else ""
                worst = table["max_rel_dev"]
                dev = "-" if worst is None else f"{worst:.3e}"
                lines.append(
                    f"  {table['name']:<24} max dev {dev:>12}"
                    f"  tol {table['tol']:.0e}  {mark}{note}"
                )
        for err in self.errors:
            lines.append(f"  error [{err['kind']}]: {err['message']}")
        return "\n".join(lines) + "\n"
