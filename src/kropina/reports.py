"""Run reports: schema-versioned documents with deterministic output.

A report echoes its scenario, names the tool version that produced it,
and carries the per-operation tables and checker verdicts.  For a fixed
(scenario, seed) two runs serialize byte-identically once timings are
excluded; timings are the only nondeterministic field and live in their
own block so callers can strip them.
"""

import csv
import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from . import __version__

REPORT_SCHEMA_ID = "report/1"

_EXIT_FOR = {"PASS": 0, "FAIL": 2, "ERROR": 2, "PRECONDITION": 3}
# severity order when merging verdicts: a precondition failure outranks
# a plain failure (the run never reached the theorem's hypotheses)
_RANK = {"PASS": 0, "FAIL": 1, "ERROR": 1, "PRECONDITION": 2}


def tool_version():
    """The package version; report bytes do not depend on the checkout."""
    return __version__


def _strict(obj):
    """The report tree with each non-finite float written as the string
    "nan", "inf" or "-inf", so the JSON stays strict."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    return obj


def merge_verdicts(*verdicts):
    worst = "PASS"
    for v in verdicts:
        if _RANK[v] > _RANK[worst]:
            worst = v
    return worst


def exit_code_for(verdict):
    return _EXIT_FOR[verdict]


@dataclass
class ReportDocument:
    """One run's result: verdict, tables, checker output, timings."""

    kind: str
    scenario: dict
    verdict: str = "PASS"
    exit_code: int = 0
    checks: list = field(default_factory=list)
    tables: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    emitted: Optional[dict] = None
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
        """Fold component verdicts into the document's overall state."""
        self.verdict = merge_verdicts(self.verdict, *verdicts)
        self.exit_code = exit_code_for(self.verdict)

    def as_dict(self, timings=True):
        """The report as plain data; non-finite floats become strings."""
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
        if timings:
            doc["timings_ms"] = self.timings_ms
        return _strict(doc)

    def to_json(self, timings=True):
        return json.dumps(self.as_dict(timings), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"

    def to_csv(self):
        """Flatten every table row into one CSV (a `table` column keys them)."""
        rows = []
        columns = ["table"]
        for table in self.tables:
            for row in table.get("rows", []):
                flat = {"table": table["name"]}
                for key, value in row.items():
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
                lines.append(
                    f"  {table['name']:<24} max dev {table['max_rel_dev']:>12.3e}"
                    f"  tol {table['tol']:.0e}  {mark}{note}"
                )
        for err in self.errors:
            lines.append(f"  error [{err['kind']}]: {err['message']}")
        return "\n".join(lines) + "\n"
