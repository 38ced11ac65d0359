"""Canonical --no-timings reports of the builtins and random:3, as one JSON.

Runs check, verify, and convert to nav and to ab on every builtin scenario
and on random:3, and converts the document emitted in the other
representation back to the source one: 30 reports.  Every report is
serialised as ``to_json(timings=False)`` would, with ``tool.version``
dropped, so two checkouts that behave the same write the same bytes.

    python3 tools/report_bytes.py [--src DIR] > OUT.json

--src names the source tree to import kropina from (default: this
checkout's src/), so an older checkout without this script can be
measured too.  The JSON goes to stdout.  To compare two checkouts in one
command:

    diff <(python3 tools/report_bytes.py --src ../other/src) \\
         <(python3 tools/report_bytes.py)

Uses only the standard library and kropina; it is not part of the test
suite.
"""

import argparse
import json
import sys
from pathlib import Path

SCENARIOS = ("euclid_gaussian", "euclid_parallel", "euclid_twist", "s3_hopf",
             "torus_wind", "random:3")


def _canonical(doc):
    data = doc.as_dict(timings=False)
    data["tool"] = {k: v for k, v in data["tool"].items() if k != "version"}
    return data


def reports():
    """{label: canonical report dict} over the whole run plan."""
    from kropina.scenarios import load_scenario
    from kropina.workbench import run_check, run_convert, run_verify

    out = {}
    for name in SCENARIOS:
        sc = load_scenario(name)
        out[f"check {name}"] = _canonical(run_check(sc))
        out[f"verify {name}"] = _canonical(run_verify(sc))
        for to in ("nav", "ab"):
            there = run_convert(sc, to)
            out[f"convert {name} to {to}"] = _canonical(there)
            if to != sc.representation:
                back = run_convert(there.emitted, sc.representation)
                out[f"convert {name} to {to} and back"] = _canonical(back)
    return out


def main(argv=None):
    here = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(here / "src"),
                        help="source tree holding the kropina package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.stdout.write(json.dumps(reports(), sort_keys=True, indent=1,
                                allow_nan=False) + "\n")


if __name__ == "__main__":
    main()
