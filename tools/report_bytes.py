"""Canonical --no-timings reports of the scenarios in SCENARIOS, as one JSON.

Runs check, verify, and convert to nav and to ab on each scenario in
SCENARIOS (the 3-dimensional builtins and random:3), converts the
document emitted in the other representation back to the source one,
and runs check and verify on that round-tripped document: 42 reports.
Then check with the constants of CONSTANTS, which reach checkers 51 and
61 on both sides of their verdicts, check and verify on s5_hopf, and
verify at 1 x 3 on the random_scenario(3, n) documents of
RANDOM_DIMENSIONS, so that every dimension the scenario schema accepts
(2..6) is covered, and verify on s5_hopf at 4 x 10 on each of S5_SEEDS,
where a chart point batches ten directions in five dimensions, and
convert each scenario of GAUGES to ab in the gauge given there and that
document back to nav.  Last, verify at 3 x 3 on the random_scenario(3,
n) documents of STACKED_DIMENSIONS, runs of three chart points whose
x-stage passes stack, in every dimension, and check random_scenario(3,
3) with the fields of FAULT_CHANGES, a run whose middle point fails the
stacked tree pass, so that every point computes alone: 69 reports.
Every report is recorded as the whole report/2 text
``to_json(timings=False)`` writes, re-encoded by the package's report
encoder (reports._json) with ``tool.version`` dropped, so two checkouts
that behave the same write the same bytes.  Every other field is
compared: the samples with their x, ys and beta, each table's worst_at
and margin, and an all-skipped table's nulls.

    python3 tools/report_bytes.py [--src DIR] > OUT.json
    python3 tools/report_bytes.py [--src DIR] --against OUT.json

--src names the source tree to import kropina from (default: this
checkout's src/), so an older checkout without this script can be
measured too, as long as it writes report/2 through reports._json.  The
JSON, {label: report text}, goes to stdout.  With --against FILE the
reports are compared with FILE's instead: one line per label,
"identical", or "differs at" the first differing JSON pointer of the
parsed reports with the number of moved leaves and the largest relative
move among moved floats, then one indented line per moved leaf that is
not a float, or "text differs at line" the first differing line where
the parsed reports agree but their bytes do not.
The exit status is 1 when any label differs or is missing on either
side.  The byte gate between two checkouts is then:

    python3 tools/report_bytes.py --src ../other/src > before.json
    python3 tools/report_bytes.py --against before.json

Uses only the standard library and kropina; it is not part of the test
suite.
"""

import argparse
import json
import sys
from pathlib import Path

SCENARIOS = ("euclid_gaussian", "euclid_parallel", "euclid_twist", "s3_hopf",
             "torus_wind", "random:3")
# (scenario, weight constants) checked besides the scenario's own: the
# nu = 0, kappa != 0 regime (checker 51) and the projective one (61),
# each with a PASS and a FAIL: euclid_gaussian is weakly weighted
# Einstein only at its own constants (1, 0), and fails both
CONSTANTS = (("s3_hopf", {"a": 0, "c": "3/8"}),
             ("s3_hopf", {"preset": "pric"}),
             ("euclid_gaussian", {"preset": "pric"}),
             ("euclid_gaussian", {"a": 0, "c": "3/8"}),
             ("s5_hopf", {"a": 0, "c": "1/3"}),
             ("s5_hopf", {"a": "2/3", "c": "-1/9"}))
# dimensions n of the random_scenario(3, n) documents verified at 1 x 3
RANDOM_DIMENSIONS = (2, 4, 6)
# and of those verified at 3 x 3
STACKED_DIMENSIONS = (2, 3, 4, 5, 6)
# sampling seeds of the s5_hopf runs verified at 4 points x 10 directions
S5_SEEDS = range(1, 9)
# (scenario, gauge text) converted to ab in that gauge, and back to nav
GAUGES = (("s3_hopf", "1 + 0.1*x1"),)
# the fields set on random_scenario(3, 3) for a check whose middle
# sampled point has x1 + 0.2 <= 0, so the order-2 tree pass over its
# run raises and every point computes alone: the fault path
FAULT_CHANGES = {"weight": "ln(x1 + 0.2)", "seed": 0}


def _canonical(doc):
    from kropina.reports import _json

    data = json.loads(doc.to_json(timings=False))
    data["tool"] = {k: v for k, v in data["tool"].items() if k != "version"}
    return _json(data) + "\n"


def reports():
    """{label: canonical report text} over the whole run plan."""
    from kropina.scenarios import load_scenario, random_scenario
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
                label = f"{name} to {to} and back"
                out[f"convert {label}"] = _canonical(back)
                trip = load_scenario(back.emitted)
                out[f"check {label}"] = _canonical(run_check(trip))
                out[f"verify {label}"] = _canonical(run_verify(trip))
    for name, constants in CONSTANTS:
        doc = dict(load_scenario(name).as_dict(), constants=constants)
        label = ", ".join(f"{k} = {v}" for k, v in constants.items())
        out[f"check {name} at {label}"] = _canonical(
            run_check(load_scenario(doc)))
    sc = load_scenario("s5_hopf")
    out["check s5_hopf"] = _canonical(run_check(sc))
    out["verify s5_hopf"] = _canonical(run_verify(sc))
    for seed in S5_SEEDS:
        out[f"verify s5_hopf at 4 x 10, seed {seed}"] = _canonical(
            run_verify(sc, points=4, dirs=10, seed=seed))
    for n in RANDOM_DIMENSIONS:
        sc = load_scenario(random_scenario(3, n))
        out[f"verify random_scenario(3, {n})"] = _canonical(
            run_verify(sc, points=1, dirs=3))
    for name, gauge in GAUGES:
        there = run_convert(load_scenario(name), "ab", gauge=gauge)
        label = f"convert {name} to ab in gauge {gauge}"
        out[label] = _canonical(there)
        out[f"{label} and back"] = _canonical(
            run_convert(there.emitted, "nav"))
    for n in STACKED_DIMENSIONS:
        sc = load_scenario(random_scenario(3, n))
        out[f"verify random_scenario(3, {n}) at 3 x 3"] = _canonical(
            run_verify(sc, points=3, dirs=3))
    doc = dict(random_scenario(3, 3), **FAULT_CHANGES)
    out[f"check random_scenario(3, 3) with {FAULT_CHANGES['weight']}"] = (
        _canonical(run_check(load_scenario(doc))))
    return out


def moved_leaves(a, b, path=""):
    """(JSON pointer, old, new) of every place where a and b differ, in
    document order; a key or list entry on one side only is a leaf
    whose missing side is None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            where = f"{path}/{key.replace('~', '~0').replace('/', '~1')}"
            if key in a and key in b:
                yield from moved_leaves(a[key], b[key], where)
            else:
                yield where, a.get(key), b.get(key)
        return
    if isinstance(a, list) and isinstance(b, list):
        for k, (u, v) in enumerate(zip(a, b)):
            yield from moved_leaves(u, v, f"{path}/{k}")
        for k in range(min(len(a), len(b)), max(len(a), len(b))):
            yield (f"{path}/{k}", a[k] if k < len(a) else None,
                   b[k] if k < len(b) else None)
        return
    # leaves compare as their JSON text, so -0.0 and 0.0 differ
    if json.dumps(a) != json.dumps(b):
        yield path or "/", a, b


def _relative_move(old, new):
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if scale else 0.0


def _first_differing_line(a, b):
    for k, (u, v) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if u != v:
            return k
    return min(a.count("\n"), b.count("\n")) + 1


def compare(current, reference):
    """Lines per label and whether every label is identical, from two
    {label: report text} maps.

    A label whose parsed reports differ names its first moved leaf,
    counts its moved leaves, gives the largest relative move |new - old|
    / max(|old|, |new|) among moved floats, and lists every moved leaf
    that is not a float on both sides (a verdict, a flag, a count, a
    string, a key or entry present on one side only).  A label whose
    parsed reports agree but whose texts do not names the first line
    where the texts differ.
    """
    lines, same = [], True
    for label in sorted(set(current) | set(reference)):
        if label not in reference or label not in current:
            side = "reference" if label not in reference else "this run"
            lines.append(f"{label}: missing from {side}")
            same = False
            continue
        old_text, new_text = reference[label], current[label]
        moved = list(moved_leaves(json.loads(old_text), json.loads(new_text)))
        if not moved:
            if old_text == new_text:
                lines.append(f"{label}: identical")
            else:
                lines.append(f"{label}: text differs at line "
                             f"{_first_differing_line(old_text, new_text)}")
                same = False
            continue
        same = False
        floats, others = [], []
        for m in moved:
            both = isinstance(m[1], float) and isinstance(m[2], float)
            (floats if both else others).append(m)
        line = (f"{label}: differs at {moved[0][0]}; "
                f"{len(moved)} leaves moved")
        if floats:
            where, old, new = max(floats, key=lambda m: _relative_move(*m[1:]))
            line += (f", largest relative move "
                     f"{_relative_move(old, new):.3g} at {where} "
                     f"({old!r} -> {new!r})")
        lines.append(line)
        lines += [f"  not a float: {where}: {json.dumps(old)} -> "
                  f"{json.dumps(new)}"
                  for where, old, new in others]
    return lines, same


def main(argv=None):
    here = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(here / "src"),
                        help="source tree holding the kropina package")
    parser.add_argument("--against", metavar="FILE",
                        help="compare with the reports this script wrote "
                             "to FILE; exit 1 on any difference")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    current = reports()
    if args.against is None:
        sys.stdout.write(json.dumps(current, sort_keys=True, indent=1) + "\n")
        return 0
    with open(args.against) as fh:
        reference = json.load(fh)
    lines, same = compare(current, reference)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
