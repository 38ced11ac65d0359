"""Command-line front end.

Subcommands: check (theorem verdicts), verify (closed vs generic formula
tables), convert (representation rewrite), scenarios (registry listing).

Exit codes: 0 pass, 1 usage or input problem, 2 verdict failure, 3
precondition failure.  argparse's usage handling is remapped so exit 2
stays reserved for verdicts.
"""

import argparse
import json
import sys
from pathlib import Path

from .scenarios import builtin_summaries
from .workbench import run_check, run_convert, run_verify


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageExit(message)


def _add_common(sub):
    sub.add_argument("--scenario", required=True,
                     help="builtin name, scenario file path, or random:<seed>")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the scenario's sampling seed")
    sub.add_argument("--json-out", metavar="PATH",
                     help="write the full report document as JSON")
    sub.add_argument("--csv-out", metavar="PATH",
                     help="write the report's tables as CSV")
    sub.add_argument("--no-timings", action="store_true",
                     help="strip wall-clock timings (byte-stable reports)")


def build_parser():
    parser = _Parser(prog="kropina",
                     description="numerical workbench for Kropina metrics")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    check = subs.add_parser("check",
                            help="run the Einstein characterisation checkers")
    _add_common(check)
    check.add_argument("--theorem", default="auto",
                       choices=["auto", "41", "44", "51", "61"],
                       help="checker to run (auto dispatches on the regime)")
    check.add_argument("--tol", type=float, default=None,
                       help="residual tolerance override")

    verify = subs.add_parser("verify",
                             help="cross-validate closed formulas against "
                                  "the generic pipeline")
    _add_common(verify)
    verify.add_argument("--points", type=int, default=None,
                        help="chart points (default: scenario value)")
    verify.add_argument("--dirs", type=int, default=None,
                        help="directions per point (default: scenario value)")

    convert = subs.add_parser("convert",
                              help="rewrite a scenario in the other "
                                   "representation")
    _add_common(convert)
    convert.add_argument("--to", required=True, choices=["nav", "ab"],
                         help="target representation")
    convert.add_argument("--gauge", default=None,
                         help="gauge expression for the emitted data "
                              "(default: the source space's gauge)")
    convert.add_argument("--out", metavar="PATH",
                         help="where to write the converted scenario "
                              "(default: <name>_<to>.json)")

    scen = subs.add_parser("scenarios",
                           help="scenario registry")
    scen.add_argument("action", choices=["list"])
    return parser


def _emit(doc, args):
    timings = not args.no_timings
    if args.json_out:
        Path(args.json_out).write_text(doc.to_json(timings=timings))
    if args.csv_out:
        Path(args.csv_out).write_text(doc.to_csv())
    sys.stdout.write(doc.summary())


def _cmd_check(args):
    doc = run_check(args.scenario, theorem=args.theorem, seed=args.seed,
                    tol=args.tol)
    _emit(doc, args)
    return doc.exit_code


def _cmd_verify(args):
    doc = run_verify(args.scenario, points=args.points, dirs=args.dirs,
                     seed=args.seed)
    _emit(doc, args)
    return doc.exit_code


def _cmd_convert(args):
    doc = run_convert(args.scenario, to=args.to, gauge=args.gauge,
                      seed=args.seed)
    out = Path(args.out) if args.out else Path(f"{doc.emitted['name']}.json")
    out.write_text(json.dumps(doc.emitted, indent=2, sort_keys=True) + "\n")
    _emit(doc, args)
    sys.stdout.write(f"converted scenario written to {out}\n")
    return doc.exit_code


def _cmd_scenarios(args):
    for name, dim, rep, desc in builtin_summaries():
        sys.stdout.write(f"{name:<18} {dim}d  {rep:<4} {desc}\n")
    sys.stdout.write(
        "random:<seed>      3d  ab   seeded polynomial-coefficient scenario\n"
    )
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "verify": _cmd_verify,
    "convert": _cmd_convert,
    "scenarios": _cmd_scenarios,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as e:
        print(f"kropina: error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:
        # argparse exits 0 for --help; anything else is a usage problem
        return 0 if e.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError) as e:
        # ScenarioError, GaugeError and ExprError are ValueErrors
        print(f"kropina: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
