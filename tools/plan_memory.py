"""Wall time and peak RSS of verify runs over large sample plans.

Each plan P x D runs run_verify(random_scenario(1, 6), points=P,
dirs=D), P chart points of D directions each in six dimensions, in a
fresh child process of its own, since ru_maxrss is the high-water mark
of the whole process: the child's peak RSS is the interpreter's and
numpy's (about 38 MB) plus the run's.  One line per plan goes to
stdout: the plan, the run's wall time, the child's peak RSS and the
report's verdict.

    python3 tools/plan_memory.py [--src DIR] [--bound MB] PLAN [PLAN ...]

PLAN is P x D written as "PxD", say 4x500.  --src names the source
tree to import kropina from (default: this checkout's src/), so an
older checkout can be measured too.  The exit status is 1 when a
child fails or, with --bound, when any plan's peak RSS is above MB.

Uses only the standard library and kropina; it is not part of the test
suite.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

# the child: one verify run, then its wall time, peak RSS and verdict
_CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from kropina.scenarios import random_scenario
from kropina.workbench import run_verify
scenario = random_scenario(1, 6)
t0 = time.perf_counter()
doc = run_verify(scenario, points=int(sys.argv[2]), dirs=int(sys.argv[3]))
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"wall_s": wall, "peak_rss_mb": rss,
                  "verdict": doc.verdict}))
"""


def _plan(text):
    try:
        points, dirs = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"a plan is PxD, say 4x500, not {text!r}") from None
    return points, dirs


def measure(src, points, dirs):
    """{wall_s, peak_rss_mb, verdict} of one plan, from a fresh child."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(points), str(dirs)],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None):
    here = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plans", nargs="+", type=_plan, metavar="PLAN",
                        help="points x directions, as PxD")
    parser.add_argument("--src", default=str(here / "src"),
                        help="source tree holding the kropina package")
    parser.add_argument("--bound", type=float, metavar="MB",
                        help="exit 1 when a plan's peak RSS is above MB")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    status = 0
    for points, dirs in args.plans:
        try:
            got = measure(src, points, dirs)
        except subprocess.CalledProcessError as e:
            sys.stdout.write(f"{points} x {dirs}: the run failed\n"
                             f"{e.stderr}")
            status = 1
            continue
        over = args.bound is not None and got["peak_rss_mb"] > args.bound
        sys.stdout.write(
            f"{points} x {dirs}: {got['wall_s']:.2f} s, "
            f"{got['peak_rss_mb']:.1f} MB, {got['verdict']}"
            + (f"  ABOVE {args.bound:g} MB" if over else "") + "\n")
        status = max(status, int(over))
    return status


if __name__ == "__main__":
    sys.exit(main())
