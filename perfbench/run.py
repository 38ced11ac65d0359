"""Benchmark of the kropina workbench.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its src/.
Each workload runs in a fresh child process (perfbench/child.py) as a
closed loop: one client, jobs one after another.  Every job's report is
checked.  With --trace 0 the end-to-end metrics of BENCHMARK.json are
reported, with --trace 1 its per-layer metrics.  Times are scaled to a
reference host speed by a probe loop sampled while each job runs (see
speed.py); the table also shows the raw times.  A table goes to stdout,
and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --workload all (the default) every workload runs in turn, one table
row each, and the JSON metric names are prefixed with the workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check-ab", "verify-nav", "convert-roundtrip")

# set-up is sampled by this many set-up-only children before the
# measuring child and as many after it, plus the measuring child itself,
# and reported as the median
SETUP_EACH_SIDE = 3
# one workload's run must end within this many seconds
RUN_LIMIT_S = 175.0
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # the report's tool version asks git for the commit; keep git from
    # searching above the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def spawn(args, deadline):
    """Run child.py to completion; returns its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), *args,
           "--spawned-at", repr(started)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child exited with code {proc.returncode}: {' '.join(args)}"
        )
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, deadline, spec):
    args = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]

    def setup_only():
        return spawn(args + ["--setup-only"], deadline)

    setups = [] if trace else [setup_only() for _ in range(SETUP_EACH_SIDE)]
    out = spawn(args, deadline)
    if not trace:
        setups += [setup_only() for _ in range(SETUP_EACH_SIDE)]
    for line in out["failures"]:
        print(f"FAILED {name}: {line}", file=sys.stderr)
    for k, label in enumerate(out["jobs"]):
        times = ", ".join(f"{r[k]:.3f}" for r in out["rounds"])
        print(f"# {name} job {label}: {times} s", file=sys.stderr)
    if trace:
        values = out["metrics"]
        wanted = spec["per_layer"]
    else:
        setups.append(out)
        values = dict(out["metrics"])
        for key in ("setup_s", "raw_setup_s"):
            values[key] = statistics.median(s[key] for s in setups)
        values["peak_rss_mb"] = out["peak_rss_mb"]
        wanted = spec["end_to_end"]
    # a layer function never called has no entry: it counts as 0
    metrics = {
        m["name"]: {
            "value": values.get(m["name"], 0) if trace else values[m["name"]],
            "unit": m["unit"],
        }
        for m in wanted
    }
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "rounds": out["rounds"],
        "metrics": metrics,
        "all": values,
    }


def print_table(results, trace):
    if trace:
        for name, res in results.items():
            print(f"# {name}: traced metrics (per-layer)")
            for key in sorted(res["all"]):
                print(f"  {key:<48} {res['all'][key]:.6g}")
        return
    first = next(iter(results.values()))["metrics"]
    raw = {"raw_setup_s": "s", "raw_wall_s": "s", "raw_samples_per_s": "1/s"}
    print(f"{'workload':<20}" + "".join(f"{c:>15}" for c in first)
          + "".join(f"{c:>19}" for c in raw)
          + f"{'failed_frac':>13}{'rounds':>8}")
    for name, res in results.items():
        row = "".join(f"{m['value']:>15.4f}" for m in res["metrics"].values())
        row += "".join(f"{res['all'][c]:>19.4f}" for c in raw)
        frac = res["failed"] / res["attempted"]
        print(f"{name:<20}{row}{frac:>13.4f}{len(res['rounds']):>8}")
    print(f"{'(unit)':<20}" + "".join(f"{m['unit']:>15}" for m in first.values())
          + "".join(f"{u:>19}" for u in raw.values()) + f"{'1':>13}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure whole rounds for about this long "
                             "(at least two rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kropina" / "__init__.py").is_file():
        print(f"no kropina sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = run_workload(
                name, args.seed, args.seconds, args.trace, deadline, spec
            )
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    print_table(results, args.trace)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {
            f"{wl}.{name}": m
            for wl, r in results.items() for name, m in r["metrics"].items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
