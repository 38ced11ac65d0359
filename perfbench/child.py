"""One workload in a fresh process; started by run.py, not by hand.

Prints one JSON object on stdout.  With --setup-only the process stops
after set-up and reports only its set-up time.  Otherwise it runs the
workload's jobs in a closed loop, one after another, in whole rounds
for about --seconds (at least two rounds), checking every report.
With --trace 1 it runs one untraced round and one traced round instead,
and reports the per-layer metrics.

Times are scaled to a reference host speed by speed.SpeedProbe.
"""

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import kropina  # noqa: E402  (from this checkout's src/, checked in main)
import workloads  # noqa: E402
from kropina.reports import tool_version  # noqa: E402
from speed import SpeedProbe, scale_now  # noqa: E402

# a trace is expected to show each workload leaning on its own layer:
# workload -> (share of workbench time, ">" or "<", limit)
LAYER_SHARE = {
    "check-ab": ("share.expr_eval_jet", ">", 0.5),
    "verify-nav": ("share.expr_eval_jet", "<", 0.5),
    "convert-roundtrip": ("share.io", ">", 0.5),
}


def run_round(jobs, scaled=None):
    """Run every job once, in order.  Returns (job seconds, reports,
    failures); a job's time covers its run_* call and the report's JSON.
    With a list for scaled, each job runs under a SpeedProbe and its time
    at reference speed is appended there."""
    times = []
    reports = []
    failures = []
    prev = None
    for job in jobs:
        probe = SpeedProbe() if scaled is not None else contextlib.nullcontext()
        with probe:
            t0 = time.perf_counter()
            try:
                doc = job.call(prev)
                text = doc.to_json(timings=False)
            except Exception:  # a job that raises counts as failed
                doc = None
                error = traceback.format_exc()
            elapsed = time.perf_counter() - t0
        times.append(elapsed)
        if scaled is not None:
            scaled.append(probe.scaled(elapsed))
        prev = doc
        if doc is None:
            failures.append(f"{job.label}: raised\n{error}")
            reports.append(None)
            continue
        parsed = json.loads(text)
        problems = workloads.judge(job, parsed)
        failures.extend(f"{job.label}: {p}" for p in problems)
        reports.append(None if problems else workloads.canonical(parsed))
    return times, reports, failures


def _count_failed(reports, reference):
    """Jobs whose report is missing or differs from the reference round."""
    return sum(
        1 for r, ref in zip(reports, reference) if r is None or r != ref
    )


def measure(jobs, seconds):
    rounds = []
    scaled = []
    failed = 0
    failures = []
    reference = None
    # the report's tool version runs git once; keep that out of the rounds
    tool_version()
    t_start = time.perf_counter()
    # whole rounds while the next one, as long as the mean so far, fits
    while len(rounds) < 2 or (
        time.perf_counter() - t_start
        + (time.perf_counter() - t_start) / len(rounds) <= seconds
    ):
        times, reports, problems = run_round(jobs, scaled)
        if reference is None:
            reference = reports
        else:
            problems += [
                f"{job.label}: report differs from the first round"
                for job, r, ref in zip(jobs, reports, reference)
                if r is not None and ref is not None and r != ref
            ]
        failed += _count_failed(reports, reference)
        failures.extend(problems)
        rounds.append(times)
    samples = sum(job.samples for job in jobs)
    # each job at its median over the rounds
    n = len(jobs)
    wall_s = sum(statistics.median(scaled[k::n]) for k in range(n))
    raw_wall_s = sum(statistics.median(t) for t in zip(*rounds))
    return {
        "attempted": len(jobs) * len(rounds),
        "failed": failed,
        "failures": failures,
        "jobs": [job.label for job in jobs],
        "rounds": rounds,
        "metrics": {
            "wall_s": wall_s,
            "samples_per_s": samples / wall_s,
            "raw_wall_s": raw_wall_s,
            "raw_samples_per_s": samples / raw_wall_s,
        },
    }


def traced(jobs, spaces, workload):
    from tracer import Tracer, node_counts

    plain_times, plain, failures = run_round(jobs)
    tracer = Tracer().install()
    try:
        bypasses = tracer.bypasses()
        trace_times, with_trace, more = run_round(jobs)
    finally:
        tracer.uninstall()
    failures += more
    failures += [f"traced call bypasses the wrapper: {b}" for b in bypasses]
    failures += [
        f"{job.label}: traced report differs from the untraced one"
        for job, a, b in zip(jobs, plain, with_trace)
        if a is not None and b is not None and a != b
    ]
    failed = _count_failed(plain, plain)
    failed += len(jobs) if bypasses else _count_failed(with_trace, plain)
    raw = tracer.metrics()
    raw.update(node_counts(spaces))
    raw["trace.overhead_frac"] = sum(trace_times) / sum(plain_times) - 1.0
    total = raw["workbench.all.s"]
    raw["share.expr_eval_jet"] = raw.get("expr.eval.jet.s", 0.0) / total
    raw["share.io"] = raw.get("io.s", 0.0) / total
    name, op, limit = LAYER_SHARE[workload]
    share = raw[name]
    ok = share > limit if op == ">" else share < limit
    print(
        f"layer share on {workload}: {name} = {share:.3f}, expected "
        f"{op} {limit}: {'ok' if ok else 'NOT MET'}",
        file=sys.stderr,
    )
    return {
        "attempted": 2 * len(jobs),
        "failed": failed,
        "failures": failures,
        "jobs": [job.label for job in jobs],
        "rounds": [plain_times, trace_times],
        "metrics": raw,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if Path(kropina.__file__).resolve().parent != SRC / "kropina":
        raise SystemExit(f"kropina imported from {kropina.__file__}, not {SRC}")
    jobs, spaces = workloads.setup(args.workload, args.seed)
    raw_setup_s = time.monotonic() - args.spawned_at
    setup_s = scale_now(raw_setup_s)
    if args.setup_only:
        out = {}
    elif args.trace:
        out = traced(jobs, spaces, args.workload)
    else:
        out = measure(jobs, args.seconds)
    out["raw_setup_s"] = raw_setup_s
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
