"""Repeat the benchmark over several seeds and summarise its spread.

    python3 perfbench/collect.py --workload check-ab --seeds 1-10 \
        [--seconds 30] [--trace-seed 1] [--out FILE]

For each workload, runs perfbench/run.py once per seed, one run after
another, and reports for every end-to-end metric the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median.  With
--trace-seed it also records one traced run's per-layer metrics.  The
summary is printed and, with --out, written as JSON.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check-ab", "verify-nav", "convert-roundtrip")


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
        },
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in args.seeds:
            result = bench(workload, seed, seconds, 0)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ) + f", failed {result['failed']}/{result['attempted']}",
                file=sys.stderr, flush=True)
            runs.append(result)
        entry = {
            "seconds": seconds,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": {},
        }
        for name in bounds:
            entry["end_to_end"][name] = summarise(
                [r["metrics"][name]["value"] for r in runs]
            )
        if args.trace_seed is not None:
            traced = bench(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
        summary["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"{workload:<18} {name:<14} median {stats['median']:.4g}  "
                  f"q1 {stats['q1']:.4g}  q3 {stats['q3']:.4g}  "
                  f"spread {stats['spread']:.3f}  (bound {bounds[name]})",
                  flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
