"""The benchmark's workloads: the jobs each one runs and what each job
must return.

Each workload leans on a different layer (see README.md):

- check-ab: run_check on ab-representation scenarios, where checker 41
  rebuilds a space from large derived navigation trees, so expression
  evaluation over jets dominates;
- verify-nav: run_verify on an enlarged grid plus run_check on
  navigation scenarios with small trees, so order-4 jets, MetricPoint
  and AbFields builds, jet_solve and jet_det dominate;
- convert-roundtrip: run_convert to the other representation and back,
  so printing, reparsing and load-time validation dominate.

The workload seed picks random:<seed> and the sampling seed of every job.
"""

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import kropina.workbench as wb
from kropina.scenarios import load_scenario

NAV_BUILTINS = ("euclid_parallel", "s3_hopf", "euclid_gaussian", "euclid_twist")

# Flat 4-D space with a constant unit wind.  With a = 0, c = 9/25 the
# regime is nu = 0, kappa != 0 at n = 4, so check runs checker 51,
# which no builtin reaches; order-4 jets then run in 8 variables.
FLAT4 = {
    "schema": "scenario/1",
    "name": "flat4_wind",
    "description": "constant unit wind on flat 4-space, checker-51 regime",
    "dimension": 4,
    "representation": "nav",
    "metric": [["1" if i == j else "0" for j in range(4)] for i in range(4)],
    "vector": ["0.6", "0.8", "0", "0"],
    "constants": {"a": 0, "c": "9/25"},
    "box": [[-0.5, 0.5]] * 4,
    "points": 3,
    "directions": 10,
    "seed": 3,
}

# check-ab checks each scenario at two chart points, one job per point,
# each with five directions (checker 41's fits need about five).  Short
# jobs let a run hold many rounds; two points keep the cost from
# depending much on where the seed puts a point.  The second point comes
# from the sampling seed plus this offset.
CHECK_AB_DIRS = 5
SECOND_POINT_SEED = 1_000_003

# verify-nav's enlarged sample grid (the builtins default to 3 x 10)
VERIFY_POINTS = 4
VERIFY_DIRS = 10

# The verdict each check must return.  The three PRECONDITION cases have
# an isotropy residual near 1e-2 against a tolerance of 1e-6.
CHECK_VERDICT = {
    "s3_hopf": "PASS",
    "euclid_parallel": "PASS",
    "euclid_gaussian": "PASS",
    "flat4_wind": "PASS",
    "euclid_twist": "PRECONDITION",
    "torus_wind": "PRECONDITION",
}
RANDOM_CHECK_VERDICT = "PRECONDITION"

# report keys that hold residuals and deviations; each must be finite
_DEVIATION_KEYS = {"residual", "rel_dev", "max_rel_dev", "dev_se"}


@dataclass
class Job:
    label: str
    expect: str      # verdict the report must carry
    samples: int     # sample-plan entries, (x, y) pairs, the job judges
    call: Callable   # previous job's ReportDocument (or None) -> ReportDocument


def _plan(scenario):
    return scenario.points * scenario.directions


def _check(scenario, seed, expect):
    return Job(
        f"check {scenario.name} seed {seed}", expect, _plan(scenario),
        lambda prev: wb.run_check(scenario, seed=seed),
    )


def _check_ab(seed):
    plan = {"points": 1, "directions": CHECK_AB_DIRS}
    torus = replace(load_scenario("torus_wind"), **plan)
    rnd = replace(load_scenario(f"random:{seed}"), **plan)
    jobs = [
        _check(sc, s, expect)
        for sc, expect in ((torus, CHECK_VERDICT["torus_wind"]),
                           (rnd, RANDOM_CHECK_VERDICT))
        for s in (seed, seed + SECOND_POINT_SEED)
    ]
    return jobs, [torus, rnd]


def _verify_nav(seed):
    scenarios = [load_scenario(name) for name in NAV_BUILTINS]
    scenarios.append(load_scenario(FLAT4))
    jobs = []
    for sc in scenarios:
        jobs.append(Job(
            f"verify {sc.name}", "PASS", VERIFY_POINTS * VERIFY_DIRS,
            lambda prev, sc=sc: wb.run_verify(
                sc, points=VERIFY_POINTS, dirs=VERIFY_DIRS, seed=seed
            ),
        ))
        jobs.append(_check(sc, seed, CHECK_VERDICT[sc.name]))
    return jobs, scenarios


def _convert_roundtrip(seed):
    scenarios = [
        load_scenario("torus_wind"),
        load_scenario(f"random:{seed}"),
        load_scenario("s3_hopf"),
    ]
    jobs = []
    for sc in scenarios:
        there = "nav" if sc.representation == "ab" else "ab"
        jobs.append(Job(
            f"convert {sc.name} to {there}", "PASS", _plan(sc),
            lambda prev, sc=sc, to=there: wb.run_convert(sc, to, seed=seed),
        ))
        jobs.append(Job(
            f"convert {sc.name} back to {sc.representation}", "PASS", _plan(sc),
            lambda prev, to=sc.representation: wb.run_convert(
                prev.emitted, to, seed=seed
            ),
        ))
    return jobs, scenarios


WORKLOADS = {
    "check-ab": _check_ab,
    "verify-nav": _verify_nav,
    "convert-roundtrip": _convert_roundtrip,
}


def setup(workload, seed):
    """Load the workload's scenarios and build their spaces.

    Returns (jobs, spaces).  The spaces feed the static node counts; the
    jobs rebuild their own, as the command line does.
    """
    jobs, scenarios = WORKLOADS[workload](seed)
    return jobs, [sc.space() for sc in scenarios]


def canonical(doc):
    """Report bytes without the tool version, which embeds the commit."""
    tool = {k: v for k, v in doc["tool"].items() if k != "version"}
    return json.dumps({**doc, "tool": tool}, sort_keys=True)


def _deviations(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            if key in _DEVIATION_KEYS and isinstance(value, (int, float)):
                yield f"{path}/{key}", float(value)
            else:
                yield from _deviations(value, f"{path}/{key}")
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _deviations(value, f"{path}/{k}")


def judge(job, doc):
    """Problems with one job's parsed report; empty when it is correct."""
    problems = []
    if doc["verdict"] != job.expect:
        problems.append(f"verdict {doc['verdict']}, expected {job.expect}")
    bad = [p for p, v in _deviations(doc) if not math.isfinite(v)]
    if bad:
        problems.append(f"{len(bad)} non-finite deviations, first at {bad[0]}")
    return problems
