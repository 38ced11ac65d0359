"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py

Each test starts the benchmark as a subprocess, the way it is run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(root, *args, timeout=600):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=timeout,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_and_reports_match():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    args = ("--workload", "verify-nav", "--seed", "2", "--seconds", "1",
            "--trace", "1")
    first = _result(_run(ROOT, *args))
    second = _result(_run(ROOT, *args))
    # correct covers the traced reports being byte-equal to the untraced
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for name in counted:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["expr.eval.jet.calls"]["value"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "check-ab", "--seconds", "1",
                timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
