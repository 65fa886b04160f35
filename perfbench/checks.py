"""The benchmark's own checks: determinism, tracing transparency, exact counts.

    python3 -m pytest -q perfbench/checks.py

The file name keeps it out of the repository's test suite; it runs each
workload three times under the tracer (a few minutes in all).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int, hashseed: str, trace: int = 1):
    """(result JSON, first-pass output digest, job-group lines) of one short run."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, env=env, check=True).stdout
    lines = out.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.strip().startswith("outputs: sha256"))
    groups = [line.split(", median")[0] for line in lines if line.strip().startswith("jobs ")]
    return json.loads(lines[-1]), digest, groups


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digests_ignore_hash_seed(workload):
    a, digest_a, _ = bench(workload, 1, "0")
    b, digest_b, _ = bench(workload, 1, "1")
    assert digest_a == digest_b


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_equal_untraced(workload):
    # every traced pass is gated against the run's first, untraced, pass
    result, _, _ = bench(workload, 1, "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_runs(workload):
    a, _, _ = bench(workload, 1, "0")
    b, _, _ = bench(workload, 1, "1")
    assert {k: a["metrics"][k]["value"] for k in COUNTS} == {k: b["metrics"][k]["value"] for k in COUNTS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed(workload):
    a, digest_a, groups_a = bench(workload, 1, "0")
    c, digest_c, groups_c = bench(workload, 2, "0")
    assert c["correct"]
    assert groups_a == groups_c  # same job count per (n, q) cell, or the same jobs
    if workload == "pointwise":
        assert digest_a != digest_c  # the seed does reach the inputs
    else:
        # the exhaustive workloads ignore the seed
        assert digest_a == digest_c
        assert {k: a["metrics"][k]["value"] for k in COUNTS} == {k: c["metrics"][k]["value"] for k in COUNTS}


def test_end_to_end_metrics_present():
    result, _, _ = bench("pointwise", 1, "0", trace=0)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
