"""The benchmark under perfbench/ wraps and calls symmon names by attribute
lookup.  Loading its tracer and workload modules here, and running one traced
pass of every workload against the digests pinned in perfbench/golden.json,
makes a deleted or renamed name, or a changed output, fail the test suite and
not only the benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["census", "pointwise", "verify", "geometry"])
def test_perfbench_traced_pass_of_every_workload(monkeypatch, workload):
    tracer, workloads = _load(monkeypatch, "tracer"), _load(monkeypatch, "workloads")
    with tracer.Tracer().installed():
        jobs = workloads.build(workload, 1)
        assert jobs
        for job in jobs:
            digest = workloads.sha256(job.check(job.run()))
            assert job.pinned in (None, digest), job.name
