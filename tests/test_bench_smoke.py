"""The benchmark's workloads, one round each on seed 42: every operation
runs through the names the benchmark imports, its checks accept the
outputs, and the stage-by-stage run of the first operation gives the
program's own output. The full timed runs are ``python3 bench/run.py``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_round_passes_the_benchmark_checks(name):
    workload = workloads.WORKLOADS[name]()
    tracer = NullTracer()
    workload.setup(42, tracer)
    keys = workload.keys()
    outputs = [workload.canonical(workload.run(key)) for key in keys]
    assert workload.check(outputs, tracer) == []
    assert workload.canonical(workload.traced(keys[0], tracer)) == workload.reference(keys[0], tracer)
