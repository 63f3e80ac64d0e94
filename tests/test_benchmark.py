"""Operation 0 of each benchmark workload, run and checked the way the
benchmark runs it, so that a change to a call shape the benchmark uses
fails here first."""

import pytest


@pytest.mark.parametrize("name", ["calibrate", "smile", "cli_loop"])
def test_benchmark_op_0_passes_its_own_check(bench_workloads, tmp_path, name):
    from bench_trace import NullTracer

    workload = bench_workloads.WORKLOADS[name](1, tmp_path, NullTracer())
    inp = workload.inputs(0)
    assert workload.check(inp, workload.op(inp)) == []
