"""Integrity tests for the benchmark and its traced run.

Run from the repository root::

    python3 -m pytest perfbench -q

They check that tracing only observes (outputs and metric dumps are
byte-identical with and without it), that span self time and sampled
self time are accounted as documented, that both modes report exactly
the metrics BENCHMARK.json declares, and that the benchmark refuses to
run without the repository's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def simulated(output):
    """The simulated part of a job's output, comparable with ``==``."""
    if isinstance(output, np.ndarray):
        return output.dtype.str, output.shape, output.tobytes()
    if isinstance(output, dict):
        return {key: simulated(value) for key, value in output.items()}
    if isinstance(output, (tuple, list)):
        return [simulated(value) for value in output]
    if isinstance(output, str):  # wall-clock notes are the only host-time text
        return [line for line in output.splitlines() if "wall time" not in line]
    return output


def test_span_self_time_is_duration_minus_child_coverage():
    spans = tracing.Spans()
    spans.records = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the union [1, 6] is covered once
        ["c", 2.0, 3.0, 1],
        ["d", 8.0, 12.0, 0],  # runs past its parent: only [8, 10] counts
    ]
    assert spans.self_times() == pytest.approx([10 - 5 - 2, 3 - 1, 3, 1, 4])
    assert spans.totals()["root"] == pytest.approx((1, 10.0, 3.0))


def test_live_spans_nest_and_subtract():
    spans = tracing.Spans()
    with spans.span("outer"):
        with spans.span("inner"):
            sum(range(10_000))
        sum(range(10_000))
    (name, start, end, parent), (iname, istart, iend, iparent) = spans.records
    assert (name, parent, iname, iparent) == ("outer", None, "inner", 0)
    assert start <= istart <= iend <= end
    assert spans.self_times()[0] == pytest.approx((end - start) - (iend - istart))


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert bench._tail([float(i) for i in range(100)]) == (89.0, 90.0)
    value, percentile = bench._tail([float(i) for i in range(11)])
    assert value == 0.0 and percentile == pytest.approx(100 / 11)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_jobs_reproduce_untraced_outputs_and_metric_dumps(name):
    from repro.obs.metrics import MetricsRegistry, use_metrics

    workload = WORKLOADS[name](ROOT, 3)
    workload.references()
    trace = tracing.Trace()
    with tracing.Sampler() as sampler:
        for index in range(workload.cycle):
            plain_registry = MetricsRegistry()
            with use_metrics(plain_registry):
                plain = workload.job(index, tracing.OFF)
            with tracing.traced_job(trace, sampler) as traced_registry:
                traced = workload.job(index, trace)
            assert workload.check(index, plain) is None
            assert workload.check(index, traced) is None
            assert simulated(traced) == simulated(plain)
            assert traced_registry.to_json() == plain_registry.to_json()
    assert trace.spans.totals()["job"][0] == workload.cycle


def test_sampled_self_times_tile_the_traced_job_time():
    workload = WORKLOADS["sdfg_compile"](ROOT, 5)
    trace = tracing.Trace()
    with tracing.Sampler() as sampler:
        for index in range(workload.cycle):
            with tracing.traced_job(trace, sampler):
                workload.job(index, trace)
    job_s = trace.spans.totals()["job"][1]
    sampled = sum(sampler.self_s.values())
    # each window is the samples' intervals plus the tail after the last one
    assert sampled + sum(trace.tails) == pytest.approx(job_s, abs=1e-3 * workload.cycle)
    resolution = max(sampler.max_gap_s, *trace.tails)
    assert job_s - sampled <= workload.cycle * resolution
    assert sampler.self_s["sdfg"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    args = bench._parse(["--workload", name, "--seed", "2", "--seconds", "0.01",
                         "--trace", "1"])
    jobs, metrics, _ = bench._traced(args)
    assert jobs.failed == 0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.overhead_ratio"][0] > 0
    assert all(metrics[m["name"]][1] == m["unit"] for m in SPEC["per_layer"])


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "chaos", "--seed", "4",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chaos", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "{" not in done.stdout
