"""Perf-smoke goldens: a canonical observed run must reproduce the
committed metrics dump and Chrome trace byte for byte.

This is the local half of the CI ``perf-smoke`` job: every engine or
transport optimization claims to be invisible to published output, and
this test pins that claim to artifacts in git rather than to a
same-process A/B comparison.  If a change legitimately alters the
dumps, regenerate per tests/golden/README.md and review the diff.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.obs.__main__ import main
from repro.sanitize.__main__ import main as sanitize_main
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.stencil import StencilConfig, run_variant
from repro.stencil.base import default_initial
from repro.stencil.reference import jacobi_reference

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CANONICAL = ["summary", "--shape", "66x130", "--gpus", "2", "--iterations", "4"]


def test_metrics_and_trace_match_committed_golden(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    trace = tmp_path / "trace.json"
    rc = main([*CANONICAL, "--metrics-out", str(metrics),
               "--trace-out", str(trace)])
    assert rc == 0
    assert metrics.read_bytes() == (GOLDEN / "perf_smoke_metrics.json").read_bytes()
    assert trace.read_bytes() == (GOLDEN / "perf_smoke_trace.json").read_bytes()


def two_domain_dump() -> str:
    """Total time, metrics dump and span tuple of a 16-PE cpufree run
    on two 8-GPU NVSwitch domains, as one line of sorted-key JSON
    (floats render by shortest round-trip repr, so equal text means
    equal values)."""
    registry = MetricsRegistry()
    with use_metrics(registry):
        res = run_variant("cpufree", StencilConfig(
            global_shape=(66, 34), num_gpus=16, iterations=3,
            with_data=False))
    spans = [[s.lane, s.name, s.category, s.start, s.end]
             for s in res.tracer.spans]
    return json.dumps({"total_time_us": res.total_time_us,
                       "metrics": registry.to_dict(), "spans": spans},
                      sort_keys=True, separators=(",", ":")) + "\n"


def test_two_domain_run_matches_committed_golden():
    """Hierarchical runs dispatch in exactly the pinned event order."""
    golden = (GOLDEN / "two_domain_cpufree.json").read_text()
    assert two_domain_dump() == golden


#: one variant per buffer kind: cpufree and baseline_nvshmem allocate
#: symmetric buffers, baseline_p2p regular device buffers
DATA_VARIANTS = ("cpufree", "baseline_nvshmem", "baseline_p2p")
DATA_CONFIG = dict(global_shape=(70, 34), num_gpus=16, iterations=3,
                   seed=7, with_data=True)


def two_domain_data_dump() -> str:
    """Field SHA-256, metrics dump and span tuple of 16-PE with-data
    runs on two 8-GPU NVSwitch domains, one entry per variant in
    :data:`DATA_VARIANTS`.  The 68 interior rows split unevenly over 16
    ranks, so symmetric buffers carry padding rows."""
    out = {}
    for variant in DATA_VARIANTS:
        registry = MetricsRegistry()
        with use_metrics(registry):
            res = run_variant(variant, StencilConfig(**DATA_CONFIG))
        spans = [[s.lane, s.name, s.category, s.start, s.end]
                 for s in res.tracer.spans]
        field = np.ascontiguousarray(res.result, dtype=np.float64)
        out[variant] = {
            "field_sha256": hashlib.sha256(field.tobytes()).hexdigest(),
            "metrics": registry.to_dict(), "spans": spans,
            "total_time_us": res.total_time_us}
    return json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"


def test_two_domain_data_runs_match_committed_golden():
    """With-data runs keep their fields, event order and metrics."""
    golden = (GOLDEN / "two_domain_data.json").read_text()
    assert two_domain_data_dump() == golden


def test_two_domain_data_golden_fields_are_the_reference():
    """The pinned field hashes are those of the single-domain reference."""
    expected = jacobi_reference(
        default_initial(DATA_CONFIG["global_shape"], DATA_CONFIG["seed"]),
        DATA_CONFIG["iterations"])
    digest = hashlib.sha256(expected.tobytes()).hexdigest()
    golden = json.loads((GOLDEN / "two_domain_data.json").read_text())
    assert {v: golden[v]["field_sha256"] for v in DATA_VARIANTS} == \
        {v: digest for v in DATA_VARIANTS}


SANITIZE_GOLDENS = {
    # every shipped variant clean, every seeded bug flagged
    "sanitize_sweep.json": (
        ["sweep", "--gpus", "2", "--shape", "34x66", "--iterations", "4"], 0),
    # seeded races under transient retries: findings, counts, offsets
    "sanitize_racy_transient.json": (
        ["run", "--variant", "racy_unsignaled", "--gpus", "4",
         "--shape", "34x66", "--iterations", "5",
         "--fault-profile", "transient"], 1),
}


@pytest.mark.parametrize("golden", sorted(SANITIZE_GOLDENS))
def test_sanitizer_report_matches_committed_golden(golden, tmp_path, capsys):
    """The race detector reports exactly the pinned findings."""
    argv, expected_rc = SANITIZE_GOLDENS[golden]
    report = tmp_path / golden
    assert sanitize_main([*argv, "--report-out", str(report)]) == expected_rc
    assert report.read_bytes() == (GOLDEN / golden).read_bytes()
