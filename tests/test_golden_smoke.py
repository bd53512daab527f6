"""Perf-smoke goldens: a canonical observed run must reproduce the
committed metrics dump and Chrome trace byte for byte.

This is the local half of the CI ``perf-smoke`` job: every engine or
transport optimization claims to be invisible to published output, and
this test pins that claim to artifacts in git rather than to a
same-process A/B comparison.  If a change legitimately alters the
dumps, regenerate per tests/golden/README.md and review the diff.
"""

import json
import pathlib

from repro.obs.__main__ import main
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.stencil import StencilConfig, run_variant

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
