"""Unified observability layer: metrics, trace enrichment, inspection.

Three pieces, all deterministic and zero-cost when disabled:

- :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` (counters,
  gauges, fixed-bucket histograms) threaded through the engine,
  interconnect, NVSHMEM, SDFG codegen, and sweep layers;
- :mod:`repro.obs.spandag` — the one span-dependency DAG inferred from
  a trace (lane order, flow links, wire issue anchors, host launch
  anchors, barrier rounds, joins); :mod:`repro.obs.critical` walks its
  binding chain into a per-resource critical path and
  :mod:`repro.obs.whatif` replays it with scaled costs;
- ``python -m repro.obs`` — the inspection CLI (``summary``, ``links``,
  ``ops``, ``critical-path``, ``timeline``, ``whatif``, ``regress``).

See ``docs/observability.md`` for the metrics catalogue and the
determinism contract.
"""

from repro.obs.critical import CriticalPathReport, PathStep, critical_path
from repro.obs.metrics import (
    DEFAULT_US_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_metrics,
    use_metrics,
)
from repro.obs.report import (
    critical_path_table,
    links_table,
    ops_table,
    summary_table,
)

__all__ = [
    "DEFAULT_US_EDGES",
    "Counter",
    "CriticalPathReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PathStep",
    "active_metrics",
    "critical_path",
    "critical_path_table",
    "links_table",
    "ops_table",
    "summary_table",
    "use_metrics",
]
