"""Causal what-if analysis: replay the span DAG with scaled costs.

:mod:`repro.obs.critical` answers *why was the run this long*; this
module answers *what would make it shorter*.  It replays the dependency
DAG of :mod:`repro.obs.spandag` — the one both analyses read, whose
docstring states every rule — with one resource's intrinsic cost
virtually scaled, predicting the new makespan: "speeding up the wires
2x saves 31%; speeding up compute saves 4%".  That ranking is the
principled bottleneck ordering the ROADMAP's autotuner item needs.

Values are solved by fixed-point iteration (Gauss–Seidel sweeps in
dependency-friendly order).  With every scale at 1.0 the original
schedule *is* the fixed point — each rule reproduces the original
start/end exactly — so the replay converges immediately and deltas are
pure effects of the scenario, never artifacts of the model (pinned in
``tests/obs/test_whatif.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Any, Iterable

from repro.obs.spandag import build_span_dag, resource_of
from repro.sim.trace import Span

__all__ = [
    "DEFAULT_SCENARIOS",
    "Scenario",
    "replay_makespan",
    "whatif_report",
    "whatif_table",
]

WHATIF_FORMAT = "repro-whatif-v1"


@dataclass(frozen=True)
class Scenario:
    """One virtual-hardware hypothesis.

    Scales multiply *durations*: 0.5 means the resource got 2x faster.
    ``links`` maps ``fnmatch`` patterns over wire lane names (e.g.
    ``"wire.pe0->*"``) to scales overriding ``comm`` per route.
    """

    name: str
    compute: float = 1.0
    comm: float = 1.0
    host: float = 1.0
    links: dict[str, float] = field(default_factory=dict)

    def scale_for(self, span: Span) -> float:
        resource = resource_of(span)
        if resource is None:
            return 1.0  # sync: waiting is derived, not intrinsic
        scale = getattr(self, resource)
        if span.lane.startswith("wire."):
            for pattern, value in self.links.items():
                if fnmatch(span.lane, pattern):
                    scale = value
        return scale


#: the standard bottleneck probe: each resource 2x faster, one at a time
DEFAULT_SCENARIOS = (
    Scenario("compute x2", compute=0.5),
    Scenario("comm x2", comm=0.5),
    Scenario("host x2", host=0.5),
)


def replay_makespan(spans: list[Span], scenario: Scenario,
                    max_passes: int = 25) -> float:
    """Predicted makespan (us) of ``spans`` under ``scenario``."""
    if not spans:
        return 0.0
    dag = build_span_dag(spans)
    scales = [scenario.scale_for(span) for span in spans]
    times = dag.times()
    t0 = min(s.start for s in spans)

    # Gauss–Seidel sweeps in the DAG's nearly topological order, so
    # scaled scenarios converge in a few; at scale 1.0 the first sweep
    # changes nothing (see module docs)
    for _ in range(max_passes):
        changed = False
        for i in dag.order:
            for event in (2 * i, 2 * i + 1):
                value, _term = dag.bind(event, times, scales)
                if abs(value - times[event]) > 1e-9:
                    changed = True
                times[event] = value
        if not changed:
            break

    return max(times[1::2]) - t0


def whatif_report(spans: Iterable[Span],
                  scenarios: Iterable[Scenario] = DEFAULT_SCENARIOS,
                  *, meta: dict[str, Any] | None = None) -> dict[str, Any]:
    """Byte-stable what-if document (``repro-whatif-v1``).

    Scenario entries are sorted by predicted savings, largest first
    (ties by name), so ``scenarios[0]`` *is* the bottleneck verdict.
    """
    spans = list(spans)
    baseline = replay_makespan(spans, Scenario("baseline"))
    entries = []
    for scenario in scenarios:
        makespan = replay_makespan(spans, scenario)
        saved = baseline - makespan
        entries.append({
            "name": scenario.name,
            "compute": scenario.compute,
            "comm": scenario.comm,
            "host": scenario.host,
            "links": dict(scenario.links),
            "makespan_us": makespan,
            "saved_us": saved,
            "saved_frac": (saved / baseline) if baseline else 0.0,
        })
    entries.sort(key=lambda e: (-e["saved_us"], e["name"]))
    payload: dict[str, Any] = {
        "format": WHATIF_FORMAT,
        "baseline_makespan_us": baseline,
        "scenarios": entries,
    }
    if meta is not None:
        payload["run"] = meta
    return payload


def whatif_table(payload: dict[str, Any]) -> str:
    """Ranked savings listing for the CLI."""
    lines = [f"baseline makespan: {payload['baseline_makespan_us']:.3f} us"]
    for entry in payload["scenarios"]:
        lines.append(
            f"  {entry['name']:>16}: {entry['makespan_us']:10.3f} us  "
            f"(saves {entry['saved_us']:.3f} us, "
            f"{100.0 * entry['saved_frac']:.1f}%)"
        )
    return "\n".join(lines)
