"""Critical-path extraction: the binding chain of the span DAG.

The tracer records *what ran when*; this module answers *why the run
took as long as it did*.  It reads the same dependency DAG as the
what-if replay (:mod:`repro.obs.spandag`) at scale 1.0, where the traced
schedule is the DAG's fixed point, and walks back from the end of the
last-ending span.  At each start or end event it follows the *binding*
predecessor — the term attaining the max in the replay rule — so the
chain is exactly the one a what-if scenario must shorten to save time.

Each step contributes the time between its event and its predecessor's
event, so the contributions sum to the makespan.  That time goes to the
resource whose what-if scale multiplies it (``compute``, ``comm`` or
``host``); gaps, wait tails and the first event's offset from the trace
start go to ``wait``.  A resource with no share on the path therefore
saves nothing when the replay speeds it up — the paper's
compute / communication / host-control decomposition of where an
iteration's time goes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.spandag import build_span_dag, resource_of
from repro.sim.trace import Span

__all__ = ["RESOURCES", "CriticalPathReport", "PathStep", "critical_path"]

#: attribution buckets: the three scalable resources, then waiting
RESOURCES = ("compute", "comm", "host", "wait")


@dataclass(frozen=True)
class PathStep:
    """One start or end event on the critical path and the time it
    adds after its binding predecessor's event."""

    span: Span
    event: str  # "start" or "end"
    resource: str
    contributed_us: float


@dataclass
class CriticalPathReport:
    """The binding chain and its per-resource attribution."""

    steps: list[PathStep]
    total_us: float
    by_resource: dict[str, float]
    iterations: int = 1

    @property
    def per_iteration_us(self) -> float:
        return self.total_us / max(1, self.iterations)

    def fraction(self, resource: str) -> float:
        return self.by_resource.get(resource, 0.0) / self.total_us if self.total_us else 0.0


def critical_path(spans: list[Span], iterations: int = 1) -> CriticalPathReport:
    """Binding chain through ``spans`` (see module docs)."""
    by_resource = dict.fromkeys(RESOURCES, 0.0)
    if not spans:
        return CriticalPathReport([], 0.0, by_resource, iterations)
    dag = build_span_dag(spans)
    times = dag.times()
    ones = [1.0] * len(spans)
    t0 = min(s.start for s in spans)
    steps: list[PathStep] = []
    # the last span in the DAG order ends last (ties: latest rank)
    last = 2 * dag.order[-1] + 1
    event: int | None = last
    while event is not None:
        if len(steps) == len(times):  # a chain visits each event once
            raise RuntimeError("binding cycle in the span DAG")
        _value, (pred, _offset, by) = dag.bind(event, times, ones)
        resource = "wait" if by is None else resource_of(spans[by]) or "wait"
        contributed = times[event] - (t0 if pred is None else times[pred])
        steps.append(PathStep(spans[event // 2], ("start", "end")[event % 2],
                              resource, contributed))
        by_resource[resource] += contributed
        event = pred
    steps.reverse()
    return CriticalPathReport(steps, times[last] - t0, by_resource, iterations)
