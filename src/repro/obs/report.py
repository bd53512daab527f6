"""Plain-text report tables for the ``repro.obs`` CLI.

Every builder takes already-collected data (a tracer, a registry, a
critical-path report) and returns a string — no simulation, no I/O —
so the tables are unit-testable and byte-stable.
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.critical import CriticalPathReport
from repro.obs.metrics import MetricsRegistry
from repro.sim.trace import Tracer

__all__ = [
    "critical_path_table",
    "links_table",
    "ops_table",
    "summary_table",
]


def _table(headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width text table (right-aligned numeric feel)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: list[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _us(value: float) -> str:
    return f"{value:.3f}"


def _pct(value: float) -> str:
    return f"{100.0 * value:.1f}%"


def summary_table(tracer: Tracer, total_us: float, *, top: int = 5) -> str:
    """Per-lane busy %, category totals, overlap ratio, top-k spans."""
    lines = [f"total simulated time: {_us(total_us)} us"]
    lines.append(f"overlap ratio (comm overlapped with compute): "
                 f"{_pct(tracer.overlap_ratio())}")
    lines.append("")
    cat_rows = []
    for category in ("compute", "comm", "sync", "api"):
        busy = tracer.total(category)
        if busy or category in ("compute", "comm"):
            frac = busy / total_us if total_us else 0.0
            cat_rows.append([category, _us(busy), _pct(frac)])
    lines.append(_table(["category", "union us", "of total"], cat_rows))
    lines.append("")
    busy = tracer.busy_per_lane()
    lane_rows = [
        [lane, _us(busy_us), _pct(busy_us / total_us if total_us else 0.0)]
        for lane, busy_us in sorted(busy.items())
    ]
    lines.append(_table(["lane", "busy us", "busy %"], lane_rows))
    lines.append("")
    # top-k span names by summed duration
    by_name: dict[tuple[str, str], tuple[float, int]] = defaultdict(lambda: (0.0, 0))
    for span in tracer.spans:
        total, count = by_name[(span.name, span.category)]
        by_name[(span.name, span.category)] = (total + span.duration, count + 1)
    ranked = sorted(by_name.items(), key=lambda kv: (-kv[1][0], kv[0]))[:top]
    span_rows = [
        [name, category, str(count), _us(total)]
        for (name, category), (total, count) in ranked
    ]
    lines.append(f"top {len(span_rows)} span names by total duration:")
    lines.append(_table(["span", "category", "count", "total us"], span_rows))
    return "\n".join(lines)


def links_table(metrics: MetricsRegistry) -> str:
    """Per-link traffic: bytes, transfers, mean contention sharers."""
    rows = []
    transfers = {tuple(sorted(labels.items())): metric.value
                 for labels, metric in metrics.find("hw.link.transfers", "counter")}
    sharers = {tuple(sorted(labels.items())): metric.value
               for labels, metric in metrics.find("hw.link.sharers_total", "counter")}
    for labels, metric in metrics.find("hw.link.bytes", "counter"):
        key = tuple(sorted(labels.items()))
        n = transfers.get(key, 0)
        mean_sharers = sharers.get(key, 0) / n if n else 0.0
        rows.append([
            labels.get("src", "?"), labels.get("dst", "?"),
            f"{metric.value:.0f}", f"{n:.0f}", f"{mean_sharers:.2f}",
        ])
    if not rows:
        return "(no link traffic recorded)"
    rows.sort()
    return _table(["src", "dst", "bytes", "transfers", "mean sharers"], rows)


def _cap(rows: list[list[str]], top: int | None) -> tuple[list[list[str]], int]:
    """Keep the first ``top`` rows; return (kept, elided count)."""
    if top is None or len(rows) <= top:
        return rows, 0
    return rows[:top], len(rows) - top


def ops_table(metrics: MetricsRegistry, *, top: int | None = None) -> str:
    """NVSHMEM op counts/bytes and signal-wait time per PE pair.

    ``top`` caps each section at its heaviest rows (by count, ties by
    label order); ``None`` shows everything.
    """
    nbytes = {tuple(sorted(labels.items())): metric.value
              for labels, metric in metrics.find("nvshmem.bytes", "counter")}
    rows = []
    for labels, metric in metrics.find("nvshmem.ops", "counter"):
        key = tuple(sorted(labels.items()))
        rows.append([
            labels.get("op", "?"), labels.get("src", "?"), labels.get("dst", "?"),
            f"{metric.value:.0f}", f"{nbytes.get(key, 0):.0f}",
        ])
    sections = []
    if rows:
        rows.sort(key=lambda r: (-float(r[3]), r))
        rows, elided = _cap(rows, top)
        sections.append(_table(["op", "src", "dst", "count", "bytes"], rows))
        if elided:
            sections.append(f"(+{elided} more op row(s); raise --top to see them)")
    else:
        sections.append("(no NVSHMEM ops recorded)")
    wait_us = {tuple(sorted(labels.items())): metric.value
               for labels, metric in metrics.find("nvshmem.wait.us", "counter")}
    wait_rows = []
    for labels, metric in metrics.find("nvshmem.wait.count", "counter"):
        key = tuple(sorted(labels.items()))
        total = wait_us.get(key, 0.0)
        mean = total / metric.value if metric.value else 0.0
        wait_rows.append([
            labels.get("pe", "?"), labels.get("src", "?"),
            f"{metric.value:.0f}", _us(total), _us(mean),
        ])
    if wait_rows:
        wait_rows.sort(key=lambda r: (-float(r[3]), r))
        wait_rows, elided = _cap(wait_rows, top)
        sections.append("")
        sections.append("signal waits (waiting PE vs signal source):")
        sections.append(
            _table(["pe", "src", "count", "total us", "mean us"], wait_rows)
        )
        if elided:
            sections.append(
                f"(+{elided} more wait row(s); raise --top to see them)")
    return "\n".join(sections)


def critical_path_table(report: CriticalPathReport, *, top: int = 20) -> str:
    """The binding chain and its per-resource attribution."""
    lines = [
        f"critical path: {_us(report.total_us)} us over {len(report.steps)} step(s)"
        f" ({_us(report.per_iteration_us)} us/iteration)"
    ]
    resource_rows = [
        [resource, _us(us), _pct(report.fraction(resource))]
        for resource, us in sorted(report.by_resource.items(),
                                   key=lambda kv: (-kv[1], kv[0]))
    ]
    lines.append(_table(["resource", "contributed us", "of path"], resource_rows))
    lines.append("")
    shown = report.steps if len(report.steps) <= top else report.steps[-top:]
    if len(report.steps) > top:
        lines.append(f"(last {top} of {len(report.steps)} steps)")
    step_rows = [
        [step.span.lane, step.span.name, step.event, step.resource,
         _us(step.span.start if step.event == "start" else step.span.end),
         _us(step.contributed_us)]
        for step in shown
    ]
    lines.append(_table(
        ["lane", "span", "event", "resource", "at", "contributed us"], step_rows
    ))
    return "\n".join(lines)
