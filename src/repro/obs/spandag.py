"""The one span-dependency DAG read by every trace analysis.

:mod:`repro.obs.whatif` replays it with scaled costs and
:mod:`repro.obs.critical` walks its binding chain.  Span ``i`` has a
start event ``2 * i`` and an end event ``2 * i + 1``; each event happens
at the latest of its *terms* ``time(pred) + offset * scale`` — ``pred``
another event (or none: a fixed time), ``offset`` a duration from the
trace, ``scale`` the scenario factor of the resource doing that work
(1.0 for waiting, gaps and tails).  The dependency rules:

* **Intrinsic durations scale.**  A span's duration is treated as work
  on its resource (:func:`resource_of`): compute spans scale by
  ``Scenario.compute``, wire spans by ``Scenario.comm`` (or a per-link
  override matched against the ``wire.pe{s}->pe{d}`` lane name),
  host-thread and ``api`` spans by ``Scenario.host``.  ``sync`` spans
  do *not* scale — their length is waiting, which the replay
  re-derives.
* **Lane slack is preserved.**  A span starts at its lane
  predecessor's new end plus the original gap between them.  Gaps
  encode scheduling structure the DAG does not model (issue order,
  period offsets), so keeping them absolute is the conservative
  choice: predictions never assume the runtime would also reschedule.
* **Device work moves with its launch.**  A GPU-lane work span whose
  start coincides with the end of a same-PE host ``api`` span (the
  ``launch:``/``memcpyAsync:`` call that enqueued it) is anchored to
  that span: it starts at the anchor's *new* end (still FIFO behind its
  lane predecessor).  This is what propagates faster host control onto
  the device timeline in CPU-controlled variants.
* **Transfers move with their issuer.**  A wire span's start is its
  *issue* time, which happens inside some span on the source PE (the
  kernel or API call that called ``putmem_signal``).  The replay
  anchors each wire span to the containing span on its source PE's
  lanes, at the original offset scaled by that span's factor — so
  faster compute issues its puts earlier and the transfers shift left
  with it.  FIFO order on the wire lane is still enforced (a transfer
  never starts before its lane predecessor's new end).
* **Waits end when their producer arrives.**  A span carrying
  ``flow_f`` ends at ``max(own start, producer's new end) + tail``,
  where ``tail`` is the original post-arrival processing time.  A wait
  whose producer speeds up shrinks; one whose producer slows down
  stretches.
* **Barriers release when the last party arrives.**  Sync spans named
  like barriers (``host_barrier``, ``nvshmem_barrier_all``) that share
  one original end across several lanes are one rendezvous round: every
  member's span runs from its own arrival to a common release at
  ``max(arrivals) + cost``.  The replay re-derives the release from the
  members' *new* starts and scales the rendezvous cost with the span's
  resource (host-side barriers are host-control overhead) — so a
  CPU-controlled variant's per-iteration barrier responds both to the
  stragglers arriving earlier and to faster host control.
* **Joins end when their last dependent finishes.**  A ``sync`` span
  with *no* flow link is a join — a host thread waiting for its
  device's streams (``eventSync``, end-of-run ``wait``).  Its
  producers are inferred: every same-PE span (GPU streams, outgoing
  wires) whose *original* end fell inside the wait's window.  The
  replayed wait ends when the latest of those ends in the replay —
  this is what lets faster compute shorten a CPU-controlled variant's
  launch-wait loop.

Every rule reproduces the original start/end exactly when every scale
is 1.0, so the traced schedule is the DAG's fixed point.

Assumptions (documented in docs/observability.md): dependencies are
fixed — scaling never changes *which* span satisfies a wait, overtakes
FIFO order on a wire, or alters contention; and un-modeled slack stays
constant rather than scaling with its neighbors.  Predictions are
therefore first-order estimates, most trustworthy for modest scale
factors.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.sim.trace import Span, pe_of_lane, wire_route

__all__ = ["SpanDag", "build_span_dag", "resource_of"]

#: ``(pred event or None, offset us, index of the span whose scale
#: multiplies the offset, or None when it never scales)``
Term = tuple[int | None, float, int | None]


def resource_of(span: Span) -> str | None:
    """The resource whose scale multiplies ``span``'s duration, or
    ``None`` for waiting (which is derived, never intrinsic)."""
    if span.lane.startswith("wire."):
        return "comm"
    if span.lane.startswith("host"):
        return "host"
    if span.category in ("compute", "comm"):
        return span.category
    if span.category == "api":
        return "host"
    return None


@dataclass(frozen=True)
class SpanDag:
    """Every span event as the latest of its dependency terms."""

    spans: list[Span]
    #: deterministic processing order: completion time, then
    #: start/lane/name; nearly topological, so sweeps converge fast
    order: list[int]
    #: per event (``2 * i`` start, ``2 * i + 1`` end), its terms in
    #: rule order; the first term reaching the max binds the event
    terms: list[list[Term]]

    def times(self) -> list[float]:
        """The traced time of every event."""
        return [t for span in self.spans for t in (span.start, span.end)]

    def bind(self, event: int, times: list[float],
             scales: list[float]) -> tuple[float, Term]:
        """``event``'s time under ``scales`` and the term attaining it."""
        values = [(0.0 if pred is None else times[pred])
                  + (offset if by is None else offset * scales[by])
                  for pred, offset, by in self.terms[event]]
        k = values.index(max(values))
        return values[k], self.terms[event][k]


def build_span_dag(spans: list[Span]) -> SpanDag:
    """Infer the dependency terms of every event of ``spans``.

    Each rule below adds the terms of the events it binds; an end event
    no rule binds is the span's own start plus its scaled duration.
    """
    n = len(spans)
    order = sorted(range(n),
                   key=lambda i: (spans[i].end, spans[i].start, spans[i].lane,
                                  spans[i].name, i))
    rank = {idx: pos for pos, idx in enumerate(order)}
    terms: list[list[Term]] = [[] for _ in range(2 * n)]

    # flow links: producer span (flow_s) -> consumer span (flow_f); the
    # wait ends at max(own start, producer's end) + its original tail
    producers = {_flow_id(spans[i], "flow_s"): i for i in order
                 if _flow_id(spans[i], "flow_s") is not None}
    for i in order:
        fid = _flow_id(spans[i], "flow_f")
        j = producers.get(fid) if fid is not None else None
        if j is not None and rank[j] < rank[i]:
            span = spans[i]
            tail = max(0.0, span.end - max(span.start, spans[j].end))
            terms[2 * i + 1].extend([(2 * i, tail, None),
                                     (2 * j + 1, tail, None)])

    # per-PE spans (own GPU streams + outgoing wires), sorted by end
    # because they are collected in `order`: the candidate pool for
    # issue anchors and join inference
    pe_work: dict[int, list[int]] = {}
    pe_other: dict[int, list[int]] = {}  # non-wire spans, sorted by start
    for i in order:
        span = spans[i]
        pe = pe_of_lane(span.lane)
        if pe is None:
            continue
        pe_work.setdefault(pe, []).append(i)
        if not span.lane.startswith("wire."):
            pe_other.setdefault(pe, []).append(i)
    for members in pe_other.values():
        members.sort(key=lambda j: (spans[j].start, spans[j].end,
                                    spans[j].lane, spans[j].name, j))
    pe_work_ends = {pe: [spans[j].end for j in members]
                    for pe, members in pe_work.items()}
    pe_other_starts = {pe: [spans[j].start for j in members]
                       for pe, members in pe_other.items()}

    # issue anchor per wire span: the latest-starting same-source-PE
    # span containing the wire span's start (the put's call site); a
    # wire span without one keeps its absolute issue time
    for i in order:
        route = wire_route(spans[i].lane)
        if route is None:
            continue
        anchor: Term = (None, spans[i].start, None)
        members = pe_other.get(route[0], [])
        k = bisect_right(pe_other_starts.get(route[0], []),
                         spans[i].start) - 1
        while k >= 0:
            j = members[k]
            if spans[j].end + 1e-12 >= spans[i].start:
                anchor = (2 * j, spans[i].start - spans[j].start, j)
                break
            k -= 1
        terms[2 * i].append(anchor)

    # host anchor per GPU-lane work span: the same-PE host api span
    # whose original end coincides with the span's start — the enqueue
    # call it was waiting on.  Coincidence *is* the dependency signal;
    # a span that started later than its enqueue was stream-queued and
    # the lane FIFO rule already covers it.
    pe_api: dict[int, list[int]] = {}
    for i in order:
        span = spans[i]
        if span.lane.startswith("host") and span.category == "api":
            pe = pe_of_lane(span.lane)
            if pe is not None:
                pe_api.setdefault(pe, []).append(i)
    for members in pe_api.values():
        members.sort(key=lambda j: (spans[j].end, spans[j].start, j))
    pe_api_ends = {pe: [spans[j].end for j in members]
                   for pe, members in pe_api.items()}

    for i in order:
        span = spans[i]
        if (not span.lane.startswith("gpu") or span.lane.startswith("wire.")
                or span.category == "sync"):
            continue
        pe = pe_of_lane(span.lane)
        members = pe_api.get(pe, [])
        ends = pe_api_ends.get(pe, [])
        k = bisect_right(ends, span.start + 1e-12) - 1
        while k >= 0 and ends[k] >= span.start - 1e-12:
            j = members[k]
            if rank[j] < rank[i]:
                terms[2 * i].append((2 * j + 1, 0.0, None))
                break
            k -= 1

    # lane order: the latest same-lane span that ended by this start
    by_lane: dict[str, tuple[list[int], list[float]]] = {}
    for i in order:
        span = spans[i]
        members, ends = by_lane.setdefault(span.lane, ([], []))
        k = bisect_right(ends, span.start + 1e-12) - 1
        members.append(i)
        ends.append(span.end)
        start = terms[2 * i]
        if k < 0:
            if not start:
                # first span on its lane keeps its absolute offset
                start.append((None, span.start, None))
        elif start:
            # anchored work (a transfer, enqueued device work) never
            # overtakes the prior span on its wire or stream: FIFO
            start.append((2 * members[k] + 1, 0.0, None))
        else:
            # preserve the original gap to the lane predecessor
            prev = members[k]
            start.append((2 * prev + 1, span.start - spans[prev].end, None))

    # barrier rounds: sync spans *named* like barriers that share one
    # original end across distinct lanes are one rendezvous.  The name
    # check matters — symmetric per-rank waits can end at the same
    # instant without being causally coupled, and grouping those would
    # freeze their (join-derived) durations.
    rounds: dict[tuple[str, float], list[int]] = {}
    for i in order:
        span = spans[i]
        if (span.category == "sync" and not terms[2 * i + 1]
                and "barrier" in span.name):
            rounds.setdefault((span.name, span.end), []).append(i)
    for (_name, end), members in rounds.items():
        if len({spans[j].lane for j in members}) >= 2:
            cost = max(0.0, end - max(spans[j].start for j in members))
            for i in members:
                terms[2 * i + 1].extend((2 * j, cost, i) for j in members)

    # join producers per flow-less sync span: same-PE work whose
    # original end fell inside the wait's window (ties by rank so two
    # equal-ended joins never wait on each other)
    for i in order:
        span = spans[i]
        if span.category != "sync" or terms[2 * i + 1]:
            continue
        pe = pe_of_lane(span.lane)
        members = pe_work.get(pe) if pe is not None else None
        if not members:
            continue
        ends = pe_work_ends[pe]
        lo = bisect_right(ends, span.start - 1e-12)
        hi = bisect_right(ends, span.end + 1e-12)
        deps = [j for j in members[lo:hi]
                if j != i and spans[j].lane != span.lane
                and (spans[j].end < span.end - 1e-12 or rank[j] < rank[i])]
        if deps:
            tail = max(0.0, span.end - max(spans[j].end for j in deps))
            terms[2 * i + 1].append((2 * i, tail, None))
            terms[2 * i + 1].extend((2 * j + 1, tail, None) for j in deps)

    for i in order:
        if not terms[2 * i + 1]:
            terms[2 * i + 1].append((2 * i, spans[i].duration, i))
    return SpanDag(spans, order, terms)


def _flow_id(span: Span, key: str):
    meta = span.meta
    return meta.get(key) if isinstance(meta, dict) else None
