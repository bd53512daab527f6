"""Offline race detection over recorded accesses.

Two accesses race when they touch overlapping offsets of the same PE's
copy of a symmetric allocation, at least one is a write, they come from
different processes, and no chain of synchronization edges orders them
(:func:`~repro.sanitize.hb.happens_before` on the recorded clocks).

Because the engine is single-threaded, the recorded sequence respects
real execution order: for ``a`` recorded before ``b``, ``b`` cannot
causally precede ``a``, so only the ``a -> b`` direction needs
checking.  That check needs only ``a``'s own component and one
component of ``b``'s clock, so each ``(array, owner_pe)`` group
gathers ``seen[b, a] = b.clock[a.tid]`` into a matrix and evaluates
the whole pair predicate with array operations, in blocks of rows that
bound memory on long runs.

Findings are deduplicated by *site pair* (the instrumented source
locations), keeping the earliest occurrence and a count — one missing
signal produces one finding per conflicting site pair, not one per
iteration.  Racing pairs come out in ``(b, a)`` row-major order, the
order of the pairwise loop ``for b: for a before b``, so the kept
occurrence is the first pair that loop meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.sanitize.recorder import Access, Sanitizer

__all__ = ["RaceFinding", "detect_races"]

#: pair-matrix cells evaluated at once (bounds memory, not results)
_BLOCK_CELLS = 1 << 18


@dataclass
class RaceFinding:
    """One (deduplicated) happens-before violation."""

    array: str
    owner_pe: int
    kind: str  # "read-write" | "write-read" | "write-write"
    offsets: tuple[int, int]  # overlapping [lo, hi) on the owner's copy
    first: Access
    second: Access
    count: int = 1

    @property
    def pes(self) -> tuple[int, ...]:
        return tuple(sorted({self.first.by_pe, self.second.by_pe}))

    @property
    def dedup_key(self) -> tuple:
        return (self.array, self.owner_pe, self.kind,
                self.first.site, self.second.site,
                self.first.by_pe, self.second.by_pe)

    @property
    def finding_id(self) -> str:
        """Stable id used for reporting and suppression matching."""
        return (f"race:{self.array}@pe{self.owner_pe}:"
                f"{self.first.site}<->{self.second.site}")

    def describe(self) -> dict[str, Any]:
        return {
            "id": self.finding_id,
            "array": self.array,
            "owner_pe": self.owner_pe,
            "kind": self.kind,
            "offsets": list(self.offsets),
            "pes": list(self.pes),
            "count": self.count,
            "first": self.first.describe(),
            "second": self.second.describe(),
        }

    def summary(self) -> str:
        a, b = self.first, self.second
        return (f"{self.kind} race on {self.array}@pe{self.owner_pe}"
                f"[{self.offsets[0]}:{self.offsets[1]}]: "
                f"{a.kind} by pe{a.by_pe} ({a.site}"
                f"{' ' + a.label if a.label else ''}, t={a.time_us:.3f}us) vs "
                f"{b.kind} by pe{b.by_pe} ({b.site}"
                f"{' ' + b.label if b.label else ''}, t={b.time_us:.3f}us), "
                f"x{self.count}")


def detect_races(sanitizer: Sanitizer) -> list[RaceFinding]:
    """All happens-before violations among the recorded accesses,
    deduplicated by site pair and ordered by first occurrence."""
    groups: dict[tuple[str, int], list[Access]] = {}
    for access in sanitizer.accesses:
        groups.setdefault((access.array, access.owner_pe), []).append(access)

    found: dict[tuple, RaceFinding] = {}
    for (array, owner_pe), accesses in groups.items():
        for j, i in _racing_pairs(accesses):
            a, b = accesses[i], accesses[j]
            finding = RaceFinding(
                array=array,
                owner_pe=owner_pe,
                kind=f"{a.kind}-{b.kind}",
                offsets=(max(a.lo, b.lo), min(a.hi, b.hi)),
                first=a,
                second=b,
            )
            prior = found.get(finding.dedup_key)
            if prior is None:
                found[finding.dedup_key] = finding
            else:
                prior.count += 1
    findings = sorted(found.values(),
                      key=lambda f: (f.first.seq, f.second.seq))
    return findings


def _racing_pairs(accesses: list[Access]) -> Iterator[tuple[int, int]]:
    """``(j, i)`` index pairs, ``i < j``, of racing accesses in one
    group, in row-major order."""
    n = len(accesses)
    tid = np.fromiter((a.tid for a in accesses), np.int64, n)
    lo = np.fromiter((a.lo for a in accesses), np.int64, n)
    hi = np.fromiter((a.hi for a in accesses), np.int64, n)
    write = np.fromiter((a.kind != "read" for a in accesses), bool, n)

    own = np.fromiter((a.clock[a.tid] for a in accesses), np.int64, n)
    tids, col = np.unique(tid, return_inverse=True)

    block = max(1, _BLOCK_CELLS // n)
    for j0 in range(1, n, block):
        j1 = min(n, j0 + block)
        b = slice(j0, j1)
        # forward pairs only: column i before row j
        race = np.arange(j1) < np.arange(j0, j1)[:, None]
        race &= _seen(accesses[b], tids)[:, col[:j1]] < own[:j1]
        race &= write[b, None] | write[:j1]
        race &= tid[b, None] != tid[:j1]
        race &= (lo[b, None] < hi[:j1]) & (lo[:j1] < hi[b, None])
        rows, cols = np.nonzero(race)
        yield from zip((rows + j0).tolist(), cols.tolist())


def _seen(accesses: list[Access], tids: np.ndarray) -> np.ndarray:
    """``seen[r, c] = accesses[r].clock[tids[c]]``, zero past a clock's
    end; gathered per clock width, of which few occur."""
    seen = np.zeros((len(accesses), len(tids)), np.int64)
    by_width: dict[int, list[int]] = {}
    for r, a in enumerate(accesses):
        by_width.setdefault(len(a.clock), []).append(r)
    for width, rows in by_width.items():
        fits = tids < width
        clocks = np.stack([accesses[r].clock for r in rows])
        seen[np.ix_(rows, fits)] = clocks[:, tids[fits]]
    return seen
