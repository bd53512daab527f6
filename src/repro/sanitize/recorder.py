"""Recording symmetric-heap accesses against live vector clocks.

:class:`Sanitizer` is the glue between the engine's
:class:`~repro.sanitize.hb.HBMonitor` (which maintains the clocks) and
the race detector (which replays the recorded accesses offline after
the run).  Instrumentation points call :meth:`Sanitizer.record` /
:meth:`Sanitizer.record_symmetric`:

* ``stencil/base.py`` records the local read/write row ranges of each
  compute step and the boundary-row read of each send;
* ``nvshmem/device.py`` records the destination store of every put's
  delivery leg (attributed to the *delivery* process, whose clock the
  spawning put seeded — so a signal chained after the data creates the
  edge readers acquire).

Only allocations registered via :meth:`register_array` (every
``nvshmem_malloc`` when a sanitizer is attached) are tracked; accesses
to unregistered memory are dropped, so untracked code can only cause
false *negatives*, never false findings.

Scope note: put *source* buffers are snapshotted at issue time by the
simulator, so dynamic source-reuse-before-quiet races cannot manifest
here — the static lint (:mod:`repro.sdfg.lint`) covers that hazard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sanitize.hb import HBMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.nvshmem.heap import SymmetricArray
    from repro.runtime.context import MultiGPUContext
    from repro.sim import Simulator

__all__ = ["Access", "Sanitizer", "attach_sanitizer"]


class Access:
    """One recorded load/store on a symmetric allocation."""

    __slots__ = (
        "seq", "array", "owner_pe", "by_pe", "lo", "hi", "kind",
        "site", "label", "origin", "time_us", "tid", "clock",
    )

    def __init__(self, seq: int, array: str, owner_pe: int, by_pe: int,
                 lo: int, hi: int, kind: str, site: str, label: str,
                 origin: str, time_us: float, tid: int,
                 clock: "np.ndarray") -> None:
        self.seq = seq
        self.array = array
        self.owner_pe = owner_pe
        self.by_pe = by_pe
        self.lo = lo
        self.hi = hi
        self.kind = kind
        self.site = site
        self.label = label
        self.origin = origin
        self.time_us = time_us
        self.tid = tid
        self.clock = clock

    def describe(self) -> dict[str, Any]:
        """JSON-ready summary (no clocks — those are run-internal)."""
        return {
            "kind": self.kind,
            "by_pe": self.by_pe,
            "offsets": [self.lo, self.hi],
            "site": self.site,
            "label": self.label,
            "origin": self.origin,
            "time_us": round(self.time_us, 3),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Access {self.kind} {self.array}@pe{self.owner_pe}"
                f"[{self.lo}:{self.hi}] by pe{self.by_pe} ({self.site})>")


class Sanitizer:
    """Collects accesses on registered symmetric arrays during a run."""

    def __init__(self, sim: "Simulator", monitor: HBMonitor) -> None:
        self.sim = sim
        self.monitor = monitor
        self.accesses: list[Access] = []
        self._tracked: set[str] = set()

    def register_array(self, array: "SymmetricArray") -> None:
        """Track ``array`` (called by ``nvshmem_malloc``)."""
        self._tracked.add(array.name)

    def tracks(self, name: str) -> bool:
        return name in self._tracked

    def record(self, array: str, owner_pe: int, lo: int, hi: int,
               kind: str, *, site: str, by_pe: int, label: str = "") -> None:
        """Record one access, stamped with the current process's clock
        (shared, not copied: clocks are immutable values)."""
        if array not in self._tracked or lo >= hi:
            return
        proc = self.sim.current
        self.accesses.append(Access(
            seq=len(self.accesses),
            array=array,
            owner_pe=owner_pe,
            by_pe=by_pe,
            lo=lo,
            hi=hi,
            kind=kind,
            site=site,
            label=label,
            origin=getattr(proc, "name", None) or "main",
            time_us=self.sim.now,
            tid=self.monitor.tid_of(proc),
            clock=self.monitor.clock_of(proc),
        ))

    def record_symmetric(self, array: "SymmetricArray", owner_pe: int,
                         index: Any, kind: str, *, site: str, by_pe: int,
                         label: str = "") -> None:
        """Record an access expressed as a NumPy index on ``array``."""
        if array.name not in self._tracked:
            return
        from repro.nvshmem.heap import element_range

        lo, hi = element_range(array.shape, index)
        self.record(array.name, owner_pe, lo, hi, kind,
                    site=site, by_pe=by_pe, label=label)


def attach_sanitizer(ctx: "MultiGPUContext") -> Sanitizer:
    """Install the HB monitor on ``ctx.sim`` and a recorder on ``ctx``.

    Call before building the runtime/variant so symmetric allocations
    register themselves; returns the :class:`Sanitizer` to hand to
    :func:`~repro.sanitize.detect.detect_races` after the run.
    """
    monitor = HBMonitor()
    ctx.sim.monitor = monitor
    sanitizer = Sanitizer(ctx.sim, monitor)
    ctx.sanitizer = sanitizer
    return sanitizer
