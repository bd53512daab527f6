"""Vector clocks and the engine monitor that maintains them.

The simulator already funnels *every* synchronization primitive through
:class:`repro.sim.Flag` — NVSHMEM signal words, the quiet pending
counters, grid-barrier arrival counts, host barriers, stream completion
flags, MPI request flags and local spin flags are all Flags — so a
monitor observing flag releases/acquires plus process spawn/join sees
the complete happens-before relation of a run.

The model is the classic one:

* each process (DES generator) carries a vector clock; entry ``tid``
  counts that process's release points;
* ``released(flag)``: the flag's clock joins the releaser's, then the
  releaser ticks its own component (so later events are *not* ordered
  before the release);
* ``acquired(flag)``: the acquirer's clock joins the flag's;
* ``spawned(child, parent)``: the child starts from a copy of the
  parent's clock (everything the parent did so far happens-before the
  child) and the parent ticks;
* ``finished`` / ``joined``: the final clock of a finished process
  joins into every joiner.

Two subtleties, mirrored from the engine:

* a ``Flag.set`` to the current value is a no-op (no waiters wake) —
  the engine skips the ``released`` hook for it, so a same-value set
  creates no edge;
* a ``WaitFlag`` that resumes via *timeout* never observed the flag —
  the engine deliberately performs no ``acquired`` for it.

Clocks are tid-indexed ``int64`` vectors (entries past a vector's end
are zero) and are treated as immutable values: a join builds a new
vector, so an access record or a flag can share the very vector a
process holds.  A process's vector is mutated in place only while the
monitor is its sole holder; a tick after it was handed out copies it
first.  New vectors are allocated at the monitor's current width,
which doubles when a spawn outgrows it, so most joins see equal
lengths.

Clock maps are keyed by the live ``Process`` / ``Flag`` objects (which
also keeps them alive): ``id()`` reuse after garbage collection would
otherwise merge a dead process's clock into an unrelated new one and
fabricate happens-before edges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Flag, Process

__all__ = ["HBMonitor", "component", "happens_before", "join"]

#: tid used for code running outside any DES process (the host setup
#: code that fills initial conditions, sets flags to 1, etc.).
MAIN_TID = 0

#: width of the first clock vectors; doubled as tids outgrow it
_INITIAL_WIDTH = 64


def join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component-wise max of two clocks (the HB join), as a new clock.

    The shorter clock's missing tail counts as zeros.
    """
    if len(a) < len(b):
        a, b = b, a
    if len(a) == len(b):
        return np.maximum(a, b)
    out = a.copy()
    head = out[:len(b)]
    np.maximum(head, b, out=head)
    return out


def component(clock: np.ndarray, tid: int) -> int:
    """``clock``'s count for ``tid`` (zero past the vector's end)."""
    return int(clock[tid]) if tid < len(clock) else 0


def happens_before(a_tid: int, a_clock: np.ndarray, b_clock: np.ndarray) -> bool:
    """Did the event stamped ``(a_tid, a_clock)`` happen-before an
    event stamped with ``b_clock``?

    True iff ``b``'s view of ``a``'s component is at least ``a``'s own
    count at the time of the event — i.e. some chain of sync edges
    carried ``a``'s progress to ``b``.
    """
    return component(b_clock, a_tid) >= component(a_clock, a_tid)


class _ProcClock:
    """A process's tid and current clock; ``private`` while nothing but
    the monitor holds that vector."""

    __slots__ = ("tid", "clock", "private")

    def __init__(self, tid: int, clock: np.ndarray) -> None:
        self.tid = tid
        self.clock = clock
        self.private = True

    def tick(self) -> None:
        """Advance the own component: a release point."""
        if not self.private:
            self.clock = self.clock.copy()
            self.private = True
        self.clock[self.tid] += 1

    def join(self, other: np.ndarray) -> None:
        self.clock = join(self.clock, other)
        self.private = True


class HBMonitor:
    """Engine monitor (``Simulator.monitor``) maintaining vector clocks.

    Install with ``sim.monitor = HBMonitor()``; the recorder
    (:class:`repro.sanitize.recorder.Sanitizer`) stores the vector
    :meth:`clock_of` returns at each tracked heap access.
    """

    def __init__(self) -> None:
        self._next_tid = MAIN_TID + 1
        self._width = _INITIAL_WIDTH
        # keyed by Process object; None stands for host/main code
        self._procs: dict[object, _ProcClock] = {
            None: _ProcClock(MAIN_TID, self._fresh(MAIN_TID))}
        self._flag_clocks: dict[object, np.ndarray] = {}

    def _fresh(self, tid: int, base: np.ndarray | None = None) -> np.ndarray:
        """A new full-width vector: ``base`` (if any) with ``tid`` at 1."""
        while tid >= self._width:
            self._width *= 2
        clock = np.zeros(self._width, np.int64)
        if base is not None:
            clock[:len(base)] = base
        clock[tid] = 1
        return clock

    def _new(self, proc: "Process", base: np.ndarray | None) -> _ProcClock:
        tid = self._next_tid
        self._next_tid += 1
        state = self._procs[proc] = _ProcClock(tid, self._fresh(tid, base))
        return state

    def _proc(self, proc: "Process | None") -> _ProcClock:
        state = self._procs.get(proc)
        if state is None:
            # process observed before its spawn hook (defensive): it
            # inherits nothing but its own component.
            state = self._new(proc, None)
        return state

    # -- identity ------------------------------------------------------------

    def tid_of(self, proc: "Process | None") -> int:
        return self._proc(proc).tid

    def clock_of(self, proc: "Process | None") -> np.ndarray:
        """``proc``'s current clock; the caller may keep it — later
        events never change the returned vector."""
        state = self._proc(proc)
        state.private = False
        return state.clock

    # -- engine hook protocol ------------------------------------------------

    def spawned(self, child: "Process", parent: "Process | None") -> None:
        parent_state = self._proc(parent)
        self._new(child, parent_state.clock)
        # tick the parent: the spawn is a release point for it
        parent_state.tick()

    def released(self, flag: "Flag", releaser: "Process | None") -> None:
        state = self._proc(releaser)
        flag_clock = self._flag_clocks.get(flag)
        if flag_clock is None:
            self._flag_clocks[flag] = state.clock
            state.private = False
        else:
            self._flag_clocks[flag] = join(flag_clock, state.clock)
        state.tick()

    def acquired(self, proc: "Process", flag: "Flag") -> None:
        flag_clock = self._flag_clocks.get(flag)
        if flag_clock is not None:
            self._proc(proc).join(flag_clock)

    def finished(self, proc: "Process") -> None:
        # tick so the final clock is a proper release point for joiners
        self._proc(proc).tick()

    def joined(self, joiner: "Process", target: "Process") -> None:
        self._proc(joiner).join(self._proc(target).clock)
