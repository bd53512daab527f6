"""Property: the array-backed race detector reports exactly what the
dict-clock pairwise detector it replaced reports, on random programs
run on a real Simulator.

The reference below is that former implementation, kept here (and only
here) as an oracle: ``{tid: count}`` dict clocks maintained by an
engine monitor, snapshotted with ``dict(...)`` at every access, and an
O(n²) pairwise loop.  A tee monitor drives it alongside
:class:`~repro.sanitize.hb.HBMonitor` in the same run, so both see the
same event stream; the two must agree on every finding, its count,
offsets and order.
"""

from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sanitize import detect, hb
from repro.sanitize.detect import RaceFinding, detect_races
from repro.sanitize.hb import MAIN_TID, HBMonitor
from repro.sanitize.recorder import Access, Sanitizer
from repro.sim import Delay, Flag, Simulator, WaitFlag, WaitProcess

# -- the reference: dict clocks and the pairwise loop ------------------------


class DictClockMonitor:
    """Engine monitor keeping ``{tid: count}`` clocks, joined in place."""

    def __init__(self) -> None:
        self._next_tid = MAIN_TID + 1
        self._tids: dict[object, int] = {}
        self._proc_clocks: dict[object, dict[int, int]] = {}
        self._flag_clocks: dict[object, dict[int, int]] = {}
        self._main_clock = {MAIN_TID: 1}

    @staticmethod
    def _join(clock: dict[int, int], other: dict[int, int]) -> None:
        for tid, count in other.items():
            if clock.get(tid, 0) < count:
                clock[tid] = count

    def _tick(self, proc) -> None:
        clock = self.clock_of(proc)
        tid = self.tid_of(proc)
        clock[tid] = clock.get(tid, 0) + 1

    def tid_of(self, proc) -> int:
        if proc is None:
            return MAIN_TID
        if proc not in self._tids:
            self._tids[proc] = self._next_tid
            self._next_tid += 1
        return self._tids[proc]

    def clock_of(self, proc) -> dict[int, int]:
        if proc is None:
            return self._main_clock
        if proc not in self._proc_clocks:
            self._proc_clocks[proc] = {self.tid_of(proc): 1}
        return self._proc_clocks[proc]

    def spawned(self, child, parent) -> None:
        child_clock = dict(self.clock_of(parent))
        child_clock[self.tid_of(child)] = 1
        self._proc_clocks[child] = child_clock
        self._tick(parent)

    def released(self, flag, releaser) -> None:
        self._join(self._flag_clocks.setdefault(flag, {}), self.clock_of(releaser))
        self._tick(releaser)

    def acquired(self, proc, flag) -> None:
        if self._flag_clocks.get(flag):
            self._join(self.clock_of(proc), self._flag_clocks[flag])

    def finished(self, proc) -> None:
        self._tick(proc)

    def joined(self, joiner, target) -> None:
        self._join(self.clock_of(joiner), self.clock_of(target))


class TeeMonitor:
    """Forwards every engine hook to each of ``monitors``, in order."""

    def __init__(self, *monitors) -> None:
        self.monitors = monitors

    def spawned(self, child, parent) -> None:
        for m in self.monitors:
            m.spawned(child, parent)

    def released(self, flag, releaser) -> None:
        for m in self.monitors:
            m.released(flag, releaser)

    def acquired(self, proc, flag) -> None:
        for m in self.monitors:
            m.acquired(proc, flag)

    def finished(self, proc) -> None:
        for m in self.monitors:
            m.finished(proc)

    def joined(self, joiner, target) -> None:
        for m in self.monitors:
            m.joined(joiner, target)


class ReferenceSanitizer(Sanitizer):
    """Also stamps each recorded access with the reference's tid and a
    ``dict`` copy of its clock."""

    def __init__(self, sim: Simulator, monitor: HBMonitor,
                 reference: DictClockMonitor) -> None:
        super().__init__(sim, monitor)
        self.reference = reference
        self.stamps: list[tuple[int, dict[int, int]]] = []

    def record(self, array, owner_pe, lo, hi, kind, **kw) -> None:
        n = len(self.accesses)
        super().record(array, owner_pe, lo, hi, kind, **kw)
        if len(self.accesses) > n:
            proc = self.sim.current
            self.stamps.append((self.reference.tid_of(proc),
                                dict(self.reference.clock_of(proc))))


def reference_detect(san: ReferenceSanitizer) -> list[RaceFinding]:
    """The pairwise detector over the reference's dict clocks."""
    groups: dict[tuple[str, int], list[Access]] = {}
    for access, (tid, clock) in zip(san.accesses, san.stamps):
        twin = Access(access.seq, access.array, access.owner_pe, access.by_pe,
                      access.lo, access.hi, access.kind, access.site,
                      access.label, access.origin, access.time_us, tid, clock)
        groups.setdefault((access.array, access.owner_pe), []).append(twin)

    found: dict[tuple, RaceFinding] = {}
    for (array, owner_pe), accesses in groups.items():
        for j, b in enumerate(accesses):
            for i in range(j):
                a = accesses[i]
                if a.kind == "read" and b.kind == "read":
                    continue
                if a.tid == b.tid:
                    continue
                lo = max(a.lo, b.lo)
                hi = min(a.hi, b.hi)
                if lo >= hi:
                    continue
                if b.clock.get(a.tid, 0) >= a.clock.get(a.tid, 0):
                    continue
                finding = RaceFinding(array=array, owner_pe=owner_pe,
                                      kind=f"{a.kind}-{b.kind}",
                                      offsets=(lo, hi), first=a, second=b)
                prior = found.get(finding.dedup_key)
                if prior is None:
                    found[finding.dedup_key] = finding
                else:
                    prior.count += 1
    return sorted(found.values(), key=lambda f: (f.first.seq, f.second.seq))


# -- random programs ----------------------------------------------------------

N_FLAGS = 3

accesses = st.tuples(
    st.just("access"),
    st.sampled_from(["read", "write"]),
    st.sampled_from(["A", "B"]),           # array
    st.integers(0, 1),                      # owner PE
    st.integers(0, 8),                      # lo
    st.integers(1, 6),                      # length
    st.sampled_from(["s0", "s1"]),         # site (repeats exercise dedupe)
)
leaf_ops = st.one_of(
    accesses,
    st.tuples(st.just("delay"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
    st.tuples(st.just("set"), st.integers(0, N_FLAGS - 1), st.integers(0, 3)),
    st.tuples(st.just("add"), st.integers(0, N_FLAGS - 1)),
    # always bounded: a wait that times out creates no edge
    st.tuples(st.just("wait"), st.integers(0, N_FLAGS - 1), st.integers(1, 3)),
)
child_programs = st.lists(leaf_ops, max_size=6)
ops = st.one_of(
    accesses,
    leaf_ops,
    st.tuples(st.just("spawn"), child_programs),
    st.just(("join",)),
    st.tuples(st.just("repeat"), child_programs),  # a loop of two trips
)
programs = st.tuples(
    st.lists(accesses, max_size=3),                 # host code before the run
    st.lists(st.lists(ops, max_size=12), min_size=2, max_size=4),
)


def execute(sim, san, flags, program, pe):
    """A DES process running ``program`` as PE ``pe``."""
    children = []
    for op in program:
        if op[0] == "access":
            _, kind, array, owner, lo, length, site = op
            san.record(array, owner, lo, lo + length, kind, site=site, by_pe=pe)
        elif op[0] == "delay":
            yield Delay(op[1])
        elif op[0] == "set":
            flags[op[1]].set(op[2])
        elif op[0] == "add":
            flags[op[1]].add()
        elif op[0] == "wait":
            yield WaitFlag(flags[op[1]], ge=op[2], timeout=3.0)
        elif op[0] == "repeat":
            yield from execute(sim, san, flags, op[1] * 2, pe)
        elif op[0] == "spawn":
            children.append(sim.spawn(execute(sim, san, flags, op[1], pe),
                                      name=f"child{pe}"))
        elif children:  # join the latest child not yet joined
            yield WaitProcess(children.pop())


def run(program) -> ReferenceSanitizer:
    host, processes = program
    sim = Simulator()
    monitor, reference = HBMonitor(), DictClockMonitor()
    sim.monitor = TeeMonitor(monitor, reference)
    san = ReferenceSanitizer(sim, monitor, reference)
    for name in ("A", "B"):
        san.register_array(SimpleNamespace(name=name))
    flags = [Flag(sim, 0, f"f{k}") for k in range(N_FLAGS)]
    for _, kind, array, owner, lo, length, site in host:
        san.record(array, owner, lo, lo + length, kind, site=site, by_pe=0)
    for pe, body in enumerate(processes):
        sim.spawn(execute(sim, san, flags, body, pe), name=f"pe{pe}")
    sim.run()
    return san


@settings(max_examples=150, deadline=None)
@given(programs, st.sampled_from([1, hb._INITIAL_WIDTH]))
def test_array_detector_matches_dict_clock_reference(program, width):
    # width 1 makes clocks grow on nearly every spawn, so joins and the
    # pair check meet vectors of mixed lengths
    with mock.patch.object(hb, "_INITIAL_WIDTH", width):
        san = run(program)
    assert [a.tid for a in san.accesses] == [tid for tid, _ in san.stamps]
    expected = [f.describe() for f in reference_detect(san)]
    assert [f.describe() for f in detect_races(san)] == expected
    # row blocks of any size must emit the same pairs in the same order
    with mock.patch.object(detect, "_BLOCK_CELLS", 5):
        assert [f.describe() for f in detect_races(san)] == expected
