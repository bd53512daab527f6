"""Vector clocks and the happens-before monitor (repro.sanitize.hb)."""

import numpy as np

from repro.sanitize.hb import MAIN_TID, HBMonitor, component, happens_before, join
from repro.sim import Delay, Flag, Simulator, TIMEOUT, WaitFlag


def vc(counts: dict[int, int]) -> np.ndarray:
    """The clock vector holding ``counts`` (just long enough)."""
    clock = np.zeros(max(counts) + 1, np.int64)
    for tid, count in counts.items():
        clock[tid] = count
    return clock


def as_dict(clock: np.ndarray) -> dict[int, int]:
    return {tid: int(count) for tid, count in enumerate(clock) if count}


# -- clocks ------------------------------------------------------------------


def test_join_is_componentwise_max():
    a = vc({1: 3, 2: 1})
    joined = join(a, vc({1: 2, 2: 5, 3: 7}))
    assert as_dict(joined) == {1: 3, 2: 5, 3: 7}
    assert as_dict(a) == {1: 3, 2: 1}  # a value: the inputs are untouched


def test_copy_is_independent():
    # a clock handed out by the monitor never changes: the next tick of
    # its process copies it first
    monitor = HBMonitor()
    a = monitor.clock_of(None)
    monitor.released(object(), None)
    assert a[MAIN_TID] == 1
    assert monitor.clock_of(None)[MAIN_TID] == 2


def test_happens_before_semantics():
    # b saw a's component at or beyond a's count -> ordered
    assert happens_before(1, vc({1: 2}), vc({1: 2}))
    assert happens_before(1, vc({1: 2}), vc({1: 5}))
    assert not happens_before(1, vc({1: 2}), vc({1: 1}))
    assert not happens_before(1, vc({1: 2}), vc({2: 9}))


# -- monitor + engine integration -------------------------------------------


def install(sim: Simulator) -> HBMonitor:
    monitor = HBMonitor()
    sim.monitor = monitor
    return monitor


def test_flag_release_acquire_creates_edge():
    sim = Simulator()
    monitor = install(sim)
    flag = Flag(sim, 0)
    stamps = {}

    def producer():
        yield Delay(1.0)
        stamps["a"] = (monitor.tid_of(sim.current), monitor.clock_of(sim.current))
        flag.set(1)

    def consumer():
        yield WaitFlag(flag, lambda v: v >= 1)
        stamps["b"] = monitor.clock_of(sim.current)

    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")
    sim.run()
    a_tid, a_clock = stamps["a"]
    assert happens_before(a_tid, a_clock, stamps["b"])


def test_unsynchronized_processes_have_no_edge():
    sim = Simulator()
    monitor = install(sim)
    stamps = {}

    def worker(key, delay):
        yield Delay(delay)
        stamps[key] = (monitor.tid_of(sim.current), monitor.clock_of(sim.current))

    sim.spawn(worker("a", 1.0), name="a")
    sim.spawn(worker("b", 2.0), name="b")
    sim.run()
    a_tid, a_clock = stamps["a"]
    b_tid, b_clock = stamps["b"]
    assert not happens_before(a_tid, a_clock, b_clock)
    assert not happens_before(b_tid, b_clock, a_clock)


def test_events_after_release_not_ordered_before_acquire():
    # the producer's post-release work must NOT appear ordered before
    # the consumer's acquire (release must tick the producer's clock)
    sim = Simulator()
    monitor = install(sim)
    flag = Flag(sim, 0)
    stamps = {}

    def producer():
        yield Delay(1.0)
        flag.set(1)
        yield Delay(5.0)  # runs concurrently with the consumer
        stamps["late"] = (monitor.tid_of(sim.current), monitor.clock_of(sim.current))

    def consumer():
        yield WaitFlag(flag, lambda v: v >= 1)
        stamps["b"] = monitor.clock_of(sim.current)

    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")
    sim.run()
    late_tid, late_clock = stamps["late"]
    assert not happens_before(late_tid, late_clock, stamps["b"])


def test_spawn_orders_parent_prefix_before_child():
    sim = Simulator()
    monitor = install(sim)
    stamps = {}

    def child():
        stamps["child"] = monitor.clock_of(sim.current)
        yield Delay(0.5)

    def parent():
        yield Delay(1.0)
        stamps["parent"] = (monitor.tid_of(sim.current), monitor.clock_of(sim.current))
        sim.spawn(child(), name="child")
        yield Delay(1.0)

    sim.spawn(parent(), name="parent")
    sim.run()
    p_tid, p_clock = stamps["parent"]
    assert happens_before(p_tid, p_clock, stamps["child"])


def test_same_value_set_creates_no_edge():
    # Flag.set to the current value is a no-op in the engine; the
    # monitor must not fabricate a release edge for it
    sim = Simulator()
    monitor = install(sim)
    flag = Flag(sim, 1)
    stamps = {}

    def producer():
        yield Delay(1.0)
        stamps["a"] = (monitor.tid_of(sim.current), monitor.clock_of(sim.current))
        flag.set(1)  # same value: nobody wakes, no release

    def reader():
        yield Delay(2.0)
        stamps["b"] = monitor.clock_of(sim.current)

    sim.spawn(producer(), name="producer")
    sim.spawn(reader(), name="reader")
    sim.run()
    a_tid, a_clock = stamps["a"]
    assert not happens_before(a_tid, a_clock, stamps["b"])


def test_timeout_resume_creates_no_edge():
    # a waiter that times out never observed the flag -> no acquire
    sim = Simulator()
    monitor = install(sim)
    flag = Flag(sim, 0)
    stamps = {}

    def producer():
        yield Delay(10.0)
        stamps["a"] = (monitor.tid_of(sim.current), monitor.clock_of(sim.current))
        flag.set(1)

    def impatient():
        result = yield WaitFlag(flag, lambda v: v >= 1, timeout=1.0)
        assert result is TIMEOUT
        yield Delay(20.0)  # outlive the producer's set
        stamps["b"] = monitor.clock_of(sim.current)

    sim.spawn(producer(), name="producer")
    sim.spawn(impatient(), name="impatient")
    sim.run()
    a_tid, a_clock = stamps["a"]
    assert not happens_before(a_tid, a_clock, stamps["b"])


def test_main_code_uses_main_tid():
    sim = Simulator()
    monitor = install(sim)
    assert monitor.tid_of(None) == MAIN_TID
    assert component(monitor.clock_of(None), MAIN_TID) >= 1
