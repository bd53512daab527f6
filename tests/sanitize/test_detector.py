"""Offline race detection over recorded accesses (repro.sanitize.detect)."""

from types import SimpleNamespace

import pytest

from repro.sanitize.detect import detect_races
from repro.sanitize.hb import HBMonitor
from repro.sanitize.recorder import Sanitizer
from repro.sim import Delay, Flag, Simulator, WaitFlag


@pytest.fixture
def setup():
    sim = Simulator()
    monitor = HBMonitor()
    sim.monitor = monitor
    sanitizer = Sanitizer(sim, monitor)
    sanitizer.register_array(SimpleNamespace(name="A"))
    return sim, sanitizer


def test_unsynchronized_write_write_found(setup):
    sim, san = setup

    def writer(pe, delay):
        yield Delay(delay)
        san.record("A", 0, 0, 8, "write", site=f"w{pe}", by_pe=pe)

    sim.spawn(writer(0, 1.0), name="w0")
    sim.spawn(writer(1, 2.0), name="w1")
    sim.run()
    findings = detect_races(san)
    assert len(findings) == 1
    f = findings[0]
    assert f.kind == "write-write"
    assert f.pes == (0, 1)
    assert f.offsets == (0, 8)
    assert f.array == "A" and f.owner_pe == 0


def test_flag_synchronized_accesses_clean(setup):
    sim, san = setup
    flag = Flag(sim, 0)

    def producer():
        yield Delay(1.0)
        san.record("A", 0, 0, 8, "write", site="w", by_pe=0)
        flag.set(1)

    def consumer():
        yield WaitFlag(flag, lambda v: v >= 1)
        san.record("A", 0, 0, 8, "read", site="r", by_pe=1)

    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")
    sim.run()
    assert detect_races(san) == []


def test_disjoint_offsets_clean(setup):
    sim, san = setup

    def writer(pe, lo, hi):
        yield Delay(1.0)
        san.record("A", 0, lo, hi, "write", site=f"w{pe}", by_pe=pe)

    sim.spawn(writer(0, 0, 8), name="w0")
    sim.spawn(writer(1, 8, 16), name="w1")
    sim.run()
    assert detect_races(san) == []


def test_read_read_clean(setup):
    sim, san = setup

    def reader(pe):
        yield Delay(1.0)
        san.record("A", 0, 0, 8, "read", site=f"r{pe}", by_pe=pe)

    sim.spawn(reader(0), name="r0")
    sim.spawn(reader(1), name="r1")
    sim.run()
    assert detect_races(san) == []


def test_same_process_program_order_clean(setup):
    sim, san = setup

    def worker():
        yield Delay(1.0)
        san.record("A", 0, 0, 8, "write", site="w1", by_pe=0)
        yield Delay(1.0)
        san.record("A", 0, 0, 8, "write", site="w2", by_pe=0)

    sim.spawn(worker(), name="w")
    sim.run()
    assert detect_races(san) == []


def test_different_owner_pe_copies_clean(setup):
    # same symmetric name, different PE's copy: no conflict
    sim, san = setup

    def writer(pe):
        yield Delay(1.0)
        san.record("A", pe, 0, 8, "write", site=f"w{pe}", by_pe=pe)

    sim.spawn(writer(0), name="w0")
    sim.spawn(writer(1), name="w1")
    sim.run()
    assert detect_races(san) == []


def test_untracked_array_ignored(setup):
    sim, san = setup

    def writer(pe):
        yield Delay(1.0)
        san.record("GHOST", 0, 0, 8, "write", site=f"w{pe}", by_pe=pe)

    sim.spawn(writer(0), name="w0")
    sim.spawn(writer(1), name="w1")
    sim.run()
    assert san.accesses == [] and detect_races(san) == []


def test_repeated_site_pair_deduplicated_with_count(setup):
    sim, san = setup

    def writer(pe, delay):
        for it in range(3):
            yield Delay(delay)
            san.record("A", 0, 0, 8, "write", site=f"w{pe}", by_pe=pe,
                       label=f"it={it}")

    sim.spawn(writer(0, 1.0), name="w0")
    sim.spawn(writer(1, 1.5), name="w1")
    sim.run()
    findings = detect_races(san)
    # one finding per ordered site pair, counting every recurrence
    keys = {f.dedup_key for f in findings}
    assert len(findings) == len(keys)
    assert sum(f.count for f in findings) == 9  # 3x3 overlapping pairs
    assert all(f.first.seq < f.second.seq for f in findings)


def test_dedup_keeps_first_pair_of_the_pairwise_loop(setup):
    # the kept pair of a site pair is the first one the loop
    # "for b: for a before b" meets: smallest b, then smallest a
    sim, san = setup

    def writer():
        yield Delay(1.0)
        san.record("A", 0, 0, 4, "write", site="w", by_pe=0)   # seq 0
        san.record("A", 0, 4, 8, "write", site="w", by_pe=0)   # seq 1

    def reader():
        yield Delay(2.0)
        san.record("A", 0, 4, 8, "read", site="r", by_pe=1)    # seq 2: races 1
        san.record("A", 0, 0, 8, "read", site="r", by_pe=1)    # seq 3: races 0, 1

    sim.spawn(writer(), name="w")
    sim.spawn(reader(), name="r")
    sim.run()
    [finding] = detect_races(san)
    assert (finding.first.seq, finding.second.seq) == (1, 2)
    assert finding.offsets == (4, 8)
    assert finding.count == 3


def test_finding_id_and_describe(setup):
    sim, san = setup

    def writer(pe):
        yield Delay(1.0)
        san.record("A", 0, 0, 8, "write", site=f"w{pe}", by_pe=pe)

    sim.spawn(writer(0), name="w0")
    sim.spawn(writer(1), name="w1")
    sim.run()
    f = detect_races(san)[0]
    assert f.finding_id == "race:A@pe0:w0<->w1"
    d = f.describe()
    assert d["pes"] == [0, 1]
    assert d["offsets"] == [0, 8]
    assert d["first"]["site"] == "w0" and d["second"]["site"] == "w1"
    assert "race" in f.summary()
