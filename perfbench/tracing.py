"""Host-time tracing for the traced benchmark run.

Three instruments, all living in the benchmark's own files so that
nothing under ``src/`` changes:

* :class:`Spans` — wall-clock spans (name, start, end, parent) recorded
  around calls into a layer.  Job code opens spans around the public
  calls it makes; :func:`hooks` additionally wraps a handful of public
  class methods (``Simulator.run``, ``StencilVariant.run``,
  ``SweepRunner.map``) so calls made *inside* the library get spans too.
* :class:`Sampler` — one thread that periodically looks at the main
  thread's stack and charges the elapsed interval to the innermost
  ``repro.<layer>`` frame (``other`` when no ``repro`` frame is on the
  stack).  This gives per-layer *self* time without instrumenting the
  program.
* :class:`Trace` — spans plus counters read from what the program already
  publishes: the ``use_metrics`` registry, ``Simulator.n_*``,
  ``NVSHMEMRuntime.n_coalesced_legs`` and the ``SweepRunner`` batch
  tallies.

Every number here is host wall time or a count.  None of it feeds back
into the program: the traced run's simulated outputs must be
byte-identical to the untraced run's, and the job checks enforce that.
"""

from __future__ import annotations

import math
import sys
import threading
import time
import warnings
from collections import defaultdict
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Any, Iterator

#: layers reported with a ``<layer>.self_s`` metric; frames of any other
#: ``repro`` module still count toward the sampled total
LAYERS = ("sim", "nvshmem", "runtime", "hw", "core", "stencil", "sdfg",
          "perf", "bench", "obs", "faults", "recover", "sanitize")

#: modules whose frames belong to another layer than their package says:
#: the timeline Tracer is the observability layer's other half (see
#: repro.obs.metrics), even though it lives next to the engine
_LAYER_OVERRIDES = {"repro.sim.trace": "obs"}


def layer_of(frame: Any) -> str:
    """Layer of the innermost ``repro.<layer>`` frame on ``frame``'s stack."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro."):
            return _LAYER_OVERRIDES.get(module) or module.split(".", 2)[1]
        frame = frame.f_back
    return "other"


# ------------------------------------------------------------------ spans


class Spans:
    """In-memory span log; spans nest through a stack (one thread)."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None]
        self.records: list[list[Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it covered by child spans."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.records:
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for index, (name, start, end, parent) in enumerate(self.records):
            covered = 0.0
            reach = start
            for lo, hi in sorted(children.get(index, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total duration, total self time)."""
        acc: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), own in zip(self.records, self.self_times()):
            entry = acc[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own
        return {name: tuple(v) for name, v in sorted(acc.items())}


# ---------------------------------------------------------------- sampler


class Sampler:
    """Charges wall time to the layer the main thread is executing.

    Each sample attributes the interval since the previous sample to
    the layer seen now, so the per-layer times of one window tile it:
    they sum to the window's length minus the unsampled tail after the
    last sample, which is at most one sampling gap (the resolution).
    """

    def __init__(self, interval_s: float = 0.001) -> None:
        self.interval_s = interval_s
        self.self_s: dict[str, float] = defaultdict(float)
        #: longest interval one sample covered (the sampler's resolution)
        self.max_gap_s = 0.0
        self._target = threading.main_thread().ident
        self._lock = threading.Lock()
        self._window = threading.Event()
        self._stop = False
        self._last = 0.0
        self._thread = threading.Thread(target=self._loop, name="perfbench-sampler",
                                        daemon=True)

    def __enter__(self) -> "Sampler":
        # the main thread must hand over the interpreter lock soon after
        # the sampler asks for it, or samples would bunch up at the
        # calls that release it (NumPy, I/O) and misattribute the time
        # before them; with the window closed the sampler asks nothing
        # and the short interval costs nothing
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(self.interval_s / 10)
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop = True
        self._window.set()
        self._thread.join(timeout=5.0)
        sys.setswitchinterval(self._switch_interval)
        if self._thread.is_alive():
            raise RuntimeError("sampler thread did not stop")

    def begin(self) -> None:
        with self._lock:
            self._last = time.perf_counter()
            self._window.set()

    def end(self) -> float:
        """Close the window; returns the unsampled tail in seconds."""
        with self._lock:
            self._window.clear()
            return time.perf_counter() - self._last

    def _loop(self) -> None:
        frames = sys._current_frames
        while not self._stop:
            self._window.wait()
            time.sleep(self.interval_s)
            with self._lock:
                if not self._window.is_set():
                    continue
                now = time.perf_counter()
                frame = frames().get(self._target)
                gap = now - self._last
                self.self_s[layer_of(frame)] += gap
                self.max_gap_s = max(self.max_gap_s, gap)
                self._last = now
                del frame


# ------------------------------------------------------------------ trace


class Trace:
    """Spans + counts for the traced jobs; :data:`OFF` when untraced."""

    def __init__(self) -> None:
        self.spans = Spans()
        #: named counters accumulated over the traced jobs
        self.counts: defaultdict[str, float] = defaultdict(float)
        #: live objects of the current job whose counters are read at its end
        self.runtimes: list[Any] = []
        self.tracers: list[Any] = []
        #: per traced job: the part of its window after the last sample
        self.tails: list[float] = []

    def span(self, name: str):
        return self.spans.span(name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def end_job(self, registry: Any) -> None:
        """Fold in the totals the job published into ``registry`` and the
        counters of the objects it created."""
        for name in ("nvshmem.ops", "nvshmem.bytes", "hw.link.transfers",
                     "hw.rail.transfers", "faults.injected", "nvshmem.retry.count",
                     "recover.restarts"):
            self.counts[name] += sum(metric.value for _, metric in registry.find(name))
        for runtime in self.runtimes:
            self.counts["nvshmem.coalesced_legs"] += runtime.n_coalesced_legs
        for tracer in self.tracers:
            self.counts["obs.spans"] += len(tracer.spans)
        self.runtimes.clear()
        self.tracers.clear()


@contextmanager
def traced_job(trace: Trace, sampler: Sampler) -> Iterator[Any]:
    """Window of one traced job: hooks, a fresh metrics registry (yielded),
    the root ``job`` span and a sampling window."""
    from repro.obs.metrics import MetricsRegistry, use_metrics

    registry = MetricsRegistry()
    with hooks(trace), use_metrics(registry), trace.span("job"):
        sampler.begin()
        try:
            yield registry
        finally:
            trace.tails.append(sampler.end())
    trace.end_job(registry)


class _Off:
    """Untraced stand-in: spans and counts cost one call and do nothing."""

    @staticmethod
    def span(name: str):
        return nullcontext()

    @staticmethod
    def count(name: str, amount: float = 1) -> None:
        return None


OFF = _Off()


# ------------------------------------------------------------------ hooks


def _patch(stack: ExitStack, owner: type, name: str, make) -> None:
    original = owner.__dict__[name]
    setattr(owner, name, make(original))
    stack.callback(setattr, owner, name, original)


@contextmanager
def hooks(trace: Trace) -> Iterator[None]:
    """Wrap the library's public entry points while the block runs.

    The wrappers only observe: they call the original with the same
    arguments and return its result untouched.
    """
    from repro.nvshmem.api import NVSHMEMRuntime
    from repro.nvshmem.device import NVSHMEMDevice
    from repro.perf.sweep import SweepRunner
    from repro.sim.engine import Simulator
    from repro.sim.trace import Tracer as TimelineTracer
    from repro.stencil.base import StencilVariant

    counts = trace.counts

    def sim_run(original):
        def run(self, *args, **kwargs):
            events, spawned = self.n_events, self.n_spawned
            try:
                with trace.span("sim.run"):
                    return original(self, *args, **kwargs)
            finally:
                counts["sim.events"] += self.n_events - events
                counts["sim.processes_spawned"] += self.n_spawned - spawned
        return run

    def stencil_run(original):
        def run(self, *args, **kwargs):
            with trace.span("stencil.run"):
                result = original(self, *args, **kwargs)
            config = self.config
            if config.with_data and not config.no_compute:
                cells = math.prod(n - 2 for n in config.global_shape)
                counts["stencil.cells"] += cells * config.iterations
            return result
        return run

    def sweep_map(original):
        def map_(self, fn, argtuples):
            argtuples = list(argtuples)
            points, groups = self.batch_points, self.batch_groups
            with trace.span("perf.map"):
                result = original(self, fn, argtuples)
            batched = self.batch_points - points
            counts["perf.points"] += len(argtuples)
            counts["perf.batched_points"] += batched
            # a fused group is one simulation run
            counts["perf.runs"] += len(argtuples) - batched + self.batch_groups - groups
            return result
        return map_

    def collect(into: list):
        def wrap(original):
            def init(self, *args, **kwargs):
                original(self, *args, **kwargs)
                into.append(self)
            return init
        return wrap

    def count_leg(original):
        def deliver(self, *args, **kwargs):
            counts["nvshmem.legs"] += 1
            return original(self, *args, **kwargs)
        return deliver

    with ExitStack() as stack:
        _patch(stack, Simulator, "run", sim_run)
        _patch(stack, StencilVariant, "run", stencil_run)
        _patch(stack, SweepRunner, "map", sweep_map)
        _patch(stack, NVSHMEMRuntime, "__init__", collect(trace.runtimes))
        _patch(stack, TimelineTracer, "__init__", collect(trace.tracers))
        # the one per-leg entry point of the transport: every delivery
        # leg, coalesced or not, passes through it exactly once
        if "_deliver_async" in NVSHMEMDevice.__dict__:
            _patch(stack, NVSHMEMDevice, "_deliver_async", count_leg)
        else:
            warnings.warn("NVSHMEMDevice._deliver_async is gone; "
                          "nvshmem.coalesce_ratio reads 0", stacklevel=2)
        yield
