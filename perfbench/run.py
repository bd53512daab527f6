#!/usr/bin/env python3
"""Repository benchmark: host wall time of the simulator on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload figure_suite --seed 1 --seconds 20 --trace 0

Workloads: figure_suite, scale_1024, sdfg_compile, chaos (see
perfbench/README.md).  One process, one client, closed loop: each job
starts when the previous one has finished and been checked.

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` (median over three fresh interpreters of the time from
interpreter start to the first timed job: imports plus one untimed
warm-up job), ``job_p50_s``, ``job_tail_s`` and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics (spans, sampled self time and published counters)
plus the tracing overhead.

Every job's simulated output is checked.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
status is 1 when any job raised or failed its check, 2 when the
repository sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 3
#: job_tail_s is the highest percentile with ten samples beyond it, so a
#: run keeps going past --seconds until it has at least eleven jobs; it
#: also ends only on a whole cycle of the workload's job list, so every
#: run times the same job mix
MIN_JOBS = 11
#: the traced run needs a few jobs of each kind for its two medians
MIN_TRACED_JOBS = 3
#: no run measures longer than this, whatever --seconds and MIN_JOBS say
MAX_MEASURE_S = 150.0
PROBE_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "job_p50_s": "s", "job_tail_s": "s",
                    "peak_rss_mb": "MB"}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("figure_suite", "scale_1024", "sdfg_compile", "chaos"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh-interpreter set-up, timed by the parent run
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _workload(args: argparse.Namespace):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](ROOT, args.seed)


class Checked:
    """Runs jobs, checks each output, and tallies attempts and failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.next_index = 0

    def run(self, trace, window=None) -> float:
        """One job, inside ``window`` if given; returns its host seconds
        (the check is not timed)."""
        index = self.next_index
        self.next_index += 1
        self.attempted += 1
        # every job starts from a collected heap, as a fresh invocation
        # would, rather than paying for its predecessors' garbage
        gc.collect()
        started = time.perf_counter()
        try:
            with window if window is not None else nullcontext():
                output = self.workload.job(index, trace)
            elapsed = time.perf_counter() - started
            problem = self.workload.check(index, output)
        except Exception:  # a raising job is a failed job, not a crash
            elapsed = time.perf_counter() - started
            problem = traceback.format_exc()
        if problem is not None:
            self.failed += 1
            print(f"job {index} FAILED: {problem}", file=sys.stderr)
        return elapsed


def _setup_samples(args: argparse.Namespace) -> list[float]:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE) as probe:
            try:
                ready = probe.stdout.readline()
                samples.append(time.perf_counter() - started)
                probe.communicate(timeout=PROBE_TIMEOUT_S)
            finally:
                if probe.poll() is None:
                    probe.kill()
                    probe.wait()
        if probe.returncode != 0 or ready != b"ready\n":
            raise RuntimeError(f"set-up probe exited {probe.returncode}")
    return samples


def _tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:  # only when MAX_MEASURE_S cut the run short: report the maximum
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _measure_loop(seconds: float, enough, step) -> None:
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if (elapsed >= seconds and enough()) or elapsed >= MAX_MEASURE_S:
            return
        step()


def _untraced(args: argparse.Namespace) -> tuple[Checked, dict, list[str]]:
    from tracing import OFF

    setups = _setup_samples(args)
    jobs = Checked(_workload(args))
    jobs.workload.references()
    jobs.run(OFF)  # warm-up, as in the set-up probes
    times: list[float] = []
    cycle = jobs.workload.cycle
    _measure_loop(args.seconds,
                  lambda: len(times) >= MIN_JOBS and len(times) % cycle == 0,
                  lambda: times.append(jobs.run(OFF)))
    tail, percentile = _tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh interpreters: "
        + ", ".join(f"{s:.4f}" for s in setups),
        f"job_p50_s: {len(times)} timed jobs",
        f"job_tail_s: p{percentile:.1f} of {len(times)} timed jobs",
    ]
    return jobs, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def _traced(args: argparse.Namespace) -> tuple[Checked, dict, list[str]]:
    import tracing

    jobs = Checked(_workload(args))
    jobs.workload.references()
    jobs.run(tracing.OFF)
    trace = tracing.Trace()
    plain: list[float] = []
    traced: list[float] = []
    # whole job cycles alternate, untraced first, so both sides time the same mix
    cycle = jobs.workload.cycle
    with tracing.Sampler() as sampler:
        def step() -> None:
            if (len(plain) + len(traced)) // cycle % 2:
                traced.append(jobs.run(trace, tracing.traced_job(trace, sampler)))
            else:
                plain.append(jobs.run(tracing.OFF))

        _measure_loop(args.seconds,
                      lambda: len(traced) == len(plain) >= MIN_TRACED_JOBS, step)
    metrics = layer_metrics(trace, sampler.self_s, len(traced))
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    sampled = sum(sampler.self_s.values())
    notes = [f"{len(traced)} traced and {len(plain)} untraced jobs; per-layer "
             "values are per traced job",
             f"sampled self time {sampled:.4f} s + unsampled tails {sum(trace.tails):.4f} s "
             f"of traced job time {sum(traced):.4f} s "
             f"(sampler resolution {sampler.max_gap_s * 1e3:.2f} ms)"]
    notes += [f"span {name}: {count} span(s), {total:.4f} s, self {own:.4f} s"
              for name, (count, total, own) in trace.spans.totals().items()]
    return jobs, metrics, notes


def layer_metrics(trace, self_s: dict[str, float], n_jobs: int) -> dict:
    """Per-layer metrics, per traced job; rates are count / layer time."""
    from tracing import LAYERS

    n = max(1, n_jobs)
    counts = trace.counts
    spans = trace.spans.totals()

    def span_s(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def per(count: float, base: float) -> float:
        return count / base if base > 0 else 0.0

    out = {f"{layer}.self_s": (self_s.get(layer, 0.0) / n, "s")
           for layer in (*LAYERS, "other")}
    for name in ("sim.run", "stencil.run", "perf.map", "sanitize.detect",
                 "sdfg.frontend", "sdfg.transform", "sdfg.overlap", "sdfg.codegen",
                 "sdfg.lint", "sdfg.executor"):
        out[name + "_s"] = (span_s(name) / n, "s")
    for name in ("sim.events", "sim.processes_spawned", "nvshmem.ops",
                 "hw.link.transfers", "hw.rail.transfers", "sdfg.nodes", "perf.points",
                 "perf.runs", "obs.spans", "faults.injected", "recover.restarts",
                 "sanitize.accesses"):
        out[name] = (counts[name] / n, "count")
    out["nvshmem.bytes"] = (counts["nvshmem.bytes"] / n, "B")
    out["sim.events_per_s"] = (per(counts["sim.events"], self_s.get("sim", 0.0)), "1/s")
    out["nvshmem.ops_per_s"] = (per(counts["nvshmem.ops"], self_s.get("nvshmem", 0.0)),
                                "1/s")
    out["nvshmem.coalesce_ratio"] = (
        per(counts["nvshmem.coalesced_legs"], counts["nvshmem.legs"]), "ratio")
    out["stencil.cells_per_s"] = (per(counts["stencil.cells"], self_s.get("stencil", 0.0)),
                                  "1/s")
    out["sdfg.executor_cells_per_s"] = (per(counts["sdfg.cells"], span_s("sdfg.executor")),
                                        "1/s")
    out["perf.batch_ratio"] = (per(counts["perf.batched_points"], counts["perf.points"]),
                               "ratio")
    out["faults.retry_ratio"] = (per(counts["nvshmem.retry.count"], counts["nvshmem.ops"]),
                                 "ratio")
    return out


def _probe(args: argparse.Namespace) -> int:
    from tracing import OFF

    _workload(args).job(0, OFF)
    print("ready", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    if args.setup_probe:
        return _probe(args)
    try:
        jobs, metrics, notes = (_traced if args.trace else _untraced)(args)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {jobs.attempted}  failed {jobs.failed}  "
          f"error_rate {jobs.failed / jobs.attempted:.4f}")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    print(json.dumps({
        "correct": jobs.failed == 0,
        "attempted": jobs.attempted,
        "failed": jobs.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if jobs.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
