"""Command-line entry point: regenerate every paper figure.

Usage::

    python -m repro.bench                 # all figures, print tables
    python -m repro.bench 6.1 6.3b        # a subset
    python -m repro.bench --out report.txt
    python -m repro.bench --jobs 4        # fan sweep points out over processes
    python -m repro.bench --no-cache      # force recomputation
    python -m repro.bench --profile       # cProfile the run (implies --jobs 1)

Sweep points run through :mod:`repro.perf`: independent figure
configurations fan out over worker processes (``--jobs``) and replay
from an on-disk result cache keyed by a content hash of configuration
+ simulator sources.  The report body is byte-identical at any
``--jobs`` setting; wall-clock timings and cache statistics print to
stdout only, never into ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext

from repro.bench.figures import (
    DEFAULT_GPU_COUNTS,
    STENCIL_VARIANTS,
    fig22_motivation,
    fig61_weak_2d_all,
    fig62_3d,
    fig63a_dace_1d,
    fig63b_dace_2d,
    fig_auto_overlap,
    fig_multinode_weak,
)
from repro.bench.report import history_fields, render_figure
from repro.cliutil import cli_entry, output_path, positive_int
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.perf import ResultCache, SweepManifest, SweepRunner, use_runner
from repro.perf.cache import DEFAULT_CACHE_DIR
from repro.perf.manifest import SweepJournal


def _run_22():
    a, b = fig22_motivation()
    return [a, b]


def _run_61():
    return fig61_weak_2d_all(("small", "medium", "large"))


def _run_62():
    figs = fig62_3d()
    return [figs[k] for k in ("weak", "weak_nocompute", "strong", "strong_nocompute")]


FIGURES = {
    "2.2": _run_22,
    "6.1": _run_61,
    "6.2": _run_62,
    "6.3a": lambda: [fig63a_dace_1d()],
    "6.3b": lambda: [fig63b_dace_2d()],
}

#: opt-in figures, run only when named explicitly — kept out of the
#: default selection so the committed golden report (which pins the
#: paper's figure set byte-for-byte) is unaffected
EXTRA_FIGURES = {
    "multinode": lambda: [fig_multinode_weak()],
    "auto_overlap": lambda: [fig_auto_overlap()],
}

#: static sweep-shape facts per figure id, for --list-figures: the
#: variants (series) each figure runs and its sweep-point count.  Kept
#: in lockstep with the figure definitions in repro.bench.figures —
#: tests/bench pins the counts against the definitions' constants.
_G = len(DEFAULT_GPU_COUNTS)
_V = len(STENCIL_VARIANTS)
FIGURE_CATALOG = {
    "2.2": ("Motivation: comm overhead + comm fraction at 8 GPUs",
            ("baseline_overlap", "cpufree"), 3 * 2 + 2),
    "6.1": ("2D Jacobi weak scaling, 3 size classes",
            STENCIL_VARIANTS, 3 * _G * _V),
    "6.2": ("3D Jacobi weak+strong scaling, each with no-compute",
            STENCIL_VARIANTS, 4 * _G * _V),
    "6.3a": ("DaCe Jacobi 1D: baseline vs generated CPU-Free",
             ("dace_baseline", "dace_cpufree"), _G * 2),
    "6.3b": ("DaCe Jacobi 2D with strided halos",
             ("dace_baseline", "dace_cpufree"), _G * 2),
    "multinode": ("2D weak scaling across NVSwitch domains (8-64 GPUs)",
                  ("baseline_nvshmem", "cpufree"), 4 * 2),
    "auto_overlap": ("Auto-overlap compiler schedule vs cpufree win/loss",
                     ("cpufree", "auto_overlap"), 3 * _G * 2),
}


def _list_figures() -> str:
    """Render the figure catalog (no sweeps run)."""
    lines = ["figure        points  variants",
             "------        ------  --------"]
    for figure_id in [*sorted(FIGURES), *sorted(EXTRA_FIGURES)]:
        title, variants, points = FIGURE_CATALOG[figure_id]
        extra = "*" if figure_id in EXTRA_FIGURES else ""
        lines.append(f"{figure_id + extra:<14}{points:>6}  {', '.join(variants)}")
        lines.append(f"              {'':>6}  {title}")
    lines.append("")
    lines.append("(* = opt-in figure, runs only when named explicitly)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures on the simulator.",
    )
    parser.add_argument("figures", nargs="*", default=[],
                        help=f"figure ids to run (default: all of {sorted(FIGURES)})")
    parser.add_argument("--out", type=output_path, default=None,
                        help="also write the report to this file")
    parser.add_argument("--list-figures", action="store_true",
                        help="list every figure id (including opt-in extras) "
                             "with its variants and sweep-point count, "
                             "without running anything")
    parser.add_argument("--paper", action="store_true",
                        help="evaluate every paper claim and print the verdict table")
    parser.add_argument("--jobs", "-j", type=positive_int, default=1, metavar="N",
                        help="worker processes for sweep points (default: 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result cache")
    parser.add_argument("--cache-dir", type=str, default=DEFAULT_CACHE_DIR,
                        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--profile", nargs="?", const="repro-bench.prof",
                        type=output_path, default=None, metavar="PATH",
                        help="cProfile the run and dump stats to PATH "
                             "(default: repro-bench.prof); forces --jobs 1")
    parser.add_argument("--profile-out", type=output_path, default=None, metavar="PATH",
                        help="write per-point cProfile stats (sorted by "
                             "cumulative time) to PATH, one section per "
                             "computed sweep point; forces --jobs 1")
    parser.add_argument("--save-manifest", type=output_path, default=None, metavar="PATH",
                        help="record every sweep point's cache key to PATH "
                             "(a replay baseline for --changed-only); "
                             "requires the cache")
    parser.add_argument("--changed-only", type=str, default=None, metavar="PATH",
                        help="compare each point's cache key against the "
                             "manifest at PATH: unchanged points replay from "
                             "the cache, only changed/new points recompute "
                             "(a summary prints to stdout); requires the cache")
    parser.add_argument("--resume", type=output_path, default=None, metavar="PATH",
                        help="journal completed sweep points to PATH as they "
                             "finish and, when PATH already exists, replay the "
                             "journaled points from the cache — a sweep killed "
                             "mid-run loses at most the in-flight points; "
                             "requires the cache")
    parser.add_argument("--batch", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="fuse compatible cache-miss sweep points into one "
                             "vector-clock simulation (default on; --no-batch "
                             "forces the per-point path — output and cache "
                             "entries are byte-identical either way)")
    parser.add_argument("--prune-stale", type=str, default=None, metavar="PATH",
                        help="after the run, diff the recorded point keys "
                             "against the manifest at PATH and evict cache "
                             "entries whose key changed or whose point "
                             "disappeared (a summary prints to stdout); "
                             "requires the cache")
    parser.add_argument("--metrics-out", type=output_path, default=None, metavar="PATH",
                        help="collect observability metrics across the run and "
                             "write the registry dump (JSON) to PATH; the dump "
                             "is byte-identical at any --jobs setting")
    parser.add_argument("--fastpath", type=str, default="vector",
                        choices=("vector", "scalar", "validate"),
                        help="tasklet execution mode for SDFG figures "
                             "(scalar/validate are bit-identical to vector "
                             "but slower; each mode keys its own cache "
                             "entries)")
    parser.add_argument("--fault-profile", type=str, default=None, metavar="NAME",
                        help="run every figure under this fault profile "
                             "(e.g. transient or transient@7); the profile is "
                             "recorded in the metrics dump and in the report "
                             "header")
    parser.add_argument("--history", type=output_path, default=None, metavar="PATH",
                        help="append one perf-history record per sweep point "
                             "to this JSONL file (read back by "
                             "`python -m repro.obs regress`); needs "
                             "--run-label")
    parser.add_argument("--run-label", type=str, default=None, metavar="NAME",
                        help="history run label for this invocation (e.g. a "
                             "git SHA, or base/check in CI)")
    parser.add_argument("--progress", action="store_true",
                        help="narrate sweep progress on stderr with a running "
                             "counter and, when --history has prior runs, an "
                             "ETA from per-point median wall times")
    parser.add_argument("--progress-out", type=output_path, default=None, metavar="PATH",
                        help="stream machine-readable progress events (one "
                             "JSON object per line) to PATH")
    args = parser.parse_args(argv)

    if args.list_figures:
        print(_list_figures())
        return 0

    if args.paper:
        from repro.bench.paper import evaluate_claims, render_claims

        report = render_claims(evaluate_claims())
        print(report)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(report)
        return 0

    all_figures = {**FIGURES, **EXTRA_FIGURES}
    selected = args.figures or sorted(FIGURES)
    unknown = [f for f in selected if f not in all_figures]
    if unknown:
        parser.error(f"unknown figure id(s) {unknown}; "
                     f"choose from {sorted(all_figures)}")

    jobs = 1 if (args.profile or args.profile_out) else args.jobs
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if cache is None and (args.save_manifest or args.changed_only
                          or args.prune_stale or args.resume):
        parser.error("--save-manifest/--changed-only/--prune-stale/--resume "
                     "need the result cache; drop --no-cache")
    if args.resume and args.changed_only:
        parser.error("--resume and --changed-only both pick the replay "
                     "baseline; use one or the other")
    manifest = (SweepManifest()
                if args.save_manifest or args.prune_stale else None)
    baseline = None
    if args.changed_only:
        try:
            baseline = SweepManifest.load(args.changed_only)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            parser.error(f"--changed-only: {exc}")
    journal = None
    journal_corrupt: list[tuple[int, str]] = []
    resumed_points = 0
    if args.resume:
        import os.path

        if os.path.exists(args.resume):
            # a prior (possibly killed) run left a journal: its intact
            # lines become the replay baseline, torn lines just recompute
            baseline, journal_corrupt = SweepJournal.load(args.resume)
            resumed_points = len(baseline)
        journal = SweepJournal(args.resume)
    prune_baseline = None
    if args.prune_stale:
        try:
            prune_baseline = SweepManifest.load(args.prune_stale)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            parser.error(f"--prune-stale: {exc}")
    if args.history and not args.run_label:
        parser.error("--history needs --run-label to name this run's records")
    sinks = []
    progress_fh = None
    history_sink = None
    if args.progress_out:
        from repro.obs.progress import JsonlProgress

        progress_fh = open(args.progress_out, "w")
        sinks.append(JsonlProgress(progress_fh))
    if args.progress:
        from repro.obs.history import HistoryStore
        from repro.obs.progress import TtyProgress

        medians = (HistoryStore(args.history).wall_medians()
                   if args.history else None)
        sinks.append(TtyProgress(eta_medians=medians))
    if args.history:
        from repro.obs.history import HistoryStore
        from repro.obs.progress import HistorySink

        history_sink = HistorySink(HistoryStore(args.history), args.run_label,
                                   profile=args.fault_profile,
                                   extract=history_fields)
        sinks.append(history_sink)
    progress = None
    if sinks:
        from repro.obs.progress import MultiSink

        progress = MultiSink(*sinks)
    profile_sink: list[tuple[str, str]] | None = [] if args.profile_out else None
    runner = SweepRunner(jobs=jobs, cache=cache, manifest=manifest,
                         baseline=baseline, profile_sink=profile_sink,
                         batch=args.batch, progress=progress, journal=journal)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()

    registry = MetricsRegistry() if args.metrics_out else None
    sections: list[str] = []
    timings: list[tuple[str, float]] = []
    if args.fault_profile is not None:
        # the header is part of the report body so a faulted report can
        # never be mistaken for (or diffed against) a clean one
        sections.append(f"[fault profile: {args.fault_profile}]")
        sections.append("")
        if registry is not None:
            registry.gauge("bench.fault_profile", profile=args.fault_profile).set(1)
    from repro.faults.profiles import use_fault_profile
    from repro.sdfg.codegen import use_fastpath_mode

    with use_fault_profile(args.fault_profile), use_fastpath_mode(args.fastpath), \
            use_runner(runner), (
            use_metrics(registry) if registry is not None else nullcontext()):
        if profiler is not None:
            profiler.enable()
        for figure_id in selected:
            started = time.perf_counter()
            for fig in all_figures[figure_id]():
                sections.append(render_figure(fig))
                sections.append("")
            timings.append((figure_id, time.perf_counter() - started))
        if profiler is not None:
            profiler.disable()

    report = "\n".join(sections)
    print(report)
    # timing / cache lines go to stdout only: the report body must stay
    # byte-identical across --jobs settings and cache hits vs misses
    for figure_id, elapsed in timings:
        print(f"(figure {figure_id} regenerated in {elapsed:.1f}s wall time)")
    if cache is not None:
        print(f"(sweep cache: {runner.hits} hit(s), {runner.misses} miss(es) "
              f"in {args.cache_dir})")
    if args.batch:
        print(f"(batched execution: {runner.batch_points} point(s) fused into "
              f"{runner.batch_groups} run(s), {runner.batch_fallbacks} "
              f"fallback(s))")
    if args.changed_only:
        print(f"(changed-only vs {args.changed_only}: {runner.replayed} "
              f"replayed, {runner.changed} changed, {runner.added} new, "
              f"{runner.stale} stale)")
    if journal is not None:
        journal.close()
        torn = (f", {len(journal_corrupt)} torn journal line(s) skipped"
                if journal_corrupt else "")
        print(f"(resume journal {args.resume}: {resumed_points} point(s) "
              f"from the previous run, {runner.replayed} replayed from "
              f"cache{torn})")
    if cache is not None and cache.quarantined:
        for key, reason in cache.quarantined:
            print(f"(cache entry {key[:12]}… quarantined: {reason} — "
                  f"recomputed)")
    if runner.quarantined:
        for point in runner.quarantined:
            print(f"(sweep point quarantined after {point.attempts} "
                  f"attempt(s): {point.identity} — {point.reason})")
    if prune_baseline is not None:
        diff = manifest.diff(prune_baseline)
        live = set(manifest.entries.values())
        stale_keys = sorted(
            {prune_baseline.entries[i] for i in diff.changed + diff.removed}
            - live)
        evicted = sum(cache.evict(k) for k in stale_keys)
        print(f"(prune-stale vs {args.prune_stale}: {evicted} dead cache "
              f"entr{'y' if evicted == 1 else 'ies'} evicted — "
              f"{len(diff.changed)} changed, {len(diff.removed)} removed)")
    if args.save_manifest:
        manifest.save(args.save_manifest)
        print(f"({len(manifest)} point key(s) recorded to {args.save_manifest})")
    if profile_sink is not None:
        with open(args.profile_out, "w") as fh:
            for identity, text in profile_sink:
                fh.write(f"==== {identity}\n{text}\n")
        print(f"(per-point profiles for {len(profile_sink)} computed point(s) "
              f"written to {args.profile_out})")
    if profiler is not None:
        import pstats

        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        print(f"(profile written to {args.profile}; top functions:)")
        stats.print_stats(10)
    if progress_fh is not None:
        progress_fh.close()
        print(f"(progress events streamed to {args.progress_out})")
    if history_sink is not None:
        print(f"({history_sink.recorded} history record(s) appended to "
              f"{args.history} as run {args.run_label!r})")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"report written to {args.out}")
    if registry is not None:
        with open(args.metrics_out, "w") as fh:
            fh.write(registry.to_json())
        print(f"({len(registry)} metric series written to {args.metrics_out})")
    return 0


if __name__ == "__main__":
    sys.exit(cli_entry(main))
