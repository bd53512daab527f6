"""Empirical autotuner for the auto-overlap schedule (the ROADMAP's
"cost model + autotuner" closer for the compiler-side perf lever).

The cost model in :func:`repro.stencil.variants.auto_overlap.
choose_schedule` predicts a chunk count from calibrated constants
alone.  This package *refines* that guess by measuring: it sweeps
(chunk count × TB-specialization split × boundary fusion) candidates
for one :class:`~repro.stencil.base.StencilConfig` (any shape or
dimension) through the :mod:`repro.perf` runner, so every trial is an
ordinary sweep point — fanned out over ``--jobs`` worker processes,
cached on disk by content key, and replayable via ``--changed-only``
manifests.  Re-running the tuner on an unchanged repo replays every
trial from the cache (the manifest classifies them ``replayed``) and
re-emits byte-identical schedule JSON.

The same machinery checks the paper's §4.1.2 closed-form TB split:
:func:`tb_split_grid` is the chunks=1 grid over :func:`candidate_splits`
plus the formula's own split, and with :func:`formula_schedule` as the
model, :attr:`TuneResult.model_regret_percent` is the formula's regret
against the empirical optimum.

Determinism contract: the candidate grid is a pure function of the
configuration (priority-ordered, deduplicated, budget-truncated), the
winner is the minimum ``(per_iteration_us, grid position)`` — so ties
resolve to the earlier, simpler candidate — and all JSON goes through
:mod:`repro.obs.stablejson`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# reuses the figure suite's sweep worker so the cpufree baseline point
# shares cache entries with `repro.bench` runs of the same config
from repro.bench.figures import (
    DEFAULT_GPU_COUNTS,
    SIZE_CLASSES_2D,
    _stencil_point,
    weak_shape_2d,
)
from repro.perf import SweepRunner, active_runner
from repro.stencil.base import StencilConfig
from repro.stencil.variants.auto_overlap import (
    CHUNK_CANDIDATES,
    AutoOverlap,
    OverlapSchedule,
    choose_schedule,
)
from repro.stencil.variants.cpufree import CPUFree

__all__ = [
    "SCHEDULE_FORMAT",
    "WINLOSS_FORMAT",
    "TuneResult",
    "candidate_splits",
    "formula_schedule",
    "schedule_grid",
    "schedule_payload",
    "tb_split_grid",
    "trial_point",
    "tune",
    "win_loss_payload",
]

SCHEDULE_FORMAT = "repro-tune-schedule-v1"
WINLOSS_FORMAT = "repro-tune-winloss-v1"


def _config(size: str, gpus: int, iterations: int) -> StencilConfig:
    """A win/loss point: 2D Jacobi at the figure suite's weak-scaling
    shape, timing-only (identical simulated time to the data-carrying
    run)."""
    return StencilConfig(
        global_shape=weak_shape_2d(SIZE_CLASSES_2D[size], gpus),
        num_gpus=gpus, iterations=iterations, with_data=False,
    )


def trial_point(config: StencilConfig, schedule: OverlapSchedule) -> dict:
    """Sweep worker: measure one schedule candidate.

    Top-level and frozen-dataclass-argument on purpose: the
    :mod:`repro.perf` cache keys points by ``qualname + repr(args) +
    source digest``, so the config and schedule reprs are the trial's
    cache identity (as for ``_stencil_point``).
    """
    res = AutoOverlap(config, schedule=schedule).run()
    return {
        "per_iteration_us": res.per_iteration_us,
        "overlap_ratio": res.overlap_ratio,
    }


def candidate_splits(tb_total: int, *, sides: int = 2,
                     max_candidates: int = 12) -> list[int]:
    """Geometrically spaced boundary block-count candidates."""
    if tb_total < sides + 1:
        raise ValueError("device too small to specialize")
    limit = (tb_total - 1) // sides
    out: list[int] = []
    candidate = 1
    while candidate <= limit and len(out) < max_candidates:
        out.append(candidate)
        candidate = max(candidate + 1, int(candidate * 1.6))
    if out[-1] != limit and len(out) < max_candidates:
        out.append(limit)
    return out


def schedule_grid(config: StencilConfig) -> list[OverlapSchedule]:
    """Candidate schedules in deterministic priority order.

    Tiers, so a small ``--budget`` still explores every axis instead of
    exhausting the first nested loop:

    1. the chunk axis alone (contains the cost model's seed and the
       ``chunks=1`` candidate, which *is* cpufree's schedule);
    2. the TB-split axis at the model-seeded chunk count;
    3. boundary fusion at the seeded chunk count (alone, then crossed
       with the splits);
    4. the remaining full cross-product.

    Duplicates collapse onto their first (highest-priority) position;
    :func:`tune`'s ``budget`` truncates the tail.
    """
    seed = choose_schedule(config)
    tb_total = config.node.gpu.max_coresident_blocks(config.threads_per_block)
    splits = candidate_splits(tb_total, sides=2)[:6]
    tiers: list[OverlapSchedule] = []
    tiers += [OverlapSchedule(k) for k in CHUNK_CANDIDATES]
    tiers += [OverlapSchedule(seed.chunks, s) for s in splits]
    tiers += [OverlapSchedule(seed.chunks, None, True)]
    tiers += [OverlapSchedule(seed.chunks, s, True) for s in splits]
    for k in CHUNK_CANDIDATES:
        for s in (None, *splits):
            for fuse in (False, True):
                tiers.append(OverlapSchedule(k, s, fuse))
    seen: set[OverlapSchedule] = set()
    return [s for s in tiers if not (s in seen or seen.add(s))]


def formula_schedule(config: StencilConfig) -> OverlapSchedule:
    """cpufree's schedule with the §4.1.2 closed-form split (rank 0's,
    as cpufree computes it) pinned on every rank."""
    plan = CPUFree(config).specialization(0)
    return OverlapSchedule(1, plan.boundary_tb_per_side)


def tb_split_grid(config: StencilConfig) -> list[OverlapSchedule]:
    """The §4.1.2 formula check: chunks=1 schedules over the candidate
    splits and the formula's own split, in ascending split order (so a
    tie resolves to the smaller split)."""
    tb_total = config.node.gpu.max_coresident_blocks(config.threads_per_block)
    splits = set(candidate_splits(tb_total))
    splits.add(formula_schedule(config).boundary_tb_per_side)
    return [OverlapSchedule(1, s) for s in sorted(splits)]


@dataclass
class TuneResult:
    """Outcome of one configuration's search."""

    #: the timing-only configuration every trial ran
    config: StencilConfig
    best: OverlapSchedule
    best_per_iteration_us: float
    cpufree_per_iteration_us: float
    model: OverlapSchedule
    model_per_iteration_us: float
    #: every measured candidate, in grid order
    trials: list[dict] = field(default_factory=list)

    @property
    def model_regret_percent(self) -> float:
        """How much slower the model's schedule is than the empirical
        optimum (0.0 = the model found it)."""
        if self.best_per_iteration_us == 0.0:
            return 0.0
        return ((self.model_per_iteration_us - self.best_per_iteration_us)
                / self.best_per_iteration_us * 100.0)


def tune(config: StencilConfig, *,
         grid: list[OverlapSchedule] | None = None,
         model: OverlapSchedule | None = None,
         budget: int | None = None,
         runner: SweepRunner | None = None) -> TuneResult:
    """Measure a schedule grid for one configuration.

    ``grid`` defaults to :func:`schedule_grid` and ``model`` to the cost
    model's :func:`choose_schedule`; ``budget`` keeps the first N grid
    entries.  The model's schedule is always measured: when the budget
    cut it, it is appended to the grid.  Trials run timing-only
    whatever ``config.with_data`` says.
    """
    runner = runner if runner is not None else active_runner()
    config = replace(config, with_data=False)
    if model is None:
        model = choose_schedule(config)
    grid = list(schedule_grid(config) if grid is None else grid)[:budget]
    if model not in grid:
        grid.append(model)
    measured = runner.map(trial_point, [(config, s) for s in grid])
    cpufree_row = runner.map(_stencil_point, [("cpufree", config)])[0]
    best_i = min(range(len(grid)),
                 key=lambda i: (measured[i]["per_iteration_us"], i))
    return TuneResult(
        config=config,
        best=grid[best_i],
        best_per_iteration_us=measured[best_i]["per_iteration_us"],
        cpufree_per_iteration_us=cpufree_row.per_iteration_us,
        model=model,
        model_per_iteration_us=measured[grid.index(model)]["per_iteration_us"],
        trials=[
            {"schedule": s.describe(), **m}
            for s, m in zip(grid, measured)
        ],
    )


def schedule_payload(result: TuneResult, size: str) -> dict:
    """The byte-stable best-schedule document (``--out``); ``size``
    labels the domain (the CLI's size class)."""
    return {
        "format": SCHEDULE_FORMAT,
        "app": f"jacobi{len(result.config.global_shape)}d",
        "size": size,
        "gpus": result.config.num_gpus,
        "iterations": result.config.iterations,
        "schedule": result.best.describe(),
        "best_per_iteration_us": result.best_per_iteration_us,
        "cpufree_per_iteration_us": result.cpufree_per_iteration_us,
        "model_schedule": result.model.describe(),
        "model_per_iteration_us": result.model_per_iteration_us,
        "model_regret_percent": result.model_regret_percent,
        "trials": result.trials,
    }


def win_loss_payload(sizes: tuple[str, ...] = ("small", "medium", "large"),
                     gpu_counts: tuple[int, ...] = DEFAULT_GPU_COUNTS,
                     iterations: int = 40, *,
                     runner: SweepRunner | None = None) -> dict:
    """``auto_overlap`` vs hand-tuned ``cpufree`` across the figure
    suite's (size × gpus) points — the ``BENCH_PR10.json`` table."""
    runner = runner if runner is not None else active_runner()
    variants = ("cpufree", "auto_overlap")
    tasks = [
        (variant, _config(size, gpus, iterations))
        for size in sizes for gpus in gpu_counts for variant in variants
    ]
    rows = runner.map(_stencil_point, tasks)
    points: list[dict] = []
    wins = ties = losses = 0
    it = iter(rows)
    for size in sizes:
        for gpus in gpu_counts:
            cf, ao = next(it), next(it)
            # chunks==1 delegates to cpufree's exact body, so ties are
            # bit-exact; anything inside float-noise of that is a tie
            eps = 1e-9 * cf.per_iteration_us
            if ao.per_iteration_us < cf.per_iteration_us - eps:
                outcome = "win"
                wins += 1
            elif ao.per_iteration_us <= cf.per_iteration_us + eps:
                outcome = "tie"
                ties += 1
            else:
                outcome = "loss"
                losses += 1
            points.append({
                "size": size,
                "gpus": gpus,
                "chunks": choose_schedule(
                    _config(size, gpus, iterations)).chunks,
                "cpufree_per_iteration_us": cf.per_iteration_us,
                "auto_overlap_per_iteration_us": ao.per_iteration_us,
                "cpufree_overlap_ratio": cf.overlap_ratio,
                "auto_overlap_overlap_ratio": ao.overlap_ratio,
                "outcome": outcome,
            })
    total = len(points)
    return {
        "format": WINLOSS_FORMAT,
        "app": "jacobi2d",
        "iterations": iterations,
        "points": points,
        "wins": wins,
        "ties": ties,
        "losses": losses,
        "win_or_tie_fraction": (wins + ties) / total if total else 0.0,
    }
