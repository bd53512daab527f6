"""AutoOverlap variant + cost-model schedule choice + repro.tune."""

import numpy as np
import pytest

from repro.bench.figures import SIZE_CLASSES_2D, weak_shape_2d
from repro.core import SpecializationPlan
from repro.obs.stablejson import dumps_stable
from repro.obs.timeline import pe_phases
from repro.perf import ResultCache, SweepManifest, SweepRunner
from repro.stencil.base import VARIANTS, StencilConfig
from repro.stencil.variants.auto_overlap import (
    CHUNK_CANDIDATES,
    AutoOverlap,
    OverlapSchedule,
    choose_schedule,
    model_inner_time_us,
)
from repro.tune import (
    candidate_splits,
    formula_schedule,
    schedule_grid,
    schedule_payload,
    tb_split_grid,
    tune,
    win_loss_payload,
)


def _config(shape=(256, 258), gpus=4, iterations=10, **kw):
    return StencilConfig(global_shape=shape, num_gpus=gpus,
                         iterations=iterations, **kw)


def _sized(size, gpus, iterations):
    """The CLI's configuration for ``--size SIZE --gpus N``."""
    return _config(weak_shape_2d(SIZE_CLASSES_2D[size], gpus), gpus,
                   iterations, with_data=False)


LARGE = (8192, 8194)


class TestChooseSchedule:
    def test_small_domain_degenerates_to_cpufree(self):
        # under the tiling knee every chunk count costs the same compute
        # but K>1 pays switch overhead -> the model must pick K=1
        assert choose_schedule(_config()).chunks == 1

    def test_large_domain_chunks(self):
        schedule = choose_schedule(_config(LARGE, gpus=8))
        assert schedule.chunks > 1

    def test_deterministic(self):
        a = choose_schedule(_config(LARGE, gpus=8))
        b = choose_schedule(_config(LARGE, gpus=8))
        assert a == b

    def test_model_monotone_overhead(self):
        # pure-overhead regime: with no tiling relief, more chunks can
        # only add switch cost
        config = _config()
        times = [model_inner_time_us(config, k) for k in CHUNK_CANDIDATES]
        assert times == sorted(times)


class TestOverlapSchedule:
    def test_validates(self):
        with pytest.raises(ValueError):
            OverlapSchedule(chunks=0)
        with pytest.raises(ValueError):
            OverlapSchedule(chunks=2, boundary_tb_per_side=0)

    def test_describe_round_trips_stably(self):
        s = OverlapSchedule(chunks=3, boundary_tb_per_side=4,
                            fuse_boundary=True)
        assert dumps_stable(s.describe()) == dumps_stable(s.describe())


class TestAutoOverlapVariant:
    def test_registered(self):
        assert "auto_overlap" in VARIANTS

    def test_k1_ties_cpufree_exactly(self):
        config = _config(with_data=False)
        assert choose_schedule(config).chunks == 1
        cf = VARIANTS["cpufree"](config).run()
        ao = VARIANTS["auto_overlap"](config).run()
        assert ao.per_iteration_us == cf.per_iteration_us

    def test_large_domain_beats_cpufree(self):
        config = _config(LARGE, gpus=8, iterations=5, with_data=False)
        cf = VARIANTS["cpufree"](config).run()
        ao = VARIANTS["auto_overlap"](config).run()
        assert ao.per_iteration_us < cf.per_iteration_us

    def test_data_matches_cpufree(self):
        config = _config((64, 66), gpus=4, iterations=6, seed=3)
        cf = VARIANTS["cpufree"](config).run()
        ao = AutoOverlap(config, schedule=OverlapSchedule(chunks=3)).run()
        np.testing.assert_array_equal(ao.result, cf.result)

    @pytest.mark.parametrize("schedule", [
        OverlapSchedule(chunks=2, fuse_boundary=True),
        OverlapSchedule(chunks=2, boundary_tb_per_side=4),
        OverlapSchedule(chunks=3, boundary_tb_per_side=2, fuse_boundary=True),
    ])
    def test_knobs_preserve_results(self, schedule):
        config = _config((64, 66), gpus=4, iterations=6, seed=3)
        cf = VARIANTS["cpufree"](config).run()
        ao = AutoOverlap(config, schedule=schedule).run()
        np.testing.assert_array_equal(ao.result, cf.result)

    def test_overlap_fraction_not_degraded(self):
        """obs/timeline validation: chunking must not hide less
        communication under compute than the hand-tuned schedule."""
        config = _config(LARGE, gpus=8, iterations=5, with_data=False)
        cf = VARIANTS["cpufree"](config)
        cf_res = cf.run()
        ao = VARIANTS["auto_overlap"](config)
        ao_res = ao.run()

        def mean_comm_overlap(variant):
            phases = pe_phases(variant.tracer.spans)
            fractions = [p.comm_overlap_fraction() for p in phases.values()]
            return sum(fractions) / len(fractions)

        assert mean_comm_overlap(ao) >= mean_comm_overlap(cf)
        assert ao_res.overlap_ratio >= cf_res.overlap_ratio


class TestTune:
    def test_grid_is_deterministic_and_deduped(self):
        config = _config(with_data=False)
        grid = schedule_grid(config)
        assert grid == schedule_grid(config)
        assert len(grid) == len(set(grid))
        # a small budget still spans every axis
        small = schedule_grid(config)[:16]
        assert {s.chunks for s in small} == set(CHUNK_CANDIDATES)
        assert any(s.boundary_tb_per_side is not None for s in small)
        assert any(s.fuse_boundary for s in small)

    def test_tune_never_worse_than_cpufree(self):
        result = tune(_sized("small", 4, 6), budget=8)
        # the model's schedule is inside this budget: nothing is appended
        assert len(result.trials) == 8
        assert result.best_per_iteration_us <= result.cpufree_per_iteration_us
        assert dumps_stable(schedule_payload(result, "small")) \
            == dumps_stable(schedule_payload(result, "small"))

    @pytest.mark.parametrize("budget", [1, 2])
    def test_budget_that_cuts_the_model_still_measures_it(self, budget):
        """At the CLI's default large/8 the model seeds chunks=6, which a
        budget of 1 or 2 cuts from the grid; it is measured anyway."""
        config = _sized("large", 8, 4)
        model = choose_schedule(config)
        assert model not in schedule_grid(config)[:budget]
        result = tune(config, budget=budget)
        assert len(result.trials) == budget + 1
        assert result.trials[-1]["schedule"] == model.describe()
        assert result.model == model
        assert result.model_per_iteration_us \
            == result.trials[-1]["per_iteration_us"] > 0.0

    def test_any_shape_and_dimension(self):
        result = tune(_config((4 * 4 + 2, 34, 34), gpus=4, iterations=3),
                      budget=3)
        payload = schedule_payload(result, "thin")
        assert payload["app"] == "jacobi3d"
        assert payload["gpus"] == 4 and payload["iterations"] == 3

    def test_cache_replay_and_byte_stable_schedule(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        manifest = SweepManifest()
        first = tune(_sized("small", 2, 4), budget=6,
                     runner=SweepRunner(cache=cache, manifest=manifest))
        manifest.save(tmp_path / "m.json")
        baseline = SweepManifest.load(tmp_path / "m.json")
        replay_runner = SweepRunner(cache=cache, baseline=baseline)
        second = tune(_sized("small", 2, 4), budget=6,
                      runner=replay_runner)
        # >= 90% replayed is the acceptance bar; unchanged repo -> 100%
        assert replay_runner.replayed == len(manifest)
        assert replay_runner.changed == replay_runner.added == 0
        assert dumps_stable(schedule_payload(first, "small")) \
            == dumps_stable(schedule_payload(second, "small"))

    @pytest.mark.parametrize("argv", [
        ["--budget", "0"],
        ["--jobs", "0"],
        ["--gpus", "0"],
        ["--iterations", "0"],
        ["--winloss-iterations", "0"],
        ["--out", "/nonexistent/d/schedule.json"],
        ["--winloss-out", "/nonexistent/d/winloss.json"],
    ])
    def test_cli_bad_count_or_output_path_is_a_usage_error(self, capsys, argv):
        """Rejected at parse time with exit 2, before any trial runs."""
        from repro.tune.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["--size", "small", "--gpus", "2", "--iterations", "2",
                  "--no-cache", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([ln for ln in captured.err.splitlines() if "error:" in ln]) == 1

    def test_win_loss_payload_shape(self):
        table = win_loss_payload(sizes=("small",), gpu_counts=(1, 2),
                                 iterations=4)
        assert table["format"] == "repro-tune-winloss-v1"
        assert len(table["points"]) == 2
        assert table["wins"] + table["ties"] + table["losses"] == 2
        for point in table["points"]:
            assert point["outcome"] in ("win", "tie", "loss")


class TestCandidates:
    def test_candidates_start_at_one(self):
        assert candidate_splits(216)[0] == 1

    def test_candidates_within_feasible_range(self):
        for c in candidate_splits(216):
            assert 1 <= c <= (216 - 1) // 2

    def test_candidates_strictly_increasing(self):
        cs = candidate_splits(216)
        assert all(a < b for a, b in zip(cs, cs[1:]))

    def test_limit_included(self):
        cs = candidate_splits(216)
        assert cs[-1] == (216 - 1) // 2

    def test_tiny_device_rejected(self):
        with pytest.raises(ValueError):
            candidate_splits(2)


def _formula_check(config):
    """The §4.1.2 check: the chunks=1 TB-split grid, formula as model."""
    return tune(config, grid=tb_split_grid(config),
                model=formula_schedule(config))


class TestFormulaCheck:
    @pytest.fixture(scope="class")
    def balanced(self):
        return _formula_check(_config((2048 + 2, 2048 + 2), gpus=8,
                                      with_data=False))

    def test_grid_is_the_candidates_plus_the_formula(self):
        config = _config((2048 + 2, 2048 + 2), gpus=8)
        tb_total = config.node.gpu.max_coresident_blocks(config.threads_per_block)
        grid = tb_split_grid(config)
        formula = formula_schedule(config)
        assert formula.chunks == 1 and formula in grid
        assert all(s.chunks == 1 and not s.fuse_boundary for s in grid)
        splits = [s.boundary_tb_per_side for s in grid]
        assert splits == sorted(set(splits))
        assert set(candidate_splits(tb_total)) <= set(splits)

    def test_formula_split_is_cpufrees(self, balanced):
        """Pinning the formula's split reproduces cpufree exactly."""
        assert balanced.model_per_iteration_us \
            == balanced.cpufree_per_iteration_us

    def test_measurements_cover_candidates(self, balanced):
        assert len(balanced.trials) >= 5
        assert all(t["per_iteration_us"] > 0 for t in balanced.trials)

    def test_formula_near_optimum_on_balanced_domain(
            self, balanced):
        """§4.1.2's formula should be near-optimal where it applies."""
        assert balanced.model_regret_percent < 10.0

    def test_best_plan_is_feasible(self, balanced):
        config = balanced.config
        plan = SpecializationPlan(
            tb_total=config.node.gpu.max_coresident_blocks(config.threads_per_block),
            boundary_tb_per_side=balanced.best.boundary_tb_per_side, sides=2)
        assert plan.inner_tb >= 1
        assert plan.boundary_tb_per_side >= 1

    def test_unbalanced_3d_prefers_more_boundary_blocks(self):
        """Thin-slab 3D: the optimum needs far more than one boundary
        block — the regime where the proportional formula matters."""
        result = _formula_check(_config((4 * 8 + 2, 1024 + 2, 1024 + 2),
                                        gpus=8, with_data=False))
        assert result.best.boundary_tb_per_side > 1
        # and the formula lands close to the empirical best
        assert result.model_regret_percent < 25.0

    def test_regret_zero_when_formula_is_best(self):
        result = _formula_check(_config((4096 + 2, 4096 + 2), gpus=8,
                                        with_data=False))
        assert result.best == result.model
        assert result.model_regret_percent == 0.0
