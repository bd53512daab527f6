"""AutoOverlap variant + cost-model schedule choice + repro.tune."""

import numpy as np
import pytest

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
from repro.tune import schedule_grid, schedule_payload, tune, win_loss_payload


def _config(shape=(256, 258), gpus=4, iterations=10, **kw):
    return StencilConfig(global_shape=shape, num_gpus=gpus,
                         iterations=iterations, **kw)


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
        small = schedule_grid(config, budget=16)
        assert {s.chunks for s in small} == set(CHUNK_CANDIDATES)
        assert any(s.boundary_tb_per_side is not None for s in small)
        assert any(s.fuse_boundary for s in small)

    def test_tune_never_worse_than_cpufree(self):
        result = tune("small", 4, iterations=6, budget=8)
        assert result.best_per_iteration_us <= result.cpufree_per_iteration_us
        assert dumps_stable(schedule_payload(result)) \
            == dumps_stable(schedule_payload(result))

    def test_cache_replay_and_byte_stable_schedule(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        manifest = SweepManifest()
        first = tune("small", 2, iterations=4, budget=6,
                     runner=SweepRunner(cache=cache, manifest=manifest))
        manifest.save(tmp_path / "m.json")
        baseline = SweepManifest.load(tmp_path / "m.json")
        replay_runner = SweepRunner(cache=cache, baseline=baseline)
        second = tune("small", 2, iterations=4, budget=6,
                      runner=replay_runner)
        # >= 90% replayed is the acceptance bar; unchanged repo -> 100%
        assert replay_runner.replayed == len(manifest)
        assert replay_runner.changed == replay_runner.added == 0
        assert dumps_stable(schedule_payload(first)) \
            == dumps_stable(schedule_payload(second))

    @pytest.mark.parametrize("argv", [
        ["--budget", "0"],
        ["--jobs", "0"],
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
