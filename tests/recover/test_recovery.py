"""Checkpoint/restart recovery: byte-identity, time accounting,
heap snapshots, and the unrecoverable diagnostic."""

import json

import numpy as np
import pytest

import repro.stencil.variants  # noqa: F401 - populate the registry
from repro.faults import FaultPlan, PECrashFault, get_plan
from repro.recover import (
    CheckpointStore,
    UnrecoverableCrashError,
    run_with_recovery,
)
from repro.stencil import StencilConfig, jacobi_reference
from repro.stencil.base import VARIANTS, default_initial

SHAPE = (34, 66)
ITERATIONS = 6


def _config(profile, **kw):
    kw.setdefault("global_shape", SHAPE)
    kw.setdefault("num_gpus", 2)
    kw.setdefault("iterations", ITERATIONS)
    return StencilConfig(fault_profile=profile, **kw)


def _reference(config):
    return jacobi_reference(default_initial(config.global_shape, config.seed),
                            config.iterations)


class TestSegmentedCleanRun:
    """Segmenting alone (no crash) must be a pure refactoring of the
    timeline: same field, same total time as the sum of its parts."""

    @pytest.mark.parametrize("every", [1, 2, 3, 4, 6])
    def test_segmented_run_matches_reference(self, every):
        config = _config(None)
        outcome = run_with_recovery(VARIANTS["cpufree"], config,
                                    checkpoint_every=every)
        np.testing.assert_array_equal(outcome.result, _reference(config))
        assert outcome.restarts == 0
        assert not outcome.recovered

    def test_checkpoint_chain_epochs_and_iterations(self):
        outcome = run_with_recovery(VARIANTS["cpufree"], _config(None),
                                    checkpoint_every=2)
        assert outcome.store.epochs() == [0, 1, 2, 3]
        iters = [c.iteration for c in outcome.store._checkpoints]
        assert iters == [0, 2, 4, 6]
        assert outcome.store.total_bytes() > 0


class TestCrashRecovery:
    def test_recovered_field_byte_identical(self):
        config = _config("crash_recover")
        outcome = run_with_recovery(VARIANTS["cpufree"], config)
        assert outcome.recovered and outcome.restarts == 1
        assert 1 in outcome.crashed_pes
        np.testing.assert_array_equal(outcome.result, _reference(config))

    def test_only_simulated_time_grows(self):
        plan = get_plan("crash_recover")
        clean = run_with_recovery(VARIANTS["cpufree"], _config(None),
                                  checkpoint_every=plan.checkpoint_every)
        crashed = run_with_recovery(VARIANTS["cpufree"],
                                    _config("crash_recover"))
        np.testing.assert_array_equal(crashed.result, clean.result)
        assert crashed.total_time_us > clean.total_time_us
        # the growth is exactly the accounted lost time
        assert crashed.total_time_us == pytest.approx(
            clean.total_time_us + crashed.lost_time_us)

    def test_lost_time_is_detection_plus_restart_cost(self):
        plan = get_plan("crash_recover")
        outcome = run_with_recovery(VARIANTS["cpufree"],
                                    _config("crash_recover"))
        attempt = next(a for a in outcome.attempts
                       if a["status"] == "crashed")
        detect_t_local = attempt["detect_t_us"] - attempt["base_us"]
        assert outcome.lost_time_us == pytest.approx(
            detect_t_local + plan.restart_cost_us)
        assert outcome.detect_latency_us > 0.0

    def test_detection_is_quantised_to_heartbeats(self):
        plan = get_plan("crash_recover")
        outcome = run_with_recovery(VARIANTS["cpufree"],
                                    _config("crash_recover"))
        attempt = next(a for a in outcome.attempts
                       if a["status"] == "crashed")
        detect_local = attempt["detect_t_us"] - attempt["base_us"]
        periods = detect_local / plan.heartbeat_us
        assert periods == pytest.approx(round(periods))

    def test_recovery_works_across_seeds(self):
        for seed in (7, 2024):
            config = _config(f"crash_recover@{seed}")
            outcome = run_with_recovery(VARIANTS["cpufree"], config)
            np.testing.assert_array_equal(outcome.result, _reference(config))
            assert outcome.recovered

    @pytest.mark.parametrize("variant",
                             ["cpufree", "baseline_p2p", "baseline_copy"])
    def test_all_variants_recover(self, variant):
        config = _config("crash_recover")
        outcome = run_with_recovery(VARIANTS[variant], config)
        np.testing.assert_array_equal(outcome.result, _reference(config))
        assert outcome.recovered

    def test_report_is_json_safe(self):
        outcome = run_with_recovery(VARIANTS["cpufree"],
                                    _config("crash_recover"))
        report = outcome.report()
        text = json.dumps(report)  # must not raise
        assert json.loads(text)["recovered"] is True

    def test_recover_metrics_published(self):
        from repro.obs.metrics import MetricsRegistry, use_metrics

        registry = MetricsRegistry()
        with use_metrics(registry):
            run_with_recovery(VARIANTS["cpufree"], _config("crash_recover"))
        names = {series["name"] for series in registry.to_dict()["counters"]}
        assert "recover.checkpoints" in names
        assert "recover.restarts" in names
        assert "recover.lost_time_us" in names


class TestUnrecoverable:
    def test_no_checkpoints_raises_naming_dead_pe(self):
        # the `crash` profile has no checkpoint cadence: detection
        # works, recovery cannot — the error must name the dead PE
        plan = get_plan("crash")
        with pytest.raises(UnrecoverableCrashError, match="pe1"):
            run_with_recovery(VARIANTS["cpufree"], _config("crash"),
                              plan=plan)


class TestHeapSnapshot:
    @staticmethod
    def _heap(n_pes):
        from repro.hw.memory import MemoryManager
        from repro.nvshmem.heap import SymmetricHeap
        from repro.sim import Simulator

        sim = Simulator()
        return SymmetricHeap(MemoryManager(num_gpus=n_pes), sim, n_pes)

    def test_snapshot_restore_round_trip(self):
        heap = self._heap(2)
        arr = heap.malloc("field", (4,), dtype=np.float64)
        sig = heap.malloc_signals("sync", 2)
        arr.local(0)[:] = [1.0, 2.0, 3.0, 4.0]
        arr.local(1)[:] = [5.0, 6.0, 7.0, 8.0]
        sig.flag(0, 0).set(3)
        snap = heap.snapshot(epoch=0)
        arr.local(0)[:] = 0.0
        sig.flag(0, 0).set(99)
        heap.restore(snap)
        np.testing.assert_array_equal(arr.local(0), [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(arr.local(1), [5.0, 6.0, 7.0, 8.0])
        assert sig.flag(0, 0).value == 3

    def test_snapshot_is_deep(self):
        heap = self._heap(1)
        arr = heap.malloc("field", (2,), dtype=np.float64)
        arr.local(0)[:] = [1.0, 2.0]
        snap = heap.snapshot(epoch=0)
        arr.local(0)[:] = [9.0, 9.0]
        np.testing.assert_array_equal(snap.arrays["field"][0], [1.0, 2.0])

    def test_restore_rejects_shape_mismatch(self):
        heap = self._heap(1)
        heap.malloc("field", (2,), dtype=np.float64)
        snap = heap.snapshot(epoch=0)
        other = self._heap(1)
        other.malloc("field", (3,), dtype=np.float64)
        with pytest.raises(ValueError):
            other.restore(snap)

    def test_nvshmem_variant_checkpoints_capture_heap(self):
        outcome = run_with_recovery(VARIANTS["cpufree"], _config(None),
                                    checkpoint_every=3)
        # epoch 0 is the pre-run scatter (no heap yet); later epochs
        # snapshot the symmetric heap
        later = outcome.store._checkpoints[1:]
        assert later and all(c.heap is not None for c in later)
        assert all(c.heap.nbytes > 0 for c in later)


class TestStoreUnit:
    def test_store_deep_copies_state(self):
        store = CheckpointStore()
        state = np.ones((2, 2))
        store.save(0, state, 0.0)
        state[:] = 5.0
        np.testing.assert_array_equal(store.latest.state, np.ones((2, 2)))

    def test_empty_store(self):
        store = CheckpointStore()
        assert len(store) == 0
        assert store.latest is None
        assert store.total_bytes() == 0


class TestCli:
    def test_cli_reports_byte_identity(self, tmp_path, capsys):
        from repro.recover.__main__ import main

        out = tmp_path / "recovery.json"
        rc = main(["--report-out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["byte_identical"] is True
        assert report["restarts"] >= 1

    def test_cli_unknown_variant_is_cli_error(self):
        from repro.cliutil import CliError
        from repro.recover.__main__ import main

        with pytest.raises(CliError, match="unknown variant"):
            main(["--variant", "bogus"])

    def test_cli_unknown_profile_is_cli_error(self):
        from repro.cliutil import CliError
        from repro.recover.__main__ import main

        with pytest.raises(CliError, match="available"):
            main(["--profile", "bogus"])

    @pytest.mark.parametrize("argv", [
        ["--gpus", "3", "--shape", "10x10"],  # too few rows per rank
        ["--iterations", "0"],
    ])
    def test_cli_invalid_configuration_is_cli_error(self, capsys, argv):
        from repro.cliutil import cli_entry
        from repro.recover.__main__ import main

        assert cli_entry(main, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid run configuration: ")
        assert err.count("\n") == 1

    def test_cli_bad_report_path_is_a_usage_error(self, capsys):
        from repro.recover.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["--report-out", "/nonexistent/d/recovery.json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([ln for ln in captured.err.splitlines() if "error:" in ln]) == 1
