"""Chaos-matrix harness: expected statuses, byte-identical reports,
jobs-count independence, and zero-fault inertness."""

import json

import numpy as np
import pytest

from repro.cliutil import cli_entry
from repro.faults.__main__ import main
from repro.faults.harness import (
    DEFAULT_MATRIX_PROFILES,
    render_report,
    run_matrix,
)
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.stencil import StencilConfig
from repro.stencil.base import VARIANTS

SMALL = dict(shape=(18, 34), num_gpus=2, iterations=3)


class TestMatrix:
    def test_small_matrix_all_ok(self):
        report = run_matrix(["baseline_p2p", "cpufree"],
                            ["none", "transient", "lost_signal"], **SMALL)
        assert report["ok"]
        assert report["failures"] == []
        by_cell = {(c["variant"], c["profile"]): c for c in report["cells"]}
        assert by_cell[("cpufree", "lost_signal")]["status"] == "diagnostic"
        assert by_cell[("cpufree", "transient")]["status"] == "converged"
        # non-NVSHMEM variant has no signals to lose: expect downgraded
        assert by_cell[("baseline_p2p", "lost_signal")]["expect"] == "converge"
        assert by_cell[("baseline_p2p", "lost_signal")]["status"] == "converged"

    def test_fault_summary_attached_to_faulted_cells(self):
        report = run_matrix(["cpufree"], ["none", "transient"], **SMALL)
        by_profile = {c["profile"]: c for c in report["cells"]}
        assert by_profile["none"]["faults"] is None
        summary = by_profile["transient"]["faults"]
        assert summary["injected_events"] > 0
        assert "events_sha256" in summary

    def test_unknown_profile_rejected_eagerly(self):
        import pytest
        with pytest.raises(ValueError, match="unknown fault profile"):
            run_matrix(["cpufree"], ["chaos_monkey"], **SMALL)

    def test_default_profiles_cover_all_expectations(self):
        assert "none" in DEFAULT_MATRIX_PROFILES
        assert "lost_signal" in DEFAULT_MATRIX_PROFILES


class TestReportDeterminism:
    def test_report_bytes_stable_across_runs(self):
        args = (["baseline_p2p", "cpufree"], ["none", "transient", "lost_signal"])
        first = render_report(run_matrix(*args, **SMALL))
        second = render_report(run_matrix(*args, **SMALL))
        assert first == second
        json.loads(first)  # well-formed

    def test_report_bytes_stable_across_jobs(self):
        args = (["baseline_p2p", "cpufree"], ["none", "transient"])
        serial = render_report(run_matrix(*args, jobs=1, **SMALL))
        parallel = render_report(run_matrix(*args, jobs=2, **SMALL))
        assert serial == parallel


class TestZeroFaultInertness:
    def test_none_profile_keeps_faults_hook_unset(self):
        for profile in (None, "none"):
            instance = VARIANTS["cpufree"](StencilConfig(
                global_shape=(18, 34), num_gpus=2, iterations=3,
                fault_profile=profile))
            assert instance.faults is None
            assert instance.ctx.faults is None

    def test_none_profile_byte_identical_to_unfaulted(self):
        """fault_profile="none" must not perturb metrics, traces, or
        results relative to not mentioning faults at all."""
        def run(profile):
            registry = MetricsRegistry()
            with use_metrics(registry):
                result = VARIANTS["cpufree"](StencilConfig(
                    global_shape=(18, 34), num_gpus=2, iterations=3,
                    fault_profile=profile)).run()
            metrics = json.dumps(registry.to_dict(), sort_keys=True)
            trace = json.dumps(result.tracer.to_chrome_trace(), sort_keys=True)
            return result.result, result.total_time_us, metrics, trace

        base_result, base_time, base_metrics, base_trace = run(None)
        none_result, none_time, none_metrics, none_trace = run("none")
        np.testing.assert_array_equal(none_result, base_result)
        assert none_time == base_time
        assert none_metrics == base_metrics
        assert none_trace == base_trace


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["--gpus", "3", "--shape", "10x10"],  # too few rows per rank
        ["--iterations", "0"],
    ])
    def test_invalid_configuration_is_a_cli_error(self, capsys, argv):
        """Bad input exits 2 with one line before any cell runs, never
        1 (a misbehaving cell)."""
        assert cli_entry(main, argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid run configuration: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--report-out", "/nonexistent/d/x.json"],
        ["--metrics-out", "/nonexistent/d/m.json"],
        ["--jobs", "0"],
    ])
    def test_bad_output_path_or_jobs_is_a_usage_error(self, capsys, argv):
        """Rejected at parse time with exit 2, before the matrix runs."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([ln for ln in captured.err.splitlines() if "error:" in ln]) == 1
