"""End-to-end tests for ``python -m repro.sanitize`` (in-process)."""

import json

import pytest

from repro.cliutil import CliError, cli_entry
from repro.sanitize.__main__ import main

SMALL = ["--shape", "18x34", "--gpus", "2", "--iterations", "3"]


def test_run_clean_variant_exits_zero(capsys):
    assert main(["run", "--variant", "cpufree", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "0 race finding(s)" in out


def test_run_seeded_variant_exits_one_and_names_both_pes(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(["run", "--variant", "racy_unsignaled", *SMALL,
               "--report-out", str(report_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "race on" in out
    report = json.loads(report_path.read_text())
    assert report["ok"] is False and report["n_active"] > 0
    finding = report["findings"][0]
    # both PEs and the heap offsets are named
    assert sorted(finding["pes"]) == [0, 1]
    lo, hi = finding["offsets"]
    assert hi > lo >= 0
    assert finding["first"]["site"] and finding["second"]["site"]


def test_run_suppression_keeps_findings_but_exits_zero(tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(["run", "--variant", "racy_unsignaled", *SMALL,
               "--suppress", "race:*", "--report-out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["n_active"] == 0
    assert report["findings"]  # still reported, just marked
    assert all(f["suppressed"] for f in report["findings"])


def test_run_unknown_variant_rejected(capsys):
    with pytest.raises(CliError):
        main(["run", "--variant", "nope", *SMALL])
    assert cli_entry(main, ["run", "--variant", "nope", *SMALL]) == 2
    assert capsys.readouterr().err.startswith("error: unknown variant")


@pytest.mark.parametrize("argv", [
    ["run", "--gpus", "3", "--shape", "10x10"],  # too few rows per rank
    ["sweep", "--gpus", "0"],
    ["run", "--iterations", "0"],
])
def test_invalid_configuration_exits_two_not_one(capsys, argv):
    """Exit 1 means "race found": bad input must exit 2, with one line
    and before any variant of a sweep runs."""
    assert cli_entry(main, argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid run configuration: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["run", "--report-out", "/nonexistent/d/r.json"],
    ["run", "--trace-out", "/nonexistent/d/t.json"],
    ["sweep", "--report-out", "/nonexistent/d/r.json"],
    ["lint", "--report-out", "/nonexistent/d/r.json"],
])
def test_bad_output_path_exits_two_not_one(capsys, argv):
    """Rejected at parse time with exit 2, before any run."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([ln for ln in captured.err.splitlines() if "error:" in ln]) == 1


def test_run_report_bytes_stable_across_reruns(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        main(["run", "--variant", "racy_unsignaled", *SMALL,
              "--report-out", str(path)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_trace_out_contains_race_instants(tmp_path):
    trace_path = tmp_path / "trace.json"
    main(["run", "--variant", "racy_unsignaled", *SMALL,
          "--trace-out", str(trace_path)])
    events = json.loads(trace_path.read_text())
    instants = [e for e in events
                if e.get("ph") == "i" and e.get("cat") == "race"]
    assert instants
    assert all(e["name"].startswith("race:") for e in instants)


def test_lint_shipped_samples_clean(capsys, tmp_path):
    report_path = tmp_path / "lint.json"
    assert main(["lint", "--report-out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["ok"] is True
    assert set(report["sdfgs"]) == {
        f"jacobi_{d}/{p}" for d in ("1d", "2d", "3d")
        for p in ("baseline", "cpufree")
    }
    assert all(s["n_active"] == 0 for s in report["sdfgs"].values())


def test_lint_demo_bad_flags_every_seeded_sdfg(tmp_path):
    report_path = tmp_path / "lint.json"
    assert main(["lint", "--demo-bad", "--report-out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    demos = {k: v for k, v in report["sdfgs"].items() if k.startswith("demo/")}
    assert len(demos) == 3
    assert all(s["n_active"] > 0 for s in demos.values())
    rules = {f["rule"] for s in demos.values() for f in s["findings"]}
    assert rules == {"unsignaled-put-racy-read", "unmatched-wait",
                     "src-reuse-before-quiet", "mismatched-signal-pair"}


def test_obs_sanitize_flag_clean_run():
    from repro.obs.__main__ import main as obs_main

    rc = obs_main(["summary", "--variant", "cpufree", "--shape", "18x34",
                   "--gpus", "2", "--iterations", "3", "--sanitize"])
    assert rc == 0
