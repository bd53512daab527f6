"""Perf history store, metric-dump flattening and the noise-aware
regression gate."""

import json
import math

import pytest

from repro.obs.history import (
    HistoryStore,
    compare,
    flatten_metrics,
    load_metrics,
    normalized_identity,
    regress,
    regress_table,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def store(tmp_path):
    return HistoryStore(tmp_path / "hist.jsonl")


def _fill(store, run, values, field="per_iter_us", **extra):
    for pid, value in values.items():
        store.append({"run": run, "id": pid, field: value, **extra})


class TestStore:
    def test_round_trip_and_run_order(self, store):
        _fill(store, "base", {"a": 1.0, "b": 2.0})
        _fill(store, "check", {"a": 1.1})
        assert [r["id"] for r in store.records()] == ["a", "b", "a"]
        assert store.runs() == ["base", "check"]
        assert store.latest_run() == "check"

    def test_append_requires_run_and_id(self, store):
        with pytest.raises(ValueError, match="needs 'run' and 'id'"):
            store.append({"id": "a", "per_iter_us": 1.0})

    def test_missing_file_reads_empty(self, store):
        assert store.records() == []
        assert store.latest_run() is None

    def test_corrupt_line_skipped_and_reported(self, store):
        store.append({"run": "base", "id": "a", "per_iter_us": 1.0})
        with open(store.path, "a") as fh:
            fh.write("not json\n")
        store.append({"run": "base", "id": "b", "per_iter_us": 2.0})
        records = store.records()
        assert [r["id"] for r in records] == ["a", "b"]
        assert store.corrupt == [(2, "unparseable JSON (torn line?)")]

    def test_checksum_mismatch_skipped(self, store):
        store.append({"run": "base", "id": "a", "per_iter_us": 1.0})
        text = store.path.read_text()
        store.path.write_text(text.replace("1.0", "9.0"))
        assert store.records() == []
        assert store.corrupt == [(1, "checksum mismatch")]

    def test_legacy_records_without_sha_accepted(self, store):
        import json

        with open(store.path, "a") as fh:
            fh.write(json.dumps({"run": "base", "id": "a",
                                 "per_iter_us": 1.0}) + "\n")
        assert [r["id"] for r in store.records()] == ["a"]
        assert store.corrupt == []

    def test_blank_lines_tolerated(self, store):
        store.append({"run": "base", "id": "a", "per_iter_us": 1.0})
        with open(store.path, "a") as fh:
            fh.write("\n\n")
        assert len(store.records()) == 1

    def test_median_of_repeats(self, store):
        for value in (10.0, 30.0, 11.0):
            store.append({"run": "base", "id": "a", "per_iter_us": value})
        assert store.medians("base", "per_iter_us") == {"a": 11.0}

    def test_wall_medians_span_all_runs(self, store):
        store.append({"run": "base", "id": "a", "wall_s": 1.0})
        store.append({"run": "check", "id": "a", "wall_s": 3.0})
        store.append({"run": "check", "id": "b", "per_iter_us": 5.0})
        assert store.wall_medians() == {"a": 2.0}


class TestNormalizedIdentity:
    def test_profile_repr_becomes_none(self):
        identity = ("repro.bench.figures._stencil_point|"
                    "((1026, 2050), 4, 'degraded')|cpufree")
        assert normalized_identity(identity, "degraded") == (
            "repro.bench.figures._stencil_point|"
            "((1026, 2050), 4, None)|cpufree")

    def test_none_profile_is_identity(self):
        assert normalized_identity("x|y|z", None) == "x|y|z"

    def test_faulted_and_clean_runs_share_keys(self, store):
        clean = "fn|((8, 8), 2, None)|cpufree"
        faulted = "fn|((8, 8), 2, 'degraded')|cpufree"
        store.append({"run": "base", "id": normalized_identity(clean, None),
                      "per_iter_us": 10.0})
        store.append({"run": "slow",
                      "id": normalized_identity(faulted, "degraded"),
                      "per_iter_us": 13.0})
        report = regress(store)
        assert [e.status for e in report.entries] == ["regression"]


class TestRegress:
    def test_self_comparison_is_exactly_ok(self, store):
        _fill(store, "base", {"a": 10.0, "b": 5.0})
        _fill(store, "check", {"a": 10.0, "b": 5.0})
        report = regress(store)
        assert report.ok
        assert {e.status for e in report.entries} == {"ok"}
        assert all(e.rel == 0.0 for e in report.entries)

    def test_slowdown_past_tolerance_regresses(self, store):
        _fill(store, "base", {"a": 10.0})
        _fill(store, "check", {"a": 10.6})
        report = regress(store, rtol=0.05)
        assert not report.ok
        assert report.regressions[0].rel == pytest.approx(0.06)

    def test_slowdown_within_tolerance_is_ok(self, store):
        _fill(store, "base", {"a": 10.0})
        _fill(store, "check", {"a": 10.4})
        assert regress(store, rtol=0.05).ok

    def test_speedup_is_improved(self, store):
        _fill(store, "base", {"a": 10.0})
        _fill(store, "check", {"a": 8.0})
        assert regress(store).entries[0].status == "improved"

    def test_higher_is_better_fields_flip_direction(self, store):
        _fill(store, "base", {"a": 0.8}, field="overlap")
        _fill(store, "check", {"a": 0.5}, field="overlap")
        report = regress(store, field_name="overlap", rtol=0.05)
        assert not report.ok  # overlap *dropped*: that is the regression

    def test_added_and_missing_never_fail(self, store):
        _fill(store, "base", {"a": 10.0, "gone": 1.0})
        _fill(store, "check", {"a": 10.0, "new": 2.0})
        report = regress(store)
        assert report.ok
        by_id = {e.id: e.status for e in report.entries}
        assert by_id == {"a": "ok", "gone": "missing", "new": "added"}

    def test_default_runs_latest_vs_first_other(self, store):
        _fill(store, "r1", {"a": 10.0})
        _fill(store, "r2", {"a": 11.0})
        _fill(store, "r3", {"a": 20.0})
        report = regress(store)
        assert report.run == "r3" and report.baseline_run == "r1"

    def test_explicit_run_selection(self, store):
        _fill(store, "r1", {"a": 10.0})
        _fill(store, "r2", {"a": 20.0})
        report = regress(store, run="r1", baseline="r2")
        assert report.entries[0].status == "improved"

    def test_rtol_for_last_match_wins(self, store):
        _fill(store, "base", {"noisy/a": 10.0})
        _fill(store, "check", {"noisy/a": 12.0})
        assert not regress(store, rtol_for={"noisy/*": 0.05}).ok
        assert regress(store, rtol_for={"noisy/*": 0.05,
                                        "noisy/a": 0.5}).ok

    def test_unknown_run_raises(self, store):
        _fill(store, "base", {"a": 1.0})
        with pytest.raises(ValueError, match="no records for run"):
            regress(store, run="nope")
        with pytest.raises(ValueError, match="no baseline run"):
            regress(store)

    def test_median_shields_one_noisy_repeat(self, store):
        _fill(store, "base", {"a": 10.0})
        for value in (10.0, 10.0, 99.0):  # one outlier repetition
            store.append({"run": "check", "id": "a", "per_iter_us": value})
        assert regress(store).ok

    def test_drop_from_zero_baseline_is_an_improvement(self, store):
        """A move away from 0 is ±inf by its direction, never a blanket
        infinite increase."""
        _fill(store, "base", {"down": 0.0, "up": 0.0})
        _fill(store, "check", {"down": -1.0, "up": 1.0})
        by_id = {e.id: e for e in regress(store).entries}
        assert by_id["down"].rel == -math.inf
        assert by_id["down"].status == "improved"
        assert by_id["up"].rel == math.inf
        assert by_id["up"].status == "regression"
        # a higher-is-better field reads the same moves the other way
        _fill(store, "base", {"x": 0.0}, field="overlap")
        _fill(store, "check", {"x": 0.5}, field="overlap")
        (entry,) = regress(store, field_name="overlap").entries
        assert entry.rel == math.inf and entry.status == "improved"


class TestCompare:
    """The comparator itself, over two plain ``{id: value}`` maps (what
    ``regress OLD.json NEW.json`` feeds it); lower is better."""

    def test_equal_values_have_zero_rel(self):
        (entry,) = compare({"x": 5.0}, {"x": 5.0}, rtol=0.0).entries
        assert entry.rel == 0.0 and entry.status == "ok"

    def test_relative_increase(self):
        (entry,) = compare({"x": 10.0}, {"x": 12.0}, rtol=0.05).entries
        assert entry.rel == pytest.approx(0.2)
        assert entry.status == "regression"
        assert compare({"x": 10.0}, {"x": 12.0}, rtol=0.25).ok

    def test_decrease_is_never_a_regression(self):
        (entry,) = compare({"x": 10.0}, {"x": 5.0}, rtol=0.0).entries
        assert entry.rel == pytest.approx(-0.5)
        assert entry.status == "improved"

    def test_from_zero_is_infinite_increase(self):
        (entry,) = compare({"x": 0.0}, {"x": 1.0}, rtol=1000.0).entries
        assert math.isinf(entry.rel) and entry.rel > 0
        assert entry.status == "regression"

    def test_only_shared_keys_compared(self):
        report = compare({"a": 1.0, "b": 2.0}, {"b": 2.0, "c": 3.0})
        assert {e.id: e.status for e in report.entries} \
            == {"a": "missing", "b": "ok", "c": "added"}
        assert report.ok  # one-sided keys never fail the gate

    def test_sorted_by_key(self):
        values = {"z": 1.0, "a": 1.0, "m": 1.0}
        report = compare(values, dict(values))
        assert [e.id for e in report.entries] == ["a", "m", "z"]


class TestFlatten:
    def test_registry_dump_shape(self):
        reg = MetricsRegistry()
        reg.counter("ops", src=0, dst=1).inc(3)
        reg.gauge("level").set(7)
        reg.histogram("wait", edges=(1.0,)).observe(0.5)
        flat = flatten_metrics(json.loads(reg.to_json()))
        assert flat["ops{dst=1,src=0}"] == 3.0
        assert flat["level"] == 7.0
        assert flat["wait:sum"] == 0.5
        assert flat["wait:count"] == 1.0

    def test_nested_json_shape(self):
        payload = {
            "pr": 2,
            "suite": {"wall_seconds": 1.5, "name": "figures"},
            "flags": {"enabled": True},
        }
        flat = flatten_metrics(payload)
        assert flat == {"pr": 2.0, "suite.wall_seconds": 1.5}
        # strings and bools are not metrics
        assert "suite.name" not in flat and "flags.enabled" not in flat

    def test_load_metrics_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_metrics(str(path))


class TestRegressTable:
    def test_lists_regressions_and_summary(self, store):
        _fill(store, "base", {"a": 10.0, "b": 10.0})
        _fill(store, "check", {"a": 15.0, "b": 10.0})
        text = regress_table(regress(store))
        assert "[regression] a:" in text
        assert "b:" not in text  # ok rows hidden by default
        assert "2 point(s) compared: 1 ok, 1 regression" in text

    def test_show_ok_lists_everything(self, store):
        _fill(store, "base", {"a": 10.0})
        _fill(store, "check", {"a": 10.0})
        text = regress_table(regress(store), show_ok=True)
        assert "[ok] a:" in text
