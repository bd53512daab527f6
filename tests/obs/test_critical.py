"""Critical-path extraction: the binding chain of the span DAG."""

from functools import lru_cache

import pytest

from repro.obs.critical import RESOURCES, critical_path
from repro.obs.whatif import Scenario, replay_makespan
from repro.sim.trace import Span


def span(lane, name, start, end, category="compute", meta=None):
    return Span(lane, name, category, start, end, meta)


def chain(report):
    """Span names along the path, one entry per visited span."""
    names, last = [], None
    for step in report.steps:
        if step.span is not last:
            names.append(step.span.name)
        last = step.span
    return names


def shares(**nonzero):
    return {resource: nonzero.get(resource, 0.0) for resource in RESOURCES}


class TestLaneChains:
    def test_empty_input(self):
        report = critical_path([])
        assert report.steps == []
        assert report.total_us == 0.0
        assert report.by_resource == shares()

    def test_single_span(self):
        report = critical_path([span("gpu0", "a", 0.0, 5.0)])
        assert report.total_us == 5.0
        assert chain(report) == ["a"]
        assert report.by_resource == shares(compute=5.0)

    def test_sequential_same_lane_chains(self):
        spans = [
            span("gpu0", "a", 0.0, 2.0),
            span("gpu0", "b", 2.0, 5.0),
            span("gpu0", "c", 5.0, 9.0),
        ]
        report = critical_path(spans)
        assert report.total_us == 9.0
        assert chain(report) == ["a", "b", "c"]

    def test_longest_lane_wins(self):
        spans = [
            span("gpu0", "short", 0.0, 1.0),
            span("gpu1", "long", 0.0, 7.0),
        ]
        report = critical_path(spans)
        assert report.total_us == 7.0
        assert chain(report) == ["long"]

    def test_overlapping_spans_on_one_lane_do_not_chain(self):
        # second span starts before the first ends -> no lane dependency,
        # so the chain is b alone: its offset from the trace start is
        # waiting, its body compute, and together they are the makespan
        spans = [
            span("gpu0", "a", 0.0, 4.0),
            span("gpu0", "b", 1.0, 5.0),
        ]
        report = critical_path(spans)
        assert report.total_us == 5.0
        assert chain(report) == ["b"]
        assert report.by_resource == shares(compute=4.0, wait=1.0)


class TestFlowLinks:
    def test_flow_contributes_only_the_tail(self):
        # producer on gpu0 finishes at t=4; the wait on gpu1 spans [0, 6):
        # only the tail [4, 6) after the producer is attributable to the wait
        spans = [
            span("gpu0", "put", 0.0, 4.0, "comm", {"flow_s": 1}),
            span("gpu1", "wait", 0.0, 6.0, "sync", {"flow_f": 1}),
        ]
        report = critical_path(spans)
        assert report.total_us == 6.0
        assert chain(report) == ["put", "wait"]
        assert report.by_resource == shares(comm=4.0, wait=2.0)

    def test_cross_lane_chain_beats_local_lane(self):
        spans = [
            span("gpu0", "compute", 0.0, 3.0),
            span("gpu0", "put", 3.0, 5.0, "comm", {"flow_s": 7}),
            span("gpu1", "wait", 0.0, 5.5, "sync", {"flow_f": 7}),
            span("gpu1", "compute2", 5.5, 6.0),
        ]
        report = critical_path(spans)
        assert chain(report) == ["compute", "put", "wait", "compute2"]
        assert report.total_us == 6.0
        # wait contributed only its post-producer tail 5.5 - 5.0 = 0.5
        assert report.by_resource["wait"] == 0.5

    def test_unmatched_flow_f_falls_back_to_lane_order(self):
        spans = [span("gpu1", "wait", 0.0, 3.0, "sync", {"flow_f": 99})]
        report = critical_path(spans)
        assert report.total_us == 3.0


class TestReportProperties:
    def test_per_iteration_and_fraction(self):
        spans = [
            span("gpu0", "a", 0.0, 6.0, "compute"),
            span("gpu0", "b", 6.0, 8.0, "sync"),
        ]
        report = critical_path(spans, iterations=4)
        assert report.total_us == 8.0
        assert report.per_iteration_us == 2.0
        assert report.fraction("compute") == 0.75
        assert report.fraction("wait") == 0.25
        assert report.fraction("comm") == 0.0

    def test_category_attribution_sums_to_total(self):
        spans = [
            span("gpu0", "a", 0.0, 3.0, "compute"),
            span("gpu0", "p", 3.0, 4.0, "comm", {"flow_s": 1}),
            span("gpu1", "w", 2.0, 4.5, "sync", {"flow_f": 1}),
        ]
        report = critical_path(spans)
        assert sum(report.by_resource.values()) == report.total_us

    def test_deterministic_across_input_order(self):
        spans = [
            span("gpu0", "a", 0.0, 2.0),
            span("gpu1", "b", 0.0, 2.0),
            span("gpu0", "c", 2.0, 4.0, "comm", {"flow_s": 3}),
            span("gpu1", "d", 2.0, 4.5, "sync", {"flow_f": 3}),
        ]
        forward = critical_path(spans)
        backward = critical_path(list(reversed(spans)))
        assert [s.span.name for s in forward.steps] == \
               [s.span.name for s in backward.steps]
        assert forward.total_us == backward.total_us


@lru_cache(maxsize=None)
def _traced(variant, shape, gpus):
    from repro.stencil import StencilConfig, run_variant

    config = StencilConfig(global_shape=shape, num_gpus=gpus, iterations=4,
                           with_data=False)
    return tuple(run_variant(variant, config).tracer.spans)


def _grid():
    from repro.stencil import variant_names

    runs = [(variant, shape, gpus) for variant in variant_names()
            for shape, gpus in [((66, 130), 2), ((514, 514), 4),
                                ((2050, 2050), 4), ((4098, 4098), 8)]]
    # 16 PEs: two 8-GPU NVSwitch domains joined by NIC rails
    return [*runs, ("cpufree", (66, 34), 16)]


def _makespan(spans):
    return max(s.end for s in spans) - min(s.start for s in spans)


@pytest.mark.parametrize("variant,shape,gpus", _grid())
class TestBindingChainProperties:
    """The path is the what-if replay's binding chain on traced runs."""

    def test_contributions_sum_to_makespan(self, variant, shape, gpus):
        spans = list(_traced(variant, shape, gpus))
        report = critical_path(spans)
        total = sum(step.contributed_us for step in report.steps)
        assert total == pytest.approx(_makespan(spans), abs=1e-6)
        assert sum(report.by_resource.values()) == \
            pytest.approx(report.total_us, abs=1e-6)

    def test_resource_off_the_path_saves_nothing(self, variant, shape, gpus):
        spans = list(_traced(variant, shape, gpus))
        report = critical_path(spans)
        baseline = replay_makespan(spans, Scenario("baseline"))
        for resource in ("compute", "comm", "host"):
            if report.by_resource[resource] > 1e-9:
                continue
            faster = replay_makespan(spans, Scenario("x2", **{resource: 0.5}))
            assert baseline - faster <= 1e-6, resource


class TestLargestShare:
    """At 4098x4098 on 8 GPUs the path names each variant's bottleneck."""

    @pytest.mark.parametrize("variant,expected", [
        ("cpufree", "compute"),
        ("baseline_copy", "host"),
        ("baseline_overlap", "host"),
    ])
    def test_largest_share(self, variant, expected):
        report = critical_path(list(_traced(variant, (4098, 4098), 8)))
        assert max(RESOURCES, key=report.by_resource.get) == expected
