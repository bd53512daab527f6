"""Unit tests for the benchmark harness (small iteration counts)."""

import pytest

from repro.bench import (
    FigureData,
    Row,
    fig61_weak_2d,
    fig63a_dace_1d,
    render_figure,
    weak_shape_2d,
    weak_shape_3d,
)
from repro.bench.figures import SIZE_CLASSES_2D, STENCIL_VARIANTS


class TestShapes:
    def test_weak_shape_keeps_per_gpu_chunk_constant(self):
        for label in SIZE_CLASSES_2D.values():
            per_gpu = []
            for gpus in (1, 2, 4, 8):
                shape = weak_shape_2d(label, gpus)
                interior = (shape[0] - 2) * (shape[1] - 2)
                per_gpu.append(interior // gpus)
            assert len(set(per_gpu)) == 1

    def test_weak_shape_at_8_matches_label(self):
        shape = weak_shape_2d(2048, 8)
        assert shape == (2050, 2050)

    def test_weak_shape_3d(self):
        shape = weak_shape_3d(512, 8)
        assert shape == (514, 514, 514)

    def test_too_small_label_rejected(self):
        with pytest.raises(ValueError):
            weak_shape_2d(16, 4)


class TestFigureData:
    @pytest.fixture
    def fig(self):
        rows = [
            Row("a", 1, 10.0), Row("a", 2, 12.0),
            Row("b", 1, 20.0), Row("b", 2, 30.0),
        ]
        return FigureData("T", "test", rows)

    def test_series_filter(self, fig):
        assert len(fig.series("a")) == 2

    def test_at_lookup(self, fig):
        assert fig.at("b", 2).per_iteration_us == 30.0
        with pytest.raises(KeyError):
            fig.at("c", 1)

    def test_speedup_formula(self, fig):
        # (30 - 12) / 30 = 60%
        assert fig.speedup("a", "b", 2) == pytest.approx(60.0)

    def test_render_contains_all_series(self, fig):
        text = render_figure(fig)
        assert "a" in text and "b" in text and "Figure T" in text

    def test_render_includes_headlines(self, fig):
        fig.headlines = {"metric_%": 12.345}
        assert "metric_% = 12.3" in render_figure(fig)


class TestSweeps:
    def test_fig61_small_structure(self):
        fig = fig61_weak_2d("small", gpu_counts=(1, 2), iterations=5)
        assert {r.series for r in fig.rows} == set(STENCIL_VARIANTS)
        assert {r.x for r in fig.rows} == {1, 2}
        assert set(fig.headlines) >= {
            "speedup_vs_nvshmem_%", "speedup_vs_copy_%",
            "perks_vs_best_baseline_%",
        }

    def test_fig61_unknown_size_rejected(self):
        with pytest.raises(KeyError):
            fig61_weak_2d("gigantic")

    def test_fig63a_structure(self):
        fig = fig63a_dace_1d(gpu_counts=(1, 2), per_gpu_n=1000, tsteps=3)
        assert {r.series for r in fig.rows} == {"dace_baseline", "dace_cpufree"}
        assert "total_improvement_%" in fig.headlines
        assert "comm_improvement_%" in fig.headlines

    def test_rows_have_positive_times(self):
        fig = fig61_weak_2d("small", gpu_counts=(2,), iterations=5)
        for row in fig.rows:
            assert row.per_iteration_us > 0


class TestCLI:
    def test_main_runs_selected_figure(self, capsys):
        from repro.bench.__main__ import main

        assert main(["2.2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2.2a" in out

    def test_main_rejects_unknown_figure(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["9.9"])

    def test_main_writes_report_file(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out_file = tmp_path / "report.txt"
        assert main(["2.2", "--out", str(out_file)]) == 0
        assert "Figure 2.2a" in out_file.read_text()

    @pytest.mark.parametrize("argv", [
        ["--no-cache", "--out", "/nonexistent/d/r.md", "6.3a"],
        ["--no-cache", "--jobs", "0", "2.2"],
    ])
    def test_bad_output_path_or_jobs_is_a_usage_error(self, capsys, argv):
        """Rejected at parse time with exit 2, before any figure runs."""
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([ln for ln in captured.err.splitlines() if "error:" in ln]) == 1


class TestAutoOverlapFigure:
    def test_win_loss_headlines(self):
        from repro.bench.figures import fig_auto_overlap

        fig = fig_auto_overlap(sizes=("small",), gpu_counts=(1, 2),
                               iterations=4)
        assert len(fig.rows) == 4  # 2 variants x 2 gpu counts
        total = fig.headlines["wins"] + fig.headlines["ties"] \
            + fig.headlines["losses"]
        assert total == 2
        # small domains degenerate to cpufree's schedule -> never a loss
        assert fig.headlines["losses"] == 0
        assert fig.headlines["win_or_tie_fraction"] == 1.0

    def test_series_carry_size_label(self):
        from repro.bench.figures import fig_auto_overlap

        fig = fig_auto_overlap(sizes=("small",), gpu_counts=(1,),
                               iterations=4)
        assert {r.series for r in fig.rows} \
            == {"cpufree/small", "auto_overlap/small"}


class TestListFigures:
    def test_lists_all_figures_without_running(self, capsys):
        from repro.bench.__main__ import EXTRA_FIGURES, FIGURES, main

        assert main(["--list-figures"]) == 0
        out = capsys.readouterr().out
        for figure_id in (*FIGURES, *EXTRA_FIGURES):
            assert figure_id in out
        assert "auto_overlap" in out
        assert "opt-in" in out

    def test_catalog_covers_every_figure(self):
        from repro.bench.__main__ import EXTRA_FIGURES, FIGURE_CATALOG, FIGURES

        assert set(FIGURE_CATALOG) == set(FIGURES) | set(EXTRA_FIGURES)
        for title, variants, points in FIGURE_CATALOG.values():
            assert points > 0 and variants

    def test_point_counts_match_definitions(self):
        from repro.bench.__main__ import FIGURE_CATALOG
        from repro.bench.figures import DEFAULT_GPU_COUNTS

        assert FIGURE_CATALOG["6.1"][2] \
            == 3 * len(DEFAULT_GPU_COUNTS) * len(STENCIL_VARIANTS)
        assert FIGURE_CATALOG["auto_overlap"][2] \
            == 3 * len(DEFAULT_GPU_COUNTS) * 2
