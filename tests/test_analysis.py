"""Tests for the reporting, comparison and sweep tooling."""

from __future__ import annotations

import pytest

from repro.analysis.comparison import StateOfTheArtComparison
from repro.analysis.report import (
    format_cell,
    render_bar_chart,
    render_comparison,
    render_dict_table,
    render_table,
)
from repro.analysis.sweep import DesignSpaceExplorer
from repro.cnn.zoo import alexnet
from repro.core.config import ChainConfig


class TestReportRendering:
    def test_format_cell_variants(self):
        assert format_cell(None) == "-"
        assert format_cell(0.0) == "0"
        assert format_cell(1234.5) == "1,234"
        assert format_cell(12.34) == "12.3"
        assert format_cell(0.125) == "0.125"
        assert format_cell("text") == "text"

    def test_render_table_alignment_and_content(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": None}]
        text = render_table(rows, title="demo", row_names=["r1", "r2"], row_label="row")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "r1" in text and "r2" in text and "-" in text
        # header separator present
        assert any(set(line) <= {"-", "+", " "} and "-" in line for line in lines)

    def test_render_table_empty(self):
        assert render_table([], title="empty") == "empty"

    def test_render_dict_table(self):
        text = render_dict_table({"row": {"col": 3.0}}, title="t")
        assert "row" in text and "col" in text

    def test_render_bar_chart(self):
        chart = render_bar_chart({"conv1": 159.3, "conv5": 28.6}, title="times", unit=" ms")
        assert "conv1" in chart and "#" in chart and "ms" in chart

    def test_render_bar_chart_empty(self):
        assert render_bar_chart({}, title="none") == "none"

    def test_render_comparison_ratio(self):
        text = render_comparison({"x": 2.0}, {"x": 1.0}, title="cmp")
        assert "0.500" in text


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return StateOfTheArtComparison(batch=4).run()

    def test_published_rows_present(self, comparison):
        assert any("DaDianNao" in name for name in comparison.published_rows)
        assert any("Eyeriss" in name for name in comparison.published_rows)
        assert any("Chain-NN" in name for name in comparison.published_rows)

    def test_modelled_rows_present(self, comparison):
        assert len(comparison.modelled_rows) == 3

    def test_chain_nn_wins_modelled_comparison(self, comparison):
        assert comparison.chain_nn_wins

    def test_modelled_ratio_range_matches_paper_claim(self, comparison):
        modelled = [v for k, v in comparison.efficiency_ratios.items() if k.startswith("modelled")]
        assert min(modelled) == pytest.approx(2.5, abs=0.3)
        assert max(modelled) == pytest.approx(4.1, abs=0.3)

    def test_published_ratio_range(self, comparison):
        published = [v for k, v in comparison.efficiency_ratios.items()
                     if not k.startswith("modelled")]
        assert min(published) == pytest.approx(2.49, abs=0.05)
        assert max(published) > 4.0

    def test_area_efficiency_ratio(self, comparison):
        assert comparison.area_efficiency["ratio"] == pytest.approx(1.7, abs=0.1)


class TestSweep:
    @pytest.fixture(scope="class")
    def explorer(self):
        return DesignSpaceExplorer(alexnet(), batch=16)

    def test_chain_length_sweep_monotone_throughput(self, explorer):
        points = explorer.sweep_chain_length(pe_counts=(288, 576, 1152))
        fps = [point.fps for point in points]
        assert fps == sorted(fps)
        assert points[1].peak_gops == pytest.approx(806.4)

    def test_frequency_sweep(self, explorer):
        points = explorer.sweep_frequency(frequencies_mhz=(350, 700))
        assert points[1].fps > points[0].fps
        assert points[1].peak_gops == pytest.approx(2 * points[0].peak_gops)

    def test_batch_sweep_monotone(self, explorer):
        fps_by_batch = explorer.sweep_batch_size(batches=(1, 4, 32, 128))
        values = list(fps_by_batch.values())
        assert values == sorted(values)

    def test_utilization_sweep_covers_range_and_stays_bounded(self, explorer):
        utilization = explorer.utilization_by_chain_length(low=512, high=640, step=32)
        assert set(utilization) == {512, 544, 576, 608, 640}
        assert all(0.0 < value <= 1.0 for value in utilization.values())
        # the paper's 576-PE choice guarantees at least 84 % for every kernel size
        assert utilization[576] == pytest.approx(484 / 576)

    def test_sweep_point_row(self, explorer):
        point = explorer.evaluate(ChainConfig())
        row = point.as_row()
        assert row["PEs"] == 576
        assert row["GOPS/W"] > 0
