"""Tests for the Render module (intermediates → HTML/SVG layout)."""
import re

import numpy as np
import pandas as pd
import pytest

from repro.core.config import Config
from repro.core.render import html_table, render_report, stats_table, svg_bars, svg_line


class TestSvgBars:
    def test_one_rect_per_bin(self):
        svg = svg_bars(np.array([1, 5, 3]), 300, 200)
        assert svg.count("<rect") == 3

    def test_tallest_bar_fills_height(self):
        svg = svg_bars(np.array([10, 5]), 300, 200)
        assert 'height="196.0"' in svg

    def test_series_labels_in_titles(self):
        s = pd.Series([4, 2], index=["alpha", "beta"])
        svg = svg_bars(s, 300, 200, labels=["alpha", "beta"])
        assert "alpha" in svg and "beta" in svg

    def test_empty_no_data(self):
        assert "no data" in svg_bars(np.array([]), 100, 50)
        assert "no data" in svg_bars(np.zeros(4), 100, 50)

    def test_escapes_labels(self):
        s = pd.Series([1], index=["<script>"])
        svg = svg_bars(s, 100, 50, labels=["<script>"])
        assert "<script>" not in svg


class TestSvgLine:
    def test_polyline_present(self):
        svg = svg_line(np.linspace(0, 1, 50), np.sin(np.linspace(0, 6, 50)), 300, 200)
        assert "<polyline" in svg
        assert svg.count(",") >= 49

    def test_nan_points_dropped(self):
        xs = np.array([0.0, 1.0, np.nan, 3.0])
        ys = np.array([0.0, 1.0, 2.0, 3.0])
        assert "<polyline" in svg_line(xs, ys, 100, 100)

    def test_degenerate(self):
        assert "no data" in svg_line(np.array([1.0]), np.array([1.0]), 100, 100)


class TestStatsTable:
    def test_rows_and_values(self):
        html = stats_table({"count": 10, "mean": 1.23456789})
        assert "<td>count</td><td>10</td>" in html
        assert "1.235" in html

    def test_highlight_class(self):
        html = stats_table({"nmissing": 5}, highlight={"nmissing"})
        assert '<tr class="insight"><td>nmissing</td>' in html

    def test_none_rendered_as_dash(self):
        assert "—" in stats_table({"min": None})

    def test_nested_dicts_skipped(self):
        html = stats_table({"quantiles": {0.5: 1.0}, "count": 3})
        assert "quantiles" not in html


def test_render_report_assembles_sections():
    cfg = Config.from_user()
    html = render_report({"Overview": "<p>ov</p>", "Variables": "<p>var</p>"}, [], cfg)
    assert "<h2>Overview</h2>" in html and "<h2>Variables</h2>" in html
    assert cfg["render.report_title"] in html


def test_render_report_insight_list():
    from repro.core.intermediates import Insight

    cfg = Config.from_user()
    html = render_report({}, [Insight("missing", "c", 0.5, 0.01, "c has 50% missing")], cfg)
    assert "c has 50% missing" in html


def test_jupyter_repr_hook(overview_result):
    assert overview_result._repr_html_() == overview_result.html
    assert overview_result.show() == overview_result.html


def _cells(html: str) -> list[str]:
    return [c.strip() for c in re.findall(r"<t[hd](?:\s[^>]*)?>(.*?)</t[hd]>", html, re.S)]


@pytest.mark.parametrize("float_format", [None, lambda v: f"{v:.3f}"])
def test_html_table_cells_equal_pandas(float_format):
    """The same header, index and cell text as ``to_html(border=0)``: ints,
    floats in pandas' own format or ``float_format``, NaN, escaped strings,
    None, an axis name and an index name."""
    frame = pd.DataFrame({
        "n": np.array([3, 40], dtype="int32"),
        "rate": [1 / 12, np.nan],
        "tiny": [1e-9, 2.5],
        "s": ["a<b & c", None],
    }, index=pd.Index(["x", "y"], name="row"))
    frame.columns.name = "col"
    for table in (frame, frame.rename_axis(index=None, columns=None)):
        assert _cells(html_table(table, float_format)) == _cells(
            table.to_html(border=0, float_format=float_format)
        )
