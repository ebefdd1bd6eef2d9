"""SVG chart rendering: structure, labeling, determinism and degenerate
input ranges."""
from __future__ import annotations

import re

from readskill.svgplot import line_chart, scatter_chart


SERIES = [("run a", [2.0, 3.0, 4.0], [0.5, 0.8, 0.6], "#1f77b4"),
          ("run b", [2.0, 3.0, 4.0], [0.2, 0.4, 0.9], "#d62728")]


def test_line_chart_structure():
    svg = line_chart(SERIES, "scores by K", "K", "silhouette")
    assert svg.startswith("<svg")
    assert svg.endswith("</svg>\n")
    assert svg.count("<polyline") == 2
    assert "scores by K" in svg
    assert "silhouette" in svg
    assert ">K<" in svg
    assert "run a" in svg and "run b" in svg
    assert "#1f77b4" in svg and "#d62728" in svg


def test_line_chart_marks_every_point():
    svg = line_chart(SERIES, "t", "x", "y")
    assert svg.count("<circle") == 6


def test_line_chart_deterministic():
    a = line_chart(SERIES, "t", "x", "y")
    b = line_chart(SERIES, "t", "x", "y")
    assert a == b


def test_line_chart_writes_file(tmp_path):
    path = tmp_path / "chart.svg"
    svg = line_chart(SERIES, "t", "x", "y", path)
    assert path.read_text() == svg


def test_scatter_chart_structure():
    groups = [("cluster 0", [0.1, 0.2], [0.3, 0.4], "#2ca02c")]
    svg = scatter_chart(groups, "mix", "correct", "missed")
    assert svg.count("<circle") == 2
    assert "mix" in svg and "correct" in svg and "missed" in svg


def test_scatter_chart_empty_groups():
    svg = scatter_chart([], "empty", "x", "y")
    assert svg.startswith("<svg")
    assert svg.endswith("</svg>\n")


def test_line_chart_empty_series_draws_the_same_axes():
    # both kinds share their frame, chrome and legend, so with nothing to
    # mark they draw the same empty axes
    assert line_chart([], "empty", "x", "y") == scatter_chart([], "empty", "x", "y")


def test_single_point_degenerate_range():
    # both axes collapse to one value; the frame must still be finite
    svg = line_chart([("only", [3.0], [5.0], "#000000")], "t", "x", "y")
    assert "nan" not in svg.lower()
    assert "inf" not in svg.lower()


def test_coordinates_rounded_to_two_decimals():
    svg = scatter_chart([("g", [0.123456, 0.9], [0.4, 0.5], "#333333")],
                        "t", "x", "y")
    for m in re.finditer(r'c[xy]="([0-9.]+)"', svg):
        text = m.group(1)
        assert len(text.split(".")[-1]) <= 2


def test_viewport_fixed():
    svg = line_chart(SERIES, "t", "x", "y")
    assert 'width="640"' in svg
    assert 'height="420"' in svg
