"""SVG axis labels."""

import re

from hybridfit import inference, report


def x_tick_labels(svg: str) -> list[str]:
    # x-axis labels sit 20 px below the axis line, at y = 480 - 70 + 20
    return re.findall(r'<text x="[0-9.]+" y="430.0" [^>]*>([^<]*)</text>', svg)


def test_symmetric_points_label_the_middle_tick_zero():
    q = inference.normal_plot_positions(15)
    lo, hi = q.min(), q.max()
    assert lo + (hi - lo) * 2 / 4 != 0.0  # the tick itself is a roundoff residue
    svg = report.scatter_svg([(x, x) for x in q], "x", "y", "t")
    labels = x_tick_labels(svg)
    assert labels == ["-1.739", "-0.8697", "0", "0.8697", "1.739"]


def test_no_negative_zero_label():
    ticks = report._ticks(-1e-20, 4.0)
    assert [t for t, _ in ticks] == [-1e-20, 1.0, 2.0, 3.0, 4.0]
    assert [label for _, label in ticks] == ["0", "1", "2", "3", "4"]
