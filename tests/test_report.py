"""Report writers: SVG axis labels and escaping, the byte contract of the
column-wise point, circle and table writers, and the digits of the ANOVA
cells."""

import math
import random
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridfit import dataset, inference, report
from hybridfit.cli import main

SVG = "{http://www.w3.org/2000/svg}"


def x_tick_labels(svg: str) -> list[str]:
    # x-axis labels sit 20 px below the axis line, at y = 480 - 70 + 20
    return re.findall(r'<text x="[0-9.]+" y="430.0" [^>]*>([^<]*)</text>', svg)


def test_symmetric_points_label_the_middle_tick_zero():
    q = inference.normal_plot_positions(15)
    lo, hi = q.min(), q.max()
    assert lo + (hi - lo) * 2 / 4 != 0.0  # the tick itself is a roundoff residue
    svg = report.scatter_svg(q, q, "x", "y", "t")
    labels = x_tick_labels(svg)
    assert labels == ["-1.739", "-0.8697", "0", "0.8697", "1.739"]


def test_no_negative_zero_label():
    ticks = report._ticks(-1e-20, 4.0)
    assert [t for t, _ in ticks] == [-1e-20, 1.0, 2.0, 3.0, 4.0]
    assert [label for _, label in ticks] == ["0", "1", "2", "3", "4"]


def test_empty_range_beyond_unit_spacing():
    # lo + 1 == lo here; the range must still be non-empty
    for value in (2.0**60, -1e300):
        ticks = report._ticks(value, value)
        assert [t for t, _ in ticks][0] == value
        assert len({label for _, label in ticks}) == 1


# Floats at the edges of what the writers format: signed zeros, huge and
# subnormal magnitudes.
EDGE_FLOATS = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308]),
)
POINTS = st.tuples(
    st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS), min_size=1, max_size=30),
    st.booleans(),
).map(lambda case: case[0][:1] * len(case[0]) if case[1] else case[0])


def scalar_circles(points, width=640, height=480, margin=70.0):
    """The circles of a scatter plot, one point at a time in Python floats:
    the reference the column-wise writer must reproduce byte for byte."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = (x_hi - x_lo) * 0.08 or max(abs(x_lo), 1.0) * 0.08
    y_pad = (y_hi - y_lo) * 0.08 or max(abs(y_lo), 1.0) * 0.08
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    return [
        f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.5" '
        f'fill="none" stroke="#1f4e9c" stroke-width="1.4"/>'
        for x, y in points
    ]


@given(POINTS)
@settings(deadline=None)
def test_point_file_matches_scalar_formatting(points):
    xs, ys = (np.array(col) for col in zip(*points))
    expected = "x\ty\n" + "".join(f"{x:.6f}\t{y:.6f}\n" for x, y in points)
    assert report.render_points(xs, ys, "x", "y") == expected


@given(POINTS)
@settings(deadline=None)
def test_svg_circles_match_scalar_formatting(points):
    xs, ys = (np.array(col) for col in zip(*points))
    svg = report.scatter_svg(xs, ys, "x", "y", "t")
    circles = [line for line in svg.splitlines() if line.startswith("<circle")]
    assert circles == scalar_circles(points)
    assert svg.endswith('stroke-width="1.4"/>\n</svg>\n')


@given(st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS), min_size=1, max_size=30))
@settings(deadline=None)
def test_simulated_rows_match_scalar_formatting(rows):
    # the row writer of `simulate`: carried cells by repr, the computed one at 3 decimals
    columns = [np.array(col) for col in zip(*rows)]
    expected = "a\tb\tP\n" + "".join(f"{a!r}\t{b!r}\t{p:.3f}\n" for a, b, p in rows)
    assert report.render_table(["a", "b", "P"], columns, "%r\t%r\t%.3f\n") == expected


# Cells `repr` writes from shortest digits: short decimals m * 10**-d.
SHORT_DECIMALS = st.builds(
    lambda m, d: float(f"{m}e-{d}"), st.integers(-(10**12), 10**12), st.integers(0, 12)
)
# Cells at the edges of the shortest-digit path, each with whether it takes
# the path (True) or sends its template to `%` (False).
REPR_EDGES = {
    **{2.0**e: 1e-4 <= 2.0**e < 2.0**53 for e in range(-20, 60)},
    2.0**53 + 2: False,
    9999999999999998.0: False,
    1e16: False,
    1e-4: True,
    9.999999999999999e-05: False,  # repr writes an exponent
    -0.0: True,
    5e-324: False,
    0.30000000000000004: False,  # 17 digits: k is above 2**53
    0.15229732049524503: False,  # k above 2**53, where k - 1 and k + 1 are not floats
    1 / 3: True,  # 16 decimals
    0.01234567890123456: True,  # 17 decimals
    2.0**49 + 0.25: False,  # .2 and .3 both round-trip
    1.0: True,
    -7.0: True,
    123456789.0: True,
    1e15: True,
}


@given(st.lists(
    st.tuples(SHORT_DECIMALS, SHORT_DECIMALS | st.sampled_from(sorted(REPR_EDGES)),
              st.floats(-1e6, 1e6)),
    max_size=30,
))
@settings(deadline=None)
def test_repr_rows_match_percent_formatting(rows):
    columns = [np.array([r[j] for r in rows], dtype=float) for j in range(3)]
    row = "%r\t%r\t%.3f\n"
    values = tuple(v for r in rows for v in r)
    assert report._format_rows(row, columns) == (row * len(rows)) % values


@pytest.mark.parametrize("cell", sorted(REPR_EDGES))
def test_repr_edge_cells(cell):
    column = np.array([1.5, cell, -187.41])
    assert (report._shortest(column) is not None) == REPR_EDGES[cell]
    assert report._format_rows("%r\n", [column]) == "%r\n%r\n%r\n" % (1.5, cell, -187.41)


def test_whole_numbers_print_point_zero():
    column = np.array([3.0, -0.0, 0.0, 1e15, 2.5])
    assert report._shortest(column) is not None
    assert report._format_rows("%r\n", [column]) == "3.0\n-0.0\n0.0\n1000000000000000.0\n2.5\n"


def gauge_table(path, rows=2000, seed=7):
    """A table like the benchmark's gauge designs: factors at 6 decimals in
    the bundled ranges, a quarter of the rows repeating an earlier one, and
    P_obs at 3 decimals."""
    rng = random.Random(seed)
    ranges = ((0.251, 1.257), (0.199, 0.297), (0.503, 1.131))
    points = []
    for i in range(rows):
        repeat = i > 0 and rng.random() < 0.25
        points.append(points[rng.randrange(i)] if repeat else
                      [round(rng.uniform(lo, hi), 6) for lo, hi in ranges])
    lines = ["A\tPs\tB\tP_obs"] + [
        "\t".join(map(repr, [*p, round(rng.uniform(100.0, 300.0), 3)])) for p in points
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("table, carried", [("bundled", 6), ("generated", 4)])
def test_simulate_writes_carried_columns_from_digits(
    table, carried, data_dir, tmp_path, monkeypatch
):
    # a carried column that silently falls back to `%` fails here: one
    # shortest-digit search covers every carried cell
    data = (data_dir / "gauge_factorial.tsv" if table == "bundled"
            else gauge_table(tmp_path / "gauge.tsv"))
    rows = len(data.read_text().splitlines()) - 1
    found = []
    shortest = report._shortest
    monkeypatch.setattr(report, "_shortest", lambda v: found.append(shortest(v)) or found[-1])
    rc = main(["simulate", "--data", str(data),
               "--spec", str(data_dir / "gauge_factorial_spec.txt"),
               "--theory", "isochoric", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len(found) == 1 and found[0] is not None
    assert found[0][0].size == carried * rows
    lines = (tmp_path / "out" / "simulated.tsv").read_text().splitlines()
    for source, written in zip(data.read_text().splitlines()[1:], lines[1:]):
        cells = written.split("\t")[:carried]
        assert cells == [repr(float(c)) for c in source.split("\t")]


def fixed_point_cells(places: int, wild: bool):
    """Cells for one ``%.Nf`` conversion: finite floats below the 2**52 / 10**N
    limit of the column-wise writer, and the values its rounding must get
    right: decimal ties as written (2.675), exact binary ties (odd multiples
    of 2**-(N+1)), signed zeros, tiny negatives, subnormals and the largest
    value below the limit.  A ``wild`` column also holds NaN, the
    infinities, any float, and the limit and what lies above it, which
    only ``%`` itself formats."""
    limit = 2.0**52 / 10.0**places
    cells = [
        st.floats(-limit, limit, exclude_min=True, exclude_max=True),
        st.floats(-1e4, 1e4),
        st.integers(-(10**6), 10**6).map(lambda j: (2 * j + 1) / 2.0 ** (places + 1)),
        st.integers(-(10**9), 10**9).map(
            lambda m: float(f"{m // 10**places}.{m % 10**places:0{places}d}5")
        ),
        st.sampled_from([
            0.0, -0.0, 2.675, -2.675, 1.005, 0.125, -1e-9, -1e-300, 5e-324, -5e-324,
            2.2250738585072014e-308, math.nextafter(limit, 0.0),
            -math.nextafter(limit, 0.0),
        ]),
    ]
    if wild:
        cells += [
            st.floats(),
            st.sampled_from([
                math.nan, math.inf, -math.inf, limit, -limit,
                math.nextafter(limit, math.inf),
            ]),
        ]
    return st.one_of(cells)


@st.composite
def templates_and_columns(draw):
    """A ``%``-template of 1-3 conversions in ASCII literal text, mostly
    ``%.1f``..``%.9f``, sometimes ``%r``, ``%.0f`` or a ``%%``, with one
    column of cells per conversion."""
    n_convs = draw(st.integers(1, 3))
    convs = [
        "%r" if places < 0 else f"%.{places}f"
        for places in draw(st.lists(st.integers(-1, 9), min_size=n_convs, max_size=n_convs))
    ]
    text = st.text(st.characters(max_codepoint=127, exclude_characters="%"), max_size=6)
    literals = draw(st.lists(text, min_size=n_convs + 1, max_size=n_convs + 1))
    if draw(st.integers(0, 7)) == 0:
        literals[draw(st.integers(0, n_convs))] += "%%"
    row = "".join(lit + conv for lit, conv in zip(literals, convs)) + literals[-1] + "\n"
    n_rows = draw(st.integers(0, 12))
    columns = [
        np.array(draw(st.lists(
            fixed_point_cells(int(conv[2]), draw(st.integers(0, 9)) == 0)
            if conv != "%r" else st.floats(),
            min_size=n_rows, max_size=n_rows,
        )), dtype=float)
        for conv in convs
    ]
    return row, columns


@given(templates_and_columns())
@example(("%.2f\n", [np.array([2.675, 1.005, 0.125])]))
@example(("x%.2fy%.1f\n", [np.array([-0.0, -0.001]), np.array([-0.04, 0.25])]))
@example(("\0%.3f\n", [np.array([1.0])]))
@example(("\u00b5%.3f\n", [np.array([1.0])]))
@settings(deadline=None, max_examples=400)
def test_fixed_point_rows_match_percent_formatting(case):
    row, columns = case
    values = tuple(np.column_stack(columns).ravel().tolist())
    assert report._format_rows(row, columns) == (row * len(columns[0])) % values


def test_svg_text_is_escaped():
    svg = report.scatter_svg(
        np.array([0.0, 1.0]), np.array([2.0, 3.0]),
        "fitted (kPa <gauge> & co)", "residual <r>", "a & b > c",
    )
    texts = [el.text for el in ET.fromstring(svg).iter(f"{SVG}text")]
    assert texts[:3] == ["a & b > c", "fitted (kPa <gauge> & co)", "residual <r>"]


def exact_residual_ss(x: np.ndarray, y: np.ndarray) -> Fraction:
    """y'y - b'X'y with X'X b = X'y solved in exact rational arithmetic: the
    residual sum of squares of the least-squares fit of y on the columns of
    x, for the floats as given."""
    xs = [[Fraction(v) for v in row] for row in x.tolist()]
    ys = [Fraction(v) for v in y.tolist()]
    p = len(xs[0])
    a = [[sum(r[i] * r[j] for r in xs) for j in range(p)]
         + [sum(r[i] * v for r, v in zip(xs, ys))] for i in range(p)]
    for k in range(p):  # Gauss-Jordan; X'X is positive definite
        a[k] = [v / a[k][k] for v in a[k]]
        for i in range(p):
            if i != k:
                a[i] = [vi - a[i][k] * vk for vi, vk in zip(a[i], a[k])]
    coef = [row[p] for row in a]
    xty = [sum(r[i] * v for r, v in zip(xs, ys)) for i in range(p)]
    return sum(v * v for v in ys) - sum(b * c for b, c in zip(coef, xty))


@pytest.mark.parametrize("theory", [
    "adiabatic", "isochoric", "column:P_adiabatic", "column:P_isochoric",
])
def test_corrected_total_keeps_its_digits(theory, factorial, data_dir, tmp_path):
    # table 4's total is what the plain first-order polynomial leaves: the
    # theory gain plus the residual, not y'y less the design part, which
    # cancels
    rc = main(["fit", "--data", str(data_dir / "gauge_factorial.tsv"),
               "--spec", str(data_dir / "gauge_factorial_spec.txt"),
               "--model", "hybrid", "--theory", theory, "--format", "rows",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "anova_table4.tsv").read_text().splitlines()
    cells = dict(row.split("\t")[:2] for row in rows[1:])
    x = dataset.build_design(dataset.code(factorial), "first").values
    exact = exact_residual_ss(x, factorial.response)
    assert abs(Fraction(cells["Corrected total"]) - exact) <= Fraction(1, 10**14) * exact
