"""Report writers: SVG axis labels and escaping, the byte contract of the
column-wise point, circle and table writers, the digits of the ANOVA
cells, and a renderer that touches no file and imports no layer."""

import ast
import math
import random
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridfit import config, dataset, gauge, inference, report
from hybridfit.cli import main

SVG = "{http://www.w3.org/2000/svg}"


def x_tick_labels(svg: str) -> list[str]:
    # x-axis labels sit 20 px below the axis line, at y = 480 - 70 + 20
    return re.findall(r'<text x="[0-9.]+" y="430.0" [^>]*>([^<]*)</text>', svg)


def test_report_touches_no_file():
    # report renders text; hybridfit.cli.write_files is the one writer
    tree = ast.parse(Path(report.__file__).read_text(encoding="utf-8"))
    calls = sorted(
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in {"write_text", "write_bytes", "open", "mkdir"}
            or isinstance(node.func, ast.Name) and node.func.id == "open"
        )
    )
    params = sorted(
        arg.arg
        for node in ast.walk(tree) if isinstance(node, ast.arguments)
        for arg in (*node.posonlyargs, *node.args, *node.kwonlyargs)
        if arg.arg == "out_dir"
    )
    assert (calls, params) == ([], [])


def test_report_imports_no_layer_at_run_time():
    # what report prints is computed before it is called: the package's
    # modules are imported only under TYPE_CHECKING, for annotations
    tree = ast.parse(Path(report.__file__).read_text(encoding="utf-8"))
    annotations_only = {
        id(node)
        for block in tree.body
        if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
        for node in ast.walk(block)
    }
    imported = []
    for node in ast.walk(tree):
        if id(node) in annotations_only:
            continue
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert annotations_only
    assert [m for m in imported if m.startswith((".", "hybridfit"))] == []


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


def scalar_markers(points, width=640, height=480, margin=70.0):
    """The (x, y) of each marker of a scatter plot, printed one point at a
    time in Python floats: the reference the column-wise writer must
    reproduce byte for byte."""
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

    return [(f"{px(x):.2f}", f"{py(y):.2f}") for x, y in points]


@given(POINTS)
@settings(deadline=None)
def test_point_file_matches_scalar_formatting(points):
    xs, ys = (np.array(col) for col in zip(*points))
    expected = "x\ty\n" + "".join(f"{x:.6f}\t{y:.6f}\n" for x, y in points)
    assert report.render_points(xs, ys, "x", "y") == expected


@given(POINTS)
@settings(deadline=None)
def test_svg_circles_match_scalar_formatting(points):
    # every point is a <use> of the one marker circle, at its pixel position
    # as %.2f prints it
    xs, ys = (np.array(col) for col in zip(*points))
    svg = report.scatter_svg(xs, ys, "x", "y", "t")
    uses = ET.fromstring(svg).findall(f"{SVG}use")
    assert [(use.get("x"), use.get("y")) for use in uses] == scalar_markers(points)
    assert [use.get("href") for use in uses] == ["#m"] * len(points)
    markers = [line for line in svg.splitlines() if line.startswith("<use")]
    assert markers == [f'<use href="#m" x="{x}" y="{y}"/>' for x, y in scalar_markers(points)]
    assert svg.endswith('"/>\n</svg>\n')


# Cells at the edges of what ``repr`` writes: powers of two from 2**-20 to
# 2**59, exponents, 16 and 17 significant digits, signed zero, whole numbers.
REPR_EDGES = (
    *(2.0**e for e in range(-20, 60)),
    2.0**53 + 2, 9999999999999998.0, 1e16, 1e-4, 9.999999999999999e-05, -0.0,
    5e-324, 0.30000000000000004, 0.15229732049524503, 1 / 3,
    0.01234567890123456, 2.0**49 + 0.25, -7.0, 123456789.0, 1e15,
)


@pytest.mark.parametrize("cell", sorted(REPR_EDGES))
def test_repr_edge_cells(cell, data_dir, tmp_path):
    # `simulate` carries such a cell as written, in a parsed column and in
    # one it does not parse, whatever repr or % would print for it
    data = tmp_path / "edge.tsv"
    source = ["A\tPs\tB\tP_obs\tnote", f"0.5\t0.2\t0.6\t{cell!r}\t{cell!r}"]
    data.write_text("\n".join(source) + "\n")
    rc = main(["simulate", "--data", str(data),
               "--spec", str(data_dir / "gauge_factorial_spec.txt"),
               "--theory", "isochoric", "--out", str(tmp_path / "out")])
    assert rc == 0
    written = (tmp_path / "out" / "simulated.tsv").read_text().splitlines()
    assert [line.rsplit("\t", 1)[0] for line in written] == source


# Spellings of one number that ``float`` reads alike and ``repr`` would not
# write back: a trailing zero, an exponent, no leading zero, a plus sign.
SPELLINGS = (
    repr,
    lambda v: f"{v:.6f}",
    lambda v: f"{v:e}",
    lambda v: repr(v).replace("0.", ".", 1) if v < 1.0 else repr(v),
    lambda v: "+" + repr(v),
)


def oddly_spelled_table(path, rows=2000, seed=7):
    """A table like the benchmark's gauge designs, every cell spelled one of
    the ways above: factors at 6 decimals in the bundled ranges, a quarter
    of the rows repeating an earlier one, P_obs at 3 decimals, a run label
    between the factors, the cells ``.5``, ``+0.25``, ``1e0`` and ``187.410``
    in the first row and ``1e2`` in the second."""
    rng = random.Random(seed)
    ranges = ((0.251, 1.257), (0.199, 0.297), (0.503, 1.131))
    points = []
    for i in range(rows):
        repeat = i > 0 and rng.random() < 0.25
        points.append(points[rng.randrange(i)] if repeat else
                      [round(rng.uniform(lo, hi), 6) for lo, hi in ranges])
    lines = ["A\trun\tPs\tB\tP_obs"]
    for i, (a, ps, b) in enumerate(points):
        cells = [rng.choice(SPELLINGS)(v) for v in (a, ps, b, round(rng.uniform(100.0, 300.0), 3))]
        lines.append("\t".join([cells[0], f"r-{i}", *cells[1:]]))
    lines[1] = "\t".join([".5", "r-0", "+0.25", "1e0", "187.410"])
    lines[2] = lines[2].rsplit("\t", 1)[0] + "\t1e2"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("table", ["bundled", "generated"])
def test_simulate_writes_each_line_as_read(table, data_dir, tmp_path):
    # each input line comes back byte for byte, and the computed column is
    # `%` of the solver's back-pressures at three decimals
    data = (data_dir / "gauge_factorial.tsv" if table == "bundled"
            else oddly_spelled_table(tmp_path / "gauge.tsv"))
    spec = data_dir / "gauge_factorial_spec.txt"
    cfg, _, ds = config.load_case(data, spec)
    source = data.read_text().splitlines()
    assert "187.410" in source[1].split("\t")
    for theory in ("adiabatic", "isochoric"):
        rc = main(["simulate", "--data", str(data), "--spec", str(spec),
                   "--theory", theory, "--out", str(tmp_path / theory)])
        assert rc == 0
        z = gauge.simulate_design(ds, theory, config.gauge_constants(cfg)[0])
        column = f"P_{theory}" if f"P_{theory}" not in source[0] else f"P_{theory}_sim"
        expected = [source[0] + "\t" + column] + [
            line + "\t" + "%.3f" % p for line, p in zip(source[1:], z.tolist(), strict=True)
        ]
        assert (tmp_path / theory / "simulated.tsv").read_text().splitlines() == expected


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
    """A ``%``-template of 1-3 conversions ``%.1f``..``%.9f`` in ASCII
    literal text with no ``%`` or NUL, as the writers pass, with one column
    of cells per conversion."""
    n_convs = draw(st.integers(1, 3))
    convs = [
        f"%.{places}f"
        for places in draw(st.lists(st.integers(1, 9), min_size=n_convs, max_size=n_convs))
    ]
    text = st.text(st.characters(min_codepoint=1, max_codepoint=127, exclude_characters="%"),
                   max_size=6)
    literals = draw(st.lists(text, min_size=n_convs + 1, max_size=n_convs + 1))
    row = "".join(lit + conv for lit, conv in zip(literals, convs)) + literals[-1] + "\n"
    n_rows = draw(st.integers(0, 12))
    columns = [
        np.array(draw(st.lists(
            fixed_point_cells(int(conv[2]), draw(st.integers(0, 9)) == 0),
            min_size=n_rows, max_size=n_rows,
        )), dtype=float)
        for conv in convs
    ]
    return row, columns


@given(templates_and_columns())
@example(("%.2f\n", [np.array([2.675, 1.005, 0.125])]))
@example(("x%.2fy%.1f\n", [np.array([-0.0, -0.001]), np.array([-0.04, 0.25])]))
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
