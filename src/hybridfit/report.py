"""Report rendering: all of ``summary.txt`` and the three ANOVA tables of an
:class:`~hybridfit.analysis.Analysis`, ANOVA tables as text and delimited
rows, coefficient files, tab-separated column tables (residual-plot points,
simulated designs), and standalone SVG plots.

Every function here returns text and touches no file: the CLI's
:func:`hybridfit.cli.write_files` writes what it renders.

Rendering computes nothing statistical: sums of squares come from the
analysis's solved fit and pure-error split, degrees of freedom from its
system, every F and p from its :class:`~hybridfit.inference.FTest` results,
and why a lack-of-fit test is missing from its ``lack_of_fit_missing``; the
tables only divide each sum of squares by its degrees of freedom for the MS
column.  No module of the package is imported here at run time.

All output is plain text with fixed float formatting, so identical analyses
produce byte-identical files.  Text tables print sums of squares and mean
squares at four significant figures and F statistics at six; the delimited
row files carry full precision for machine consumption.
"""

from __future__ import annotations

import math
import re
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # annotations only: rendering needs none of these layers
    from .analysis import Analysis
    from .gauge import GaugeConstants
    from .inference import FTest, ResidualDiagnostics


class AnovaRow(NamedTuple):
    source: str
    ss: float
    df: int
    ms: float | None = None
    f: float | None = None
    p: float | None = None


class AnovaReport(NamedTuple):
    title: str
    rows: tuple[AnovaRow, ...]


def _row_cells(
    row: AnovaRow, fmt: Callable[[float], str], fmt_f: Callable[[float], str]
) -> list[str]:
    """The cells of ``row``: SS, MS and p through ``fmt``, F through
    ``fmt_f``, and an empty cell for what the row lacks."""
    cells = [row.source, fmt(row.ss), str(row.df)]
    for v, f in ((row.ms, fmt), (row.f, fmt_f), (row.p, fmt)):
        cells.append("" if v is None else f(v))
    return cells


HEADER = ["Source", "SS", "df", "MS", "F", "p"]


def render_anova_text(report: AnovaReport) -> str:
    """Aligned plain-text rendering of an ANOVA table."""
    table = [HEADER]
    table += [_row_cells(r, "{:.4g}".format, "{:.6g}".format) for r in report.rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(HEADER))]
    lines = [report.title, "-" * (sum(widths) + 2 * (len(widths) - 1))]
    for row in table:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines) + "\n"


def render_anova_rows(report: AnovaReport) -> str:
    """Tab-separated machine-readable rendering of an ANOVA table."""
    table = [[h.lower() for h in HEADER]]
    table += [_row_cells(r, repr, repr) for r in report.rows]
    return "".join("\t".join(row) + "\n" for row in table)


def _row(source: str, ss: float, df: int, test: FTest | None = None) -> AnovaRow:
    """A row with its mean square, and the F and p of ``test``; a row without
    degrees of freedom has neither."""
    if df <= 0:
        return AnovaRow(source, ss, df)
    if test is None:
        return AnovaRow(source, ss, df, ss / df)
    return AnovaRow(source, ss, df, ss / df, test.f, test.p)


def _lof_rows(a: Analysis) -> list[AnovaRow]:
    pe = a.pure_error
    if pe.df_pure_error <= 0:
        return []
    return [
        _row("Lack of fit", pe.ss_lack_of_fit, pe.df_lack_of_fit, a.lack_of_fit),
        _row("Pure error", pe.ss_pure_error, pe.df_pure_error),
    ]


def anova_tables(a: Analysis) -> dict[str, AnovaReport]:
    """The three ANOVA tables of a fit, keyed by their file stem.

    Table 2 is the overall fit: regression on all ranked directions against
    the residual, uncorrected for the mean (for a plain polynomial the
    intercept stays in the regression row).  For the theory-scaled model,
    table 3 separates the plain-polynomial term from the theory gain, with
    the lack-of-fit / pure-error breakdown when replicates exist, and table 4
    removes the plain-polynomial part from the total.  A plain polynomial fit
    gets classical about-the-mean tables instead: the intercept leaves the
    regression row and the total is y'y - n ybar^2 on n - 1 df.
    """
    fit, sys = a.fit, a.system
    residual = _row("Residual", fit.ss_residual, sys.df_residual)
    total = AnovaRow("Total", fit.ss_total, sys.n_runs)
    overall = AnovaReport(
        "Analysis of variance: overall fit",
        (
            _row("Regression", fit.ss_regression, sys.rank, a.overall),
            residual,
            total,
        ),
    )
    if a.is_mlr:
        regression = _row(
            "Regression", a.ss_regression_about_mean, a.regression.df_num,
            a.regression,
        )
        about_mean = AnovaRow(
            "Total (about mean)", a.ss_about_mean, sys.n_runs - 1
        )
        detail = AnovaReport(
            "Analysis of variance about the mean",
            (regression, residual, *_lof_rows(a), about_mean),
        )
        brief = AnovaReport(
            "Analysis of variance about the mean (abbreviated)",
            (regression, residual, about_mean),
        )
    else:
        gain = _row(
            "Corrected regression", fit.ss_excess, sys.df_theory_gain,
            a.theory_gain,
        )
        detail = AnovaReport(
            "Analysis of variance: linear term and theory correction",
            (
                _row("Linear regression", fit.ss_design, sys.n_coef, a.regression),
                gain,
                residual,
                *_lof_rows(a),
                total,
            ),
        )
        brief = AnovaReport(
            "Analysis of variance: corrected for the linear term",
            (
                gain,
                residual,
                AnovaRow(
                    "Corrected total", fit.ss_excess + fit.ss_residual,
                    sys.n_runs - sys.n_coef,
                ),
            ),
        )
    return {
        "anova_table2": overall,
        "anova_table3": detail,
        "anova_table4": brief,
    }


def constants_line(constants: GaugeConstants, defaulted: tuple[str, ...]) -> str:
    """Echo of the gauge constants a simulation used."""
    line = (
        f"gauge constants: gamma={constants.gamma:g}, "
        f"p_atm={constants.p_atm:g} kPa, c_orifice={constants.c_orifice:g}, "
        f"c_sensor={constants.c_sensor:g}"
    )
    if defaulted:
        line += f" (defaults applied for: {', '.join(defaulted)})"
    return line


def _f_line(name: str, test: FTest, alpha: float, with_p: bool) -> str:
    p = f"p = {test.p:.4g}, " if with_p else ""
    return (
        f"{name}: F({test.df_num},{test.df_den}) = {test.f:.6g}, {p}"
        f"critical at alpha={float(alpha)!r}: {test.critical:.6g}"
    )


def summary_text(a: Analysis, data: str | Path, spec: str | Path) -> str:
    """All of ``summary.txt``: a header naming the ``data`` and ``spec``
    files, the model and alpha, then sizes, error variance, R-squared, the F
    tests, and the lack-of-fit verdict with its prediction margin."""
    sys = a.system
    lines = ["fit report", f"data: {Path(data)}", f"config: {Path(spec)}",
             f"model: {a.model}", f"alpha: {a.alpha!r}", ""]
    if a.is_mlr:
        lines.append(f"runs: {sys.n_runs}; coefficients: {sys.n_coef}")
        tests = [("significance of regression", a.regression, True)]
    else:
        lines += [
            f"theory source: {a.theory}",
            f"runs: {sys.n_runs}; coefficients per block: {sys.n_coef}; "
            f"model rank: {sys.rank}",
        ]
        tests = [
            ("linear term", a.regression, False),
            ("theory correction", a.theory_gain, False),
        ]
    lines += [
        f"residual degrees of freedom: {sys.df_residual}",
        f"residual variance estimate: {a.fit.sigma2:.4g}",
        "residual sample standard deviation (about-mean df): "
        f"{a.residual_sample_sd:.3f}",
        f"R^2 = {a.r2:.6f}, attainable maximum = {a.r2_max:.6f}",
    ]
    lines += [
        _f_line(name, test, a.alpha, with_p)
        + (" -> significant" if test.significant else " -> not significant")
        if test is not None  # the theory correction, where it adds no rank
        else f"{name}: no test: the theory column adds no rank to the design"
        for name, test, with_p in tests
    ]
    lof = a.lack_of_fit
    if lof is None:
        lines.append(f"lack of fit: test unavailable ({a.lack_of_fit_missing})")
    else:
        lines += [
            _f_line("lack of fit", lof, a.alpha, with_p=True),
            "model adequacy verdict: "
            + ("inadequate" if lof.significant else "adequate"),
        ]
    if a.box_wetz is not None:
        margin, useful = a.box_wetz
        lines += [
            f"prediction margin (critical / observed lack-of-fit F): {margin:.3f}",
            "useful predictor by the four-to-five-times rule: "
            + ("yes" if useful else "no"),
        ]
    if a.constants is not None:
        lines.append(constants_line(*a.constants))
    return "\n".join(lines) + "\n"


def render_coefficients(
    labels: Sequence[str],
    estimates: np.ndarray,
    std_errors: np.ndarray,
) -> str:
    """Tab-separated coefficient table: term, estimate, standard error."""
    lines = ["\t".join(["term", "estimate", "std_error"])]
    for i, label in enumerate(labels):
        lines.append(
            "\t".join([label, f"{estimates[i]:.3f}", f"{std_errors[i]:.6g}"])
        )
    return "\n".join(lines) + "\n"


_CONVERSION = re.compile(r"%\.([1-9])f")


def _fixed(v: np.ndarray, places: int) -> np.ndarray | None:
    """The digits ``%.Nf`` writes, as ``k / 10**places`` with k ``|v| *
    10**places`` rounded to int64 as ``%`` rounds it, or None for a column
    with a non-finite value or one at or above ``2**52 / 10**places``.  The
    product is off by at most ``scaled * 2**-53``: a cell further than that
    from a half rounds as its exact binary value does, the rest as Python
    does."""
    a = np.abs(v)
    if not a.max(initial=0.0) < 2.0**52 / 10.0**places:
        return None
    scaled = a * 10.0**places
    k = np.rint(scaled)
    near = np.flatnonzero(np.abs(scaled - k) >= 0.5 - scaled * 2.0**-51)
    k = k.astype(np.int64)
    for i in near:
        k[i] = int(("%.*f" % (places, a[i])).replace(".", ""))
    return k


def _format_rows(row: str, columns: Sequence[np.ndarray]) -> str:
    """One line per row, formatted over whole columns at once: ``row`` is an
    ASCII ``%``-template ending in a newline whose conversions are all
    ``%.Nf`` (N = 1..9), one per 1-D float column of equal length, and
    whose literal text holds no ``%`` or NUL.

    It is written from digit arrays, byte for byte as ``%`` writes it.  Each
    field is an int64 digit count k (:func:`_fixed`) and a sign; the fields
    and the literal text go into one width x n byte buffer with NUL bytes as
    padding that are cut out at the end.  A template with a column
    :func:`_fixed` gives no digits for goes through ``%`` itself.
    """
    parts = _CONVERSION.split(row)
    literals, places = parts[0::2], [int(p) for p in parts[1::2]]
    fields = [_fixed(c, p) for c, p in zip(columns, places)]
    if any(k is None for k in fields):
        values = np.column_stack(columns).ravel().tolist()
        return (row * len(columns[0])) % tuple(values)

    # each field: minus sign or NUL, integer digits (at least one), point, and
    # the column's decimals
    wholes = [k // 10**p for k, p in zip(fields, places)]
    widths = [2 + len(str(w.max(initial=0))) + p for w, p in zip(wholes, places)]
    buf = np.zeros((sum(map(len, literals)) + sum(widths), len(columns[0])), np.uint8)
    at = 0
    for lit, c, k, whole, p, width in zip(literals, columns, fields, wholes, places, widths):
        buf[at : at + len(lit)] = np.frombuffer(lit.encode(), np.uint8)[:, None]
        at += len(lit)
        buf[at] = np.signbit(c) * ord("-")
        point = at + width - p - 1
        buf[point] = ord(".")
        frac = k - whole * 10**p
        for pos in range(at + width - 1, point, -1):
            q = frac // 10
            buf[pos] = frac - 10 * q + ord("0")
            frac = q
        for pos in range(point - 1, at, -1):
            q = whole // 10
            digit = whole - 10 * q + ord("0")
            buf[pos] = digit * (whole > 0) if pos < point - 1 else digit
            whole = q
        at += width
    buf[at:] = np.frombuffer(literals[-1].encode(), np.uint8)[:, None]
    return buf.T.tobytes().replace(b"\0", b"").decode("ascii")


def append_column(header: str, lines: Sequence[str], name: str, values: np.ndarray) -> str:
    """The tab-separated ``header`` line and data ``lines``, each with one
    more cell: ``name``, and the row's value at three decimals."""
    cells = _format_rows("\t%.3f\n", [values]).splitlines(keepends=True)
    return f"{header}\t{name}\n" + "".join(chain.from_iterable(zip(lines, cells)))


def render_points(xs: np.ndarray, ys: np.ndarray, xname: str, yname: str) -> str:
    """Tab-separated two-column point file."""
    return f"{xname}\t{yname}\n" + _format_rows("%.6f\t%.6f\n", (xs, ys))


def _ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """Five evenly spaced ticks from lo to hi, each labelled at four
    significant digits of the spacing, so that a roundoff residue of zero
    reads 0 (adding 0.0 turns -0 into 0)."""
    if hi <= lo:  # one unit, or one spacing of lo where a unit is below it
        hi = max(lo + 1.0, math.nextafter(lo, math.inf))
    step = (hi - lo) / 4
    places = 3 - math.floor(math.log10(step))
    ticks = [lo + (hi - lo) * i / 4 for i in range(5)]
    return [(t, f"{round(float(t), places) + 0.0:.4g}") for t in ticks]


def _escape(text: str) -> str:
    """``text`` as XML character data."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def scatter_svg(
    xs: np.ndarray, ys: np.ndarray, xlabel: str, ylabel: str, title: str
) -> str:
    """Standalone 640 x 480 SVG scatter plot with labeled axes.

    Hand-built rather than delegated to a plotting library so that output
    bytes depend only on the data.
    """
    width, height, margin = 640, 480, 70.0
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_pad = (x_hi - x_lo) * 0.08 or max(abs(x_lo), 1.0) * 0.08
    y_pad = (y_hi - y_lo) * 0.08 or max(abs(y_lo), 1.0) * 0.08
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    # pixel positions of a float or of a whole column
    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(xlabel)}</text>',
        f'<text x="20" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {height / 2:.1f})">{_escape(ylabel)}</text>',
    ]
    for t, label in _ticks(x_lo + x_pad, x_hi - x_pad):
        parts.append(
            f'<line x1="{px(t):.2f}" y1="{height - margin}" x2="{px(t):.2f}" '
            f'y2="{height - margin + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(t):.2f}" y="{height - margin + 20}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )
    for t, label in _ticks(y_lo + y_pad, y_hi - y_pad):
        parts.append(
            f'<line x1="{margin - 5}" y1="{py(t):.2f}" x2="{margin}" '
            f'y2="{py(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{py(t):.2f}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )
    if y_lo < 0.0 < y_hi:
        parts.append(
            f'<line x1="{margin}" y1="{py(0):.2f}" x2="{width - margin}" '
            f'y2="{py(0):.2f}" stroke="#bbbbbb" stroke-dasharray="4 3"/>'
        )
    parts.append(
        '<defs><circle id="m" r="3.5" fill="none" stroke="#1f4e9c" '
        'stroke-width="1.4"/></defs>'
    )
    markers = _format_rows('<use href="#m" x="%.2f" y="%.2f"/>\n', (px(xs), py(ys)))
    return "\n".join(parts) + "\n" + markers + "</svg>\n"


def diagnostic_files(
    diag: ResidualDiagnostics, response_units: str
) -> Iterator[tuple[str, str]]:
    """The residual plots' point files and SVGs, as ``(file name, text)``
    pairs with stable names."""
    unit = f" ({response_units})" if response_units else ""
    plots = (
        (
            "residuals_normal", diag.normal_plot, ("normal_quantile", "ordered_residual"),
            ("standard normal quantile", f"ordered residual{unit}",
             "Normal probability plot of residuals"),
        ),
        (
            "residuals_fitted", diag.scatter, ("fitted", "residual"),
            (f"fitted value{unit}", f"residual{unit}", "Residuals versus fitted values"),
        ),
    )
    for stem, (xs, ys), names, labels in plots:
        yield f"{stem}.tsv", render_points(xs, ys, *names)
        yield f"{stem}.svg", scatter_svg(xs, ys, *labels)
