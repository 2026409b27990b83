"""Report rendering: the summary lines and the three ANOVA tables of an
:class:`~hybridfit.analysis.Analysis`, ANOVA tables as text and delimited
rows, coefficient files, tab-separated column tables (residual-plot points,
simulated designs), and standalone SVG plots.

Rendering computes nothing statistical: sums of squares come from the
analysis's solved fit and pure-error split, degrees of freedom from its
system, every F and p from its :class:`~hybridfit.inference.FTest` results;
the tables only divide each sum of squares by its degrees of freedom for the
MS column.

All output is plain text with fixed float formatting, so identical analyses
produce byte-identical files.  Text tables print sums of squares and mean
squares at four significant figures and F statistics at six; the delimited
row files carry full precision for machine consumption.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

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


def _fmt_ss(v: float) -> str:
    return f"{v:.4g}"


def _fmt_f(v: float) -> str:
    return f"{v:.6g}"


def _fmt_p(v: float) -> str:
    return f"{v:.4g}"


def _row_cells(row: AnovaRow) -> list[str]:
    return [
        row.source,
        _fmt_ss(row.ss),
        str(row.df),
        _fmt_ss(row.ms) if row.ms is not None else "",
        _fmt_f(row.f) if row.f is not None else "",
        _fmt_p(row.p) if row.p is not None else "",
    ]


HEADER = ["Source", "SS", "df", "MS", "F", "p"]


def render_anova_text(report: AnovaReport) -> str:
    """Aligned plain-text rendering of an ANOVA table."""
    table = [HEADER] + [_row_cells(r) for r in report.rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(HEADER))]
    lines = [report.title, "-" * (sum(widths) + 2 * (len(widths) - 1))]
    for row in table:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines) + "\n"


def render_anova_rows(report: AnovaReport) -> str:
    """Tab-separated machine-readable rendering of an ANOVA table."""
    lines = ["\t".join(["source", "ss", "df", "ms", "f", "p"])]
    for row in report.rows:
        lines.append(
            "\t".join(
                [
                    row.source,
                    repr(row.ss),
                    str(row.df),
                    repr(row.ms) if row.ms is not None else "",
                    repr(row.f) if row.f is not None else "",
                    repr(row.p) if row.p is not None else "",
                ]
            )
        )
    return "\n".join(lines) + "\n"


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
        f"critical at alpha={alpha:g}: {test.critical:.6g}"
    )


def summary_lines(a: Analysis) -> list[str]:
    """The body of ``summary.txt``: sizes, error variance, R-squared, the F
    tests, and the lack-of-fit verdict with its prediction margin."""
    sys = a.system
    if a.is_mlr:
        lines = [f"runs: {sys.n_runs}; coefficients: {sys.n_coef}"]
        tests = [("significance of regression", a.regression, True)]
    else:
        lines = [
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
        for name, test, with_p in tests
        if test is not None
    ]
    lof = a.lack_of_fit
    if lof is None:
        lines.append("lack of fit: test unavailable (no replicate runs)")
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
    return lines


def render_coefficients(
    labels: Sequence[str],
    estimates: np.ndarray,
    std_errors: np.ndarray | None = None,
) -> str:
    """Tab-separated coefficient table: term, estimate, standard error."""
    lines = ["\t".join(["term", "estimate", "std_error"])]
    for i, label in enumerate(labels):
        se = "" if std_errors is None else f"{std_errors[i]:.6g}"
        lines.append("\t".join([label, f"{estimates[i]:.3f}", se]))
    return "\n".join(lines) + "\n"


_CONVERSION = re.compile(r"%(?:\.([1-9])f|r)")


def _fixed(v: np.ndarray, places: int) -> tuple[np.ndarray, int] | None:
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
    return k, places


def _shortest(v: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The digits ``repr`` writes, as ``k / 10**d`` with d the fewest decimals
    (0..17) at which ``k = rint(|v| * 10**d)`` divides back to ``|v|``, so
    that, IEEE division being correctly rounded, the string round-trips.  A
    string that round-trips lies within ``|v| * 10**d * 2**-52`` of the
    product: below ``2**51`` (every d before the last) only k can, below
    ``2**53`` k - 1 or k + 1 too.  None where one of those does, where k
    reaches ``2**53``, or where ``repr`` writes an exponent.  A whole number
    gets d = 1, for its ``.0``."""
    a = np.abs(v)
    if not a.max(initial=0.0) < 2.0**53 or ((a > 0.0) & (a < 1e-4)).any():
        return None
    d, todo = np.zeros(len(a), np.int64), np.ones(len(a), bool)
    for places in range(18):
        hit = todo & (np.rint(a * 10.0**places) / 10.0**places == a)
        d[hit] = places
        todo &= ~hit
        if not todo.any():
            break
    else:
        return None
    scale = 10.0**d
    k = np.rint(a * scale)
    ties = ((k - 1.0) / scale == a) | ((k + 1.0) / scale == a)
    if not k.max(initial=0.0) < 2.0**53 or ties.any():
        return None
    return k.astype(np.int64) * np.where(d == 0, 10, 1), np.maximum(d, 1)


def _format_rows(row: str, columns: Sequence[np.ndarray]) -> str:
    """One line per row, formatted over whole columns at once: ``row`` is a
    ``%``-template with one conversion per column, ending in a newline.

    A template whose conversions are all ``%.Nf`` (N = 1..9) or ``%r``, on
    float columns, is written from digit arrays, byte for byte as ``%``
    writes it.  Each field is an int64 digit count k, a per-cell decimal
    count d (N, or :func:`_shortest`'s for ``%r``) and a sign; the fields and
    the literal text go into one width x n byte buffer with NUL bytes as
    padding (also past a cell's d) that are cut out at the end.  Any other
    template goes through ``%`` itself, and so does one with a column
    :func:`_fixed` or :func:`_shortest` gives no digits for.
    """
    parts = _CONVERSION.split(row)
    literals, convs = parts[0::2], parts[1::2]
    columns = [np.asarray(c) for c in columns]
    fields = None
    if (
        0 < len(convs) == len(columns) and row.isascii() and "\0" not in row
        and "%" not in "".join(literals)
        and all(c.ndim == 1 and len(c) == len(columns[0]) for c in columns)
        and np.result_type(*columns).kind == "f"  # % gets floats, not ints
    ):
        columns = [np.asarray(c, dtype=float) for c in columns]
        fields = [_fixed(c, int(p)) if p else _shortest(c) for c, p in zip(columns, convs)]
    if fields is None or any(f is None for f in fields):
        values = np.column_stack(columns).ravel().tolist()
        return (row * len(columns[0])) % tuple(values)

    # each field: minus sign or NUL, integer digits (at least one), point, and
    # the column's most decimals, NUL past a cell's own
    wholes = [k // 10**d for k, d in fields]
    places = [int(np.max(d, initial=1)) for _, d in fields]
    widths = [2 + len(str(w.max(initial=0))) + p for w, p in zip(wholes, places)]
    buf = np.zeros((sum(map(len, literals)) + sum(widths), len(columns[0])), np.uint8)
    at = 0
    for lit, c, (k, d), whole, p, width in zip(literals, columns, fields, wholes, places, widths):
        buf[at : at + len(lit)] = np.frombuffer(lit.encode(), np.uint8)[:, None]
        at += len(lit)
        buf[at] = np.signbit(c) * ord("-")
        point = at + width - p - 1
        buf[point] = ord(".")
        frac = (k - whole * 10**d) * 10 ** (p - d)
        for pos in range(at + width - 1, point, -1):
            q = frac // 10
            buf[pos] = frac - 10 * q + ord("0")
            frac = q
        if np.ndim(d):
            buf[point + 1 : at + width] *= np.arange(1, p + 1)[:, None] <= d
        for pos in range(point - 1, at, -1):
            q = whole // 10
            digit = whole - 10 * q + ord("0")
            buf[pos] = digit * (whole > 0) if pos < point - 1 else digit
            whole = q
        at += width
    buf[at:] = np.frombuffer(literals[-1].encode(), np.uint8)[:, None]
    return buf.T.tobytes().replace(b"\0", b"").decode("ascii")


def render_table(names: Sequence[str], columns: Sequence[np.ndarray], row: str) -> str:
    """Tab-separated table: a header of ``names``, then each row through the
    ``%``-template ``row`` (one conversion per column, ending in a newline)."""
    return "\t".join(names) + "\n" + _format_rows(row, columns)


def render_points(xs: np.ndarray, ys: np.ndarray, xname: str, yname: str) -> str:
    """Tab-separated two-column point file."""
    return render_table((xname, yname), (xs, ys), "%.6f\t%.6f\n")


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
    circles = _format_rows(
        '<circle cx="%.2f" cy="%.2f" r="3.5" '
        'fill="none" stroke="#1f4e9c" stroke-width="1.4"/>\n',
        (px(xs), py(ys)),
    )
    return "\n".join(parts) + "\n" + circles + "</svg>\n"


def write_diagnostic_files(
    diag: ResidualDiagnostics, out_dir: Path, response_units: str
) -> list[Path]:
    """Write residual plot point files and SVG plots with stable names."""
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
    written = []
    for stem, (xs, ys), names, labels in plots:
        for suffix, text in (
            (".tsv", render_points(xs, ys, *names)),
            (".svg", scatter_svg(xs, ys, *labels)),
        ):
            path = out_dir / f"{stem}{suffix}"
            path.write_text(text, encoding="utf-8")
            written.append(path)
    return written
