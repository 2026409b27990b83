"""Report rendering: the summary lines and the three ANOVA tables of an
:class:`~hybridfit.analysis.Analysis`, ANOVA tables as text and delimited
rows, coefficient files, residual-plot point files, and standalone SVG plots.

Rendering computes nothing statistical: sums of squares come from the
analysis's partition and pure-error split, every F and p from its
:class:`~hybridfit.inference.FTest` results; the tables only divide each sum
of squares by its degrees of freedom for the MS column.

All output is plain text with fixed float formatting, so identical analyses
produce byte-identical files.  Text tables print sums of squares and mean
squares at four significant figures and F statistics at six; the delimited
row files carry full precision for machine consumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import Analysis
from .gauge import GaugeConstants
from .inference import FTest, ResidualDiagnostics


@dataclass(frozen=True)
class AnovaRow:
    source: str
    ss: float
    df: int
    ms: float | None = None
    f: float | None = None
    p: float | None = None


@dataclass(frozen=True)
class AnovaReport:
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
    part = a.part
    residual = _row("Residual", part.ss_residual, part.df_residual)
    total = AnovaRow("Total", part.ss_total, part.n_runs)
    overall = AnovaReport(
        "Analysis of variance: overall fit",
        (
            _row("Regression", part.ss_regression, part.df_regression, a.overall),
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
            "Total (about mean)", a.ss_about_mean, part.n_runs - 1
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
            "Corrected regression", part.ss_theory_gain, part.df_theory_gain,
            a.theory_gain,
        )
        detail = AnovaReport(
            "Analysis of variance: linear term and theory correction",
            (
                _row("Linear regression", part.ss_design, part.df_design, a.regression),
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
                    "Corrected total", part.ss_total_corrected,
                    part.n_runs - part.df_design,
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
    part = a.part
    if a.is_mlr:
        lines = [f"runs: {part.n_runs}; coefficients: {part.df_design}"]
        tests = [("significance of regression", a.regression, True)]
    else:
        lines = [
            f"theory source: {a.system.theory.source_label}",
            f"runs: {part.n_runs}; coefficients per block: {part.df_design}; "
            f"model rank: {a.system.rank}",
        ]
        tests = [
            ("linear term", a.regression, False),
            ("theory correction", a.theory_gain, False),
        ]
    lines += [
        f"residual degrees of freedom: {part.df_residual}",
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


def render_points(
    points: Sequence[tuple[float, float]], xname: str, yname: str
) -> str:
    """Tab-separated two-column point file."""
    lines = ["\t".join([xname, yname])]
    for x, y in points:
        lines.append(f"{x:.6f}\t{y:.6f}")
    return "\n".join(lines) + "\n"


def _ticks(lo: float, hi: float, count: int = 5) -> list[tuple[float, str]]:
    """``count`` evenly spaced ticks from lo to hi, each labelled at four
    significant digits of the spacing, so that a roundoff residue of zero
    reads 0 (adding 0.0 turns -0 into 0)."""
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    places = 3 - math.floor(math.log10(step))
    ticks = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    return [(t, f"{round(float(t), places) + 0.0:.4g}") for t in ticks]


def scatter_svg(
    points: Sequence[tuple[float, float]],
    xlabel: str,
    ylabel: str,
    title: str,
    width: int = 640,
    height: int = 480,
) -> str:
    """Standalone SVG scatter plot with labeled axes.

    Hand-built rather than delegated to a plotting library so that output
    bytes depend only on the data.
    """
    margin = 70.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = (x_hi - x_lo) * 0.08 or max(abs(x_lo), 1.0) * 0.08
    y_pad = (y_hi - y_lo) * 0.08 or max(abs(y_lo), 1.0) * 0.08
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>',
        f'<text x="20" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {height / 2:.1f})">{ylabel}</text>',
    ]
    for t, label in _ticks(x_lo + x_pad, x_hi - x_pad):
        parts.append(
            f'<line x1="{px(t):.2f}" y1="{height - margin}" x2="{px(t):.2f}" '
            f'y2="{height - margin + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(t):.2f}" y="{height - margin + 20}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    for t, label in _ticks(y_lo + y_pad, y_hi - y_pad):
        parts.append(
            f'<line x1="{margin - 5}" y1="{py(t):.2f}" x2="{margin}" '
            f'y2="{py(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{py(t):.2f}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    if y_lo < 0.0 < y_hi:
        parts.append(
            f'<line x1="{margin}" y1="{py(0):.2f}" x2="{width - margin}" '
            f'y2="{py(0):.2f}" stroke="#bbbbbb" stroke-dasharray="4 3"/>'
        )
    for x, y in points:
        parts.append(
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.5" '
            f'fill="none" stroke="#1f4e9c" stroke-width="1.4"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_diagnostic_files(
    diag: ResidualDiagnostics, out_dir: Path, response_units: str
) -> list[Path]:
    """Write residual plot point files and SVG plots with stable names."""
    unit = f" ({response_units})" if response_units else ""
    written = []
    normal_tsv = out_dir / "residuals_normal.tsv"
    normal_tsv.write_text(
        render_points(diag.normal_plot, "normal_quantile", "ordered_residual"),
        encoding="utf-8",
    )
    written.append(normal_tsv)
    normal_svg = out_dir / "residuals_normal.svg"
    normal_svg.write_text(
        scatter_svg(
            diag.normal_plot,
            "standard normal quantile",
            f"ordered residual{unit}",
            "Normal probability plot of residuals",
        ),
        encoding="utf-8",
    )
    written.append(normal_svg)
    fitted_tsv = out_dir / "residuals_fitted.tsv"
    fitted_tsv.write_text(
        render_points(diag.scatter, "fitted", "residual"), encoding="utf-8"
    )
    written.append(fitted_tsv)
    fitted_svg = out_dir / "residuals_fitted.svg"
    fitted_svg.write_text(
        scatter_svg(
            diag.scatter,
            f"fitted value{unit}",
            f"residual{unit}",
            "Residuals versus fitted values",
        ),
        encoding="utf-8",
    )
    written.append(fitted_svg)
    return written
