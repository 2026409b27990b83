"""Command-line surface: simulate, fit, validate.

``simulate`` runs a flow solver over a design file and appends the computed
back-pressure column.  ``fit`` runs one of the three regression models and
writes coefficient, ANOVA, summary, and residual-plot files.  ``validate``
recomputes the bundled case study end to end and compares every reference
number.  All outputs are deterministic: identical inputs give byte-identical
files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import config, dataset, gauge, hybrid, inference, report, validation
from .errors import AnalysisError, NoReplicatesError
from .linalg import ols_solve

ALL_FORMATS = ("text", "rows", "plots")


@dataclass(frozen=True)
class RunConfig:
    """One fit invocation, after merging config-file defaults and flags."""

    data_path: Path
    spec_path: Path
    model: str                      # mlr1 | mlr2 | hybrid
    theory: str                     # adiabatic | isochoric | column:<name> | none
    alpha: float = 0.05
    output_dir: Path = Path("out")
    report_formats: frozenset[str] = frozenset(ALL_FORMATS)

    def __post_init__(self) -> None:
        if self.model not in ("mlr1", "mlr2", "hybrid"):
            raise AnalysisError(f"unknown model {self.model!r}")
        if self.model == "hybrid" and self.theory == "none":
            raise AnalysisError("model=hybrid requires a theory source")
        if not 0.0 < self.alpha < 1.0:
            raise AnalysisError(f"alpha must lie in (0, 1), got {self.alpha}")
        unknown = self.report_formats - set(ALL_FORMATS)
        if unknown:
            raise AnalysisError(f"unknown report formats: {sorted(unknown)}")


def _load_dataset(
    data_path: Path, cfg: dict[str, str], extras: tuple[str, ...] = ()
) -> dataset.Dataset:
    specs = config.factor_specs(cfg)
    response, units = config.response_column(cfg)
    schema = dataset.TableSchema(
        factors=specs, response=response, extras=extras, response_units=units
    )
    return dataset.load_table(data_path, schema)


def _constants_line(constants: gauge.GaugeConstants, defaulted: tuple[str, ...]) -> str:
    line = (
        f"gauge constants: gamma={constants.gamma:g}, "
        f"p_atm={constants.p_atm:g} kPa, c_orifice={constants.c_orifice:g}, "
        f"c_sensor={constants.c_sensor:g}"
    )
    if defaulted:
        line += f" (defaults applied for: {', '.join(defaulted)})"
    return line


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = config.read_keyvalues(args.spec)
    specs = config.factor_specs(cfg)
    response, _ = config.response_column(cfg)
    header = dataset.peek_columns(Path(args.data))
    known = {s.name for s in specs} | {response}
    extras = tuple(name for name in header if name not in known)
    ds = _load_dataset(Path(args.data), cfg, extras=extras)

    constants, defaulted = config.gauge_constants(cfg)
    theory = gauge.simulate_design(ds, args.theory, constants)

    column = f"P_{args.theory}"
    if column in extras:
        column += "_sim"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "simulated.tsv"

    names = [s.name for s in specs] + [response] + list(extras) + [column]
    columns = (
        [ds.naturals[:, j] for j in range(ds.n_factors)]
        + [ds.response]
        + [ds.extras[name] for name in extras]
    )
    lines = ["\t".join(names)]
    for i in range(ds.n_runs):
        cells = [repr(float(col[i])) for col in columns]
        cells.append(f"{theory.values[i]:.3f}")
        lines.append("\t".join(cells))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    print(_constants_line(constants, defaulted))
    print(f"wrote {out_path} with back-pressure column {column!r} ({args.theory})")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

@dataclass
class _FitResult:
    """Everything the report writers need, for either model family."""

    labels: list[str]
    estimates: np.ndarray
    std_errors: np.ndarray | None
    fitted: np.ndarray
    residuals: np.ndarray
    sigma2: float
    df_residual: int
    reports: dict[str, report.AnovaReport]
    summary_lines: list[str] = field(default_factory=list)


def _theory_vector(
    run: RunConfig,
    ds: dataset.Dataset,
    cfg: dict[str, str],
) -> tuple[hybrid.TheoryVector, str | None]:
    """Resolve the theory source; returns the vector and an optional
    constants-echo line for the summary."""
    if run.theory.startswith("column:"):
        name = run.theory.split(":", 1)[1]
        return hybrid.TheoryVector(ds.extras[name], run.theory), None
    constants, defaulted = config.gauge_constants(cfg)
    vec = gauge.simulate_design(ds, run.theory, constants)
    return vec, _constants_line(constants, defaulted)


def _lof_summary(
    y: np.ndarray,
    groups: list[list[int]],
    fitted: np.ndarray,
    df_residual: int,
    alpha: float,
) -> tuple[inference.PureErrorDecomposition, list[str]]:
    """Lack-of-fit verdict lines for the summary; adequacy is reported, never
    raised."""
    pe = inference.pure_error(y, groups, fitted, df_residual)
    try:
        f_lof, p_lof = inference.lack_of_fit_test(pe)
    except NoReplicatesError:
        return pe, ["lack of fit: test unavailable (no replicate runs)"]
    crit = inference.f_critical(alpha, max(pe.df_lack_of_fit, 1), pe.df_pure_error)
    significant = f_lof > crit
    verdict = "inadequate" if significant else "adequate"
    lines = [
        f"lack of fit: F({pe.df_lack_of_fit},{pe.df_pure_error}) = "
        f"{f_lof:.6g}, p = {p_lof:.4g}, critical at alpha={alpha:g}: {crit:.6g}",
        f"model adequacy verdict: {verdict}",
    ]
    if f_lof > 0.0:
        margin, useful = inference.box_wetz_ratio(crit, f_lof)
        lines.append(
            f"prediction margin (critical / observed lack-of-fit F): {margin:.3f}"
        )
        lines.append(
            "useful predictor by the four-to-five-times rule: "
            + ("yes" if useful else "no")
        )
    return pe, lines


def _fit_mlr(run: RunConfig, ds: dataset.Dataset) -> _FitResult:
    order = "first" if run.model == "mlr1" else "second"
    coded = dataset.code(ds)
    design = dataset.build_design(coded, order, [s.name for s in ds.factors])
    y = ds.response
    coef = ols_solve(design.values, y)
    fitted = design.values @ coef
    part = inference.mlr_partition(y, fitted, design.n_coef)
    if part.df_residual <= 0:
        raise AnalysisError(
            "model is saturated (no residual degrees of freedom); the error "
            "variance is not estimable without replicate runs"
        )
    if part.ss_total_about_mean <= 1e-12 * max(1.0, float(y @ y)):
        raise AnalysisError(
            "response is constant; R-squared and F tests are undefined"
        )
    sigma2 = part.ss_residual / part.df_residual
    if sigma2 <= 0.0:
        raise AnalysisError(
            "residual sum of squares is zero; F tests are undefined"
        )
    xtx_inv = np.linalg.inv(design.values.T @ design.values)
    std_errors = np.sqrt(np.diag(xtx_inv) * sigma2)

    groups = dataset.replicate_groups(ds)
    pe, lof_lines = _lof_summary(y, groups, fitted, part.df_residual, run.alpha)

    ms_reg = part.ss_regression / part.df_regression
    f0 = ms_reg / sigma2
    p0 = 1.0 - inference.f_cdf(f0, part.df_regression, part.df_residual)
    crit0 = inference.f_critical(run.alpha, part.df_regression, part.df_residual)

    r2, r2_max = inference.r_squared(
        SimpleNamespace(fitted=fitted), y, pe.ss_pure_error
    )

    reports = {
        "anova_table2": report.mlr_anova_uncorrected(y, fitted, design.n_coef),
        "anova_table3": report.mlr_anova_corrected(part, pe),
        "anova_table4": report.mlr_anova_regression_only(part),
    }
    summary = [
        f"runs: {part.n_runs}; coefficients: {design.n_coef}",
        f"residual degrees of freedom: {part.df_residual}",
        f"residual variance estimate: {sigma2:.4g}",
        "residual sample standard deviation (about-mean df): "
        f"{np.sqrt(part.ss_residual / (part.n_runs - 1)):.3f}",
        f"R^2 = {r2:.6f}, attainable maximum = {r2_max:.6f}",
        f"significance of regression: F({part.df_regression},{part.df_residual}) "
        f"= {f0:.6g}, p = {p0:.4g}, critical at alpha={run.alpha:g}: {crit0:.6g} "
        f"-> {'significant' if f0 > crit0 else 'not significant'}",
    ] + lof_lines
    return _FitResult(
        labels=list(design.column_labels),
        estimates=coef,
        std_errors=std_errors,
        fitted=fitted,
        residuals=y - fitted,
        sigma2=sigma2,
        df_residual=part.df_residual,
        reports=reports,
        summary_lines=summary,
    )


def _fit_hybrid(run: RunConfig, ds: dataset.Dataset, cfg: dict[str, str]) -> _FitResult:
    coded = dataset.code(ds)
    design = dataset.build_design(coded, "first", [s.name for s in ds.factors])
    y = ds.response
    theory, constants_line = _theory_vector(run, ds, cfg)
    system = hybrid.assemble(design, theory)
    fit = hybrid.solve(system, y)
    if fit.saturated:
        raise AnalysisError(
            "model is saturated (model rank equals the run count); the error "
            "variance is not estimable without replicate runs"
        )
    part = inference.partition(system, y)
    fstats = inference.f_statistics(part)

    # Pure error needs equal fitted values within a group: group the rows
    # of the augmented system, which share settings and theory value.
    groups = dataset.row_groups(system.augmented)
    pe, lof_lines = _lof_summary(y, groups, fit.fitted, part.df_residual, run.alpha)
    r2, r2_max = inference.r_squared(fit, y, pe.ss_pure_error)

    labels = list(design.column_labels) + [
        f"(z-1)*{lbl}" for lbl in design.column_labels
    ]
    std_errors = (
        np.sqrt(np.clip(np.diag(fit.coef_cov), 0.0, None))
        if fit.coef_cov is not None
        else None
    )

    crit_design = inference.f_critical(run.alpha, part.df_design, part.df_residual)
    summary = [
        f"theory source: {theory.source_label}",
        f"runs: {part.n_runs}; coefficients per block: {system.n_coef}; "
        f"model rank: {system.rank}",
        f"residual degrees of freedom: {part.df_residual}",
        f"residual variance estimate: {fit.sigma2:.4g}",
        "residual sample standard deviation (about-mean df): "
        f"{np.sqrt(part.ss_residual / (part.n_runs - 1)):.3f}",
        f"R^2 = {r2:.6f}, attainable maximum = {r2_max:.6f}",
        f"linear term: F({part.df_design},{part.df_residual}) = "
        f"{fstats.f_design:.6g}, critical at alpha={run.alpha:g}: "
        f"{crit_design:.6g} -> "
        f"{'significant' if fstats.f_design > crit_design else 'not significant'}",
    ]
    if part.df_theory_gain > 0:
        crit_gain = inference.f_critical(run.alpha, part.df_theory_gain, part.df_residual)
        summary.append(
            f"theory correction: F({part.df_theory_gain},{part.df_residual}) = "
            f"{fstats.f_theory_gain:.6g}, critical at alpha={run.alpha:g}: "
            f"{crit_gain:.6g} -> "
            f"{'significant' if fstats.f_theory_gain > crit_gain else 'not significant'}"
        )
    summary += lof_lines
    if constants_line:
        summary.append(constants_line)

    reports = {
        "anova_table2": report.hybrid_anova_overall(part),
        "anova_table3": report.hybrid_anova_partitioned(part, pe),
        "anova_table4": report.hybrid_anova_corrected(part),
    }
    return _FitResult(
        labels=labels,
        estimates=fit.coef,
        std_errors=std_errors,
        fitted=fit.fitted,
        residuals=fit.residuals,
        sigma2=fit.sigma2,
        df_residual=part.df_residual,
        reports=reports,
        summary_lines=summary,
    )


def run_fit(run: RunConfig) -> list[Path]:
    """Execute a fit and write its report files; returns the paths written."""
    cfg = config.read_keyvalues(run.spec_path)
    extras: tuple[str, ...] = ()
    if run.theory.startswith("column:"):
        extras = (run.theory.split(":", 1)[1],)
    ds = _load_dataset(run.data_path, cfg, extras=extras)

    if run.model in ("mlr1", "mlr2"):
        result = _fit_mlr(run, ds)
    else:
        result = _fit_hybrid(run, ds, cfg)

    out_dir = run.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    coef_path = out_dir / "coefficients.tsv"
    coef_path.write_text(
        report.render_coefficients(result.labels, result.estimates, result.std_errors),
        encoding="utf-8",
    )
    written.append(coef_path)

    for name, rep in result.reports.items():
        if "text" in run.report_formats:
            path = out_dir / f"{name}.txt"
            path.write_text(report.render_anova_text(rep), encoding="utf-8")
            written.append(path)
        if "rows" in run.report_formats:
            path = out_dir / f"{name}.tsv"
            path.write_text(report.render_anova_rows(rep), encoding="utf-8")
            written.append(path)

    if "plots" in run.report_formats:
        diag = inference.residual_diagnostics(
            SimpleNamespace(fitted=result.fitted, residuals=result.residuals)
        )
        written += report.write_diagnostic_files(diag, out_dir, ds.response_units)

    header = [
        "fit report",
        f"data: {run.data_path}",
        f"config: {run.spec_path}",
        f"model: {run.model}",
        f"alpha: {run.alpha:g}",
        "",
    ]
    summary_path = out_dir / "summary.txt"
    summary_path.write_text(
        "\n".join(header + result.summary_lines) + "\n", encoding="utf-8"
    )
    written.append(summary_path)
    return written


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = config.read_keyvalues(args.spec)
    model = args.model or config.run_default(cfg, "model") or "mlr1"
    theory = args.theory or config.run_default(cfg, "theory") or "none"
    alpha_default = config.run_default(cfg, "alpha")
    alpha = args.alpha if args.alpha is not None else (
        float(alpha_default) if alpha_default else 0.05
    )
    formats = (
        frozenset(args.format.split(",")) if args.format else frozenset(ALL_FORMATS)
    )
    run = RunConfig(
        data_path=Path(args.data),
        spec_path=Path(args.spec),
        model=model,
        theory=theory,
        alpha=alpha,
        output_dir=Path(args.out),
        report_formats=formats,
    )
    written = run_fit(run)
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    data_dir = Path(args.data_dir) if args.data_dir else None
    result = validation.run_validation(data_dir)
    text = validation.render_validation_report(result)
    print(text, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "validation_report.txt").write_text(text, encoding="utf-8")
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridfit",
        description=(
            "Fit regression models that fuse deterministic simulation output "
            "with physical experiment data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", help="append a simulated back-pressure column to a design"
    )
    p_sim.add_argument("--data", required=True, help="design table (delimited text)")
    p_sim.add_argument("--spec", required=True, help="factor/constants config file")
    p_sim.add_argument(
        "--theory", required=True, choices=("adiabatic", "isochoric"),
        help="flow model to run",
    )
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a model and write report files")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--spec", required=True)
    p_fit.add_argument(
        "--model", choices=("mlr1", "mlr2", "hybrid"),
        help="polynomial order or theory-scaled model "
        "(default from config, else mlr1)",
    )
    p_fit.add_argument(
        "--theory",
        help="theory source for model=hybrid: adiabatic, isochoric, or "
        "column:<name> to use a column of the data file",
    )
    p_fit.add_argument("--alpha", type=float, help="test level (default 0.05)")
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument(
        "--format",
        help=f"comma-separated subset of {','.join(ALL_FORMATS)} (default all)",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_val = sub.add_parser(
        "validate", help="recompute the bundled case study and check every "
        "reference number"
    )
    p_val.add_argument("--data-dir", help="directory with the bundled tables")
    p_val.add_argument("--out", help="also write validation_report.txt here")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
