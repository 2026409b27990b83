"""Command-line surface: simulate, fit, validate.

Each command is argument parsing, :func:`hybridfit.config.load_case`, one
call into the library, and file writing.  ``simulate`` runs a flow solver
over a design file and appends the computed back-pressure column.  ``fit``
runs :func:`hybridfit.analysis.analyze` for one of the three models and
writes the coefficient, ANOVA, summary, and residual-plot files that
:mod:`hybridfit.report` renders from its result.  ``validate`` runs
:func:`hybridfit.validation.run_validation`, which checks the same
``analyze`` results against the bundled case study's reference numbers.
All outputs are deterministic: identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import analysis, config, dataset, gauge, inference, report, validation
from .errors import AnalysisError

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
        if not 0.0 < self.alpha < 1.0:
            raise AnalysisError(f"alpha must lie in (0, 1), got {self.alpha}")
        unknown = self.report_formats - set(ALL_FORMATS)
        if unknown:
            raise AnalysisError(f"unknown report formats: {sorted(unknown)}")


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
    ds, _ = config.load_case(args.data, args.spec, extras)

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

    print(report.constants_line(constants, defaulted))
    print(f"wrote {out_path} with back-pressure column {column!r} ({args.theory})")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def run_fit(run: RunConfig) -> list[Path]:
    """Execute a fit and write its report files; returns the paths written."""
    extras: tuple[str, ...] = ()
    if run.theory.startswith("column:"):
        extras = (run.theory.split(":", 1)[1],)
    ds, cfg = config.load_case(run.data_path, run.spec_path, extras)
    result = analysis.analyze(ds, cfg, run.model, run.theory, run.alpha)

    out_dir = run.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    coef_path = out_dir / "coefficients.tsv"
    coef_path.write_text(
        report.render_coefficients(result.labels, result.coef, result.std_errors),
        encoding="utf-8",
    )
    written.append(coef_path)

    for name, rep in report.anova_tables(result).items():
        if "text" in run.report_formats:
            path = out_dir / f"{name}.txt"
            path.write_text(report.render_anova_text(rep), encoding="utf-8")
            written.append(path)
        if "rows" in run.report_formats:
            path = out_dir / f"{name}.tsv"
            path.write_text(report.render_anova_rows(rep), encoding="utf-8")
            written.append(path)

    if "plots" in run.report_formats:
        diag = inference.residual_diagnostics(result.fit)
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
        "\n".join(header + report.summary_lines(result)) + "\n", encoding="utf-8"
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
        "--model", choices=tuple(analysis.ORDERS),
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
