"""Command-line surface: simulate, fit, validate.

The spec file describes the data; the flags choose what to do with it.
Each command is argument parsing, one :func:`hybridfit.config.load_case`
(which reads the spec, then reads and splits the data file once, refusing
a ragged row for every command alike, and loads it), one call into the
library, and one call of :func:`write_files`, the one writer of output
files.  ``simulate`` runs a flow solver over a design file and writes the
split table's header and rows, tab-separated with each cell as read, with
the computed back-pressure column appended.  ``fit`` has
:func:`hybridfit.analysis.theory_column` check its model, theory and alpha
flags and checks ``--format`` itself before it reads a file, runs
:func:`hybridfit.analysis.analyze`, and writes each file (``summary.txt``
last) as :mod:`hybridfit.report` renders it from its result.  ``validate``
runs :func:`hybridfit.validation.run_validation`, which checks the same
``analyze`` results against the bundled case study's reference numbers.
All outputs are deterministic: identical inputs give byte-identical files.

Each command imports the layers it runs when it runs, so ``--help`` loads
no numpy, ``simulate`` loads neither ``hybrid`` nor the analysis, inference
or validation layer, and ``fit`` does not load validation.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Iterable
from pathlib import Path

from .errors import AnalysisError

ALL_FORMATS = ("text", "rows", "plots")
# The keys of hybridfit.analysis.ORDERS and hybridfit.gauge.THEORIES, spelled
# out so that building the parser loads no numerical layer.
MODELS = ("mlr1", "mlr2", "hybrid")
THEORIES = ("adiabatic", "isochoric")


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def write_files(out: str | Path, files: Iterable[tuple[str, str]]) -> list[Path]:
    """Make the directory ``out`` and write each ``(file name, text)`` pair
    of ``files`` into it as UTF-8, in the order given; the paths written.

    An error while making the directory or writing a file, a full disk
    included, is an :class:`AnalysisError` naming that path.
    """
    out_dir = path = Path(out)
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files:
            path = out_dir / name
            path.write_text(text, encoding="utf-8")
            written.append(path)
    except OSError as exc:
        raise AnalysisError(f"cannot write {exc.filename or path}: {exc.strerror}") from None
    return written


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    from . import config, gauge, report

    cfg, table, ds = config.load_case(args.data, args.spec)

    constants, defaulted = config.gauge_constants(cfg)
    backpressures = gauge.simulate_design(ds, args.theory, constants)

    column = f"P_{args.theory}"
    while column in table.header:
        column += "_sim"
    text = report.append_column("\t".join(table.header), table.rows, column, backpressures)
    [out_path] = write_files(args.out, [("simulated.tsv", text)])

    print(report.constants_line(constants, defaulted))
    print(f"wrote {out_path} with back-pressure column {column!r} ({args.theory})")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def report_formats(flag: str | None) -> set[str]:
    """The report formats a ``--format`` value names; all of them when unset."""
    formats = set(ALL_FORMATS) if flag is None else set(flag.split(","))
    unknown = formats - set(ALL_FORMATS)
    if unknown:
        raise AnalysisError(f"unknown report formats: {sorted(unknown)}")
    return formats


def cmd_fit(args: argparse.Namespace) -> int:
    from . import analysis, config, inference, report

    # every flag is checked before any file is read
    column = analysis.theory_column(args.model, args.theory, args.alpha)
    formats = report_formats(args.format)

    extras = () if column is None else (column,)
    cfg, _, ds = config.load_case(args.data, args.spec, extras)
    result = analysis.analyze(ds, cfg, args.model, args.theory, args.alpha)

    def files():
        yield "coefficients.tsv", report.render_coefficients(
            result.labels, result.coef, result.std_errors
        )
        for name, rep in report.anova_tables(result).items():
            if "text" in formats:
                yield f"{name}.txt", report.render_anova_text(rep)
            if "rows" in formats:
                yield f"{name}.tsv", report.render_anova_rows(rep)
        if "plots" in formats:
            diag = inference.residual_diagnostics(result.fit)
            yield from report.diagnostic_files(diag, ds.response_units)
        yield "summary.txt", report.summary_text(result, args.data, args.spec)

    # each file is written as it is rendered
    for path in write_files(args.out, files()):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    from . import validation

    # an empty value is a flag given, refused before any file is read
    for flag, value in (("--data-dir", args.data_dir), ("--out", args.out)):
        if value == "":
            raise AnalysisError(f"{flag} needs a directory, got an empty value")
    result = validation.run_validation(args.data_dir)
    text = validation.render_validation_report(result)
    print(text, end="")
    if args.out is not None:
        write_files(args.out, [("validation_report.txt", text)])
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each argument builds
    a help formatter, which looks up the terminal size."""
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
        "--theory", required=True, choices=THEORIES,
        help="flow model to run",
    )
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a model and write report files")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--spec", required=True)
    p_fit.add_argument(
        "--model", choices=MODELS, default="mlr1",
        help="polynomial order or theory-scaled model (default mlr1)",
    )
    p_fit.add_argument(
        "--theory",
        help="theory source for model=hybrid: adiabatic, isochoric, or "
        "column:<name> to use a column of the data file",
    )
    p_fit.add_argument(
        "--alpha", type=float, default=0.05, help="test level (default 0.05)"
    )
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
