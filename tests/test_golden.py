"""The reports ``fit`` and ``simulate`` write on the bundled case study,
byte for byte.

``tests/golden/<case>/`` holds ``summary.txt`` and ``anova_table{2,3,4}.txt``
for each fit below.  The summary's ``data:`` and ``config:`` header lines
name the input paths, so both sides keep only the file name there.  The
full-precision ANOVA ``.tsv`` tables and ``coefficients.tsv`` (the
Box-Behnken ``x1*x2`` estimate -9.5615 is a rounding tie) are left out:
their last digits depend on the BLAS build.

The per-row files are pinned too: the residual point files and SVG plots of
``hybrid_adiabatic`` and ``mlr2``, and ``simulate``'s ``simulated.tsv`` for
both theories (``tests/golden/simulate_<theory>/``).  The points print at six
decimals and the circles at two, and every value sits at least 8e-4 of a
last printed digit from a rounding tie, far beyond what a BLAS build moves.

``validate``'s ``validation_report.txt`` is pinned whole
(``tests/golden/validate/``).  It prints each computed value at eight
significant digits; the one nearest a rounding tie is ``mlr2.f_lack_of_fit``
(85.80904), 0.031 of a last printed digit from it, far beyond what a BLAS
build moves.

To regenerate after an intended change of output, run each ``fit`` below
and copy the files named here, with the two header lines reduced to file
names, run ``simulate`` on the factorial design for each theory, and run
``validate --data-dir data --out tests/golden/validate``.
"""

from pathlib import Path

import pytest

from hybridfit.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FILES = ("summary.txt", "anova_table2.txt", "anova_table3.txt", "anova_table4.txt")
CASES = {
    "mlr1": ("gauge_factorial", ["--model", "mlr1"]),
    "mlr2": ("gauge_boxbehnken", ["--model", "mlr2"]),
    "hybrid_column_P_adiabatic": (
        "gauge_factorial", ["--model", "hybrid", "--theory", "column:P_adiabatic"]
    ),
    "hybrid_column_P_isochoric": (
        "gauge_factorial", ["--model", "hybrid", "--theory", "column:P_isochoric"]
    ),
    "hybrid_adiabatic": (
        "gauge_factorial", ["--model", "hybrid", "--theory", "adiabatic"]
    ),
    "hybrid_isochoric": (
        "gauge_factorial", ["--model", "hybrid", "--theory", "isochoric"]
    ),
}


def normalised(text: str) -> str:
    """``text`` with the input paths of the summary header cut to file names."""
    lines = []
    for line in text.split("\n"):
        key, sep, value = line.partition(": ")
        if sep and key in ("data", "config"):
            line = f"{key}: {Path(value).name}"
        lines.append(line)
    return "\n".join(lines)


@pytest.mark.parametrize("case", sorted(CASES))
def test_text_reports_match_golden(case, data_dir, tmp_path):
    basename, flags = CASES[case]
    out = tmp_path / case
    rc = main([
        "fit",
        "--data", str(data_dir / f"{basename}.tsv"),
        "--spec", str(data_dir / f"{basename}_spec.txt"),
        *flags,
        "--format", "text",
        "--out", str(out),
    ])
    assert rc == 0
    for name in FILES:
        fresh = normalised((out / name).read_bytes().decode("utf-8"))
        assert fresh.encode("utf-8") == (GOLDEN_DIR / case / name).read_bytes(), name


PER_ROW_FILES = tuple(
    f"residuals_{plot}.{ext}" for plot in ("normal", "fitted") for ext in ("tsv", "svg")
)


@pytest.mark.parametrize("case", ["hybrid_adiabatic", "mlr2"])
def test_residual_plots_match_golden(case, data_dir, tmp_path):
    basename, flags = CASES[case]
    out = tmp_path / case
    rc = main([
        "fit",
        "--data", str(data_dir / f"{basename}.tsv"),
        "--spec", str(data_dir / f"{basename}_spec.txt"),
        *flags,
        "--format", "plots",
        "--out", str(out),
    ])
    assert rc == 0
    for name in PER_ROW_FILES:
        assert (out / name).read_bytes() == (GOLDEN_DIR / case / name).read_bytes(), name


@pytest.mark.parametrize("theory", ["adiabatic", "isochoric"])
def test_simulated_table_matches_golden(theory, data_dir, tmp_path):
    rc = main([
        "simulate",
        "--data", str(data_dir / "gauge_factorial.tsv"),
        "--spec", str(data_dir / "gauge_factorial_spec.txt"),
        "--theory", theory,
        "--out", str(tmp_path),
    ])
    assert rc == 0
    golden = GOLDEN_DIR / f"simulate_{theory}" / "simulated.tsv"
    assert (tmp_path / "simulated.tsv").read_bytes() == golden.read_bytes()


def test_validation_report_matches_golden(data_dir, tmp_path):
    assert main(["validate", "--data-dir", str(data_dir), "--out", str(tmp_path)]) == 0
    golden = GOLDEN_DIR / "validate" / "validation_report.txt"
    assert (tmp_path / "validation_report.txt").read_bytes() == golden.read_bytes()
