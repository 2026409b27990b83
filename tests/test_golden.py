"""The text reports ``fit`` writes on the bundled case study, byte for byte.

``tests/golden/<case>/`` holds ``summary.txt`` and ``anova_table{2,3,4}.txt``
for each fit below.  The summary's ``data:`` and ``config:`` header lines
name the input paths, so both sides keep only the file name there.  The
full-precision ``.tsv`` tables, ``coefficients.tsv`` (the Box-Behnken
``x1*x2`` estimate -9.5615 is a rounding tie) and the SVG plots are left out:
their last digits depend on the BLAS build.

To regenerate after an intended change of output, run each ``fit`` below
with ``--format text`` and copy the four files, with the two header lines
reduced to file names.
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
