#!/usr/bin/env python3
"""Reproduce the pneumatic-gauge case study end to end.

Runs both flow simulations over the factorial design, fits all four models
(first- and second-order plain polynomials, adiabatic and isochoric
theory-scaled), writes every report under --out, and finishes with the
reference-value validation.  Exit status is nonzero if validation fails.
"""

import argparse
import sys
from pathlib import Path

from hybridfit.cli import main as hybridfit_main

REPO = Path(__file__).resolve().parents[1]


def run(argv: list[str]) -> None:
    print(f"$ hybridfit {' '.join(argv)}")
    rc = hybridfit_main(argv)
    if rc != 0:
        sys.exit(rc)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default=str(REPO / "data"))
    parser.add_argument("--out", default=str(REPO / "out"))
    args = parser.parse_args(argv)

    data_dir = Path(args.data_dir)
    out = Path(args.out)
    factorial = str(data_dir / "gauge_factorial.tsv")
    factorial_spec = str(data_dir / "gauge_factorial_spec.txt")
    boxbehnken = str(data_dir / "gauge_boxbehnken.tsv")
    boxbehnken_spec = str(data_dir / "gauge_boxbehnken_spec.txt")

    for theory in ("adiabatic", "isochoric"):
        run([
            "simulate", "--data", factorial, "--spec", factorial_spec,
            "--theory", theory, "--out", str(out / f"simulate_{theory}"),
        ])

    run(["fit", "--data", factorial, "--spec", factorial_spec,
         "--model", "mlr1", "--out", str(out / "fit_mlr1")])
    run(["fit", "--data", boxbehnken, "--spec", boxbehnken_spec,
         "--model", "mlr2", "--out", str(out / "fit_mlr2")])
    for theory in ("adiabatic", "isochoric"):
        run(["fit", "--data", factorial, "--spec", factorial_spec,
             "--model", "hybrid", "--theory", f"column:P_{theory}",
             "--out", str(out / f"fit_hybrid_{theory}")])

    print("$ hybridfit validate ...")
    return hybridfit_main([
        "validate", "--data-dir", str(data_dir), "--out", str(out / "validate"),
    ])


if __name__ == "__main__":
    sys.exit(main())
