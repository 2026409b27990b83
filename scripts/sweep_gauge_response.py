#!/usr/bin/env python3
"""Sweep the gauge solvers over sensor area and supply pressure.

Writes a point file per flow model (back-pressure vs sensor area at several
supply pressures) plus an SVG of the adiabatic response curve.  Useful for
eyeballing the back-pressure/clearance relation the regression models sit on.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from hybridfit.gauge import GaugeConstants, solve_backpressures
from hybridfit.report import scatter_svg

SVG_SUPPLY = 0.248  # MPa; the supply pressure of the plotted curve


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/gauge_sweep")
    parser.add_argument("--orifice-area", type=float, default=0.817)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    constants = GaugeConstants()
    areas = np.linspace(0.15, 1.6, 60)
    supplies = (0.199, SVG_SUPPLY, 0.297)
    grid = np.array([(a, ps, args.orifice_area) for ps in supplies for a in areas])

    models = ("adiabatic", "isochoric")
    pressures = {name: solve_backpressures(name, grid, constants) for name in models}
    for name, values in pressures.items():
        lines = ["area_sensor\tpressure_supply\tbackpressure"]
        lines += [f"{a:.6f}\t{ps:.3f}\t{p:.3f}" for (a, ps, _), p in zip(grid, values)]
        path = out / f"sweep_{name}.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path}")

    curve = grid[:, 1] == SVG_SUPPLY
    svg = out / "sweep_adiabatic.svg"
    svg.write_text(
        scatter_svg(
            grid[curve, 0],
            pressures["adiabatic"][curve],
            "sensor area (mm^2)",
            "back-pressure (kPa)",
            f"Adiabatic back-pressure vs sensor area (Ps = {SVG_SUPPLY} MPa)",
        ),
        encoding="utf-8",
    )
    print(f"wrote {svg}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
