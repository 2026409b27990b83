"""Seeded input generators for the in-process workloads.

Each generator takes the workload seed and a directory, writes a data table
and a key-value spec file there, and returns a record of what it wrote:
the seed, the generator parameters and the sha256 of every file.  The same
seed always gives byte-identical files (``random.Random`` is stable across
Python versions, and every number is written with ``repr``).

The factor ranges are those of the bundled gauge factorial design, so the
flow solvers see physically sensible operating points.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import oracle

# name, low, centre, high (natural units: mm^2, MPa, mm^2)
GAUGE_FACTORS = (
    ("A", 0.251, 0.754, 1.257),
    ("Ps", 0.199, 0.248, 0.297),
    ("B", 0.503, 0.817, 1.131),
)
P_ATM = 101.325  # kPa; the spec files pin the gauge constants explicitly


def _spec_text() -> str:
    lines = ["# Generated benchmark input: three gauge factors, response P_obs."]
    for name, low, centre, high in GAUGE_FACTORS:
        lines += [
            f"factor.{name}.low = {low!r}",
            f"factor.{name}.high = {high!r}",
            f"factor.{name}.center = {centre!r}",
        ]
    lines += [
        "response.column = P_obs",
        "response.units = kPa",
        "gauge.gamma = 1.4",
        f"gauge.p_atm = {P_ATM!r}",
        "gauge.c_orifice = 1",
        "gauge.c_sensor = 1",
    ]
    return "\n".join(lines) + "\n"


def coded(row: tuple[float, ...]) -> tuple[float, ...]:
    """Coded levels of a natural-unit row: the centre maps to 0 and the
    low/high anchors to -1/+1."""
    return tuple(
        (v - centre) / ((high - low) / 2.0)
        for v, (_, low, centre, high) in zip(row, GAUGE_FACTORS)
    )


def _write(path: Path, text: str) -> dict:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return {"path": path.name, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _uniform_row(rng: random.Random) -> tuple[float, ...]:
    return tuple(round(rng.uniform(low, high), 6) for _, low, _, high in GAUGE_FACTORS)


def fit_table(seed: int, out_dir: Path, rows: int = 3000, centre_share: float = 0.05) -> dict:
    """First-order three-factor table with replicated centre runs and a
    smooth random theory column ``z``.

    The response follows the hybrid model ``y = z * (theta . [1, x]) + e``
    with Gaussian noise, so both the hybrid and the second-order fits are
    well posed and the centre replicates carry pure error.
    """
    rng = random.Random(seed)
    theta = [200.0 + rng.uniform(-20, 20)] + [rng.uniform(-40, 40) for _ in range(3)]
    # z = z0 + linear + quadratic + interaction terms in coded units: the
    # curvature keeps (z - 1) X out of the span of X, so the augmented
    # system has full rank 8.
    z0 = rng.uniform(0.9, 1.1)
    lin = [rng.uniform(-0.1, 0.1) for _ in range(3)]
    quad = [rng.uniform(-0.08, 0.08) for _ in range(3)]
    inter = [rng.uniform(-0.05, 0.05) for _ in range(3)]
    sigma = 1.5
    n_centre = max(2, round(rows * centre_share))
    centre_rows = set(rng.sample(range(rows), n_centre))
    centre = tuple(c for _, _, c, _ in GAUGE_FACTORS)

    lines = ["A\tPs\tB\tz\tP_obs"]
    for i in range(rows):
        row = centre if i in centre_rows else _uniform_row(rng)
        x = coded(row)
        z = (
            z0
            + sum(a * v for a, v in zip(lin, x))
            + sum(q * v * v for q, v in zip(quad, x))
            + inter[0] * x[0] * x[1] + inter[1] * x[0] * x[2] + inter[2] * x[1] * x[2]
        )
        z = round(z, 9)
        mean = z * (theta[0] + sum(t * v for t, v in zip(theta[1:], x)))
        y = round(mean + rng.gauss(0.0, sigma), 6)
        lines.append("\t".join(repr(v) for v in (*row, z, y)))

    out_dir.mkdir(parents=True, exist_ok=True)
    files = [
        _write(out_dir / "fit_large.tsv", "\n".join(lines) + "\n"),
        _write(out_dir / "fit_large_spec.txt", _spec_text()),
    ]
    return {
        "generator": "fit_table",
        "seed": seed,
        "params": {
            "rows": rows,
            "centre_runs": n_centre,
            "theta": theta,
            "z0": z0,
            "z_linear": lin,
            "z_quadratic": quad,
            "z_interaction": inter,
            "noise_sd": sigma,
        },
        "files": files,
    }


def gauge_design(seed: int, out_dir: Path, rows: int = 2000, repeat_share: float = 0.25) -> dict:
    """Gauge operating points inside the bundled factor ranges; a share of
    the rows repeat an earlier row exactly, so a per-row solver cache has
    hits."""
    rng = random.Random(seed)
    n_repeat = round(rows * repeat_share)
    repeat_at = set(rng.sample(range(1, rows), n_repeat))
    points: list[tuple[float, ...]] = []
    for i in range(rows):
        points.append(points[rng.randrange(i)] if i in repeat_at else _uniform_row(rng))

    constants = {"gamma": 1.4, "p_atm": P_ATM, "c_orifice": 1.0, "c_sensor": 1.0}
    theory = oracle.isochoric_backpressure(*zip(*points), constants)
    lines = ["A\tPs\tB\tP_obs"]
    for row, p in zip(points, theory.tolist()):
        y = round(p + rng.gauss(0.0, 2.0), 3)
        lines.append("\t".join(repr(v) for v in (*row, y)))

    out_dir.mkdir(parents=True, exist_ok=True)
    files = [
        _write(out_dir / "gauge_sweep.tsv", "\n".join(lines) + "\n"),
        _write(out_dir / "gauge_sweep_spec.txt", _spec_text()),
    ]
    return {
        "generator": "gauge_design",
        "seed": seed,
        "params": {
            "rows": rows,
            "repeated_rows": n_repeat,
            "distinct_rows": len(set(points)),
            "noise_sd": 2.0,
        },
        "files": files,
    }
