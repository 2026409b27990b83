"""Independent correctness checks for the benchmark's operations.

Nothing here imports hybridfit.  The least-squares reference is
``numpy.linalg.lstsq`` on a design the checker builds itself from the input
table and spec file; the flow references are the closed-form isochoric
regimes and a direct evaluation of the adiabatic flow-equality residual.
Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

# A printed coefficient is rounded to 3 decimals, so it may sit up to half a
# unit in the last place from the exact value; on top of that the program's
# solver may differ from lstsq by roundoff, allowed at this relative size.
COEF_ROUNDING = 0.0005
COEF_REL_TOL = 1e-6

# Printed back-pressures carry 3 decimals; the exact root must lie within
# half a unit in the last place (plus a hair for ties) of the printed value.
BP_HALF_ULP = 0.0005
BP_SLACK = 1e-9
ISOCHORIC_REL_TOL = 1e-12


def read_spec(path: Path) -> dict[str, str]:
    """``key = value`` pairs, ``#`` comments stripped."""
    values = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    return lines[0].split("\t"), [ln.split("\t") for ln in lines[1:]]


def _factor_names(spec: dict[str, str]) -> list[str]:
    names: list[str] = []
    for key in spec:
        if key.startswith("factor."):
            name = key.split(".")[1]
            if name not in names:
                names.append(name)
    return names


def coded_factors(table: Path, spec_path: Path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Coded factor matrix and all columns of the table as floats."""
    spec = read_spec(spec_path)
    header, rows = read_table(table)
    cols = {h: np.array([float(r[j]) for r in rows]) for j, h in enumerate(header)}
    coded = []
    for name in _factor_names(spec):
        low = float(spec[f"factor.{name}.low"])
        high = float(spec[f"factor.{name}.high"])
        centre = float(spec.get(f"factor.{name}.center", (low + high) / 2.0))
        coded.append((cols[name] - centre) / ((high - low) / 2.0))
    return np.column_stack(coded), cols


def polynomial(x: np.ndarray, order: str) -> np.ndarray:
    """[1, x_j] for first order; second order appends squares, then the
    pairwise products in lexicographic order."""
    k = x.shape[1]
    cols = [np.ones(x.shape[0])] + [x[:, j] for j in range(k)]
    if order == "second":
        cols += [x[:, j] ** 2 for j in range(k)]
        cols += [x[:, a] * x[:, b] for a in range(k) for b in range(a + 1, k)]
    return np.column_stack(cols)


def reference_coefficients(design: np.ndarray, y: np.ndarray, z: np.ndarray | None) -> np.ndarray:
    """lstsq on X, or on the augmented [X | (z - 1) X] when z is given."""
    if z is not None:
        design = np.hstack([design, (z - 1.0)[:, None] * design])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef


def check_coefficients(path: Path, expected: np.ndarray) -> list[str]:
    header, rows = read_table(path)
    if header[:2] != ["term", "estimate"]:
        return [f"{path.name}: unexpected header {header}"]
    if len(rows) != expected.size:
        return [f"{path.name}: {len(rows)} coefficients, expected {expected.size}"]
    problems = []
    for row, ref in zip(rows, expected):
        got = float(row[1])
        tol = COEF_ROUNDING * (1 + 1e-9) + COEF_REL_TOL * max(1.0, abs(ref))
        if not abs(got - ref) <= tol:
            problems.append(f"{path.name}: {row[0]} = {got}, lstsq gives {ref:.6f}")
    return problems


# --- flow equality ----------------------------------------------------------

def gauge_constants(spec: dict[str, str]) -> dict[str, float]:
    return {
        "gamma": float(spec.get("gauge.gamma", 1.4)),
        "p_atm": float(spec.get("gauge.p_atm", 101.325)),
        "c_orifice": float(spec.get("gauge.c_orifice", 1.0)),
        "c_sensor": float(spec.get("gauge.c_sensor", 1.0)),
    }


def isochoric_backpressure(a, ps_mpa, b, k: dict[str, float]) -> np.ndarray:
    """Closed-form isochoric back-pressure (kPa).

    With the discharge coefficients folded into the areas, each of the four
    choked/subsonic regimes of orifice and sensor has an algebraic root; the
    answer is the one regime whose root is consistent with its own
    assumptions (orifice subsonic iff p >= ps/2, sensor subsonic iff
    p <= 2 pa).
    """
    a = k["c_sensor"] * np.asarray(a, dtype=float)
    b = k["c_orifice"] * np.asarray(b, dtype=float)
    ps = 1000.0 * np.asarray(ps_mpa, dtype=float)
    pa = k["p_atm"]
    lin = b * b * ps - a * a * pa
    candidates = [
        # (root, orifice subsonic?, sensor subsonic?)
        ((lin + np.sqrt(lin * lin + 4.0 * b * b * a * a * pa * pa)) / (2.0 * b * b), True, True),
        (pa + b * b * ps * ps / (4.0 * a * a * pa), False, True),
        (b * b * ps / (b * b + a * a / 4.0), True, False),
        (b * ps / a, False, False),
    ]
    out = np.full(ps.shape, np.nan)
    for root, orifice_sub, sensor_sub in candidates:
        ok = ((root >= ps / 2.0) == orifice_sub) & ((root <= 2.0 * pa) == sensor_sub)
        out = np.where(np.isnan(out) & ok, root, out)
    return out


def _flow_factor_adiabatic(r: np.ndarray, gamma: float) -> np.ndarray:
    r_crit = (2.0 / (gamma + 1.0)) ** (gamma / (gamma - 1.0))
    inner = np.maximum(r ** (2.0 / gamma) - r ** ((gamma + 1.0) / gamma), 0.0)
    subsonic = np.sqrt(gamma / (gamma - 1.0) * inner)
    choked = math.sqrt(gamma / (gamma + 1.0) * (2.0 / (gamma + 1.0)) ** (2.0 / (gamma - 1.0)))
    return np.where(r >= r_crit, subsonic, choked)


def adiabatic_residual(p, a, ps_mpa, b, k: dict[str, float]) -> np.ndarray:
    """Orifice-side minus sensor-side adiabatic flow at back-pressure p
    (kPa); strictly decreasing in p, zero at the back-pressure."""
    p = np.asarray(p, dtype=float)
    ps = 1000.0 * np.asarray(ps_mpa, dtype=float)
    g = k["gamma"]
    orifice = k["c_orifice"] * np.asarray(b) * ps * _flow_factor_adiabatic(p / ps, g)
    sensor = k["c_sensor"] * np.asarray(a) * p * _flow_factor_adiabatic(k["p_atm"] / p, g)
    return orifice - sensor


def adiabatic_backpressure(a, ps_mpa, b, k: dict[str, float]) -> np.ndarray:
    """Adiabatic back-pressure (kPa) by vectorised bisection to adjacent
    floats; used as the theory column of the reference least squares."""
    ps = 1000.0 * np.asarray(ps_mpa, dtype=float)
    lo = np.full(ps.shape, k["p_atm"])
    hi = ps.copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        positive = adiabatic_residual(mid, a, ps_mpa, b, k) > 0.0
        lo = np.where(positive, mid, lo)
        hi = np.where(positive, hi, mid)
    return 0.5 * (lo + hi)


def check_simulated(path: Path, source: Path, spec_path: Path, theory: str) -> list[str]:
    """The simulated column against the flow references; every other
    column must reproduce the input table."""
    k = gauge_constants(read_spec(spec_path))
    header, rows = read_table(path)
    src_header, src_rows = read_table(source)
    if header[: len(src_header)] != src_header or len(header) != len(src_header) + 1:
        return [f"{path.name}: header {header} does not extend {src_header}"]
    if len(rows) != len(src_rows):
        return [f"{path.name}: {len(rows)} rows, input has {len(src_rows)}"]
    got = np.array([[float(c) for c in r] for r in rows])
    src = np.array([[float(c) for c in r] for r in src_rows])
    problems = []
    if not np.array_equal(got[:, :-1], src):
        problems.append(f"{path.name}: carried columns differ from the input")
    a, ps, b, printed = got[:, 0], got[:, 1], got[:, 2], got[:, -1]
    if theory == "isochoric":
        ref = isochoric_backpressure(a, ps, b, k)
        bad = ~(np.abs(printed - ref) <= BP_HALF_ULP + BP_SLACK + ISOCHORIC_REL_TOL * ref)
    else:
        half = BP_HALF_ULP + BP_SLACK
        bad = ~(
            (adiabatic_residual(printed - half, a, ps, b, k) >= 0.0)
            & (adiabatic_residual(printed + half, a, ps, b, k) <= 0.0)
        )
    for i in np.flatnonzero(bad)[:5]:
        problems.append(f"{path.name}: row {i + 1} back-pressure {printed[i]} fails the {theory} check")
    return problems


VALIDATE_LINE = re.compile(r"case-study validation: (\d+)/(\d+) checks passed")
MIN_VALIDATION_CHECKS = 108


def check_validate(stdout: str) -> tuple[list[str], int]:
    """``validate`` must report every one of at least 108 checks passed and
    print no FAIL line; returns the problems and the passed count."""
    m = VALIDATE_LINE.search(stdout)
    if not m:
        return ["validate: no summary line"], 0
    passed, total = int(m.group(1)), int(m.group(2))
    problems = []
    if passed != total or total < MIN_VALIDATION_CHECKS:
        problems.append(f"validate: {passed}/{total} checks passed")
    n_pass = sum(1 for ln in stdout.splitlines() if ln.startswith("PASS"))
    if n_pass != passed or any(ln.startswith("FAIL") for ln in stdout.splitlines()):
        problems.append(f"validate: {n_pass} PASS lines for {passed} passed checks")
    return problems, passed
