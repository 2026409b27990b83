"""Each accepted root against the exact flow equality.

The flow equality of both theories is evaluated here in 50-digit `decimal`
arithmetic, with no code shared with `hybridfit.gauge`: `decimal` powers are
rounded at the context precision, and its exponent range holds the square of
a 1e300 flow.  Both flows are non-negative, so the residual's sign is that of
the difference of the squared flows, and no square root is taken.  The
inputs are the doubles the solver uses (the supply is the float
``supply * 1000.0`` kPa, not the decimal product), so only the solver's
rounding separates its root from the exact one.

Run as a script, this module bisects the exact residual of both theories to
a width far below an ulp on a larger seeded row set, prints the largest
distance of the solver's root from the exact root in ulps, and exits 1 if
it exceeds ``K_ULPS``.  It then does the same for the adiabatic roots of
250 rows whose sensor ratio is within 1e-12 of critical, where some roots
are more than ``K_ULPS`` ulps off, and exits 1 if one is more than
``NEAR_CRITICAL_ULPS`` off:

    PYTHONPATH=src python tests/test_exact_roots.py
"""

import decimal
import sys
from decimal import Decimal

import numpy as np
import pytest

from hybridfit import gauge
from hybridfit.dataset import identical_rows
from hybridfit.gauge import GaugeConstants
from test_gauge import (gauge_sweep_rows, near_atm_rows, near_critical_rows, tiny_sensor_rows,
                        wide_rows)

DEFAULTS = GaugeConstants()
EXACT = decimal.Context(prec=50, Emax=10**6, Emin=-10**6)

# The accepted roots of the gated row sets lie within K_ULPS ulps of the
# exact root.  Each computed flow carries a handful of roundings (a power, a
# square root and three products), so the computed residual changes sign a
# few ulps from where the exact one does, and a bisected root is 1 ulp from
# its computed sign change.  The largest distance measured, on these rows,
# the script's and 300 more bundled-range rows, is 3.73 ulps (adiabatic),
# and at 3 ulps one wide row here fails, so 4 is the smallest whole count
# that holds; it is also ROOT_ULPS, the window in which the solvers accept a
# sign change of the computed residual.  It is not a bound on every root:
# on the first 250 rows whose sensor ratio is within 1e-12 of critical the
# largest adiabatic distance measured is 4.47 ulps (5.34 when every bracket
# started at [p_atm, supply]), so the script gates those rows at
# NEAR_CRITICAL_ULPS, a whole count above both.
K_ULPS = 4
NEAR_CRITICAL_ULPS = 6


def exact_residual(model, point, p):
    """The sign-carrying difference of the squared orifice-side and
    sensor-side flows at back-pressure p (kPa, a float or a Decimal), for
    the operating point (sensor area mm^2, supply MPa, orifice area mm^2),
    with the default gauge constants."""
    area_sensor, supply, area_orifice = point
    k = DEFAULTS
    with decimal.localcontext(EXACT):
        a, b = Decimal(k.c_sensor * area_sensor), Decimal(k.c_orifice * area_orifice)
        ps, p_atm, p = Decimal(supply * 1000.0), Decimal(k.p_atm), Decimal(p)
        if model == "adiabatic":
            gamma = Decimal(k.gamma)
            return ((b * ps) ** 2 * _adiabatic_squared(p / ps, gamma)
                    - (a * p) ** 2 * _adiabatic_squared(p_atm / p, gamma))
        return b * b * _isochoric_squared(ps, p) - a * a * _isochoric_squared(p, p_atm)


def _adiabatic_squared(r, gamma):
    """The squared adiabatic flow factor at pressure ratio r in (0, 1]: the
    subsonic formula down to the critical ratio, the choked constant below."""
    critical = (2 / (gamma + 1)) ** (gamma / (gamma - 1))
    if r >= critical:
        return gamma / (gamma - 1) * (r ** (2 / gamma) - r ** ((gamma + 1) / gamma))
    return gamma / (gamma + 1) * (2 / (gamma + 1)) ** (2 / (gamma - 1))


def _isochoric_squared(p_up, p_down):
    """The squared isochoric flow factor, choked below a ratio of one half."""
    if 2 * p_down >= p_up:
        return p_down * (p_up - p_down)
    return p_up * p_up / 4


ROW_SETS = {
    "near_atm": lambda rng: near_atm_rows(rng, 300),
    "tiny_sensor": lambda rng: tiny_sensor_rows(rng, 300),
    "wide": lambda rng: wide_rows(rng, 6000)[:1000],
}


@pytest.mark.parametrize("rows", ROW_SETS.values(), ids=ROW_SETS.keys())
@pytest.mark.parametrize("model", ["adiabatic", "isochoric"])
def test_exact_residual_changes_sign_near_each_root(model, rows):
    """The exact residual is >= 0 at K_ULPS ulps below each root and <= 0 at
    K_ULPS ulps above it, each end held within [p_atm, supply]."""
    points = rows(np.random.default_rng(17))
    roots = gauge.solve_backpressures(model, points, DEFAULTS)
    window = K_ULPS * np.spacing(roots)
    lo = np.fmax(roots - window, DEFAULTS.p_atm)
    hi = np.fmin(roots + window, points[:, 1] * 1000.0)
    assert [i for i, point in enumerate(points)
            if not (exact_residual(model, point, lo[i]) >= 0
                    and exact_residual(model, point, hi[i]) <= 0)] == []


def exact_root(model, point):
    """The root of the exact residual on [p_atm, supply], bisected in
    decimal until the bracket is under 1e-25 of its lower end wide."""
    with decimal.localcontext(EXACT):
        lo, hi = Decimal(DEFAULTS.p_atm), Decimal(point[1] * 1000.0)
        while hi - lo > lo * Decimal("1e-25"):
            mid = (lo + hi) / 2
            if exact_residual(model, point, mid) >= 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def root_errors(model, points):
    """Print the largest and the 99th-percentile distance in ulps of the
    solver's roots from the exact roots, and return the largest."""
    roots = gauge.solve_backpressures(model, points, DEFAULTS)
    with decimal.localcontext(EXACT):
        errors = [float(abs(Decimal(p) - exact_root(model, point)) / Decimal(np.spacing(p)))
                  for point, p in zip(points, roots)]
    i = int(np.argmax(errors))
    print(f"{model}: {len(points)} rows, largest root error {errors[i]:.2f} ulps "
          f"(row {i + 1}: {points[i].tolist()}), 99th percentile "
          f"{np.percentile(errors, 99):.2f} ulps")
    return errors[i]


def main():
    """Print, per theory, the largest distance in ulps of the solver's root
    from the exact root over the script's row set, then the adiabatic one
    over the first 250 near-critical rows (rng 17); 1 if any of the first
    exceeds K_ULPS or the last NEAR_CRITICAL_ULPS."""
    rng = np.random.default_rng(29)
    sweep = gauge_sweep_rows(29)
    points = np.vstack([sweep[identical_rows(sweep)[0]][:100], near_atm_rows(rng, 50),
                        tiny_sensor_rows(rng, 50), wide_rows(rng, 100)])
    worst = max(root_errors(model, points) for model in ("adiabatic", "isochoric"))
    print("near-critical rows:", end=" ")
    near = root_errors("adiabatic", near_critical_rows(np.random.default_rng(17), 2000)[:250])
    return 0 if worst <= K_ULPS and near <= NEAR_CRITICAL_ULPS else 1


if __name__ == "__main__":
    sys.exit(main())
