"""Deterministic pneumatic-gauge simulators.

A jet of air flows from a supply chamber through an orifice of area B, then
out of a nozzle whose effective exit area A is set by the nozzle-to-workpiece
clearance.  In steady state the weight flow rates through the two restrictors
are equal, which pins the back-pressure between them.  Both flow
idealizations solve that one equality, each with its own flow factor of a
pressure ratio, over arrays of operating points on the exact interval
[p_atm, supply]: the isochoric one in closed form, the adiabatic one by
Newton steps from the isochoric root, then bisecting all points in lockstep.
Both accept a root by one rule, a sign change of the computed residual next
to it, so they refuse the same rows.  :func:`solve_backpressures` is the one
solver entry point; a single operating point is a one-row array.

The sqrt(2g/RT) factor common to both sides of the flow equality cancels, so
gravity, the gas constant, and temperature never enter.  Only the products of
discharge coefficient and area matter, in any common unit (mm^2 in the
bundled data).  Supply pressure is absolute MPa; all other pressures are kPa.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import AnalysisError, InconsistencyError, ShapeError
from .tolerances import BRACKET_ULPS, ROOT_ULPS

_NEWTON_STEPS = 4  # from the isochoric root toward the adiabatic one

_INPUT_NAMES = ("area_sensor", "pressure_supply", "area_orifice")


class _GaugeConstantsFields(NamedTuple):
    gamma: float = 1.4          # ratio of specific heats (diatomic air)
    p_atm: float = 101.325      # outlet (atmosphere) pressure, kPa
    c_orifice: float = 1.0
    c_sensor: float = 1.0


class GaugeConstants(_GaugeConstantsFields):
    """Physical constants and discharge coefficients for the flow solvers."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.gamma > 1.0:
            raise AnalysisError(f"gamma must exceed 1, got {self.gamma}")
        if not self.p_atm > 0.0:
            raise AnalysisError(f"p_atm must be positive, got {self.p_atm}")
        for name in ("c_orifice", "c_sensor"):
            c = getattr(self, name)
            if not 0.0 < c <= 1.0:
                raise AnalysisError(f"{name} must lie in (0, 1], got {c}")
        return self


def critical_pressure_ratio(gamma: float) -> float:
    """The pressure ratio where the adiabatic flow factor peaks; below it, flow chokes."""
    return (2.0 / (gamma + 1.0)) ** (gamma / (gamma - 1.0))


def _adiabatic_factor(r, gamma: float, slope: bool = False):
    """The adiabatic flow factor at pressure ratios ``r`` in [0, 1], and with
    ``slope`` the pair (factor, its derivative in r).  Clamping r up to the
    critical ratio chokes the one subsonic formula (r = 0, an underflowed
    ratio, too), and with u = r^(1/gamma) its G = r^(2/gamma) -
    r^((gamma+1)/gamma) is u (u - r).  The slope is gamma/(gamma-1) G' /
    (2 factor) with G' = u (2u - r) / (gamma r) - u at the clamped ratio: 0
    at critical, so 0 up to rounding where choked."""
    c = np.maximum(r, critical_pressure_ratio(gamma))
    u = np.power(c, 1.0 / gamma)
    # u >= r exactly, but a power rounded low can make u (u - r) negative
    factor = np.sqrt(np.maximum(u * (u - c), 0.0) * (gamma / (gamma - 1.0)))
    if not slope:
        return factor
    g = (u * 2.0 - c) * u / (gamma * c) - u
    return factor, g * (gamma / (2.0 * (gamma - 1.0))) / factor


def _isochoric_factor(r) -> np.ndarray:
    """The isochoric flow factor at pressure ratios ``r`` in [0, 1]:
    sqrt(c (1 - c)) at c = max(r, 1/2), so the flow chokes below a ratio of
    one half at its value there."""
    c = np.maximum(r, 0.5)
    return np.sqrt((1.0 - c) * c)


def _bisect(residual, lo, hi) -> None:
    """Bisect in place, in lockstep, every row's bracket [lo, hi] with
    0 <= lo < hi, where the residual is >= 0 at lo and <= 0 at hi, until it
    collapses to adjacent floats or hits an exact zero (then lo = hi).  Only
    the sign of the residual at each midpoint is read, never a product of two
    residuals, which would underflow to zero for tiny ones.  The solver's
    brackets lie within [p_atm, ps] of rows whose inputs were checked before
    the solve, and ``GaugeConstants`` checks that p_atm > 0.

    Non-negative doubles sort as their int64 bit patterns, so the midpoint is
    taken on the float order: lo + (hi - lo) // 2 in those patterns, which
    halves the count of floats left in the bracket, subnormals included.  A
    bracket of n spacings reaches adjacent floats in ceil(log2(n)) steps, at
    most 63, so the loop runs the widest bracket's count, known before it
    starts.  A closed bracket is a fixed point of the update, so no row is
    masked out: at adjacent floats the midpoint is lo, where the residual is
    >= 0 and only lo moves, to itself; lo = hi gives lo.
    """
    lo_bits, hi_bits = lo.view(np.int64), hi.view(np.int64)
    widest = int(np.max(hi_bits - lo_bits, initial=1))
    for _ in range((widest - 1).bit_length()):
        mid = (lo_bits + ((hi_bits - lo_bits) >> 1)).view(np.float64)
        value = residual(mid)
        # hi moves where the residual at mid is <= 0, lo where it is >= 0
        # (or NaN); both, to mid, at a root
        np.putmask(hi, value <= 0.0, mid)
        np.putmask(lo, ~(value < 0.0), mid)


def _isochoric_root(ps, a, b, p_atm) -> np.ndarray:
    """Closed-form isochoric back-pressure at areas a, b in [0, 1], the
    larger of them 1.  The residual b ps F(p/ps) - a p F(p_atm/p) falls
    strictly as p rises, so its sign at the two choke points says which
    restrictors are choked at the root: the orifice where it is negative at
    ps/2, the sensor where it is positive at 2 p_atm.  Both flows there are
    multiples of G = F(min(2 p_atm / ps, 1)), and the root is that
    regime's (orifice, sensor each subsonic or choked at ratio 1/2).  No
    intermediate squares a pressure: the orifice chokes only where a > 2b,
    so a = 1 in both its regimes; where the sensor alone chokes,
    a / (2b) <= 1; where neither does, ps <= 4 p_atm, and a squared area
    that underflows leaves the root at its limit."""
    c = np.clip(2.0 * p_atm / ps, 0.5, 1.0)
    g = np.sqrt(c * (1.0 - c))
    orifice, a2, b2 = b * ps, a * a, b * b  # orifice: its flow over its factor
    orifice_choked, sensor_choked = a * g > b, orifice * g > a * p_atm
    lin = b2 * ps - a2 * p_atm
    disc = np.hypot(lin, 2.0 * a * b * p_atm)
    return np.select(
        [orifice_choked & sensor_choked, orifice_choked, sensor_choked],
        [orifice, p_atm + orifice * (0.25 * orifice / p_atm), ps / (1.0 + (0.5 * a / b) ** 2)],
        # both subsonic: the positive root of b2 p^2 - lin p - a2 p_atm^2 = 0,
        # without cancellation
        np.where(lin >= 0.0, (lin + disc) / (2.0 * b2), p_atm * (2.0 * a2 * p_atm / (disc + np.abs(lin)))),
    )


# With the areas over the larger, no flow overflows.  The closed-form
# candidates the regime test does not pick and Newton steps at a zero slope
# divide by 0 or overflow, and none of them needs a warning.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_backpressures(model: str, points, constants: GaugeConstants) -> np.ndarray:
    """Back-pressures (kPa) in [p_atm, supply] balancing orifice and sensor
    flow at each row (sensor area mm^2, supply MPa, orifice area mm^2) of
    ``points``.  Every row is checked before any is solved, for positive
    inputs and a supply finite in kPa and above p_atm; the earliest row that
    fails raises :class:`AnalysisError`.  Both theories solve one residual,
    orifice-side minus sensor-side flow, b ps F(p/ps) - a p F(p_atm/p), with
    the areas over the larger of them and F the theory's flow factor.  It is
    >= 0 at p_atm, where the sensor flow is 0, and <= 0 at the supply, where
    the orifice flow is, so [p_atm, supply] brackets every root.  The
    adiabatic bisection starts from ``BRACKET_ULPS`` floats each way of a
    Newton root, from the isochoric one, where the residual is >= 0 at the
    lower end and <= 0 at the upper, else from [p_atm, supply].  A root is
    accepted when its flows are finite and the residual is >= 0 at lo and
    <= 0 at hi: the final bisection bracket (adiabatic), or the closed-form
    root widened by ``ROOT_ULPS`` ulps each way within [p_atm, supply]
    (isochoric).  Otherwise :class:`InconsistencyError` names the window and
    both residuals of the earliest such row.  Errors name the i-th row of
    ``points`` ``row i``.

    A row's root depends on that row alone, not on where it stands or what
    else is solved with it: every pass is elementwise, the Newton step count
    is fixed, and a closed bracket is a fixed point of the bisection.  So
    identical rows get bit-identical roots in one call or in many."""
    if model not in ("adiabatic", "isochoric"):
        raise AnalysisError(f"unknown gauge model {model!r}")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ShapeError(f"operating points must be n x 3, got shape {points.shape}")
    p_atm, gamma = constants.p_atm, constants.gamma
    scaled = [constants.c_sensor, 1000.0, constants.c_orifice] * points
    nonpositive, low_supply = ~(points > 0.0), ~(scaled[:, 1] > p_atm)
    refused = nonpositive.any(axis=1) | low_supply | (scaled[:, 1] == np.inf)
    if refused.any():
        i = int(np.argmax(refused))
        if nonpositive[i].any():
            message = "{} must be positive, got {}".format(
                *next((n, v) for n, v in zip(_INPUT_NAMES, points[i]) if not v > 0.0))
        elif low_supply[i]:
            message = f"supply pressure {scaled[i, 1]} kPa must exceed outlet pressure {p_atm} kPa"
        else:
            message = f"supply pressure {points[i, 1]} MPa overflows in kPa"
        raise AnalysisError(f"row {i + 1}: {message}")
    a, ps, b = scaled.T
    larger = np.fmax(a, b)
    a, b = a / larger, b / larger
    orifice_scale = b * ps

    def ratios(p):
        """p / ps and p_atm / p, in [0, 1] (0 where p_atm / p underflows),
        stacked ahead of the shape of p (n or k x n)."""
        out = np.empty((2,) + p.shape)
        np.divide(p, ps, out=out[0])
        np.divide(p_atm, p, out=out[1])
        return out

    def residual(p):
        """Orifice- minus sensor-side flow at back-pressures p in [p_atm, ps],
        from one flow-factor pass over both ratios."""
        factor = (_adiabatic_factor(ratios(p), gamma) if model == "adiabatic"
                  else _isochoric_factor(ratios(p)))
        return orifice_scale * factor[0] - (a * p) * factor[1]

    root = np.fmin(np.fmax(_isochoric_root(ps, a, b, p_atm), p_atm), ps)  # NaN -> p_atm
    if model == "adiabatic":
        # Newton from the isochoric root; a step not finite leaves its row
        for _ in range(_NEWTON_STEPS):
            r = ratios(root)
            factor, slope = _adiabatic_factor(r, gamma, slope=True)
            value = orifice_scale * factor[0] - (a * root) * factor[1]
            step = root - value / (b * slope[0] - a * (factor[1] - r[1] * slope[1]))
            root = np.where(np.isfinite(step), np.fmin(np.fmax(step, p_atm), ps), root)
        # BRACKET_ULPS floats each way of it where their signs bracket a root,
        # else [p_atm, ps]
        bits = root.view(np.int64)
        ends = np.stack([np.maximum(bits - BRACKET_ULPS, np.array(p_atm).view(np.int64)),
                         np.minimum(bits + BRACKET_ULPS, ps.view(np.int64))]).view(np.float64)
        r_lo, r_hi = residual(ends)
        lo, hi = np.where((r_lo >= 0.0) & (r_hi <= 0.0), ends, [np.full_like(ps, p_atm), ps])
        _bisect(residual, lo, hi)
        r_lo, r_hi = residual(np.stack([lo, hi]))
        take_hi = np.abs(r_hi) < np.abs(r_lo)
        root, r_root = np.where(take_hi, hi, lo), np.where(take_hi, r_hi, r_lo)
    else:
        ulps = ROOT_ULPS * np.spacing(root)
        lo, hi = np.fmax(root - ulps, p_atm), np.fmin(root + ulps, ps)
        r_lo, r_hi, r_root = residual(np.stack([lo, hi, root]))
    # the one acceptance rule, for both theories: finite flows at the root
    # (a finite residual there), a residual >= 0 at lo and <= 0 at hi
    uncertified = ~(np.isfinite(r_root) & (r_lo >= 0.0) & (r_hi <= 0.0))
    if uncertified.any():
        i = int(np.argmax(uncertified))
        raise InconsistencyError(
            f"row {i + 1}: flow equality has no certified root: residual {r_lo[i]:.6g} at "
            f"{lo[i]:.17g} kPa and {r_hi[i]:.6g} at {hi[i]:.17g} kPa")
    return root


def simulate_design(ds: Dataset, model: str, constants: GaugeConstants) -> np.ndarray:
    """Back-pressure (kPa) of the chosen flow solver at every row of the design.

    The dataset's factors must be (sensor area mm^2, supply pressure MPa,
    orifice area mm^2) in that order: a factor with a low level at or below
    zero is refused up front.  Every row is solved where it stands, in one
    :func:`solve_backpressures` call, whose roots depend on each row alone,
    so identical rows get bit-identical back-pressures.  Errors name the
    first row that fails.
    """
    if ds.n_factors != 3:
        raise ShapeError(f"gauge simulation needs the three factors (A, Ps, B), got {ds.n_factors}")
    nonpositive = [f"{f.name} = {f.low:g}" for f in ds.factors if not f.low > 0.0]
    if nonpositive:
        raise AnalysisError(
            f"the spec's factors ({', '.join(f.name for f in ds.factors)}) are not "
            "flow inputs: the flow solvers take (area_sensor mm^2, pressure_supply "
            "MPa, area_orifice mm^2) in natural units, and these low levels are "
            f"not positive: {', '.join(nonpositive)}"
        )
    return solve_backpressures(model, ds.naturals, constants)
