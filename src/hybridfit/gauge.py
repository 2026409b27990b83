"""Deterministic pneumatic-gauge simulators.

A jet of air flows from a supply chamber through an orifice of area B, then
out of a nozzle whose effective exit area A is set by the nozzle-to-workpiece
clearance.  In steady state the weight flow rates through the two restrictors
are equal, which pins the back-pressure between them.  Both flow
idealizations are solved over arrays of operating points, and refused on
the same checks: the isochoric equality in closed form, the adiabatic one
by bisecting all points in lockstep.  :func:`solve_backpressures` is the
one solver entry point; a single operating point is a one-row array.

The sqrt(2g/RT) factor common to both sides of the flow equality cancels, so
gravity, the gas constant, and temperature never enter.  Only the products of
discharge coefficient and area matter, in any common unit (mm^2 in the
bundled data).  Supply pressure is absolute MPa; all other pressures are kPa.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, identical_rows
from .errors import AnalysisError, InconsistencyError, RootBracketError, ShapeError
from .tolerances import BRACKET_INSET, RESIDUAL_REL_TOL

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
    """Downstream/upstream pressure ratio below which adiabatic flow chokes."""
    return (2.0 / (gamma + 1.0)) ** (gamma / (gamma - 1.0))


def _check_pressure_ratios(r) -> None:
    if not np.all((r > 0.0) & (r <= 1.0)):
        raise AnalysisError(f"pressure ratio must lie in (0, 1], got {r}")


def _adiabatic_factor(r, gamma: float, work) -> np.ndarray:
    """The adiabatic flow factor at pressure ratios ``r`` already checked to
    lie in (0, 1], written into ``work[0]``; ``work`` is that array, a float
    scratch array and a boolean one, each shaped like ``r``.  The one copy of
    the formula."""
    out, scratch, choked_at = work
    np.power(r, 2.0 / gamma, out=out)
    np.power(r, (gamma + 1.0) / gamma, out=scratch)
    np.subtract(out, scratch, out=out)
    np.maximum(out, 0.0, out=out)
    np.multiply(out, gamma / (gamma - 1.0), out=out)
    np.sqrt(out, out=out)
    np.less(r, critical_pressure_ratio(gamma), out=choked_at)
    choked = math.sqrt(gamma / (gamma + 1.0) * (2.0 / (gamma + 1.0)) ** (2.0 / (gamma - 1.0)))
    np.copyto(out, choked, where=choked_at)
    return out


def flow_factor_adiabatic(pressure_ratio, gamma: float):
    """Dimensionless adiabatic flow factor at a downstream/upstream pressure
    ratio (a float or an array): subsonic above the critical ratio, constant
    (choked) below it, and continuous where the two branches join."""
    r = np.asarray(pressure_ratio, dtype=float)
    _check_pressure_ratios(r)
    work = np.empty_like(r), np.empty_like(r), np.empty(r.shape, dtype=bool)
    out = _adiabatic_factor(r, gamma, work)
    return out if out.ndim else float(out)


def flow_factor_isochoric(p_up, p_down):
    """Isochoric flow factor (kPa-scaled) for flow from ``p_up`` down to
    ``p_down`` (floats or arrays); chokes at a pressure ratio of one half."""
    p_up, p_down = np.asarray(p_up, dtype=float), np.asarray(p_down, dtype=float)
    if not np.all((p_down > 0.0) & (p_down <= p_up)):
        raise AnalysisError(f"need 0 < downstream <= upstream, got {p_down}, {p_up}")
    # no product of two pressures, which would overflow where the flow does not
    out = np.where(p_down / p_up >= 0.5, np.sqrt(p_down) * np.sqrt(p_up - p_down), p_up / 2.0)
    return out if out.ndim else float(out)


def _bisect(residual, lo, hi, flo) -> None:
    """Bisect in place, in lockstep, every row's bracket [lo, hi] with lo < hi
    (``flo`` = residual at lo), until it collapses to adjacent floats or hits
    an exact zero (then lo = hi).  The residual at lo keeps the sign of
    ``flo`` throughout, so only that sign is compared: a product of two tiny
    residuals would underflow to zero.  Each step reuses the buffers made
    here, and ``residual`` may return the same array every time."""
    sign_lo = np.sign(flo)
    active = lo < hi
    mid, half, signed = np.empty_like(lo), np.empty_like(lo), np.empty_like(lo)
    move_lo, move_hi = np.empty_like(active), np.empty_like(active)
    for _ in range(200):
        # lo + hi overflows above 1.8e308; halving is exact above the
        # subnormal range, so this is the double 0.5 * (lo + hi) gives
        # wherever that sum is finite
        np.multiply(lo, 0.5, out=mid)
        np.multiply(hi, 0.5, out=half)
        mid += half
        active &= np.greater(mid, lo, out=move_lo)
        active &= np.less(mid, hi, out=move_hi)
        if not active.any():
            break
        np.multiply(sign_lo, residual(mid), out=signed)
        # hi moves where the sign changes below mid or mid is a root, lo
        # where it does not change below mid
        np.less_equal(signed, 0.0, out=move_hi)
        np.copyto(hi, mid, where=np.logical_and(move_hi, active, out=move_hi))
        np.less(signed, 0.0, out=move_lo)
        np.logical_not(move_lo, out=move_lo)
        np.copyto(lo, mid, where=np.logical_and(move_lo, active, out=move_lo))


def _isochoric_root(a, ps, b, p_atm) -> np.ndarray:
    """Closed-form isochoric back-pressure.  The residual b f(ps, p) -
    a f(p, p_atm) falls strictly as p rises, so its sign at the two choke
    points says which restrictors are choked at the root: the orifice where
    it is negative at ps/2, the sensor where it is positive at 2 p_atm.
    With x = min(2 p_atm / ps, 1), both flows there are multiples of
    G = sqrt(x (1 - x)) for x >= 1/2, else 1/2, and the root is that
    regime's (orifice, sensor each subsonic or choked at ratio 1/2)."""
    x = np.minimum(2.0 * p_atm / ps, 1.0)
    g = np.where(x >= 0.5, np.sqrt(x * (1.0 - x)), 0.5)
    orifice_choked, sensor_choked = a * g > b, b * ps * g > a * p_atm
    a2, b2, pa2 = a * a, b * b, p_atm * p_atm
    lin = b2 * ps - a2 * p_atm
    disc = np.sqrt(lin * lin + 4.0 * a2 * b2 * pa2)
    return np.select(
        [orifice_choked & sensor_choked, orifice_choked, sensor_choked],
        [b * ps / a, p_atm + b2 * ps * ps / (4.0 * a2 * p_atm), b2 * ps / (b2 + 0.25 * a2)],
        # both subsonic: the positive root of b2 p^2 - lin p - a2 pa^2 = 0,
        # without cancellation
        np.where(lin >= 0.0, (lin + disc) / (2.0 * b2), 2.0 * a2 * pa2 / (disc + np.abs(lin))),
    )


# A flow that overflows keeps its sign, and a row where one does (or two, as
# inf - inf) ends in the bracket or residual checks, so needs no warning.
@np.errstate(over="ignore", invalid="ignore")
def solve_backpressures(model: str, points, constants: GaugeConstants, rows=None) -> np.ndarray:
    """Back-pressures (kPa) in (p_atm, supply) balancing orifice and sensor
    flow at each row (sensor area mm^2, supply MPa, orifice area mm^2) of
    ``points``.  Each row is checked for positive inputs, a supply finite in
    kPa and above p_atm, a sign change on the bracket
    (:class:`RootBracketError`) and finite flows at the root with a small
    residual (:class:`InconsistencyError`); the earliest failing row is
    named ``row k``, k being its entry in ``rows`` (default 1..n)."""
    if model not in ("adiabatic", "isochoric"):
        raise AnalysisError(f"unknown gauge model {model!r}")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ShapeError(f"operating points must be n x 3, got shape {points.shape}")
    rows = np.arange(1, len(points) + 1) if rows is None else rows
    p_atm, gamma = constants.p_atm, constants.gamma
    scaled = [constants.c_sensor, 1000.0, constants.c_orifice] * points
    nonpositive, low_supply = ~(points > 0.0), ~(scaled[:, 1] > p_atm)
    overflow = scaled[:, 1] == np.inf
    # Rows failing these checks are solved at a harmless stand-in point, so
    # the other rows still run and the earliest failure can be named.
    invalid = (nonpositive.any(axis=1) | low_supply | overflow)[:, None]
    a, ps, b = np.where(invalid, [1.0, 2.0 * p_atm, 1.0], scaled).T

    if model == "adiabatic":
        # both restrictors' ratios in one 2 x n stack, one flow-factor pass
        orifice_scale = b * ps
        ratios = np.empty((2, len(ps)))
        work = np.empty_like(ratios), np.empty_like(ratios), np.empty(ratios.shape, dtype=bool)

        def flows(p, out=None):
            """Orifice- and sensor-side flows at back-pressures p, into out;
            without out, into a new array, checking the ratios first.  Every
            ratio the bisection forms lies between those at the bracket's
            checked ends: dividing by or into a positive constant is
            monotone."""
            np.divide(p, ps, out=ratios[0])
            np.divide(p_atm, p, out=ratios[1])
            if out is None:
                _check_pressure_ratios(ratios)
                out = np.empty_like(ratios)
            factor = _adiabatic_factor(ratios, gamma, work)
            np.multiply(orifice_scale, factor[0], out=out[0])
            np.multiply(a, p, out=out[1])
            np.multiply(out[1], factor[1], out=out[1])
            return out
    else:
        def flows(p):
            return b * flow_factor_isochoric(ps, p), a * flow_factor_isochoric(p, p_atm)

    eps = BRACKET_INSET * (ps - p_atm)
    bracket = p_atm + eps, ps - eps
    flo, fhi = (np.subtract(*flows(end)) for end in bracket)
    # a NaN residual (both flows overflow) has no sign; an infinite one keeps it
    no_sign_change = ~(np.sign(flo) * np.sign(fhi) <= 0.0)
    collapsed = np.zeros(len(points), dtype=bool)
    if model == "adiabatic":
        hi = np.where((flo == 0.0) | no_sign_change, bracket[0], bracket[1])
        lo = np.where(fhi == 0.0, hi, bracket[0])
        pair, gap = np.empty_like(ratios), np.empty_like(lo)
        _bisect(lambda p: np.subtract(*flows(p, pair), out=gap), lo, hi, flo)
        (o_lo, s_lo), (o_hi, s_hi) = flows(lo), flows(hi)
        take_hi = np.abs(o_hi - s_hi) < np.abs(o_lo - s_lo)
        root = np.where(take_hi, hi, lo)
        orifice, sensor = np.where(take_hi, o_hi, o_lo), np.where(take_hi, s_hi, s_lo)
        collapsed = np.nextafter(lo, np.inf) >= hi
    else:
        root = _isochoric_root(a, ps, b, p_atm)
        root = np.fmin(np.fmax(root, bracket[0]), bracket[1])  # NaN -> bracket[0]
        orifice, sensor = flows(root)
    gap = orifice - sensor
    bad_residual = ~np.isfinite(gap) | ~collapsed & (np.abs(gap) > RESIDUAL_REL_TOL * orifice)

    checks = [
        (nonpositive.any(axis=1), AnalysisError, lambda i: "{} must be positive, got {}".format(
            *next((n, v) for n, v in zip(_INPUT_NAMES, points[i]) if not v > 0.0))),
        (low_supply, AnalysisError, lambda i: (
            f"supply pressure {scaled[i, 1]} kPa must exceed outlet pressure {p_atm} kPa")),
        (overflow, AnalysisError, lambda i: (
            f"supply pressure {points[i, 1]} MPa overflows in kPa")),
        (no_sign_change, RootBracketError, lambda i: (
            f"flow equality has no sign change on the bracket: residual {flo[i]:.6g} "
            f"at {bracket[0][i]:.6g} kPa and {fhi[i]:.6g} at {bracket[1][i]:.6g} kPa")),
        (bad_residual, InconsistencyError, lambda i: (
            f"flow-equality residual {gap[i]:.3e} at the returned root is not within "
            f"{RESIDUAL_REL_TOL:g} of the orifice-side flow {orifice[i]:.6g}")),
    ]
    i = min((int(np.argmax(mask)) for mask, _, _ in checks if mask.any()), default=None)
    if i is not None:
        _, error, message = next(check for check in checks if check[0][i])
        raise error(f"row {rows[i]}: {message(i)}")
    return root


def simulate_design(ds: Dataset, model: str, constants: GaugeConstants) -> np.ndarray:
    """Back-pressure (kPa) of the chosen flow solver at every row of the design.

    The dataset's factors must be (sensor area mm^2, supply pressure MPa,
    orifice area mm^2) in that order: a factor with a low level at or below
    zero is refused up front.  Each distinct row is solved once and its value
    copied to its repeats, so identical rows get bit-identical
    back-pressures.  Errors name the first row that fails.
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
    first, group = identical_rows(ds.naturals)
    values = solve_backpressures(model, ds.naturals[first], constants, rows=first + 1)
    return values[group]
