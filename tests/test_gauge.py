import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridfit import gauge
from hybridfit.dataset import Dataset, FactorSpec, identical_rows
from hybridfit.errors import AnalysisError, InconsistencyError, ShapeError
from hybridfit.gauge import GaugeConstants
from hybridfit.tolerances import BRACKET_ULPS, ROOT_ULPS

# Recorded back-pressure columns of the case-study factorial design,
# computed with gamma=1.4, p_atm=101.325 kPa, ideal discharge coefficients.
BACKPRESSURE_ADIABATIC = (187.986, 115.955, 280.554, 134.781, 196.727,
                          155.951, 293.607, 229.213, 206.223, 206.223, 206.223)
BACKPRESSURE_ISOCHORIC = (187.410, 116.513, 279.595, 136.175, 196.582,
                          155.431, 293.388, 226.924, 204.463, 204.463, 204.463)

DEFAULTS = GaugeConstants()

# Continuity of the two-branch flow factors at their regime boundary.
BRANCH_CONTINUITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Reference solver: scalar bisection of the flow equality, one point at a
# time, written with the math module and independent of the array solver.
# ---------------------------------------------------------------------------

def oracle_factor_adiabatic(r, gamma):
    if r >= (2.0 / (gamma + 1.0)) ** (gamma / (gamma - 1.0)):
        inner = r ** (2.0 / gamma) - r ** ((gamma + 1.0) / gamma)
        return math.sqrt(gamma / (gamma - 1.0) * max(inner, 0.0))
    return math.sqrt(
        gamma / (gamma + 1.0) * (2.0 / (gamma + 1.0)) ** (2.0 / (gamma - 1.0))
    )


def oracle_factor_isochoric(p_up, p_down):
    if p_down / p_up >= 0.5:
        return math.sqrt(p_down * (p_up - p_down))
    return p_up / 2.0


def oracle_residual(model, point, k):
    """Orifice-side minus sensor-side flow as a function of back-pressure, at
    the operating point (sensor area, supply MPa, orifice area)."""
    area_sensor, supply, area_orifice = point
    a = k.c_sensor * area_sensor
    b = k.c_orifice * area_orifice
    ps = supply * 1000.0
    if model == "adiabatic":
        return lambda p: (b * ps * oracle_factor_adiabatic(p / ps, k.gamma)
                          - a * p * oracle_factor_adiabatic(k.p_atm / p, k.gamma))
    return lambda p: (b * oracle_factor_isochoric(ps, p)
                      - a * oracle_factor_isochoric(p, k.p_atm))


def oracle_bisect(f, lo, hi):
    """Bisection until the bracket collapses to adjacent floats."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, lo
    if fhi == 0.0:
        return hi, hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change: {flo:.6g}, {fhi:.6g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid, mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return lo, hi


def oracle_backpressure(model, point, k):
    f = oracle_residual(model, point, k)
    lo, hi = oracle_bisect(f, k.p_atm, point[1] * 1000.0)
    return hi if abs(f(hi)) < abs(f(lo)) else lo



# ---------------------------------------------------------------------------
# Reference adiabatic array solver: the areas divided by the larger of them,
# Newton's steps from the isochoric root narrow each bracket, then the masked
# lockstep bisection runs with two flow-factor calls per residual, each on
# fresh arrays, and the midpoint taken on the float order (halfway between
# the int64 bit patterns of lo and hi, which sort as non-negative doubles
# do).  Its factor and slope are the solver's arithmetic, the subsonic
# formula at max(r, critical ratio) from one power u = r^(1/gamma), so the
# roots it finds are the solver's bit for bit; the oracle's two-branch
# factor is the independent one.  numpy's power, not math.pow (the two
# differ in the last bit of some results).
# ---------------------------------------------------------------------------

def reference_factor_adiabatic(r, gamma):
    r = np.maximum(r, (2.0 / (gamma + 1.0)) ** (gamma / (gamma - 1.0)))
    u = r ** (1.0 / gamma)
    return np.sqrt(gamma / (gamma - 1.0) * np.maximum(u * (u - r), 0.0))


def reference_factor_and_slope(r, gamma):
    """The flow factor and its derivative in r, gamma/(gamma-1) G' / (2
    factor) with G = u (u - r) and G' = u (2u - r) / (gamma r) - u, both at
    the clamped ratio."""
    factor = reference_factor_adiabatic(r, gamma)
    r = np.maximum(r, (2.0 / (gamma + 1.0)) ** (gamma / (gamma - 1.0)))
    u = r ** (1.0 / gamma)
    slope = (u * 2.0 - r) * u / (gamma * r) - u
    return factor, slope * (gamma / (2.0 * (gamma - 1.0))) / factor


def reference_bisect(residual, lo, hi):
    active = lo < hi
    for _ in range(64):
        lo_bits, hi_bits = lo.view(np.int64), hi.view(np.int64)
        mid = (lo_bits + (hi_bits - lo_bits) // 2).view(np.float64)
        active &= (mid > lo) & (mid < hi)
        if not active.any():
            break
        fmid = residual(mid)
        below = fmid < 0.0
        np.copyto(hi, mid, where=active & (below | (fmid == 0.0)))
        np.copyto(lo, mid, where=active & ~below)


def reference_bracket(a, ps, b, k, residual):
    """Each row's bracket before the bisection, at areas a, b over the larger
    of them: gauge._NEWTON_STEPS Newton steps from the isochoric root, each
    clamped to [p_atm, ps], a step that is not finite leaving its row in
    place; then BRACKET_ULPS floats each way of that root, within
    [p_atm, ps], where the residual is >= 0 at the lower end and <= 0 at the
    upper, else [p_atm, ps]."""
    p = np.fmin(np.fmax(gauge._isochoric_root(ps, a, b, k.p_atm), k.p_atm), ps)
    for _ in range(gauge._NEWTON_STEPS):
        (f_orifice, f_sensor), (s_orifice, s_sensor) = reference_factor_and_slope(
            np.stack([p / ps, k.p_atm / p]), k.gamma)
        value = b * ps * f_orifice - a * p * f_sensor
        slope = b * s_orifice - a * (f_sensor - (k.p_atm / p) * s_sensor)
        step = p - value / slope
        p = np.where(np.isfinite(step), np.fmin(np.fmax(step, k.p_atm), ps), p)
    bits = p.view(np.int64)
    lo = np.maximum(bits - BRACKET_ULPS, np.array(k.p_atm).view(np.int64)).view(np.float64)
    hi = np.minimum(bits + BRACKET_ULPS, ps.view(np.int64)).view(np.float64)
    narrowed = (residual(lo) >= 0.0) & (residual(hi) <= 0.0)
    return np.where(narrowed, lo, k.p_atm), np.where(narrowed, hi, ps)


@np.errstate(over="ignore")  # a supply of 1e306 MPa in kPa
def input_refused(points, k):
    """Whether the solver refuses each row on its inputs: an input not
    positive, a supply not above p_atm or one that overflows in kPa."""
    scaled = [k.c_sensor, 1000.0, k.c_orifice] * points
    return (~(points > 0.0)).any(axis=1) | ~(scaled[:, 1] > k.p_atm) | (scaled[:, 1] == np.inf)


# as the solver: a slope that is infinite, a closed-form candidate not picked
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def reference_adiabatic(points, k):
    """The final bracket (lo, hi), the root and whether the solver refuses
    it, of every row; rows refused on their inputs are refused up front, as
    the solver refuses them.  A root is refused unless its flows are finite
    and the residual is >= 0 at lo and <= 0 at hi."""
    points = np.asarray(points, dtype=float)
    if input_refused(points, k).any():
        raise AnalysisError("the reference solves rows with checked inputs only")
    a, ps, b = ([k.c_sensor, 1000.0, k.c_orifice] * points).T
    larger = np.fmax(a, b)
    a, b = a / larger, b / larger

    def flows(p):
        return (b * ps * reference_factor_adiabatic(p / ps, k.gamma),
                a * p * reference_factor_adiabatic(k.p_atm / p, k.gamma))

    def residual(p):
        return np.subtract(*flows(p))

    lo, hi = reference_bracket(a, ps, b, k, residual)
    reference_bisect(residual, lo, hi)
    r_lo, r_hi = residual(lo), residual(hi)
    root = np.where(np.abs(r_hi) < np.abs(r_lo), hi, lo)
    certified = np.isfinite(residual(root)) & (r_lo >= 0.0) & (r_hi <= 0.0)
    return lo, hi, root, ~certified


# ---------------------------------------------------------------------------
# Reference isochoric closed form, at the areas over the larger of them: all
# four regime roots, each tested against its own side of the ratio-1/2 lines
# with a slack of 1e-12, the first self-consistent one kept, NaN where none
# is.  The two orifice-choked roots divide by the sensor's area, which the
# solver takes as 1 there.
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def reference_isochoric(a, ps, b, p_atm):
    larger = np.fmax(a, b)
    a, b = a / larger, b / larger
    a2, b2 = a * a, b * b
    lin = b2 * ps - a2 * p_atm
    disc = np.hypot(lin, 2.0 * a * b * p_atm)
    half = 0.5 * (b * ps) / a
    candidates = (
        np.where(lin >= 0.0, (lin + disc) / (2.0 * b2),
                 p_atm * (2.0 * a2 * p_atm / (disc + np.abs(lin)))),
        p_atm + half * (half / p_atm),
        ps / (1.0 + (0.5 * a / b) ** 2),
        b * ps / a,
    )

    def on_side(ratio, choked):
        return ((ratio < 0.5) == choked) | (np.abs(ratio - 0.5) <= 1e-12)

    consistent = [on_side(p / ps, orifice) & on_side(p_atm / p, sensor) for p, orifice, sensor
                  in zip(candidates, (False, True, False, True), (False, False, True, True))]
    return np.select(consistent, candidates, default=np.nan)


@st.composite
def ratio_and_gamma(draw):
    """A gamma in [1.05, 1.8] and a pressure ratio in [0, 1]: anywhere, an
    end, an underflowed or subnormal one, or one within 1e-9 of critical."""
    gamma = draw(st.floats(1.05, 1.8))
    critical = gauge.critical_pressure_ratio(gamma)
    r = draw(st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 5e-324, 1e-310, 1.0]),
        st.floats(-1e-9, 1e-9).map(lambda d: critical + d),
    ))
    return r, gamma


class TestFlowFactorAdiabatic:
    def test_no_pressure_drop_no_flow(self, adiabatic_factor):
        assert adiabatic_factor(1.0, 1.4) == 0.0

    def test_critical_ratio_value(self):
        # direct evaluation of (2/(gamma+1))^(gamma/(gamma-1)) for air
        assert gauge.critical_pressure_ratio(1.4) == pytest.approx(
            (2.0 / 2.4) ** 3.5, rel=1e-15
        )
        assert gauge.critical_pressure_ratio(1.4) == pytest.approx(0.5283, abs=1e-4)

    def test_branches_meet_at_critical_ratio(self, adiabatic_factor):
        for gamma in (1.2, 1.4, 1.67):
            rc = gauge.critical_pressure_ratio(gamma)
            subsonic = math.sqrt(
                gamma / (gamma - 1.0) * (rc ** (2 / gamma) - rc ** ((gamma + 1) / gamma))
            )
            choked = math.sqrt(
                gamma / (gamma + 1.0) * (2.0 / (gamma + 1.0)) ** (2.0 / (gamma - 1.0))
            )
            assert abs(subsonic - choked) < BRANCH_CONTINUITY_TOL
            assert adiabatic_factor(rc, gamma) == pytest.approx(
                choked, abs=BRANCH_CONTINUITY_TOL
            )

    @given(r=st.floats(1e-6, 1.0), gamma=st.floats(1.05, 1.8))
    @settings(deadline=None)
    def test_nonnegative_and_bounded(self, adiabatic_factor, r, gamma):
        v = adiabatic_factor(r, gamma)
        assert 0.0 <= v <= 1.0

    @given(ratio_and_gamma())
    @settings(deadline=None)
    def test_matches_two_branch_oracle(self, adiabatic_factor, case):
        """The clamped one-power factor against the oracle's two branches:
        the squared factors, gamma/(gamma-1) times a difference of powers
        in [0, 1], agree within 4 rounding units of that scale, and on the
        choked side the factors agree to 1e-13 relative."""
        r, gamma = case
        got, want = adiabatic_factor(r, gamma), oracle_factor_adiabatic(r, gamma)
        assert abs(got * got - want * want) <= 4.0 * 2.0**-52 * gamma / (gamma - 1.0)
        if r < gauge.critical_pressure_ratio(gamma):
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestFlowFactorIsochoric:
    """The clamped isochoric factor of a pressure ratio, times the upstream
    pressure, is the oracle's flow factor of the two pressures."""

    def test_no_pressure_drop_no_flow(self, isochoric_factor):
        assert isochoric_factor(1.0) == 0.0

    def test_branches_meet_at_half(self, isochoric_factor):
        p_up = 237.4
        assert p_up * isochoric_factor(0.5) == pytest.approx(
            p_up / 2.0, abs=BRANCH_CONTINUITY_TOL
        )

    def test_direct_evaluation(self, isochoric_factor):
        assert 200.0 * isochoric_factor(150.0 / 200.0) == pytest.approx(
            math.sqrt(150.0 * 50.0), rel=1e-12
        )

    # p_up within 1e150 of 1, where the oracle's product of two pressures
    # neither overflows nor underflows
    @given(p_up=st.floats(1e-150, 1e150), r=st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 0.5, 1.0]),
        st.floats(-1e-9, 1e-9).map(lambda d: 0.5 + d)))
    @settings(deadline=None)
    def test_matches_two_branch_oracle(self, isochoric_factor, p_up, r):
        """Subsonic, the squared factors over p_up^2, c (1 - c) at most 1/4,
        agree within 4 rounding units (the ratio is rounded once, and the
        slope of c (1 - c) is at most 1); choked, they are equal."""
        p_down = r * p_up
        got = isochoric_factor(p_down / p_up)
        want = oracle_factor_isochoric(p_up, p_down) / p_up
        assert abs(got * got - want * want) <= 4.0 * 2.0**-52
        if p_down / p_up < 0.5:
            assert p_up * got == oracle_factor_isochoric(p_up, p_down)


def factorial_inputs():
    rows = [
        (0.251, 0.199, 0.503),
        (1.257, 0.199, 0.503),
        (0.251, 0.297, 0.503),
        (1.257, 0.297, 0.503),
        (0.251, 0.199, 1.131),
        (1.257, 0.199, 1.131),
        (0.251, 0.297, 1.131),
        (1.257, 0.297, 1.131),
        (0.754, 0.248, 0.817),
        (0.754, 0.248, 0.817),
        (0.754, 0.248, 0.817),
    ]
    return rows


def solve_one(model, point, k=DEFAULTS):
    """The back-pressure at one operating point, as a one-row solve."""
    return float(gauge.solve_backpressures(model, [point], k)[0])


@pytest.fixture
def starts(monkeypatch):
    """The (lo, hi) each adiabatic solve's bisection starts from."""
    ends = []
    bisect = gauge._bisect

    def capturing(residual, lo, hi):
        ends.append((lo.copy(), hi.copy()))
        bisect(residual, lo, hi)

    monkeypatch.setattr(gauge, "_bisect", capturing)
    return ends


@pytest.fixture
def full_brackets(monkeypatch):
    """Every adiabatic bisection starts from [p_atm, ps]: the Newton steps
    start at ps, where the orifice's slope is infinite, so they stay there,
    and the narrow bracket there misses the root (no known row does that)."""
    monkeypatch.setattr(gauge, "_isochoric_root", lambda ps, a, b, p_atm: ps)


@pytest.fixture
def overflowing(monkeypatch):
    """Make both flows overflow at the rows ``index`` picks (all by default),
    which no row's flows do, since the areas are divided by the larger of
    them: each flow factor there becomes inf, so the residual is inf - inf."""

    def at(index=slice(None)):
        for name in ("_adiabatic_factor", "_isochoric_factor"):
            def patched(*args, factor=getattr(gauge, name), **kwargs):
                out = factor(*args, **kwargs)
                # the factor alone, or the (factor, slope) of a Newton step
                (out[0] if isinstance(out, tuple) else out)[..., index] = np.inf
                return out
            monkeypatch.setattr(gauge, name, patched)

    return at


class TestBackpressureSolvers:
    def test_adiabatic_reference_rows(self):
        for point, expected in zip(factorial_inputs(), BACKPRESSURE_ADIABATIC):
            assert solve_one("adiabatic", point) == pytest.approx(expected, abs=0.5)

    def test_isochoric_reference_rows(self):
        for point, expected in zip(factorial_inputs(), BACKPRESSURE_ISOCHORIC):
            assert solve_one("isochoric", point) == pytest.approx(expected, abs=0.5)

    def test_wide_open_nozzle_approaches_atmosphere(self):
        p = solve_one("adiabatic", (5000.0, 0.199, 0.503))
        assert DEFAULTS.p_atm < p < DEFAULTS.p_atm + 0.5

    def test_dead_ended_nozzle_approaches_supply(self):
        p = solve_one("isochoric", (1e-3, 0.199, 0.503))
        assert 198.9 < p < 199.0

    def test_supply_below_atmosphere_rejected(self):
        with pytest.raises(AnalysisError):
            solve_one("adiabatic", (0.5, 0.09, 0.5))

    def test_residual_bracketing_on_reference_rows(self, adiabatic_factor):
        # flow equality changes sign across the admissible interval
        for area_sensor, supply, area_orifice in factorial_inputs():
            p_s = supply * 1000.0
            p_a = DEFAULTS.p_atm

            def residual(p):
                return area_orifice * p_s * adiabatic_factor(
                    p / p_s, DEFAULTS.gamma
                ) - area_sensor * p * adiabatic_factor(
                    p_a / p, DEFAULTS.gamma
                )

            assert residual(p_a + 1e-6) > 0.0
            assert residual(p_s - 1e-6) < 0.0

    def test_solved_root_balances_flows(self, adiabatic_factor):
        area_sensor, supply, area_orifice = point = factorial_inputs()[0]
        p = solve_one("adiabatic", point)
        p_s = supply * 1000.0
        lhs = area_orifice * p_s * adiabatic_factor(p / p_s, 1.4)
        rhs = area_sensor * p * adiabatic_factor(DEFAULTS.p_atm / p, 1.4)
        assert abs(lhs - rhs) <= 1e-9 * lhs

    def test_adiabatic_isochoric_spread_is_small(self):
        for point in factorial_inputs():
            pa = solve_one("adiabatic", point)
            pv = solve_one("isochoric", point)
            assert abs(pa - pv) < 2.5

    @pytest.mark.parametrize("model", ["adiabatic", "isochoric"])
    def test_root_is_free_of_the_area_scale(self, model):
        # the areas are divided by the larger of them, exactly for a power
        # of two, so it leaves the root bit-identical
        points = area_scaled_rows()
        roots = gauge.solve_backpressures(model, points, DEFAULTS).reshape(-1, 2001)
        assert np.array_equal(roots, np.repeat(roots[:, 1000:1001], 2001, axis=1))

    def test_midpoint_of_huge_bracket_does_not_overflow(self, full_brackets, starts):
        # the bracket's ends sum past the largest double; a midpoint taken on
        # the float order never forms that sum
        p = solve_one("adiabatic", (0.1, 1e305, 0.503))
        assert starts[0][1][0] == 1e308
        assert DEFAULTS.p_atm < p < 1e308
        assert p == pytest.approx(1e5 * solve_one("adiabatic", (0.1, 1e300, 0.503)), rel=1e-12)

    @pytest.mark.parametrize("model", ["adiabatic", "isochoric"])
    def test_overflowing_flows_are_refused_without_warning(self, model, overflowing):
        # areas of 1e307 each are those of (1, 1): no flow overflows there
        assert solve_one(model, (1e307, 1.0, 1e307)) == solve_one(model, (1.0, 1.0, 1.0))
        overflowing()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AnalysisError, match=r"^row 1: "):
                solve_one(model, (1.0, 1.0, 1.0))

    @given(b=st.floats(1e-3, 1e3), ratio=st.floats(2.0, 4.0, exclude_min=True),
           decade=st.floats(3.0, 300.0))
    @settings(deadline=None)
    def test_both_choked_root_from_both_theories(self, b, ratio, decade):
        # a/b > 2 and a supply of 1e3 MPa or more choke both restrictors in
        # both theories, and the flow equality reads b ps = a p
        supply = 10.0 ** decade
        for model in ("adiabatic", "isochoric"):
            p = solve_one(model, (ratio * b, supply, b))
            assert p == pytest.approx(b * (supply * 1000.0) / (ratio * b), rel=1e-15)

    def test_bisection_runs_until_the_bracket_closes(self):
        # the root is 1e-298 of the supply's 1e303 kPa above p_atm, so halving
        # the bracket's width would take about 1040 steps; halving its count
        # of floats takes at most 63.  Both restrictors are choked there
        for model in ("adiabatic", "isochoric"):
            assert solve_one(model, (1e149, 1e300, 1e-149)) == pytest.approx(1e5, rel=1e-15)

    @pytest.mark.parametrize("model", ["adiabatic", "isochoric"])
    def test_supply_below_a_huge_atmosphere_is_named(self, model):
        # 2 p_atm overflows to inf at this atmosphere: the row is refused
        # on its inputs before any row is solved
        with pytest.raises(AnalysisError, match=r"^row 1: supply pressure"):
            solve_one(model, (1.0, 0.2, 1.0), GaugeConstants(p_atm=1e308))

    def test_bracket_error_reports_residuals(self, overflowing):
        # so nearly dead-ended that the root lies within 1e-9 of the supply's
        # width below it: the bracket [p_atm, supply] still holds it
        for model in ("adiabatic", "isochoric"):
            assert solve_one(model, (1e-9, 0.199, 0.503)) == pytest.approx(199.0, rel=1e-9)
            assert solve_one(model, (1e300, 1e10, 1e300)) == solve_one(model, (1.0, 1e10, 1.0))
        # both flows overflow: the refusal names the window and its residuals
        overflowing()
        for model in ("adiabatic", "isochoric"):
            with pytest.raises(InconsistencyError, match=(
                    r"^row 1: flow equality has no certified root: "
                    r"residual \S+ at \S+ kPa and \S+ at \S+ kPa$")):
                solve_one(model, (1.0, 1e10, 1.0))


# log-uniform extremes: areas 1e-300..1e300 mm^2, supplies from just above
# p_atm (a factor 1 + 1e-15..2) to 1e300 MPa
EXTREME_AREAS = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
EXTREME_SUPPLIES = st.one_of(
    st.floats(-15.0, 0.0).map(lambda e: DEFAULTS.p_atm / 1000.0 * (1.0 + 10.0 ** e)),
    st.floats(math.log10(2.0 * DEFAULTS.p_atm / 1000.0), 300.0).map(lambda e: 10.0 ** e))


class TestExtremeInputs:
    """Both theories solve one residual at the areas over the larger of them,
    and no intermediate of the isochoric closed form squares the supply or a
    pressure, so at any inputs they accept the same rows."""

    @given(point=st.tuples(EXTREME_AREAS, EXTREME_SUPPLIES, EXTREME_AREAS))
    @settings(deadline=None, max_examples=300)
    def test_both_theories_solve_or_both_name_the_row(self, point):
        solved = []
        for model in ("adiabatic", "isochoric"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    p = solve_one(model, point)
                except AnalysisError as error:
                    assert str(error).startswith("row 1: ")
                    solved.append(False)
                else:
                    assert DEFAULTS.p_atm <= p <= point[1] * 1000.0
                    solved.append(True)
        assert solved[0] == solved[1]

    def test_rows_whose_closed_form_overflowed(self):
        # a^2 overflowed here; the areas over the larger are (1, 1)
        assert solve_one("isochoric", (1e300, 0.2, 1e300)) == solve_one("isochoric", (1.0, 0.2, 1.0))
        # b^2 underflowed to 0 here: the orifice is choked and the sensor
        # subsonic, b ps / 2 = 500 = a sqrt(p_atm (p - p_atm)) with a = 1e3
        p_atm = DEFAULTS.p_atm
        assert solve_one("isochoric", (1e3, 1e300, 1e-300)) == pytest.approx(
            p_atm + 0.25 / p_atm, rel=1e-15)


def wide_rows(rng, n):
    """Areas log-uniform over 1e-3..1e3 mm^2 each; a third of the supplies
    within a factor 1 + 1e-12..2 of p_atm, the rest log-uniform up to 1e5 MPa."""
    near_atm = DEFAULTS.p_atm / 1000.0 * (1.0 + 10.0 ** rng.uniform(-12.0, 0.0, n))
    supply = np.where(rng.random(n) < 1 / 3, near_atm, 10.0 ** rng.uniform(-0.9, 5.0, n))
    return np.column_stack([10.0 ** rng.uniform(-3.0, 3.0, n), supply,
                            10.0 ** rng.uniform(-3.0, 3.0, n)])


def near_critical_rows(rng, n):
    """Rows whose root puts the sensor's pressure ratio within 1e-12 of the
    critical ratio: the orifice area is the one that balances the flows at
    that back-pressure."""
    k = DEFAULTS
    p = k.p_atm / (gauge.critical_pressure_ratio(k.gamma) * (1.0 + rng.uniform(-1e-12, 1e-12, n)))
    ps = p * rng.uniform(1.2, 50.0, n)
    a = 10.0 ** rng.uniform(-3.0, 3.0, n)
    b = (a * p * reference_factor_adiabatic(k.p_atm / p, k.gamma)
         / (ps * reference_factor_adiabatic(p / ps, k.gamma)))
    return np.column_stack([a, ps / 1000.0, b])


def area_scaled_rows():
    """The factorial's rows with both areas scaled by 2^k, k = -1000..1000."""
    k = np.arange(-1000, 1001)
    points = np.repeat(np.array(factorial_inputs()), k.size, axis=0)
    scale = np.tile(2.0 ** k, len(factorial_inputs()))
    points[:, 0] *= scale
    points[:, 2] *= scale
    return points


def near_atm_rows(rng, n):
    """The bundled factor ranges for the areas and a supply of p_atm (1 +
    1e-9): each root lies within a few ulps of p_atm."""
    return np.column_stack([rng.uniform(0.251, 1.257, n), np.full(n, 0.101325 * (1.0 + 1e-9)),
                            rng.uniform(0.503, 1.131, n)])


def tiny_sensor_rows(rng, n):
    """Sensor areas log-uniform over 1e-6..1e-4 mm^2, a supply of 0.2 MPa
    and an orifice of 0.5 mm^2: each root lies within about 1e-8 of the
    supply."""
    return np.column_stack([10.0 ** rng.uniform(-6.0, -4.0, n), np.full(n, 0.2), np.full(n, 0.5)])


def mixed_rows(rng, n):
    """Wide rows with every fifth one refused on its inputs: an area zero,
    negative or NaN, a supply below p_atm, or one that overflows in kPa."""
    points = wide_rows(rng, n)
    refused = [(0.0, 0.2, 0.5), (-1.0, 0.2, 0.5), (0.5, 0.2, np.nan), (0.5, 0.05, 0.5),
               (0.5, 1e306, 0.5)]
    points[::5] = [refused[i % len(refused)] for i in range(len(points[::5]))]
    return points


class TestAgainstReference:
    """The adiabatic solver finds the reference's final bracket and root for
    every row, bit for bit, and refuses a set with a row refused on its
    inputs before solving any row."""

    @pytest.fixture
    def brackets(self, monkeypatch):
        """The (lo, hi) each adiabatic solve's bisection ends with."""
        ends = []
        bisect = gauge._bisect

        def capturing(residual, lo, hi):
            bisect(residual, lo, hi)
            ends.append((lo.copy(), hi.copy()))

        monkeypatch.setattr(gauge, "_bisect", capturing)
        return ends

    @pytest.mark.parametrize("rows", [
        lambda rng: wide_rows(rng, 6000),
        lambda rng: near_critical_rows(rng, 2000),
        lambda rng: area_scaled_rows(),
        lambda rng: mixed_rows(rng, 2000),
    ], ids=["wide", "near_critical", "area_scaled", "mixed"])
    def test_bit_for_bit(self, rows, brackets):
        points = rows(np.random.default_rng(17))
        refused = input_refused(points, DEFAULTS)
        if refused.any():
            # mixed: its first row has a sensor area of 0
            with pytest.raises(AnalysisError, match=r"^row 1: area_sensor must be positive, got 0.0$"):
                gauge.solve_backpressures("adiabatic", points, DEFAULTS)
            assert brackets == []
            for point in points[refused][:100]:
                with pytest.raises(AnalysisError, match=r"^row 1: "):
                    solve_one("adiabatic", point)
        points = points[~refused]
        lo, hi, root, uncertified = reference_adiabatic(points, DEFAULTS)
        assert not uncertified.any()
        assert np.array_equal(gauge.solve_backpressures("adiabatic", points, DEFAULTS), root)
        assert np.array_equal(brackets[0][0], lo) and np.array_equal(brackets[0][1], hi)


@pytest.mark.parametrize("rows", [
    lambda rng: wide_rows(rng, 6000),
    lambda rng: near_atm_rows(rng, 300),
    lambda rng: tiny_sensor_rows(rng, 300),
], ids=["wide", "near_atm", "tiny_sensor"])
@pytest.mark.parametrize("model", ["adiabatic", "isochoric"])
def test_every_root_certified(model, rows):
    """Rows with the root near either end of [p_atm, supply]: each theory
    solves every one, and the oracle's own bisection, on [p_atm, supply]
    with math.pow for numpy's power, finds a sign change of its residual
    near each root.  Each residual's rounding can move its computed sign
    change by ROOT_ULPS ulps, so the two roots agree within twice that (6
    ulps at most on these rows, adiabatic; 2 isochoric)."""
    points = rows(np.random.default_rng(17))
    roots = gauge.solve_backpressures(model, points, DEFAULTS)
    assert [i for i, (point, p) in enumerate(zip(points, roots))
            if not abs(p - oracle_backpressure(model, point, DEFAULTS))
            <= 2 * ROOT_ULPS * np.spacing(p)] == []


def gauge_sweep_rows(seed, rows=2000, repeat_share=0.25):
    """The operating points of the gauge_sweep benchmark table of a seed,
    drawn as ``perfbench/inputs.gauge_design`` draws them: uniform in the
    bundled factor ranges to six decimals, a quarter of the rows repeating
    an earlier one."""
    rng = random.Random(seed)
    repeat_at = set(rng.sample(range(1, rows), round(rows * repeat_share)))
    ranges = ((0.251, 1.257), (0.199, 0.297), (0.503, 1.131))
    points = []
    for i in range(rows):
        points.append(points[rng.randrange(i)] if i in repeat_at
                      else tuple(round(rng.uniform(low, high), 6) for low, high in ranges))
    return np.array(points)


# Rows at huge supplies, solved ahead of the rows under test.
LEADING = np.array([(1e149, 1e300, 1e-149), (0.1, 1e305, 0.503), (0.6175, 3.45e299, 658.63)])


@pytest.mark.parametrize("rows", [
    lambda rng: gauge_sweep_rows(1)[:1000],
    lambda rng: gauge_sweep_rows(7)[:1000],
    lambda rng: gauge_sweep_rows(11)[:1000],
    lambda rng: wide_rows(rng, 600),
], ids=["sweep1", "sweep7", "sweep11", "wide"])
@pytest.mark.parametrize("model", ["adiabatic", "isochoric"])
def test_root_depends_on_its_row_alone(model, rows):
    """Each root of one call is bit-identical to its row solved alone and
    solved behind three other rows, so replicates get identical roots
    wherever they stand (pure error groups runs by their simulated z)."""
    points = rows(np.random.default_rng(19))
    roots = gauge.solve_backpressures(model, points, DEFAULTS)
    alone = [solve_one(model, point) for point in points]
    behind = gauge.solve_backpressures(model, np.vstack([LEADING, points]), DEFAULTS)
    assert np.array_equal(roots, alone)
    assert np.array_equal(roots, behind[3:])


def test_closed_brackets_stay_closed_behind_an_open_one(starts, monkeypatch):
    # the leading rows bisect [p_atm, ps] in 62 steps, where the rest close
    # in 6: a closed bracket is a fixed point of the steps that follow
    isochoric_root = gauge._isochoric_root
    monkeypatch.setattr(gauge, "_isochoric_root", lambda ps, a, b, p_atm: np.where(
        ps > 1e200, ps, isochoric_root(ps, a, b, p_atm)))
    points = gauge_sweep_rows(7)[:600]
    roots = gauge.solve_backpressures("adiabatic", points, DEFAULTS)
    behind = gauge.solve_backpressures("adiabatic", np.vstack([LEADING, points]), DEFAULTS)
    assert np.array_equal(roots, behind[3:])
    (lo, hi), = starts[1:]
    assert np.array_equal(lo[:3], [DEFAULTS.p_atm] * 3)
    assert np.array_equal(hi[:3], LEADING[:, 1] * 1000.0)


class TestBisectionSteps:
    """The bisection evaluates the residual once per step the masked
    reference takes on the gauge_sweep rows, at most ceil(log2(2
    BRACKET_ULPS)) times where Newton narrowed every bracket, at most 63
    times on any rows, and not at all when no bracket is open."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """(solver's, reference's) residual evaluations of each adiabatic
        solve's bisection, the reference run on a copy of the same brackets."""
        counts = []
        bisect = gauge._bisect

        def counting(residual, lo, hi):
            calls = [0, 0]

            def counted(side):
                def call(p):
                    calls[side] += 1
                    return residual(p)
                return call

            reference_bisect(counted(1), lo.copy(), hi.copy())
            bisect(counted(0), lo, hi)
            counts.append(tuple(calls))

        monkeypatch.setattr(gauge, "_bisect", counting)
        return counts

    def test_one_evaluation_per_reference_step(self, steps):
        points = gauge_sweep_rows(7)
        gauge.solve_backpressures("adiabatic", points[identical_rows(points)[0]], DEFAULTS)
        (solver, reference), = steps
        assert solver == reference > 0

    def test_one_huge_bracket_does_not_lengthen_the_solve(self, steps):
        # this row's bracket [p_atm, 1e303 kPa] holds a root 1e-298 of its
        # width above p_atm: halving the width would step every row about
        # 1040 times, halving the count of floats at most 63
        points = gauge_sweep_rows(7)
        points = np.vstack([points[identical_rows(points)[0]], (1e149, 1e300, 1e-149)])
        roots = gauge.solve_backpressures("adiabatic", points, DEFAULTS)
        assert roots[-1] == pytest.approx(1e5, rel=1e-15)
        (solver, _), = steps
        assert solver <= 63

    @pytest.mark.parametrize("seed", [1, 3, 7, 11])
    def test_narrowed_brackets_close_in_a_few_steps(self, steps, seed):
        # Newton's root widened by BRACKET_ULPS floats each way holds the
        # sign change on every row, and 2 BRACKET_ULPS floats close in 6
        # steps, where [p_atm, ps] takes 53
        points = gauge_sweep_rows(seed)
        gauge.solve_backpressures("adiabatic", points[identical_rows(points)[0]], DEFAULTS)
        (solver, _), = steps
        assert 0 < solver <= math.ceil(math.log2(2 * BRACKET_ULPS))

    def test_huge_supply_narrows_too(self, steps):
        # the isochoric start squares no pressure, so a row at 3.45e299 MPa
        # narrows like the rest: no row's [p_atm, ps] sets the step count
        points = gauge_sweep_rows(7)
        points = np.vstack([points[identical_rows(points)[0]], (0.6175, 3.45e299, 658.63)])
        gauge.solve_backpressures("adiabatic", points, DEFAULTS)
        (solver, _), = steps
        assert 0 < solver <= math.ceil(math.log2(2 * BRACKET_ULPS))

    def test_full_bracket_where_newton_does_not_narrow_it(self, full_brackets, starts):
        # Newton stays at ps and its bracket misses the root: both rows
        # bisect [p_atm, ps], and both roots are accepted
        rows = np.array([(0.1, 1e305, 0.503), (0.6175, 3.45e299, 658.63)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = gauge.solve_backpressures("adiabatic", rows, DEFAULTS)
        (lo, hi), = starts
        assert np.array_equal(lo, [DEFAULTS.p_atm] * 2)
        assert np.array_equal(hi, rows[:, 1] * 1000.0)
        assert np.all((DEFAULTS.p_atm < roots) & (roots < hi))

    def test_no_midpoint_without_an_open_bracket(self, steps):
        assert gauge.solve_backpressures("adiabatic", np.empty((0, 3)), DEFAULTS).shape == (0,)
        assert steps == [(0, 0)]


def choke_boundary_rows(rng, n):
    """Rows whose isochoric root lies within a relative 1e-17..1e-9
    (log-uniform, either side) of a choke point: the first half at ps/2,
    where the orifice chokes, the rest at 2 p_atm, where the sensor does.
    The orifice area is the one balancing the flows there."""
    p_atm, factor = DEFAULTS.p_atm, np.vectorize(oracle_factor_isochoric)
    ps = 2.0 * p_atm * 10.0 ** rng.uniform(0.01, 4.0, n)
    offset = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-17.0, -9.0, n)
    p = np.where(np.arange(n) < n // 2, ps / 2.0, 2.0 * p_atm) * (1.0 + offset)
    a = 10.0 ** rng.uniform(-3.0, 3.0, n)
    return np.column_stack([a, ps / 1000.0, a * factor(p, p_atm) / factor(ps, p)])


class TestIsochoricRegime:
    """The regime read off the residual's sign at the two choke points gives
    the root the four-candidate reference keeps: bit for bit away from the
    choke points, within 4 ulps at them."""

    @staticmethod
    def roots(points):
        """The solver's closed-form roots and the reference's, unclamped."""
        a, ps, b = ([DEFAULTS.c_sensor, 1000.0, DEFAULTS.c_orifice] * points).T
        larger = np.fmax(a, b)
        return (gauge._isochoric_root(ps, a / larger, b / larger, DEFAULTS.p_atm),
                reference_isochoric(a, ps, b, DEFAULTS.p_atm))

    def test_wide_rows(self):
        got, ref = self.roots(wide_rows(np.random.default_rng(18), 100_000))
        assert not np.isnan(ref).any()
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("seed", [1, 3, 7, 11])
    def test_gauge_sweep_rows(self, seed):
        points = gauge_sweep_rows(seed)
        got = gauge.solve_backpressures("isochoric", points, DEFAULTS)
        assert np.array_equal(got, self.roots(points)[1])

    def test_choke_boundary_rows(self):
        points = choke_boundary_rows(np.random.default_rng(19), 20_000)
        got, ref = self.roots(points)
        assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(ref))
        for point, p in zip(points[::50], got[::50]):
            assert p == pytest.approx(oracle_backpressure("isochoric", point, DEFAULTS), rel=1e-12)


class TestMonotonicity:
    @pytest.mark.parametrize("model", ["adiabatic", "isochoric"])
    def test_grid(self, model):
        areas, supplies = np.meshgrid(
            np.linspace(0.2, 1.4, 10), np.linspace(0.15, 0.32, 10), indexing="ij"
        )
        points = np.column_stack([areas.ravel(), supplies.ravel(), np.full(100, 0.6)])
        grid = gauge.solve_backpressures(model, points, DEFAULTS).reshape(10, 10)
        # strictly decreasing in sensor area, strictly increasing in supply
        assert np.all(np.diff(grid, axis=0) < 0.0)
        assert np.all(np.diff(grid, axis=1) > 0.0)


class TestSimulateDesign:
    def test_columns_match_recorded_values(self, factorial):
        for model, reference in [
            ("adiabatic", BACKPRESSURE_ADIABATIC),
            ("isochoric", BACKPRESSURE_ISOCHORIC),
        ]:
            values = gauge.simulate_design(factorial, model, DEFAULTS)
            assert np.allclose(values, reference, atol=0.5)

    def test_replicates_bit_identical(self, factorial):
        values = gauge.simulate_design(factorial, "adiabatic", DEFAULTS)
        assert values[8] == values[9] == values[10]

    def test_every_row_solved_in_one_call(self, factorial, monkeypatch):
        calls = []
        solve = gauge.solve_backpressures

        def recording(model, points, constants):
            calls.append(points)
            return solve(model, points, constants)

        monkeypatch.setattr(gauge, "solve_backpressures", recording)
        gauge.simulate_design(factorial, "adiabatic", DEFAULTS)
        # all 11 runs where they stand, the three centre runs included
        (points,) = calls
        assert np.array_equal(points, factorial.naturals)

    def test_row_index_in_errors(self, factorial):
        bad = GaugeConstants(p_atm=500.0)
        with pytest.raises(AnalysisError, match="row 1"):
            gauge.simulate_design(factorial, "adiabatic", bad)

    def test_unknown_model(self, factorial):
        with pytest.raises(AnalysisError):
            gauge.simulate_design(factorial, "polytropic", DEFAULTS)

    def test_wrong_factor_count(self, factorial):
        from hybridfit.dataset import Dataset, FactorSpec

        ds = Dataset(
            factors=(FactorSpec("A", 0.1, 1.0),),
            naturals=np.array([[0.5]]),
            response=np.array([1.0]),
        )
        with pytest.raises(ShapeError):
            gauge.simulate_design(ds, "adiabatic", DEFAULTS)


class TestSubnormalAtmosphere:
    """At a p_atm so small that p_atm / p underflows to 0 (5e-324) or to a
    subnormal (1e-320), the sensor is choked: both theories solve every row
    of the factorial, the adiabatic one as the reference does bit for bit,
    and neither warns."""

    @pytest.mark.parametrize("p_atm", [5e-324, 1e-320])
    def test_factorial_solves_without_warning(self, factorial, p_atm):
        k = GaugeConstants(p_atm=p_atm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adiabatic = gauge.simulate_design(factorial, "adiabatic", k)
            isochoric = gauge.simulate_design(factorial, "isochoric", k)
        _, _, root, refused = reference_adiabatic(factorial.naturals, k)
        assert not refused.any()
        assert np.array_equal(adiabatic, root)
        a, ps, b = ([1.0, 1000.0, 1.0] * factorial.naturals).T
        assert np.array_equal(isochoric, reference_isochoric(a, ps, b, p_atm))


class TestConstants:
    def test_validation(self):
        with pytest.raises(AnalysisError):
            GaugeConstants(gamma=0.9)
        with pytest.raises(AnalysisError):
            GaugeConstants(c_orifice=0.0)
        with pytest.raises(AnalysisError):
            solve_one("adiabatic", (-1.0, 0.2, 0.5))


# operating points and constants well inside the solvers' domain
AREAS = st.floats(0.05, 5.0)
SUPPLIES = st.floats(0.12, 1.5)
POINTS = st.lists(st.tuples(AREAS, SUPPLIES, AREAS), min_size=1, max_size=12)
CONSTANTS = st.builds(
    GaugeConstants,
    gamma=st.floats(1.1, 1.7),
    p_atm=st.floats(90.0, 110.0),
    c_orifice=st.floats(0.05, 1.0),
    c_sensor=st.floats(0.05, 1.0),
)


class TestAgainstOracle:
    @given(points=POINTS, k=CONSTANTS)
    @settings(deadline=None, max_examples=60)
    def test_adiabatic(self, points, k):
        got = gauge.solve_backpressures("adiabatic", np.array(points), k)
        for point, p in zip(points, got):
            assert p == pytest.approx(oracle_backpressure("adiabatic", point, k), rel=1e-9)
            f = oracle_residual("adiabatic", point, k)
            below = max(p * (1.0 - 1e-9), k.p_atm)
            above = min(p * (1.0 + 1e-9), point[1] * 1000.0)
            assert f(below) >= 0.0 >= f(above)

    @given(points=POINTS, k=CONSTANTS)
    @settings(deadline=None, max_examples=60)
    def test_isochoric(self, points, k):
        got = gauge.solve_backpressures("isochoric", np.array(points), k)
        for point, p in zip(points, got):
            ref = oracle_backpressure("isochoric", point, k)
            assert p == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize(
        "point, orifice_choked, sensor_choked",
        [
            ((0.251, 0.199, 0.503), False, False),
            ((1.0, 1.0, 0.1), True, False),
            ((0.5, 1.0, 1.0), False, True),
            ((1.0, 1.0, 0.3), True, True),
        ],
    )
    def test_isochoric_regimes(self, point, orifice_choked, sensor_choked):
        p = solve_one("isochoric", point)
        ps = point[1] * 1000.0
        assert (p / ps < 0.5) == orifice_choked
        assert (DEFAULTS.p_atm / p < 0.5) == sensor_choked
        assert p == pytest.approx(oracle_backpressure("isochoric", point, DEFAULTS), rel=1e-12)
        if orifice_choked and sensor_choked:
            a, b = point[0], point[2]
            assert p == pytest.approx(b * ps / a, rel=1e-15)

    # roots that sit on a ratio-1/2 regime boundary, where two regimes'
    # closed forms meet and rounding decides the side a root falls on
    BOUNDARY_POINTS = [
        (1.4384333625697947, 0.9907541834560916, 0.7192166812848975),
        (0.8122841069606476, 0.6074332131592693, 0.2709917250316942),
        (2.6253208695280716, 1.0989937039598459, 0.48409856425283243),
    ]

    @pytest.mark.parametrize("point", BOUNDARY_POINTS)
    def test_isochoric_root_on_regime_boundary(self, point):
        p = solve_one("isochoric", point)
        assert p == pytest.approx(oracle_backpressure("isochoric", point, DEFAULTS), rel=1e-12)


def design(rows):
    specs = (FactorSpec("A", 0.1, 2.0), FactorSpec("Ps", 0.05, 1.0), FactorSpec("B", 0.1, 2.0))
    return Dataset(factors=specs, naturals=np.array(rows), response=np.zeros(len(rows)))


class TestManyRows:
    GOOD = [(0.2 + 0.1 * i, 0.199 + 0.01 * i, 0.5 + 0.05 * i) for i in range(12)]

    @pytest.mark.parametrize("model", ["adiabatic", "isochoric"])
    def test_first_bad_row_is_named(self, model):
        rows = list(self.GOOD)
        rows[6] = (0.5, 0.09, 0.5)          # row 7: supply below atmosphere
        rows[9] = (-0.5, 0.2, 0.5)          # row 10: negative area
        rows[11] = rows[6]
        with pytest.raises(AnalysisError, match=r"^row 7: supply pressure"):
            gauge.simulate_design(design(rows), model, DEFAULTS)

    @pytest.mark.parametrize("model", ["adiabatic", "isochoric"])
    def test_input_checks_precede_the_solve(self, model, overflowing):
        # rows 7 and 11 fail only after their roots are sought (both flows
        # overflow); row 9 fails the input check, which runs on every row
        # before any is solved, so the error is about row 9
        rows = list(self.GOOD)
        rows[8] = (0.5, 0.2, 0.0)
        overflowing([6, 10])
        with pytest.raises(AnalysisError, match=r"^row 9: area_orifice must be positive") as error:
            gauge.simulate_design(design(rows), model, DEFAULTS)
        assert not isinstance(error.value, InconsistencyError)
        # every input good: the earliest uncertified row is named
        rows[8] = self.GOOD[8]
        with pytest.raises(InconsistencyError, match=r"^row 7: flow equality"):
            gauge.simulate_design(design(rows), model, DEFAULTS)

    @pytest.mark.parametrize("model", ["adiabatic", "isochoric"])
    def test_refused_row_stops_the_batch_before_any_solve(self, model, monkeypatch):
        calls = []
        for name in ("_isochoric_root", "_bisect"):
            def counted(*args, solve=getattr(gauge, name), name=name):
                calls.append(name)
                return solve(*args)
            monkeypatch.setattr(gauge, name, counted)
        rows = np.array(self.GOOD)
        rows[-1, 1] = 1e306
        with pytest.raises(AnalysisError, match=r"^row 12: supply pressure 1e\+306 MPa overflows in kPa$"):
            gauge.solve_backpressures(model, rows, DEFAULTS)
        assert calls == []
        gauge.solve_backpressures(model, rows[:-1], DEFAULTS)
        assert calls == ["_isochoric_root", "_bisect"][:2 if model == "adiabatic" else 1]

    @pytest.mark.parametrize("model", ["adiabatic", "isochoric"])
    def test_distant_replicates_bit_identical(self, model):
        rng = np.random.default_rng(7)
        rows = np.column_stack([
            rng.uniform(0.251, 1.257, 60), rng.uniform(0.199, 0.297, 60),
            rng.uniform(0.503, 1.131, 60),
        ])
        rows[59], rows[41] = rows[0], rows[3]
        values = gauge.simulate_design(design(rows), model, DEFAULTS)
        assert values[59] == values[0] and values[41] == values[3]
        alone = gauge.solve_backpressures(model, rows[:1], DEFAULTS)[0]
        assert values[0] == alone
