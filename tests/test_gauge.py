import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridfit import gauge
from hybridfit.dataset import Dataset, FactorSpec
from hybridfit.errors import AnalysisError, RootBracketError, ShapeError
from hybridfit.gauge import GaugeConstants
from hybridfit.tolerances import BRACKET_INSET, RESIDUAL_REL_TOL

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
        raise RootBracketError(f"no sign change: {flo:.6g}, {fhi:.6g}")
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
    ps = point[1] * 1000.0
    eps = 1e-9 * (ps - k.p_atm)
    lo, hi = oracle_bisect(f, k.p_atm + eps, ps - eps)
    return hi if abs(f(hi)) < abs(f(lo)) else lo



# ---------------------------------------------------------------------------
# Reference adiabatic array solver: the lockstep bisection with two
# flow-factor calls per residual, each on fresh arrays, and the midpoint
# 0.5 * (lo + hi).  numpy's power, not math.pow, so the roots it finds are
# the solver's bit for bit (the two differ in the last bit of some results).
# ---------------------------------------------------------------------------

def reference_factor_adiabatic(r, gamma):
    inner = r ** (2.0 / gamma) - r ** ((gamma + 1.0) / gamma)
    subsonic = np.sqrt(gamma / (gamma - 1.0) * np.maximum(inner, 0.0))
    choked = math.sqrt(gamma / (gamma + 1.0) * (2.0 / (gamma + 1.0)) ** (2.0 / (gamma - 1.0)))
    critical = (2.0 / (gamma + 1.0)) ** (gamma / (gamma - 1.0))
    return np.where(r >= critical, subsonic, choked)


def reference_bisect(residual, lo, hi, flo):
    sign_lo = np.sign(flo)
    active = lo < hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active &= (mid > lo) & (mid < hi)
        if not active.any():
            break
        fmid = residual(mid)
        below = sign_lo * fmid < 0.0
        np.copyto(hi, mid, where=active & (below | (fmid == 0.0)))
        np.copyto(lo, mid, where=active & ~below)


@np.errstate(over="ignore")  # as the solver: a supply of 1e306 MPa in kPa
def reference_adiabatic(points, k):
    """The final bracket (lo, hi), the root and whether the solver refuses
    it, of every row; a row refused on its inputs is solved at the solver's
    stand-in point."""
    points = np.asarray(points, dtype=float)
    scaled = [k.c_sensor, 1000.0, k.c_orifice] * points
    invalid = (~(points > 0.0)).any(axis=1) | ~(scaled[:, 1] > k.p_atm) | (scaled[:, 1] == np.inf)
    a, ps, b = np.where(invalid[:, None], [1.0, 2.0 * k.p_atm, 1.0], scaled).T

    def flows(p):
        return (b * ps * reference_factor_adiabatic(p / ps, k.gamma),
                a * p * reference_factor_adiabatic(k.p_atm / p, k.gamma))

    def residual(p):
        return np.subtract(*flows(p))

    eps = BRACKET_INSET * (ps - k.p_atm)
    bracket = k.p_atm + eps, ps - eps
    flo, fhi = residual(bracket[0]), residual(bracket[1])
    no_sign_change = np.sign(flo) * np.sign(fhi) > 0.0
    hi = np.where((flo == 0.0) | no_sign_change, bracket[0], bracket[1])
    lo = np.where(fhi == 0.0, hi, bracket[0])
    reference_bisect(residual, lo, hi, flo)
    (o_lo, s_lo), (o_hi, s_hi) = flows(lo), flows(hi)
    root = np.where(np.abs(o_hi - s_hi) < np.abs(o_lo - s_lo), hi, lo)
    orifice, sensor = flows(root)
    bad_residual = ~(np.nextafter(lo, np.inf) >= hi) & ~(
        np.abs(orifice - sensor) <= RESIDUAL_REL_TOL * orifice)
    return lo, hi, root, invalid | no_sign_change | bad_residual


# ---------------------------------------------------------------------------
# Reference isochoric closed form: all four regime roots, each tested against
# its own side of the ratio-1/2 lines with a slack of 1e-12, the first
# self-consistent one kept, NaN where none is.
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def reference_isochoric(a, ps, b, p_atm):
    a2, b2, pa2 = a * a, b * b, p_atm * p_atm
    lin = b2 * ps - a2 * p_atm
    disc = np.sqrt(lin * lin + 4.0 * a2 * b2 * pa2)
    candidates = (
        np.where(lin >= 0.0, (lin + disc) / (2.0 * b2), 2.0 * a2 * pa2 / (disc + np.abs(lin))),
        p_atm + b2 * ps * ps / (4.0 * a2 * p_atm),
        b2 * ps / (b2 + 0.25 * a2),
        b * ps / a,
    )

    def on_side(ratio, choked):
        return ((ratio < 0.5) == choked) | (np.abs(ratio - 0.5) <= 1e-12)

    consistent = [on_side(p / ps, orifice) & on_side(p_atm / p, sensor) for p, orifice, sensor
                  in zip(candidates, (False, True, False, True), (False, False, True, True))]
    return np.select(consistent, candidates, default=np.nan)


class TestFlowFactorAdiabatic:
    def test_no_pressure_drop_no_flow(self):
        assert gauge.flow_factor_adiabatic(1.0, 1.4) == 0.0

    def test_critical_ratio_value(self):
        # direct evaluation of (2/(gamma+1))^(gamma/(gamma-1)) for air
        assert gauge.critical_pressure_ratio(1.4) == pytest.approx(
            (2.0 / 2.4) ** 3.5, rel=1e-15
        )
        assert gauge.critical_pressure_ratio(1.4) == pytest.approx(0.5283, abs=1e-4)

    def test_branches_meet_at_critical_ratio(self):
        for gamma in (1.2, 1.4, 1.67):
            rc = gauge.critical_pressure_ratio(gamma)
            subsonic = math.sqrt(
                gamma / (gamma - 1.0) * (rc ** (2 / gamma) - rc ** ((gamma + 1) / gamma))
            )
            choked = math.sqrt(
                gamma / (gamma + 1.0) * (2.0 / (gamma + 1.0)) ** (2.0 / (gamma - 1.0))
            )
            assert abs(subsonic - choked) < BRANCH_CONTINUITY_TOL
            assert gauge.flow_factor_adiabatic(rc, gamma) == pytest.approx(
                choked, abs=BRANCH_CONTINUITY_TOL
            )

    def test_domain_errors(self):
        with pytest.raises(AnalysisError):
            gauge.flow_factor_adiabatic(0.0, 1.4)
        with pytest.raises(AnalysisError):
            gauge.flow_factor_adiabatic(1.1, 1.4)

    @given(r=st.floats(1e-6, 1.0), gamma=st.floats(1.05, 1.8))
    @settings(deadline=None)
    def test_nonnegative_and_bounded(self, r, gamma):
        v = gauge.flow_factor_adiabatic(r, gamma)
        assert 0.0 <= v <= 1.0


class TestFlowFactorIsochoric:
    def test_no_pressure_drop_no_flow(self):
        assert gauge.flow_factor_isochoric(150.0, 150.0) == 0.0

    def test_branches_meet_at_half(self):
        p_up = 237.4
        assert gauge.flow_factor_isochoric(p_up, 0.5 * p_up) == pytest.approx(
            p_up / 2.0, abs=BRANCH_CONTINUITY_TOL
        )

    def test_direct_evaluation(self):
        assert gauge.flow_factor_isochoric(200.0, 150.0) == pytest.approx(
            math.sqrt(150.0 * 50.0), rel=1e-12
        )

    def test_ordering_violation(self):
        with pytest.raises(AnalysisError):
            gauge.flow_factor_isochoric(100.0, 150.0)


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

    def test_residual_bracketing_on_reference_rows(self):
        # flow equality changes sign across the admissible interval
        for area_sensor, supply, area_orifice in factorial_inputs():
            p_s = supply * 1000.0
            p_a = DEFAULTS.p_atm

            def residual(p):
                return area_orifice * p_s * gauge.flow_factor_adiabatic(
                    p / p_s, DEFAULTS.gamma
                ) - area_sensor * p * gauge.flow_factor_adiabatic(
                    p_a / p, DEFAULTS.gamma
                )

            assert residual(p_a + 1e-6) > 0.0
            assert residual(p_s - 1e-6) < 0.0

    def test_solved_root_balances_flows(self):
        area_sensor, supply, area_orifice = point = factorial_inputs()[0]
        p = solve_one("adiabatic", point)
        p_s = supply * 1000.0
        lhs = area_orifice * p_s * gauge.flow_factor_adiabatic(p / p_s, 1.4)
        rhs = area_sensor * p * gauge.flow_factor_adiabatic(DEFAULTS.p_atm / p, 1.4)
        assert abs(lhs - rhs) <= 1e-9 * lhs

    def test_adiabatic_isochoric_spread_is_small(self):
        for point in factorial_inputs():
            pa = solve_one("adiabatic", point)
            pv = solve_one("isochoric", point)
            assert abs(pa - pv) < 2.5

    def test_adiabatic_root_is_free_of_the_area_scale(self):
        # both flows scale with the areas, so a power of two leaves the root
        # bit-identical, as long as no two residuals are multiplied: at tiny
        # areas their product underflows to zero
        k = np.arange(-1000, 1001)
        points = np.repeat(np.array(factorial_inputs()), k.size, axis=0)
        scale = np.tile(2.0 ** k, len(factorial_inputs()))
        points[:, 0] *= scale
        points[:, 2] *= scale
        roots = gauge.solve_backpressures("adiabatic", points, DEFAULTS).reshape(-1, k.size)
        assert np.array_equal(roots, np.repeat(roots[:, k == 0], k.size, axis=1))

    def test_midpoint_of_huge_bracket_does_not_overflow(self):
        # the bracket's ends sum past the largest double, their halves do not
        p = solve_one("adiabatic", (0.1, 1e305, 0.503))
        assert DEFAULTS.p_atm < p < 1e308
        assert p == pytest.approx(1e5 * solve_one("adiabatic", (0.1, 1e300, 0.503)), rel=1e-12)

    @pytest.mark.parametrize("model", ["adiabatic", "isochoric"])
    def test_overflowing_flows_are_refused_without_warning(self, model):
        # the orifice-side flow overflows everywhere on the bracket, and the
        # sensor-side one too at one end, where the residual is inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AnalysisError, match=r"^row 1: "):
                solve_one(model, (1e307, 1.0, 1e307))

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

    def test_bracket_error_reports_residuals(self):
        # so nearly dead-ended that the root lies within the bracket's 1e-9
        # margin below the supply: the residual is positive at both ends
        for model in ("adiabatic", "isochoric"):
            with pytest.raises(RootBracketError, match="no sign change.*residual"):
                solve_one(model, (1e-9, 0.199, 0.503))



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
    every row, bit for bit, and refuses the rows it refuses."""

    @pytest.fixture
    def brackets(self, monkeypatch):
        """The (lo, hi) each adiabatic solve's bisection ends with."""
        ends = []
        bisect = gauge._bisect

        def capturing(residual, lo, hi, flo):
            bisect(residual, lo, hi, flo)
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
        lo, hi, root, refused = reference_adiabatic(points, DEFAULTS)
        if refused.any():
            with pytest.raises(AnalysisError):
                gauge.solve_backpressures("adiabatic", points, DEFAULTS)
        else:
            assert np.array_equal(gauge.solve_backpressures("adiabatic", points, DEFAULTS), root)
        assert np.array_equal(brackets[0][0], lo) and np.array_equal(brackets[0][1], hi)
        kept = gauge.solve_backpressures("adiabatic", points[~refused], DEFAULTS)
        assert np.array_equal(kept, root[~refused])
        for point in points[refused][:100]:
            with pytest.raises(AnalysisError):
                solve_one("adiabatic", point)


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
        return (gauge._isochoric_root(a, ps, b, DEFAULTS.p_atm),
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

    def test_each_distinct_row_solved_once(self, factorial, monkeypatch):
        sizes = []
        solve = gauge.solve_backpressures

        def counting(model, points, *args, **kwargs):
            sizes.append(len(points))
            return solve(model, points, *args, **kwargs)

        monkeypatch.setattr(gauge, "solve_backpressures", counting)
        gauge.simulate_design(factorial, "adiabatic", DEFAULTS)
        assert sizes == [9]  # 11 runs, three of them the same centre point

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
    def test_earliest_row_wins_across_checks(self, model):
        # row 7 fails only after its bracket is evaluated; row 9 fails the
        # input check that runs first: the error is still about row 7
        rows = list(self.GOOD)
        rows[6] = (1e-9, 0.199, 0.503)
        rows[8] = (0.5, 0.2, 0.0)
        with pytest.raises(RootBracketError, match=r"^row 7: flow equality"):
            gauge.simulate_design(design(rows), model, DEFAULTS)
        with pytest.raises(AnalysisError, match=r"^row 9: area_orifice must be positive"):
            gauge.simulate_design(design(self.GOOD[:7] + rows[7:]), model, DEFAULTS)

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
        assert values[0] == pytest.approx(alone, rel=1e-15)
