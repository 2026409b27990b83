import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridfit import gauge
from hybridfit.dataset import Dataset, FactorSpec
from hybridfit.errors import AnalysisError, InconsistencyError, RootBracketError, ShapeError
from hybridfit.gauge import GaugeConstants

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

    def test_bracket_error_reports_residuals(self):
        # so nearly dead-ended that the root lies within the bracket's 1e-9
        # margin below the supply: the residual is positive at both ends
        for model in ("adiabatic", "isochoric"):
            with pytest.raises(RootBracketError, match="no sign change.*residual"):
                solve_one(model, (1e-9, 0.199, 0.503))


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

    # roots that sit on a ratio-1/2 regime boundary, where rounding can push
    # every closed-form candidate just over its own side of the line
    BOUNDARY_POINTS = [
        (1.4384333625697947, 0.9907541834560916, 0.7192166812848975),
        (0.8122841069606476, 0.6074332131592693, 0.2709917250316942),
        (2.6253208695280716, 1.0989937039598459, 0.48409856425283243),
    ]

    @pytest.mark.parametrize("point", BOUNDARY_POINTS)
    def test_isochoric_root_on_regime_boundary(self, point):
        p = solve_one("isochoric", point)
        assert p == pytest.approx(oracle_backpressure("isochoric", point, DEFAULTS), rel=1e-12)

    def test_no_consistent_regime_is_an_error(self, monkeypatch):
        monkeypatch.setattr(gauge, "REGIME_SLACK", 0.0)
        with pytest.raises(InconsistencyError, match="no isochoric flow regime"):
            solve_one("isochoric", self.BOUNDARY_POINTS[0])


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
