import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridfit import dataset, hybrid, inference
from hybridfit.analysis import analyze
from hybridfit.dataset import Dataset, DesignMatrix, FactorSpec
from hybridfit.errors import AnalysisError, InconsistencyError


@pytest.fixture(scope="module")
def adiabatic_case(factorial, factorial_design):
    theory = factorial.extras["P_adiabatic"]
    sys = hybrid.assemble(factorial_design, theory)
    return sys, hybrid.solve(sys, factorial.response)


@pytest.fixture(scope="module")
def isochoric_case(factorial, factorial_design):
    theory = factorial.extras["P_isochoric"]
    sys = hybrid.assemble(factorial_design, theory)
    return sys, hybrid.solve(sys, factorial.response)


@pytest.fixture(scope="module")
def replicates(factorial):
    """Group numbers of the factorial's runs by coded settings."""
    return dataset.identical_rows(dataset.code(factorial))[1]


def line_fit(x, y):
    """Straight-line fit of y on x through the augmented solve (z = 1)."""
    x = np.asarray(x, dtype=float)
    design = DesignMatrix(np.column_stack([np.ones(x.size), x]), ("1", "x1"))
    sys = hybrid.assemble(design, np.ones(x.size))
    return sys, hybrid.solve(sys, y)


class TestPartition:
    """The sums of squares of the solve and the degrees of freedom of the
    system: the orthogonal partition of y'y."""

    def test_adiabatic_reference_values(self, adiabatic_case):
        sys, fit = adiabatic_case
        assert fit.ss_design == pytest.approx(5.007e5, rel=0.005)
        assert fit.ss_excess == pytest.approx(2986.0, rel=0.005)
        assert fit.ss_residual == pytest.approx(4.432, rel=0.005)
        assert fit.ss_total == pytest.approx(5.037e5, rel=0.005)
        assert (sys.n_coef, sys.df_theory_gain, sys.df_residual,
                sys.n_runs) == (4, 4, 3, 11)

    def test_isochoric_reference_values(self, isochoric_case):
        _, fit = isochoric_case
        assert fit.ss_excess == pytest.approx(2987.0, rel=0.005)
        assert fit.ss_residual == pytest.approx(2.586, rel=0.005)

    def test_zero_response(self, adiabatic_case):
        sys, _ = adiabatic_case
        fit = hybrid.solve(sys, np.zeros(11))
        assert fit.ss_total == 0.0
        assert fit.ss_design == pytest.approx(0.0, abs=1e-12)
        assert fit.ss_residual == pytest.approx(0.0, abs=1e-12)

    def test_near_exact_fit_keeps_its_residual(self, adiabatic_case, rng):
        # y'y is about 1e7 times the residual here: y'y less the fitted sum
        # of squares would leave only roundoff
        sys, _ = adiabatic_case
        y = sys.augmented @ np.linspace(1.0, 2.0, 8) + 1e-6 * rng.normal(size=11)
        coef = np.linalg.lstsq(sys.augmented, y, rcond=None)[0]
        resid = y - sys.augmented @ coef
        fit = hybrid.solve(sys, y)
        assert fit.ss_residual == pytest.approx(float(resid @ resid), rel=1e-6)

    def test_additivity(self, adiabatic_case, isochoric_case):
        for _, fit in (adiabatic_case, isochoric_case):
            assert fit.ss_regression == pytest.approx(
                fit.ss_design + fit.ss_excess, rel=1e-12
            )
            assert fit.ss_total == pytest.approx(
                fit.ss_regression + fit.ss_residual, rel=1e-10
            )
            assert fit.ss_total - fit.ss_design == pytest.approx(
                fit.ss_excess + fit.ss_residual, rel=1e-12
            )

    def test_residual_matches_quadratic_form(self, adiabatic_case, factorial):
        sys, fit = adiabatic_case
        resid = factorial.response - sys.augmented @ fit.coef
        assert fit.ss_residual == pytest.approx(float(resid @ resid), rel=1e-8)

    def test_theory_gain_matches_coefficient_route(self, adiabatic_case, factorial):
        # quadratic-form value equals b2' Z' y from the solved coefficients,
        # Z the excess block less its projection onto the design columns
        sys, fit = adiabatic_case
        excess = sys.augmented[:, sys.n_coef:]
        excess_ortho = excess - sys.basis_design @ (sys.basis_design.T @ excess)
        via_coef = float(fit.coef[sys.n_coef:] @ excess_ortho.T @ factorial.response)
        assert fit.ss_excess == pytest.approx(via_coef, rel=1e-10)


def residual_f(sys, fit, ss, df):
    """F test of a regression mean square against the residual."""
    return inference.f_test(ss, df, fit.ss_residual, sys.df_residual, 0.05)


class TestFStatistics:
    def test_adiabatic(self, adiabatic_case):
        sys, fit = adiabatic_case
        f_design = residual_f(sys, fit, fit.ss_design, sys.n_coef)
        f_theory_gain = residual_f(sys, fit, fit.ss_excess, sys.df_theory_gain)
        assert f_design.f == pytest.approx(84730.0, rel=0.02)
        assert f_theory_gain.f == pytest.approx(505.0, rel=0.02)

    def test_isochoric(self, isochoric_case):
        sys, fit = isochoric_case
        f_design = residual_f(sys, fit, fit.ss_design, sys.n_coef)
        f_theory_gain = residual_f(sys, fit, fit.ss_excess, sys.df_theory_gain)
        assert f_design.f == pytest.approx(145200.0, rel=0.02)
        assert f_theory_gain.f == pytest.approx(866.0, rel=0.02)

    def test_identity_theory_gain_is_zero(self, factorial, factorial_design):
        sys = hybrid.assemble(factorial_design, np.ones(11))
        fit = hybrid.solve(sys, factorial.response)
        f = residual_f(sys, fit, fit.ss_excess, sys.df_theory_gain)
        assert fit.ss_excess == pytest.approx(0.0, abs=1e-6)
        assert f.f == 0.0
        assert f.p == 1.0

    def test_saturated_raises(self):
        # four runs, rank 4: two design columns plus two excess columns
        ds = Dataset(
            (FactorSpec("x1", -1.0, 1.0),),
            np.array([[-1.0], [-0.5], [0.5], [1.0]]),
            np.array([1.0, 2.0, 4.0, 3.0]),
            extras={"z": np.array([2.0, 3.0, 5.0, 7.0])},
        )
        with pytest.raises(AnalysisError, match="^no residual degrees of freedom: .* not estimable"):
            analyze(ds, {}, "hybrid", "column:z")


class TestPureError:
    def test_center_triplet(self, factorial, adiabatic_case, replicates):
        sys, fit = adiabatic_case
        pe = inference.pure_error(factorial.response, replicates, fit, sys.df_residual)
        assert pe.ss_pure_error == pytest.approx(0.949, rel=0.005)
        assert pe.df_pure_error == 2
        assert pe.ss_lack_of_fit == pytest.approx(3.483, rel=0.005)
        assert pe.df_lack_of_fit == 1

    def test_all_singletons(self, rng):
        y = rng.normal(size=5)
        sys, fit = line_fit(np.linspace(-1.0, 1.0, 5), y)
        pe = inference.pure_error(y, np.arange(5), fit, df_residual=3)
        assert pe.ss_pure_error == 0.0
        assert pe.df_pure_error == 0
        assert pe.ss_lack_of_fit == pytest.approx(np.sum((y - fit.fitted) ** 2))

    def test_decomposition_identity(self, factorial, isochoric_case, replicates):
        sys, fit = isochoric_case
        pe = inference.pure_error(factorial.response, replicates, fit, sys.df_residual)
        assert pe.ss_pure_error + pe.ss_lack_of_fit == pytest.approx(
            fit.ss_residual, rel=1e-6
        )
        assert pe.df_pure_error + pe.df_lack_of_fit == sys.df_residual

    def test_matches_a_loop_over_the_groups(self, rng):
        # reference: per group, sum (y - ybar)^2 and n * mean(residual)^2
        for _ in range(20):
            settings = rng.uniform(-1.0, 1.0, int(rng.integers(3, 9)))
            groups = rng.integers(0, settings.size, int(rng.integers(settings.size + 1, 30)))
            groups[: settings.size] = np.arange(settings.size)  # every setting run
            y = 2.0 + settings[groups] + rng.normal(scale=0.3, size=groups.size)
            sys, fit = line_fit(settings[groups], y)
            ss_pe = ss_lof = 0.0
            for g in range(settings.size):
                members = groups == g
                ss_pe += float(np.sum((y[members] - y[members].mean()) ** 2))
                ss_lof += members.sum() * float(fit.residuals[members].mean()) ** 2
            pe = inference.pure_error(y, groups, fit, sys.df_residual)
            assert pe.ss_pure_error == pytest.approx(ss_pe, rel=1e-12)
            assert pe.ss_lack_of_fit == pytest.approx(ss_lof, rel=1e-12)
            assert pe.df_pure_error == groups.size - settings.size

    def test_pure_error_exceeding_residual_rejected(self):
        # runs 0 and 1 grouped although their settings (and fitted values)
        # differ: their scatter is not pure error, and the exact line leaves
        # no residual for it
        y = np.array([1.0, 3.0, 2.0])
        _, fit = line_fit([-1.0, 1.0, 0.0], y)
        with pytest.raises(InconsistencyError, match="pure error 2 and lack of fit"):
            inference.pure_error(y, np.array([0, 0, 1]), fit, df_residual=1)

    def test_df_mismatch_rejected(self):
        y = np.array([1.0, 3.0, 2.0, 2.5])
        _, fit = line_fit([-1.0, -1.0, 1.0, 1.0], y)
        with pytest.raises(InconsistencyError, match="pure-error df 2"):
            inference.pure_error(y, np.array([0, 0, 1, 1]), fit, df_residual=1)


class TestLackOfFit:
    def test_first_order_plain_fit_is_inadequate(self, factorial, factorial_config):
        a = analyze(factorial, factorial_config, "mlr1")
        pe = a.pure_error
        assert a.lack_of_fit.f == pytest.approx(1260.0, rel=0.02)
        assert a.lack_of_fit.f > inference.f_critical(
            0.05, pe.df_lack_of_fit, pe.df_pure_error
        )
        assert a.lack_of_fit.significant

    def test_second_order_plain_fit_is_inadequate(self, boxbehnken, boxbehnken_config):
        a = analyze(boxbehnken, boxbehnken_config, "mlr2")
        assert a.lack_of_fit.f == pytest.approx(85.831, rel=0.02)

    def test_isochoric_fit_is_adequate(self, factorial, isochoric_case, replicates):
        sys, fit = isochoric_case
        pe = inference.pure_error(factorial.response, replicates, fit, sys.df_residual)
        lof = inference.f_test(
            pe.ss_lack_of_fit, pe.df_lack_of_fit,
            pe.ss_pure_error, pe.df_pure_error, 0.05,
        )
        f_lof, p = lof.f, lof.p
        assert f_lof == pytest.approx(3.45, rel=0.05)
        crit = inference.f_critical(0.05, 1, 2)
        assert crit == pytest.approx(18.51, rel=1e-3)
        assert lof.critical == crit
        assert f_lof < crit
        assert p > 0.05

    def test_no_replicate_scatter_gives_no_test(self):
        factors = (FactorSpec("x1", -1.0, 1.0),)
        distinct = Dataset(
            factors, np.linspace(-1.0, 1.0, 6)[:, None],
            np.array([1.0, 2.5, 2.0, 4.0, 4.5, 6.5]),
        )
        # replicated settings whose responses agree exactly, off a straight
        # line (on one, the fit would be exact and no F test defined)
        no_scatter = Dataset(
            factors, np.array([[-1.0], [-1.0], [0.0], [1.0], [1.0]]),
            np.array([1.0, 1.0, 2.0, 4.0, 4.0]),
        )
        for ds in (distinct, no_scatter):
            a = analyze(ds, {}, "mlr1")
            assert a.lack_of_fit is None
            assert a.box_wetz is None
        assert a.pure_error.df_pure_error == 2
        assert a.pure_error.ss_pure_error == 0.0


class TestFCdf:
    """The F distribution through its upper tail f_sf = 1 - CDF."""

    def test_reference_quantiles(self):
        assert inference.f_sf(4.35, 3, 7) == pytest.approx(0.05, abs=5e-3)
        assert inference.f_sf(18.51, 1, 2) == pytest.approx(0.05, abs=5e-3)

    def test_zero(self):
        assert inference.f_sf(0.0, 3, 7) == 1.0

    def test_invalid_dof(self):
        with pytest.raises(AnalysisError, match="^degrees of freedom must be >= 1, got 0, 7$"):
            inference.f_sf(1.0, 0, 7)

    def test_critical_inverts_cdf(self):
        for alpha, d1, d2 in [(0.05, 3, 7), (0.05, 1, 2), (0.01, 4, 3), (0.2, 9, 5)]:
            crit = inference.f_critical(alpha, d1, d2)
            assert inference.f_sf(crit, d1, d2) == pytest.approx(alpha, abs=1e-10)

    @given(
        x=st.floats(1e-3, 1e3),
        d1=st.integers(1, 40),
        d2=st.integers(1, 40),
    )
    @settings(deadline=None)
    def test_reciprocal_identity(self, x, d1, d2):
        lhs = inference.f_sf(x, d1, d2)
        rhs = 1.0 - inference.f_sf(1.0 / x, d2, d1)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(
        d1=st.integers(1, 30),
        d2=st.integers(1, 30),
        a=st.floats(0.0, 50.0),
        b=st.floats(0.0, 50.0),
    )
    @settings(deadline=None)
    def test_monotone(self, d1, d2, a, b):
        lo, hi = sorted((a, b))
        assert inference.f_sf(lo, d1, d2) >= inference.f_sf(hi, d1, d2) - 1e-15

    @pytest.mark.parametrize(
        "x, d1, d2",
        [
            (15.0, 9, 2990),    # 4.2e-24; one minus the CDF reads 0.0
            (30.0, 9, 2990),
            (1e-3, 1, 1),
            (0.5, 3, 7),
            (4.35, 3, 7),
            (18.51, 1, 2),
            (2.0, 40, 40),
            (9.12, 4, 3),
            (145125.0, 4, 3),
            (85.809, 3, 2),
            (100.0, 4, 396),
            (1e6, 10, 5),
        ],
    )
    def test_matches_scipy_upper_tail(self, x, d1, d2):
        from scipy import stats

        expected = stats.f.sf(x, d1, d2)
        assert expected > 0.0
        assert inference.f_sf(x, d1, d2) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "x, d1, d2, expected",
        [
            # 60-digit evaluations (mpmath) of the incomplete beta continued
            # fraction with exact log-gamma; scipy's F tail is off by 2.6e-3
            # and 7.5e-6 on the first two, by 2.1e-12 on the third
            (208796.45104185262, 64, 128, 6.293729237304106e-297),
            (95.56822272529544, 38, 902, 1.393108882120598e-286),
            (2.4844473416646906, 44, 77302, 1.7966614239902208e-07),
            (13.437736951878566, 40, 98496, 4.5684893452683495e-88),
            (3.0, 1, 100000, 0.08326760027014629),
            (50.0, 3000, 3, 0.003840100665561819),
        ],
    )
    def test_matches_high_precision_reference(self, x, d1, d2, expected):
        assert inference.f_sf(x, d1, d2) == pytest.approx(expected, rel=1e-12)

    @given(
        x=st.floats(1e-3, 1e6),
        d1=st.integers(1, 3000),
        d2=st.integers(1, 100_000),
    )
    @settings(deadline=None)
    def test_matches_scipy_on_the_whole_grid(self, x, d1, d2):
        from scipy import stats

        expected = stats.f.sf(x, d1, d2)
        # scipy's own tail loses digits below about 1e-250 (checked against
        # 60-digit values)
        assume(expected >= 1e-240)
        # scipy rounds the beta argument t = d2/(d2 + d1 x) (or 1 - t)
        # before the incomplete beta sees it; that rounding alone moves its
        # answer by up to kappa * eps, kappa = |d ln sf / d ln t|
        t = d2 / (d2 + d1 * x)
        kappa = x * stats.f.pdf(x, d1, d2) / (expected * min(t, 1.0 - t))
        assert inference.f_sf(x, d1, d2) == pytest.approx(
            expected, rel=1e-12 + 4 * np.finfo(float).eps * kappa
        )

    @given(x=st.floats(1e-3, 1e6), d2=st.integers(1, 100_000))
    @settings(deadline=None)
    def test_two_numerator_df_closed_form(self, x, d2):
        # P(F(2, d2) > x) = (1 + 2 x / d2)^(-d2 / 2), down to 1e-300
        expected = math.exp(-0.5 * d2 * math.log1p(2.0 * x / d2))
        assume(expected >= 1e-300)
        assert inference.f_sf(x, 2, d2) == pytest.approx(expected, rel=1e-12)

    def test_non_finite_argument(self):
        assert inference.f_sf(math.inf, 3, 7) == 0.0
        assert math.isnan(inference.f_sf(math.nan, 3, 7))

    @pytest.mark.parametrize(
        "alpha, d1, d2", [(0.05, 9, 2990), (0.05, 2843, 149), (0.01, 1, 100_000)]
    )
    def test_critical_round_trip_at_large_df(self, alpha, d1, d2):
        from scipy import stats

        crit = inference.f_critical(alpha, d1, d2)
        assert inference.f_sf(crit, d1, d2) == pytest.approx(alpha, rel=1e-12)
        assert crit == pytest.approx(stats.f.isf(alpha, d1, d2), rel=1e-12)

    @given(
        alpha=st.floats(1e-12, 0.999),
        d1=st.integers(1, 100_000),
        d2=st.integers(1, 100_000),
    )
    @settings(deadline=None)
    def test_critical_round_trip(self, alpha, d1, d2):
        crit = inference.f_critical(alpha, d1, d2)
        assert inference.f_sf(crit, d1, d2) == pytest.approx(alpha, rel=1e-12)

    def test_critical_beyond_the_cap_is_infinite(self):
        # P(F(1, 1) > e^690) is about 1e-150, far above alpha
        assert inference.f_critical(1e-300, 1, 1) == math.inf

    @pytest.mark.parametrize(
        "alpha, d1, d2", [(1e-10, 1, 126), (1e-300, 3, 1000), (1e-300, 1, 3)]
    )
    def test_critical_after_an_underflowing_step(self, alpha, d1, d2):
        # Newton overshoots from x = 1 to where the tail or its slope
        # underflows, so the next iterate is the bracket's midpoint
        crit = inference.f_critical(alpha, d1, d2)
        assert inference.f_sf(crit, d1, d2) == pytest.approx(alpha, rel=1e-11)

    def test_critical_on_the_whole_grid(self, monkeypatch):
        calls = 0
        tail = inference._f_sf_and_prefactor

        def counted(x, df1, df2):
            nonlocal calls
            calls += 1
            return tail(x, df1, df2)

        monkeypatch.setattr(inference, "_f_sf_and_prefactor", counted)
        alphas = [1e-300, 1e-100, 1e-30, *np.logspace(-10, math.log10(0.999), 9)]
        dfs = [int(d) for d in np.round(np.logspace(0, 7, 11))]
        for alpha in map(float, alphas):
            for d1 in dfs:
                for d2 in dfs:
                    calls = 0
                    crit = inference.f_critical(alpha, d1, d2)
                    assert calls <= 24, (alpha, d1, d2)
                    if crit == math.inf:
                        assert inference.f_sf(math.exp(inference._LN_X_LIMIT), d1, d2) > alpha
                    else:
                        assert inference.f_sf(crit, d1, d2) == pytest.approx(
                            alpha, rel=1e-11
                        ), (alpha, d1, d2)


class TestNormalQuantile:
    def test_plot_positions_match_scipy(self):
        from scipy import special

        n = 3000
        probs = (np.arange(1, n + 1) - 0.375) / (n + 0.25)
        got = inference.normal_plot_positions(n)
        assert np.max(np.abs(got - special.ndtri(probs))) <= 2e-15

    def test_central_and_near_tail(self):
        from scipy import special

        # Blom's positions for n below 4.5e10 lie in [1.39e-11, 1 - 1.39e-11]
        p = np.concatenate([
            np.logspace(-10.85, -1.2, 60),  # near tail
            np.linspace(0.076, 0.924, 61),  # central
            1.0 - np.logspace(-10.85, -2, 30),
        ])
        ref = special.ndtri(p)
        got = inference._probit(p)
        assert np.all(np.abs(got - ref) <= 2e-15 * np.maximum(np.abs(ref), 1.0))
        scalar = float(inference._probit(0.975))
        assert scalar == pytest.approx(1.959963984540054, rel=1e-15)


class TestResidualDiagnostics:
    def test_zero_residuals_flat_line(self):
        from types import SimpleNamespace

        diag = inference.residual_diagnostics(
            SimpleNamespace(fitted=np.arange(4.0), residuals=np.zeros(4))
        )
        assert np.all(diag.normal_plot[1] == 0.0)

    def test_ordinates_sorted(self, adiabatic_case):
        _, fit = adiabatic_case
        diag = inference.residual_diagnostics(fit)
        quantiles, ordinates = diag.normal_plot
        assert ordinates.tolist() == sorted(ordinates.tolist())
        assert quantiles.shape == ordinates.shape == (11,)

    def test_scatter_in_run_order(self, adiabatic_case):
        _, fit = adiabatic_case
        diag = inference.residual_diagnostics(fit)
        assert diag.scatter[0].tolist() == list(fit.fitted)

    def test_signed_zeros_keep_run_order(self):
        from types import SimpleNamespace

        diag = inference.residual_diagnostics(SimpleNamespace(
            fitted=np.zeros(5), residuals=np.array([0.0, -0.0, 1.0, -0.0, 0.0])
        ))
        ordered = diag.normal_plot[1]
        assert ordered.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
        assert np.signbit(ordered).tolist() == [False, True, True, False, False]

    def test_ordinates_are_the_stable_sort(self):
        from types import SimpleNamespace

        rng = np.random.default_rng(5)
        resid = rng.integers(-3, 4, 500) * 0.5
        resid[rng.random(500) < 0.2] *= -1.0  # signed zeros among the ties
        diag = inference.residual_diagnostics(
            SimpleNamespace(fitted=np.zeros(500), residuals=resid)
        )
        stable = resid[np.argsort(resid, kind="stable")]
        assert diag.normal_plot[1].tobytes() == stable.tobytes()

    def test_symmetric_pair_positions(self):
        from types import SimpleNamespace

        diag = inference.residual_diagnostics(
            SimpleNamespace(fitted=np.zeros(2), residuals=np.array([0.7, -0.7]))
        )
        (q1, q2), (r1, r2) = diag.normal_plot
        assert q1 == pytest.approx(-q2, abs=1e-12)
        assert (r1, r2) == (-0.7, 0.7)


class TestBoxWetz:
    # the margin is critical F over observed lack-of-fit F
    def test_equal_values_not_useful(self):
        ratio, useful = inference.box_wetz_ratio(f_critical=9.12, f_lack_of_fit=9.12)
        assert ratio == 1.0
        assert not useful

    def test_threshold(self):
        assert inference.box_wetz_ratio(f_critical=40.0, f_lack_of_fit=10.0) == (4.0, True)
        assert inference.box_wetz_ratio(f_critical=39.9, f_lack_of_fit=10.0)[1] is False

    def test_rejects_bad_critical(self):
        # a zero lack-of-fit F leaves the margin undefined
        with pytest.raises(AnalysisError, match=r"^lack-of-fit F must be positive, got 0\.0$"):
            inference.box_wetz_ratio(f_critical=1.0, f_lack_of_fit=0.0)


class TestMlrPartition:
    """The about-mean figures of a plain fit, derived from the z = 1
    solve: y'y - n ybar^2 with df n - 1, regression df p."""

    def test_first_order_reference(self, factorial, factorial_config):
        a = analyze(factorial, factorial_config, "mlr1")
        sys, fit = a.system, a.fit
        assert a.ss_regression_about_mean == pytest.approx(2.287e4, rel=0.005)
        assert fit.ss_residual == pytest.approx(2.99e3, rel=0.005)
        assert (a.regression.df_num, sys.df_residual, sys.n_runs - 1) == (3, 7, 10)
        assert a.system.rank == 4
        assert sys.df_theory_gain == 0 and fit.ss_excess == 0.0
        f0 = (a.ss_regression_about_mean / 3) / (fit.ss_residual / 7)
        assert f0 == pytest.approx(17.85, rel=0.005)
        assert a.regression.f == f0
