"""Acceptance suite: the bundled pneumatic-gauge case study must reproduce
its reference results at fixed tolerances, and the randomized invariants of
the solver must hold.  One test per criterion; each prints a pass line."""

import numpy as np
import pytest

from hybridfit import dataset, gauge, hybrid, inference, report
from hybridfit.analysis import analyze
from hybridfit.dataset import DesignMatrix
from hybridfit.gauge import GaugeConstants


def approx_rel(expected, rel):
    return pytest.approx(expected, rel=rel)


@pytest.fixture(scope="module")
def first_order(factorial):
    design = dataset.build_design(dataset.code(factorial), "first")
    y = factorial.response
    _, groups = dataset.identical_rows(dataset.code(factorial))
    return design, y, groups


def hybrid_fit(factorial, first_order, column):
    design, y, groups = first_order
    sys = hybrid.assemble(design, factorial.extras[column])
    fit = hybrid.solve(sys, y)
    pe = inference.pure_error(y, groups, fit, sys.df_residual)
    f_design, f_theory_gain = (
        inference.f_test(ss, df, fit.ss_residual, sys.df_residual, 0.05).f
        for ss, df in [
            (fit.ss_design, sys.n_coef),
            (fit.ss_excess, sys.df_theory_gain),
        ]
    )
    f_lof = inference.f_test(
        pe.ss_lack_of_fit, pe.df_lack_of_fit, pe.ss_pure_error, pe.df_pure_error, 0.05
    ).f
    return fit, (f_design, f_theory_gain), pe, f_lof


def test_criterion_1_first_order_plain_fit(factorial, factorial_config):
    a = analyze(factorial, factorial_config, "mlr1")
    assert np.allclose(a.coef, (208.423, -34.409, 36.616, 18.277), atol=1e-3)

    pe = a.pure_error
    assert a.ss_regression_about_mean == approx_rel(2.287e4, 0.005)
    assert a.fit.ss_residual == approx_rel(2.99e3, 0.005)
    assert pe.ss_pure_error == approx_rel(0.949, 0.005)
    assert a.regression.f == approx_rel(17.85, 0.005)
    assert a.lack_of_fit.f == approx_rel(1260.0, 0.02)
    assert (a.regression.df_num, a.system.df_residual) == (3, 7)
    assert (pe.df_lack_of_fit, pe.df_pure_error) == (5, 2)
    # computed total df is n - 1 = 10; the reference table's printed 14 is a
    # known discrepancy and is not matched
    total = report.anova_tables(a)["anova_table3"].rows[-1]
    assert (total.source, total.df) == ("Total (about mean)", 10)
    print("[criterion 1] PASS - first-order plain fit reproduces reference table")


def test_criterion_2_second_order_plain_fit(boxbehnken, boxbehnken_config):
    a = analyze(boxbehnken, boxbehnken_config, "mlr2")
    assert np.allclose(
        a.coef,
        (212.598, -34.274, 38.221, 21.697, 0.286, -2.362, -6.333, -9.561,
         13.288, 6.227),
        atol=1e-3,
    )
    assert a.ss_regression_about_mean == approx_rel(2.624e4, 0.005)
    assert a.fit.ss_residual == approx_rel(123.114, 0.005)
    assert a.regression.f == approx_rel(118.419, 0.02)
    assert a.lack_of_fit.f == approx_rel(85.831, 0.02)
    print("[criterion 2] PASS - second-order plain fit reproduces reference table")


def test_criterion_3_adiabatic_hybrid_fit(factorial, first_order):
    fit, (f_design, f_theory_gain), pe, f_lof = hybrid_fit(
        factorial, first_order, "P_adiabatic"
    )
    assert np.allclose(
        fit.coef, (27.044, 4.607, 6.614, 3.894, 0.907, -0.012, -0.010, -0.016),
        atol=5e-3,
    )
    assert fit.ss_design == approx_rel(5.007e5, 0.005)
    assert fit.ss_excess == approx_rel(2986.0, 0.005)
    assert fit.ss_residual == approx_rel(4.432, 0.005)
    assert pe.ss_lack_of_fit == approx_rel(3.483, 0.005)
    assert pe.ss_pure_error == approx_rel(0.949, 0.005)
    assert f_design == approx_rel(84730.0, 0.02)
    assert f_theory_gain == approx_rel(505.0, 0.02)
    assert f_lof == approx_rel(7.342, 0.02)
    assert np.allclose(
        fit.fitted,
        (188.345, 126.913, 283.472, 154.861, 198.295, 166.684, 294.225,
         240.605, 213.083, 213.083, 213.083),
        atol=0.5,
    )
    print("[criterion 3] PASS - adiabatic theory-scaled fit reproduces reference")


def test_criterion_4_isochoric_hybrid_fit(
    factorial, factorial_config, boxbehnken, boxbehnken_config
):
    a = analyze(factorial, factorial_config, "hybrid", "column:P_isochoric")
    assert np.allclose(
        a.coef, (15.429, 5.647, 7.694, 2.555, 0.971, -0.006, -0.026, -0.013),
        atol=5e-3,
    )
    assert a.fit.ss_residual == approx_rel(2.586, 0.005)
    assert a.theory_gain.f == approx_rel(866.0, 0.02)
    assert a.lack_of_fit.f == approx_rel(3.45, 0.02)

    # headline ratios against the second-order plain fit
    mlr2 = analyze(boxbehnken, boxbehnken_config, "mlr2")
    assert mlr2.fit.ss_residual / a.fit.ss_residual == approx_rel(47.6, 0.02)
    sd_mlr2 = np.sqrt(mlr2.fit.ss_residual / (boxbehnken.n_runs - 1))
    sd_hybrid = np.sqrt(a.fit.ss_residual / (factorial.n_runs - 1))
    assert sd_mlr2 == approx_rel(2.965, 0.02)
    assert sd_hybrid == approx_rel(0.509, 0.02)
    print("[criterion 4] PASS - isochoric theory-scaled fit reproduces reference")


def test_criterion_5_gauge_solvers(factorial):
    constants = GaugeConstants(gamma=1.4, p_atm=101.325, c_orifice=1.0, c_sensor=1.0)
    adiabatic = gauge.simulate_design(factorial, "adiabatic", constants)
    isochoric = gauge.simulate_design(factorial, "isochoric", constants)
    assert np.allclose(adiabatic, factorial.extras["P_adiabatic"], atol=0.5)
    assert np.allclose(isochoric, factorial.extras["P_isochoric"], atol=0.5)
    print("[criterion 5] PASS - flow solvers match recorded columns within 0.5 kPa")


def test_criterion_6_randomized_property_suite(adiabatic_factor, isochoric_factor):
    rng = np.random.default_rng(9296)
    n_systems = 110
    for _ in range(n_systems):
        p1 = int(rng.integers(1, 7))
        n = int(rng.integers(2 * p1 + 1, 21))
        x = np.column_stack([np.ones(n), rng.uniform(-1, 1, size=(n, p1 - 1))])
        design = DesignMatrix(x, tuple(["1"] + [f"x{j}" for j in range(1, p1)]))
        z = rng.uniform(0.5, 3.0, size=n)
        y = rng.normal(10.0, 3.0, size=n)
        sys = hybrid.assemble(design, z)

        # projector identity and orthogonality
        p_aug = sys.augmented @ np.linalg.pinv(sys.augmented.T @ sys.augmented) @ sys.augmented.T
        proj_design = sys.basis_design @ sys.basis_design.T
        proj_excess = sys.basis_excess @ sys.basis_excess.T
        assert np.max(np.abs(p_aug - (proj_design + proj_excess))) < 1e-8
        assert np.max(np.abs(proj_design @ proj_excess)) < 1e-8

        # sum-of-squares additivity
        fit = hybrid.solve(sys, y)
        assert fit.ss_total == pytest.approx(
            fit.ss_design + fit.ss_excess + fit.ss_residual, rel=1e-6
        )

        # generalized-inverse route invariance of fitted values and
        # residual sum of squares
        direct = p_aug @ y
        scale = max(1.0, np.abs(y).max())
        assert np.max(np.abs(fit.fitted - direct)) < 1e-8 * scale
        ss_e_hat = float(y @ y - y @ p_aug @ y)
        assert ss_e_hat == pytest.approx(
            fit.ss_residual, rel=1e-8, abs=1e-8 * scale**2
        )

        # identity-theory reduction to ordinary least squares
        ones_sys = hybrid.assemble(design, np.ones(n))
        ones_fit = hybrid.solve(ones_sys, y)
        ols = np.linalg.lstsq(x, y, rcond=None)[0]
        assert np.max(np.abs(ones_fit.coef[:p1] - ols)) < 1e-9 * max(
            1.0, np.abs(ols).max()
        )

        # partitioned covariance equals the direct sandwich
        cov = sys.coef_map @ sys.coef_map.T
        m = sys.augmented.T @ sys.augmented
        g = np.linalg.pinv(m)
        sandwich = g @ m @ g.T
        assert np.max(np.abs(cov - sandwich)) < 1e-8 * max(1.0, np.abs(sandwich).max())

    # gauge branch continuity
    for gamma in np.linspace(1.1, 1.7, 13):
        rc = gauge.critical_pressure_ratio(gamma)
        lo = adiabatic_factor(rc * (1 - 1e-12), gamma)
        hi = adiabatic_factor(rc * (1 + 1e-12), gamma)
        assert abs(lo - hi) < 1e-9
    for p_up in np.linspace(120.0, 320.0, 10):
        lo = p_up * isochoric_factor(0.5 * (1 - 1e-12))
        hi = p_up * isochoric_factor(0.5 * (1 + 1e-12))
        assert abs(lo - hi) < 1e-9

    # monotonicity of the solved back-pressure on a 10x10 grid
    constants = GaugeConstants()
    areas, supplies = np.meshgrid(
        np.linspace(0.25, 1.3, 10), np.linspace(0.16, 0.31, 10), indexing="ij"
    )
    points = np.column_stack([areas.ravel(), supplies.ravel(), np.full(100, 0.7)])
    for model in ("adiabatic", "isochoric"):
        grid = gauge.solve_backpressures(model, points, constants).reshape(10, 10)
        assert np.all(np.diff(grid, axis=0) < 0.0)
        assert np.all(np.diff(grid, axis=1) > 0.0)
    print(f"[criterion 6] PASS - invariants hold on {n_systems} randomized systems")


def test_criterion_7_prediction_usefulness_verdicts(factorial, first_order):
    margins = {}
    for column, label in [("P_adiabatic", "adiabatic"), ("P_isochoric", "isochoric")]:
        _, _, pe, f_lof = hybrid_fit(factorial, first_order, column)
        crit = inference.f_critical(0.05, pe.df_lack_of_fit, pe.df_pure_error)
        margins[label] = inference.box_wetz_ratio(crit, f_lof)
    ratio_ad, useful_ad = margins["adiabatic"]
    ratio_iso, useful_iso = margins["isochoric"]
    assert ratio_ad == approx_rel(2.5, 0.05)
    assert not useful_ad
    assert ratio_iso == approx_rel(5.4, 0.05)
    assert useful_iso
    print("[criterion 7] PASS - prediction-usefulness margins and verdicts")
