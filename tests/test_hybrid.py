import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridfit import hybrid, inference
from hybridfit.dataset import DesignMatrix
from hybridfit.errors import InconsistencyError, RankError, ShapeError
from hybridfit.hybrid import TheoryVector

# Recorded stacked solutions and fitted columns of the case study's two
# theory-scaled fits.
COEF_ADIABATIC = (27.044, 4.607, 6.614, 3.894, 0.907, -0.012, -0.010, -0.016)
COEF_ISOCHORIC = (15.429, 5.647, 7.694, 2.555, 0.971, -0.006, -0.026, -0.013)
FITTED_ADIABATIC = (188.345, 126.913, 283.472, 154.861, 198.295, 166.684,
                    294.225, 240.605, 213.083, 213.083, 213.083)
FITTED_ISOCHORIC = (188.704, 126.729, 283.427, 154.948, 198.099, 166.922,
                    294.322, 240.681, 212.938, 212.938, 212.938)


def tiny_design() -> DesignMatrix:
    return DesignMatrix(np.ones((2, 1)), ("1",))


class TestTheoryVector:
    def test_rejects_non_finite(self):
        with pytest.raises(ShapeError):
            TheoryVector([1.0, np.inf])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            TheoryVector([])


class TestAssemble:
    def test_identity_theory_reduces_to_plain_design(self, factorial_design):
        sys = hybrid.assemble(factorial_design, TheoryVector(np.ones(11)))
        assert np.array_equal(sys.excess, np.zeros((11, 4)))
        assert np.array_equal(sys.excess_ortho, np.zeros((11, 4)))
        assert sys.rank == 4
        assert np.array_equal(sys.augmented[:, :4], factorial_design.values)
        assert np.array_equal(sys.augmented[:, 4:], np.zeros((11, 4)))

    @pytest.mark.parametrize("value", [0.0, 250.0, -3.0])
    def test_constant_theory_adds_no_rank(self, factorial_design, value):
        sys = hybrid.assemble(factorial_design, TheoryVector(np.full(11, value)))
        assert sys.rank == 4
        fit = hybrid.solve(sys, np.arange(11.0))
        assert np.array_equal(fit.coef_excess, np.zeros(4))

    def test_factorial_adiabatic_rank(self, factorial, factorial_design):
        theory = TheoryVector(factorial.extras["P_adiabatic"])
        sys = hybrid.assemble(factorial_design, theory)
        assert sys.augmented.shape == (11, 8)
        assert sys.rank == 8
        assert np.linalg.matrix_rank(sys.augmented, tol=1e-6) == 8

    def test_two_run_hand_computation(self):
        sys = hybrid.assemble(tiny_design(), TheoryVector([2.0, 3.0]))
        assert np.allclose(sys.excess, [[1.0], [2.0]], atol=1e-14)
        assert np.allclose(sys.excess_ortho, [[-0.5], [0.5]], atol=1e-14)

    def test_fit_path_stores_no_run_by_run_matrix(self, rng):
        n = 50
        x = DesignMatrix(
            np.column_stack([np.ones(n), rng.uniform(-1, 1, (n, 2))]),
            ("1", "x1", "x2"),
        )
        sys = hybrid.assemble(x, TheoryVector(rng.uniform(0.5, 3.0, n)))
        fit = hybrid.solve(sys, rng.normal(size=n))
        for obj in (sys, fit):
            for f in dataclasses.fields(obj):
                assert np.shape(getattr(obj, f.name)) != (n, n), f.name
        assert sys.basis_design.shape == (n, 3)
        assert sys.basis_excess.shape == (n, 3)

    def test_length_mismatch(self, factorial_design):
        with pytest.raises(ShapeError):
            hybrid.assemble(factorial_design, TheoryVector(np.ones(7)))


class TestSolve:
    @pytest.mark.parametrize(
        "column,expected_coef,expected_fitted",
        [
            ("P_adiabatic", COEF_ADIABATIC, FITTED_ADIABATIC),
            ("P_isochoric", COEF_ISOCHORIC, FITTED_ISOCHORIC),
        ],
    )
    def test_case_study_solutions(
        self, factorial, factorial_design, column, expected_coef, expected_fitted
    ):
        sys = hybrid.assemble(factorial_design, TheoryVector(factorial.extras[column]))
        fit = hybrid.solve(sys, factorial.response)
        assert np.allclose(fit.coef, expected_coef, atol=5e-3)
        assert np.allclose(fit.fitted, expected_fitted, atol=0.5)
        assert not fit.saturated
        assert fit.sigma2 == pytest.approx(fit.ss_residual / 3)

    def test_identity_theory_reproduces_ols(self, factorial, factorial_design):
        sys = hybrid.assemble(factorial_design, TheoryVector(np.ones(11)))
        fit = hybrid.solve(sys, factorial.response)
        ols = np.linalg.lstsq(factorial_design.values, factorial.response, rcond=None)[0]
        assert np.allclose(fit.coef_design, ols, atol=1e-9)
        assert np.array_equal(fit.coef_excess, np.zeros(4))

    def test_response_in_column_space_fits_exactly(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, TheoryVector(factorial.extras["P_adiabatic"])
        )
        beta = np.arange(1.0, 9.0)
        y = sys.augmented @ beta
        fit = hybrid.solve(sys, y)
        assert np.allclose(fit.fitted, y, atol=1e-8)
        assert fit.ss_residual == pytest.approx(0.0, abs=1e-12)

    def test_residuals_orthogonal_to_augmented_columns(
        self, factorial, factorial_design
    ):
        sys = hybrid.assemble(
            factorial_design, TheoryVector(factorial.extras["P_isochoric"])
        )
        fit = hybrid.solve(sys, factorial.response)
        assert np.max(np.abs(sys.augmented.T @ fit.residuals)) < 1e-7

    def test_rank_deficient_design_rejected(self):
        x = DesignMatrix(np.ones((3, 2)) * [1.0, 1.0], ("1", "x1"))
        sys = hybrid.assemble(x, TheoryVector([1.0, 2.0, 3.0]))
        with pytest.raises(RankError):
            hybrid.solve(sys, np.zeros(3))

    def test_cross_check_catches_wrong_coefficients(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, TheoryVector(factorial.extras["P_adiabatic"])
        )
        bad = dataclasses.replace(sys, coef_map=sys.coef_map * (1.0 + 1e-6))
        with pytest.raises(InconsistencyError, match="coefficient and projection"):
            hybrid.solve(bad, factorial.response)

    def test_cross_check_catches_overlapping_bases(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, TheoryVector(factorial.extras["P_adiabatic"])
        )
        # one design direction repeated in the excess basis is counted twice;
        # the coefficient map follows it, so the fitted values still agree
        q = sys.basis_design[:, 0]
        basis = np.column_stack([sys.basis_excess, q])
        coef_map = np.column_stack([sys.coef_map, np.linalg.pinv(sys.augmented) @ q])
        bad = dataclasses.replace(sys, basis_excess=basis, coef_map=coef_map)
        with pytest.raises(InconsistencyError, match="sums of squares"):
            hybrid.solve(bad, factorial.response)

    def test_non_finite_response_fails_the_cross_check(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, TheoryVector(factorial.extras["P_adiabatic"])
        )
        y = factorial.response.copy()
        y[4] = np.nan
        with pytest.raises(InconsistencyError):
            hybrid.solve(sys, y)

    def test_saturated_fit_flagged(self):
        sys = hybrid.assemble(tiny_design(), TheoryVector([2.0, 3.0]))
        fit = hybrid.solve(sys, np.array([1.0, 4.0]))
        assert fit.saturated
        assert fit.sigma2 is None
        assert fit.coef_cov is None


class TestRankEdge:
    """z = 1.5 + 0.2 x1 + eps x2^2 on a random first-order design: one
    direction of the orthogonalized excess block has size of order eps, so
    sweeping eps walks the system across the rank tolerance."""

    @given(
        log_eps=st.floats(min_value=-9.0, max_value=-3.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(log_eps=-5.0, seed=40)
    @example(log_eps=-6.0, seed=40)
    @example(log_eps=-7.0, seed=40)
    @example(log_eps=-8.0, seed=40)
    @example(log_eps=-9.0, seed=40)
    @settings(max_examples=60, deadline=None)
    def test_solve_and_partition_agree(self, log_eps, seed):
        rng = np.random.default_rng(seed)
        n = 40
        coded = rng.uniform(-1.0, 1.0, size=(n, 3))
        design = DesignMatrix(
            np.column_stack([np.ones(n), coded]), ("1", "x1", "x2", "x3")
        )
        z = 1.5 + 0.2 * coded[:, 0] + 10.0**log_eps * coded[:, 1] ** 2
        y = rng.normal(10.0, 3.0, size=n)
        sys = hybrid.assemble(design, TheoryVector(z))
        fit = hybrid.solve(sys, y)  # a valid input: no InconsistencyError
        part = inference.partition(sys, fit)
        assert fit.ss_residual == pytest.approx(part.ss_residual, rel=1e-8)
        assert fit.sigma2 == pytest.approx(part.ss_residual / part.df_residual, rel=1e-8)


class TestFittedValues:
    def test_projection_route_agrees(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, TheoryVector(factorial.extras["P_adiabatic"])
        )
        fit = hybrid.solve(sys, factorial.response)
        assert np.allclose(sys.augmented @ fit.coef, fit.fitted, atol=1e-8)
        projected = (sys.proj_design + sys.proj_excess) @ factorial.response
        assert np.allclose(projected, fit.fitted, atol=1e-8)


class TestCovariance:
    def test_identity_theory_blocks(self, factorial_design):
        sys = hybrid.assemble(factorial_design, TheoryVector(np.ones(11)))
        s2 = 1.7
        cov, cross = hybrid.covariance_of_solution(sys, s2)
        x = factorial_design.values
        assert np.allclose(cov[:4, :4], np.linalg.inv(x.T @ x) * s2, atol=1e-12)
        assert np.allclose(cov[4:, 4:], np.zeros((4, 4)), atol=1e-14)
        assert np.allclose(cross, np.zeros((4, 4)), atol=1e-14)

    def test_zero_sigma2_gives_zero(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, TheoryVector(factorial.extras["P_adiabatic"])
        )
        cov, cross = hybrid.covariance_of_solution(sys, 0.0)
        assert np.array_equal(cov, np.zeros((8, 8)))

    def test_excess_block_stated_form(self, factorial, factorial_design):
        # block (2,2) written with the excess matrix: Q^- Z'Y Q^- sigma2
        z = factorial.extras["P_adiabatic"]
        sys = hybrid.assemble(factorial_design, TheoryVector(z))
        s2 = 1.31
        cov, _ = hybrid.covariance_of_solution(sys, s2)
        q_inv = np.linalg.pinv(sys.excess_ortho.T @ sys.excess_ortho)
        stated = q_inv @ (sys.excess_ortho.T @ sys.excess) @ q_inv * s2
        assert np.allclose(cov[4:, 4:], stated, atol=1e-8 * np.abs(stated).max())

    def test_random_system_matches_direct_sandwich(self, rng):
        # n=6, one coefficient per block: the augmented normal-equations
        # matrix is invertible, so the partitioned form must equal the
        # sandwich evaluated with the Moore-Penrose inverse.
        for _ in range(10):
            x = DesignMatrix(
                np.column_stack([np.ones(6), rng.uniform(-1, 1, 6)]), ("1", "x1")
            )
            z = rng.uniform(0.5, 3.0, 6)
            sys = hybrid.assemble(x, TheoryVector(z))
            s2 = float(rng.uniform(0.1, 2.0))
            cov, _ = hybrid.covariance_of_solution(sys, s2)
            m = sys.augmented.T @ sys.augmented
            g = np.linalg.pinv(m)
            sandwich = g @ m @ g.T * s2
            assert np.allclose(cov, sandwich, atol=1e-8 * max(1.0, np.abs(sandwich).max()))

    def test_positive_semidefinite(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, TheoryVector(factorial.extras["P_isochoric"])
        )
        fit = hybrid.solve(sys, factorial.response)
        eigvals = np.linalg.eigvalsh(fit.coef_cov)
        assert eigvals.min() > -1e-8 * max(1.0, eigvals.max())

    def test_monte_carlo_agreement(self, factorial, factorial_design):
        # simulate noisy responses around a known mean; the empirical
        # covariance of the solution must match the analytic formula
        sys = hybrid.assemble(
            factorial_design, TheoryVector(factorial.extras["P_adiabatic"])
        )
        beta = np.array([20.0, 4.0, 6.0, 3.0, 0.9, -0.01, -0.01, -0.02])
        mean = sys.augmented @ beta
        sigma = 1.2
        rng = np.random.default_rng(4242)
        n_rep = 30_000
        ys = mean + sigma * rng.standard_normal((n_rep, 11))
        solve_mat = np.linalg.pinv(sys.augmented.T @ sys.augmented) @ sys.augmented.T
        coefs = ys @ solve_mat.T
        emp_cov = np.cov(coefs.T)
        ana_cov, _ = hybrid.covariance_of_solution(sys, sigma**2)
        scale = np.abs(ana_cov) + 1e-3 * np.abs(ana_cov).max()
        assert np.max(np.abs(emp_cov - ana_cov) / scale) < 0.05

        emp_fit_cov = np.cov((ys @ (sys.proj_design + sys.proj_excess).T).T)
        ana_fit_cov = hybrid.variance_of_fit(sys, sigma**2)
        assert np.max(np.abs(emp_fit_cov - ana_fit_cov)) < 0.05 * np.abs(
            ana_fit_cov
        ).max()


class TestVarianceOfFit:
    def test_identity_theory(self, factorial_design):
        sys = hybrid.assemble(factorial_design, TheoryVector(np.ones(11)))
        x = factorial_design.values
        expected = x @ np.linalg.inv(x.T @ x) @ x.T * 2.0
        assert np.allclose(hybrid.variance_of_fit(sys, 2.0), expected, atol=1e-10)

    def test_trace_counts_rank(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, TheoryVector(factorial.extras["P_adiabatic"])
        )
        v = hybrid.variance_of_fit(sys, 3.0)
        assert np.trace(v) / 3.0 == pytest.approx(8.0, abs=1e-8)

    def test_zero_sigma2(self, factorial_design):
        sys = hybrid.assemble(factorial_design, TheoryVector(np.ones(11)))
        assert np.array_equal(
            hybrid.variance_of_fit(sys, 0.0), np.zeros((11, 11))
        )

    def test_equals_augmented_projector(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, TheoryVector(factorial.extras["P_adiabatic"])
        )
        direct = (
            sys.augmented
            @ np.linalg.pinv(sys.augmented.T @ sys.augmented)
            @ sys.augmented.T
        )
        assert np.allclose(hybrid.variance_of_fit(sys, 1.0), direct, atol=1e-8)


def coefficient_operator(sys) -> np.ndarray:
    """The generalized inverse the solve applies to y: coef = G @ y."""
    return sys.coef_map @ np.vstack([sys.basis_design.T, sys.basis_excess.T])


class TestEstimability:
    def test_idempotent(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, TheoryVector(factorial.extras["P_adiabatic"])
        )
        j = coefficient_operator(sys) @ sys.augmented
        assert np.allclose(j @ j, j, atol=1e-8)
        # full-rank augmented system: everything is estimable
        assert np.allclose(j, np.eye(8), atol=1e-8)

    def test_rank_deficient_case(self, factorial_design):
        sys = hybrid.assemble(factorial_design, TheoryVector(np.ones(11)))
        g = coefficient_operator(sys)
        j = g @ sys.augmented
        assert np.allclose(j @ j, j, atol=1e-10)
        assert np.trace(j) == pytest.approx(4.0, abs=1e-9)
        assert np.allclose(sys.augmented @ j, sys.augmented, atol=1e-10)
