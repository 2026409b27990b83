import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridfit import hybrid
from hybridfit.dataset import DesignMatrix, build_design
from hybridfit.errors import InconsistencyError, RankError, SaturatedModelError, ShapeError
from hybridfit.tolerances import RANK_TOL

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


def excess_block(sys) -> np.ndarray:
    """(diag(z) - I) X, the regressors the theory scaling adds."""
    return sys.augmented[:, sys.n_coef:]


def excess_ortho(sys) -> np.ndarray:
    """The excess block less its projection onto the design columns."""
    excess = excess_block(sys)
    return excess - sys.basis_design @ (sys.basis_design.T @ excess)


def fit_projector(sys) -> np.ndarray:
    """Q_X Q_X' + Q_E Q_E', the projector that maps y to the fitted values."""
    return sys.basis_design @ sys.basis_design.T + sys.basis_excess @ sys.basis_excess.T


def solution_covariance(sys, sigma2) -> np.ndarray:
    """sigma2 * coef_map @ coef_map', the covariance of the stacked
    coefficients that the solve reports."""
    return (sys.coef_map @ sys.coef_map.T) * sigma2


class TestTheoryVector:
    """``assemble``'s checks on z, the theory response of each run."""

    def test_rejects_non_finite(self):
        with pytest.raises(ShapeError, match="theory vector has non-finite entries"):
            hybrid.assemble(tiny_design(), [1.0, np.inf])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError, match="2 design rows but 0 theory values"):
            hybrid.assemble(tiny_design(), [])


class TestAssemble:
    def test_identity_theory_reduces_to_plain_design(self, factorial_design):
        sys = hybrid.assemble(factorial_design, np.ones(11))
        assert np.array_equal(excess_block(sys), np.zeros((11, 4)))
        assert np.array_equal(excess_ortho(sys), np.zeros((11, 4)))
        assert sys.rank == 4
        assert np.array_equal(sys.augmented[:, :4], factorial_design.values)
        assert np.array_equal(sys.augmented[:, 4:], np.zeros((11, 4)))

    @pytest.mark.parametrize("value", [0.0, 250.0, -3.0])
    def test_constant_theory_adds_no_rank(self, factorial_design, value):
        sys = hybrid.assemble(factorial_design, np.full(11, value))
        assert sys.rank == 4
        fit = hybrid.solve(sys, np.arange(11.0))
        assert np.array_equal(fit.coef[4:], np.zeros(4))

    def test_factorial_adiabatic_rank(self, factorial, factorial_design):
        theory = factorial.extras["P_adiabatic"]
        sys = hybrid.assemble(factorial_design, theory)
        assert sys.augmented.shape == (11, 8)
        assert sys.rank == 8
        assert np.linalg.matrix_rank(sys.augmented, tol=1e-6) == 8

    def test_two_run_hand_computation(self):
        sys = hybrid.assemble(tiny_design(), [2.0, 3.0])
        assert np.allclose(excess_block(sys), [[1.0], [2.0]], atol=1e-14)
        assert np.allclose(excess_ortho(sys), [[-0.5], [0.5]], atol=1e-14)

    def test_fit_path_stores_no_run_by_run_matrix(self, rng):
        n = 50
        x = DesignMatrix(
            np.column_stack([np.ones(n), rng.uniform(-1, 1, (n, 2))]),
            ("1", "x1", "x2"),
        )
        sys = hybrid.assemble(x, rng.uniform(0.5, 3.0, n))
        fit = hybrid.solve(sys, rng.normal(size=n))
        for obj in (sys, fit):
            for name in obj._fields:
                assert getattr(getattr(obj, name), "shape", ()) != (n, n), name
        assert sys.basis_design.shape == (n, 3)
        assert sys.basis_excess.shape == (n, 3)

    def test_length_mismatch(self, factorial_design):
        with pytest.raises(ShapeError):
            hybrid.assemble(factorial_design, np.ones(7))



class TestPlainSystem:
    """Without a theory the system is X alone, and it solves to the fit of
    the unit theory, whose excess block is zero."""

    @settings(max_examples=60, deadline=None)
    @given(
        order=st.sampled_from(["first", "second"]),
        k=st.integers(1, 3),
        spare=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_unit_theory(self, order, k, spare, seed):
        rng = np.random.default_rng(seed)
        p1 = 1 + k if order == "first" else 1 + 2 * k + k * (k - 1) // 2
        n = p1 + spare
        design = build_design(rng.uniform(-1.0, 1.0, (n, k)), order)
        y = rng.normal(10.0, 3.0, n)
        plain = hybrid.assemble(design, None)
        ones = hybrid.assemble(design, np.ones(n))
        assert plain.z is None and np.shares_memory(plain.augmented, design.values)
        assert plain.basis_excess.shape == (n, 0) and plain.coef_map.shape == (p1, p1)
        assert plain.rank == ones.rank == p1
        got, want = hybrid.solve(plain, y), hybrid.solve(ones, y)
        for name in ("fitted", "residuals"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for name in ("ss_total", "ss_design", "ss_excess", "ss_residual"):
            assert getattr(got, name) == getattr(want, name), name
        coef, cov = want.coef[:p1], want.coef_cov[:p1, :p1]
        assert np.max(np.abs(got.coef - coef)) <= 1e-12 * np.max(np.abs(coef))
        assert np.max(np.abs(got.coef_cov - cov)) <= 1e-12 * np.max(np.abs(cov))


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
        sys = hybrid.assemble(factorial_design, factorial.extras[column])
        fit = hybrid.solve(sys, factorial.response)
        assert np.allclose(fit.coef, expected_coef, atol=5e-3)
        assert np.allclose(fit.fitted, expected_fitted, atol=0.5)
        assert fit.sigma2 == pytest.approx(fit.ss_residual / 3)

    def test_identity_theory_reproduces_ols(self, factorial, factorial_design):
        sys = hybrid.assemble(factorial_design, np.ones(11))
        fit = hybrid.solve(sys, factorial.response)
        ols = np.linalg.lstsq(factorial_design.values, factorial.response, rcond=None)[0]
        assert np.allclose(fit.coef[:4], ols, atol=1e-9)
        assert np.array_equal(fit.coef[4:], np.zeros(4))

    def test_response_in_column_space_fits_exactly(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, factorial.extras["P_adiabatic"]
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
            factorial_design, factorial.extras["P_isochoric"]
        )
        fit = hybrid.solve(sys, factorial.response)
        assert np.max(np.abs(sys.augmented.T @ fit.residuals)) < 1e-7

    def test_rank_deficient_design_rejected(self):
        x = DesignMatrix(np.ones((3, 2)) * [1.0, 1.0], ("1", "x1"))
        sys = hybrid.assemble(x, [1.0, 2.0, 3.0])
        with pytest.raises(RankError):
            hybrid.solve(sys, np.zeros(3))

    def test_cross_check_catches_wrong_coefficients(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, factorial.extras["P_adiabatic"]
        )
        bad = sys._replace(coef_map=sys.coef_map * (1.0 + 1e-6))
        with pytest.raises(InconsistencyError, match="coefficient and projection"):
            hybrid.solve(bad, factorial.response)

    def test_cross_check_catches_overlapping_bases(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, factorial.extras["P_adiabatic"]
        )
        # one design direction repeated in the excess basis is counted twice;
        # the coefficient map follows it, so the fitted values still agree
        q = sys.basis_design[:, 0]
        basis = np.column_stack([sys.basis_excess, q])
        coef_map = np.column_stack([sys.coef_map, np.linalg.pinv(sys.augmented) @ q])
        bad = sys._replace(basis_excess=basis, coef_map=coef_map)
        with pytest.raises(InconsistencyError, match="sums of squares"):
            hybrid.solve(bad, factorial.response)

    def test_non_finite_response_fails_the_cross_check(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, factorial.extras["P_adiabatic"]
        )
        y = factorial.response.copy()
        y[4] = np.nan
        with pytest.raises(InconsistencyError):
            hybrid.solve(sys, y)

    def test_saturated_fit_flagged(self):
        # two runs, rank 2: the error variance is not estimable
        sys = hybrid.assemble(tiny_design(), [2.0, 3.0])
        assert sys.df_residual == 0
        with pytest.raises(SaturatedModelError, match="no residual degrees of freedom"):
            hybrid.solve(sys, np.array([1.0, 4.0]))


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
        sys = hybrid.assemble(design, z)
        fit = hybrid.solve(sys, y)  # a valid input: no InconsistencyError
        assert fit.ss_residual == pytest.approx(
            float(fit.residuals @ fit.residuals), rel=1e-8
        )
        assert fit.sigma2 == pytest.approx(fit.ss_residual / (n - sys.rank), rel=1e-8)

    def test_excess_is_cut_against_the_design_scale(self):
        # One two-level factor with z = 0 on the low runs and 1 on the high
        # ones: (z - 1) X lies in col(X), yet |[X | (z - 1) X]|_2 exceeds
        # sigma_1(X).  Moving z on one low run by delta leaves one excess
        # direction of size sqrt(4/3) delta, placed between the two scales'
        # cuts: above RANK_TOL sigma_1(X), so it counts in the rank.
        x = np.repeat([-1.0, 1.0], 3)
        design = DesignMatrix(np.column_stack([np.ones(6), x]), ("1", "x1"))
        z = np.repeat([0.0, 1.0], 3)
        z[0] = 2.9e-10 / np.sqrt(4.0 / 3.0)
        sys = hybrid.assemble(design, z)
        sigma_x = np.linalg.norm(design.values, 2)
        sigma_system = np.linalg.norm(sys.augmented, 2)
        excess = np.linalg.svd(excess_ortho(sys), compute_uv=False)
        assert RANK_TOL * sigma_x < excess[0] < RANK_TOL * sigma_system
        assert excess[1] < 1e-15 * sigma_x
        assert sys.basis_excess.shape == (6, 1)
        assert sys.rank == 3


class TestFittedValues:
    def test_projection_route_agrees(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, factorial.extras["P_adiabatic"]
        )
        fit = hybrid.solve(sys, factorial.response)
        assert np.allclose(sys.augmented @ fit.coef, fit.fitted, atol=1e-8)
        projected = fit_projector(sys) @ factorial.response
        assert np.allclose(projected, fit.fitted, atol=1e-8)


class TestCovariance:
    def test_identity_theory_blocks(self, factorial_design):
        sys = hybrid.assemble(factorial_design, np.ones(11))
        s2 = 1.7
        cov = solution_covariance(sys, s2)
        x = factorial_design.values
        assert np.allclose(cov[:4, :4], np.linalg.inv(x.T @ x) * s2, atol=1e-12)
        assert np.allclose(cov[4:, 4:], np.zeros((4, 4)), atol=1e-14)
        assert np.allclose(cov[:4, 4:], np.zeros((4, 4)), atol=1e-14)

    def test_zero_sigma2_gives_zero(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, factorial.extras["P_adiabatic"]
        )
        fit = hybrid.solve(sys, np.zeros(11))  # an exactly zero residual
        assert fit.sigma2 == 0.0
        assert np.array_equal(fit.coef_cov, np.zeros((8, 8)))

    def test_excess_block_stated_form(self, factorial, factorial_design):
        # block (2,2) written with the excess matrix: Q^- Z'Y Q^- sigma2
        z = factorial.extras["P_adiabatic"]
        sys = hybrid.assemble(factorial_design, z)
        s2 = 1.31
        cov = solution_covariance(sys, s2)
        ortho = excess_ortho(sys)
        q_inv = np.linalg.pinv(ortho.T @ ortho)
        stated = q_inv @ (ortho.T @ excess_block(sys)) @ q_inv * s2
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
            sys = hybrid.assemble(x, z)
            s2 = float(rng.uniform(0.1, 2.0))
            cov = solution_covariance(sys, s2)
            m = sys.augmented.T @ sys.augmented
            g = np.linalg.pinv(m)
            sandwich = g @ m @ g.T * s2
            assert np.allclose(cov, sandwich, atol=1e-8 * max(1.0, np.abs(sandwich).max()))

    def test_positive_semidefinite(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, factorial.extras["P_isochoric"]
        )
        fit = hybrid.solve(sys, factorial.response)
        assert np.allclose(fit.coef_cov, solution_covariance(sys, fit.sigma2), rtol=1e-12, atol=0)
        eigvals = np.linalg.eigvalsh(fit.coef_cov)
        assert eigvals.min() > -1e-8 * max(1.0, eigvals.max())

    def test_monte_carlo_agreement(self, factorial, factorial_design):
        # simulate noisy responses around a known mean; the empirical
        # covariance of the solution must match the analytic formula
        sys = hybrid.assemble(
            factorial_design, factorial.extras["P_adiabatic"]
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
        ana_cov = solution_covariance(sys, sigma**2)
        scale = np.abs(ana_cov) + 1e-3 * np.abs(ana_cov).max()
        assert np.max(np.abs(emp_cov - ana_cov) / scale) < 0.05

        emp_fit_cov = np.cov((ys @ fit_projector(sys).T).T)
        ana_fit_cov = fit_projector(sys) * sigma**2
        assert np.max(np.abs(emp_fit_cov - ana_fit_cov)) < 0.05 * np.abs(
            ana_fit_cov
        ).max()


class TestVarianceOfFit:
    """The covariance of the fitted values, sigma2 times the projector
    Q_X Q_X' + Q_E Q_E' formed from the two bases."""

    def test_identity_theory(self, factorial_design):
        sys = hybrid.assemble(factorial_design, np.ones(11))
        x = factorial_design.values
        expected = x @ np.linalg.inv(x.T @ x) @ x.T * 2.0
        assert np.allclose(fit_projector(sys) * 2.0, expected, atol=1e-10)

    def test_trace_counts_rank(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, factorial.extras["P_adiabatic"]
        )
        v = fit_projector(sys) * 3.0
        assert np.trace(v) / 3.0 == pytest.approx(8.0, abs=1e-8)

    def test_zero_sigma2(self, factorial_design):
        sys = hybrid.assemble(factorial_design, np.ones(11))
        fit = hybrid.solve(sys, np.zeros(11))  # an exactly zero residual
        assert np.array_equal(fit_projector(sys) * fit.sigma2, np.zeros((11, 11)))

    def test_equals_augmented_projector(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, factorial.extras["P_adiabatic"]
        )
        direct = (
            sys.augmented
            @ np.linalg.pinv(sys.augmented.T @ sys.augmented)
            @ sys.augmented.T
        )
        assert np.allclose(fit_projector(sys), direct, atol=1e-8)


def coefficient_operator(sys) -> np.ndarray:
    """The generalized inverse the solve applies to y: coef = G @ y."""
    return sys.coef_map @ np.vstack([sys.basis_design.T, sys.basis_excess.T])


class TestEstimability:
    def test_idempotent(self, factorial, factorial_design):
        sys = hybrid.assemble(
            factorial_design, factorial.extras["P_adiabatic"]
        )
        j = coefficient_operator(sys) @ sys.augmented
        assert np.allclose(j @ j, j, atol=1e-8)
        # full-rank augmented system: everything is estimable
        assert np.allclose(j, np.eye(8), atol=1e-8)

    def test_rank_deficient_case(self, factorial_design):
        sys = hybrid.assemble(factorial_design, np.ones(11))
        g = coefficient_operator(sys)
        j = g @ sys.augmented
        assert np.allclose(j @ j, j, atol=1e-10)
        assert np.trace(j) == pytest.approx(4.0, abs=1e-9)
        assert np.allclose(sys.augmented @ j, sys.augmented, atol=1e-10)
