"""Randomized invariants of the augmented least-squares machinery.

Systems are drawn with a seeded generator: coded levels in [-1, 1], theory
values in [0.5, 3] (bounded away from one so the excess block has full rank),
and at least 2(p+1)+1 runs so the augmented normal-equations matrix is
invertible.  Every identity is checked on at least 100 systems.
"""

import numpy as np
import pytest

from hybridfit import hybrid, inference
from hybridfit.dataset import DesignMatrix
from hybridfit.hybrid import TheoryVector

N_SYSTEMS = 120

PROJ_TOL = 1e-8
SS_REL_TOL = 1e-6
ROUTE_TOL = 1e-8
REDUCTION_TOL = 1e-9
COV_TOL = 1e-8
RANK_ABS_TOL = 1e-6


def random_system(rng):
    p1 = int(rng.integers(1, 7))        # coefficients including intercept
    n = int(rng.integers(2 * p1 + 1, 21))
    coded = rng.uniform(-1.0, 1.0, size=(n, p1 - 1))
    design = DesignMatrix(
        np.column_stack([np.ones(n)] + [coded[:, j] for j in range(p1 - 1)]),
        tuple(["1"] + [f"x{j + 1}" for j in range(p1 - 1)]),
    )
    z = rng.uniform(0.5, 3.0, size=n)
    sys = hybrid.assemble(design, TheoryVector(z))
    y = rng.normal(loc=10.0, scale=3.0, size=n)
    return sys, y


def pinv_projector(m):
    return m @ np.linalg.pinv(m.T @ m) @ m.T


@pytest.fixture(scope="module")
def systems():
    rng = np.random.default_rng(1729)
    return [random_system(rng) for _ in range(N_SYSTEMS)]


def test_projector_splits_into_orthogonal_parts(systems):
    for sys, _ in systems:
        p_aug = pinv_projector(sys.augmented)
        assert np.max(np.abs(p_aug - (sys.proj_design + sys.proj_excess))) < PROJ_TOL
        assert np.max(np.abs(sys.proj_design @ sys.proj_excess)) < PROJ_TOL


def test_sum_of_squares_additivity(systems):
    for sys, y in systems:
        part = inference.partition(sys, hybrid.solve(sys, y))
        assert part.ss_total == pytest.approx(
            part.ss_design + part.ss_theory_gain + part.ss_residual,
            rel=SS_REL_TOL,
        )
        assert part.ss_total_corrected == pytest.approx(
            part.ss_theory_gain + part.ss_residual, rel=SS_REL_TOL
        )
        n = sys.n_runs
        assert n == part.df_design + part.df_theory_gain + part.df_residual


def test_solution_routes_agree(systems):
    for sys, y in systems:
        fit = hybrid.solve(sys, y)  # raises if the built-in cross-check fails
        direct_fitted = sys.augmented @ (
            np.linalg.pinv(sys.augmented.T @ sys.augmented) @ (sys.augmented.T @ y)
        )
        scale = max(1.0, np.abs(y).max())
        assert np.max(np.abs(fit.fitted - direct_fitted)) < ROUTE_TOL * scale
        # residual sum of squares from either projector expression
        ss_via_hat = float(y @ (np.eye(sys.n_runs) - pinv_projector(sys.augmented)) @ y)
        part = inference.partition(sys, fit)
        assert ss_via_hat == pytest.approx(
            part.ss_residual, rel=ROUTE_TOL, abs=ROUTE_TOL * scale**2
        )


def test_identity_theory_reduces_to_ols(systems):
    for sys, y in systems:
        ones = hybrid.assemble(sys.design, TheoryVector(np.ones(sys.n_runs)))
        fit = hybrid.solve(ones, y)
        ols = np.linalg.lstsq(sys.design.values, y, rcond=None)[0]
        assert np.max(np.abs(fit.coef_design - ols)) < REDUCTION_TOL * max(
            1.0, np.abs(ols).max()
        )
        assert np.array_equal(fit.coef_excess, np.zeros(sys.n_coef))


def test_covariance_matches_direct_sandwich(systems):
    for sys, _ in systems:
        cov, cross = hybrid.covariance_of_solution(sys, 1.3)
        m = sys.augmented.T @ sys.augmented
        g = np.linalg.pinv(m)
        sandwich = g @ m @ g.T * 1.3
        scale = max(1.0, np.abs(sandwich).max())
        assert np.max(np.abs(cov - sandwich)) < COV_TOL * scale
        p1 = sys.n_coef
        assert np.array_equal(cross, cov[:p1, p1:])


def test_variance_of_fit_identity(systems):
    for sys, _ in systems:
        v = hybrid.variance_of_fit(sys, 2.0)
        direct = pinv_projector(sys.augmented) * 2.0
        assert np.max(np.abs(v - direct)) < PROJ_TOL * 2.0
        assert np.trace(v) / 2.0 == pytest.approx(sys.rank, abs=1e-6)


def test_noise_free_response_recovered_exactly(systems):
    rng = np.random.default_rng(31415)
    for sys, _ in systems[:N_SYSTEMS]:
        beta = rng.normal(size=2 * sys.n_coef)
        y = sys.augmented @ beta
        fit = hybrid.solve(sys, y)
        scale = max(1.0, np.abs(y).max())
        assert np.max(np.abs(fit.fitted - y)) < 1e-8 * scale
        assert fit.ss_residual < 1e-12 * scale**2


def test_residual_orthogonality(systems):
    for sys, y in systems:
        fit = hybrid.solve(sys, y)
        defect = np.max(np.abs(sys.augmented.T @ fit.residuals))
        assert defect < 1e-7 * max(1.0, np.abs(y).max()) * np.abs(sys.augmented).max()


def test_rank_additivity(systems):
    # numpy's own rank count with a fixed absolute cutoff, independent of the
    # package's truncated SVD: no singular value of these systems is below
    # 0.03, and roundoff is many decades under the cutoff
    for sys, _ in systems:
        assert sys.rank == np.linalg.matrix_rank(sys.augmented, tol=RANK_ABS_TOL)
        assert sys.rank == sys.design.n_coef + np.linalg.matrix_rank(
            sys.excess_ortho, tol=RANK_ABS_TOL
        )
