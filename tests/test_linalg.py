"""The linear algebra under the fit: the truncated thin SVD of
:func:`hybridfit.hybrid.thin_svd` (generalized inverses, projectors, the
rank cut at ``RANK_TOL``) and plain least squares as the augmented solve
with z = 1."""

import numpy as np
import pytest

from hybridfit import dataset, hybrid
from hybridfit.analysis import analyze
from hybridfit.dataset import DesignMatrix
from hybridfit.errors import AnalysisError
from hybridfit.hybrid import thin_svd

# Coefficients of the two recorded plain polynomial fits of the case study,
# used here as ground truth for the least-squares path.
FIRST_ORDER_COEF = (208.423, -34.409, 36.616, 18.277)
SECOND_ORDER_COEF = (212.598, -34.274, 38.221, 21.697, 0.286, -2.362,
                     -6.333, -9.561, 13.288, 6.227)


def mp_defects(m: np.ndarray, g: np.ndarray) -> float:
    """Largest violation of the four Moore-Penrose conditions."""
    return max(
        np.max(np.abs(m @ g @ m - m), initial=0.0),
        np.max(np.abs(g @ m @ g - g), initial=0.0),
        np.max(np.abs((m @ g).T - m @ g), initial=0.0),
        np.max(np.abs((g @ m).T - g @ m), initial=0.0),
    )


def pinv_from(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse assembled from the truncated thin SVD factors."""
    svd = thin_svd(m)
    return svd.coef_map @ svd.basis.T


def projector_from(m: np.ndarray) -> np.ndarray:
    basis = thin_svd(m).basis
    return basis @ basis.T


class TestGeneralizedInverse:
    def test_identity(self):
        assert np.allclose(pinv_from(np.eye(3)), np.eye(3), atol=1e-15)

    def test_zero(self):
        svd = thin_svd(np.zeros((4, 4)))
        assert svd.rank == 0
        assert np.array_equal(pinv_from(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_rank_one_diagonal(self):
        m = np.array([[2.0, 0.0], [0.0, 0.0]])
        g = pinv_from(m)
        assert np.allclose(g, [[0.5, 0.0], [0.0, 0.0]], atol=1e-14)
        assert mp_defects(m, g) < 1e-12

    def test_random_symmetric_psd(self, rng):
        for _ in range(25):
            n = rng.integers(2, 9)
            r = rng.integers(1, n + 1)
            a = rng.normal(size=(n, r))
            m = a @ a.T
            g = pinv_from(m)
            assert mp_defects(m, g) < 1e-8 * max(1.0, np.abs(m).max())

    def test_random_rectangular_low_rank(self, rng):
        for _ in range(25):
            n, p = int(rng.integers(2, 13)), int(rng.integers(1, 7))
            r = int(rng.integers(1, min(n, p) + 1))
            m = rng.normal(size=(n, r)) @ rng.normal(size=(r, p))
            g = pinv_from(m)
            assert thin_svd(m).rank == r
            assert mp_defects(m, g) < 1e-8 * max(1.0, np.abs(m).max())


class TestProjector:
    def test_ones_column_gives_mean_projector(self):
        p = projector_from(np.ones((4, 1)))
        assert np.allclose(p, np.full((4, 4), 0.25), atol=1e-14)

    def test_invertible_matrix_gives_identity(self, rng):
        m = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        p = projector_from(m)
        assert np.allclose(p, np.eye(5), atol=1e-10)

    def test_factorial_design_trace_equals_rank(self, factorial_design):
        p = projector_from(factorial_design.values)
        assert np.trace(p) == pytest.approx(4.0, abs=1e-10)
        assert np.max(np.abs(p - p.T)) < 1e-12
        assert np.max(np.abs(p @ p - p)) < 1e-12

    def test_projects_own_columns(self, rng):
        m = rng.normal(size=(8, 3))
        basis = thin_svd(m).basis
        assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-12)
        assert np.allclose(basis @ (basis.T @ m), m, atol=1e-10)

    def test_invariant_to_column_recombination(self, rng):
        m = rng.normal(size=(9, 4))
        c = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        p1 = projector_from(m)
        p2 = projector_from(m @ c)
        assert np.allclose(p1, p2, atol=1e-9)

    def test_zero_matrix(self):
        svd = thin_svd(np.zeros((3, 2)))
        assert svd.basis.shape == (3, 0)
        assert np.array_equal(projector_from(np.zeros((3, 2))), np.zeros((3, 3)))


class TestRank:
    def test_rank_counts_singular_values(self):
        m = np.diag([1.0, 1e-3, 0.0])
        assert thin_svd(m).rank == 2

    def test_rank_respects_tolerance(self):
        # RANK_TOL = 1e-10 of the largest singular value
        assert thin_svd(np.diag([1.0, 1e-12])).rank == 1
        assert thin_svd(np.diag([1.0, 1e-9])).rank == 2

    def test_condition_number_is_not_squared(self):
        # 1e-7 is well above RANK_TOL; on the normal equations it would be
        # 1e-14 and fall below it
        m = np.diag([1.0, 1e-7])
        assert thin_svd(m).rank == 2
        assert np.allclose(pinv_from(m), np.diag([1.0, 1e7]), rtol=1e-12)

    def test_external_scale_cuts_roundoff_piece(self):
        # a block that is pure roundoff next to the system it belongs to
        piece = np.array([[3e-16, 0.0], [0.0, 1e-16]])
        assert thin_svd(piece).rank == 2
        assert thin_svd(piece, scale=10.0).rank == 0


class TestSvdCalls:
    """A fit factors X, and its excess block when it has a theory: a plain
    polynomial fit makes one LAPACK SVD call, a hybrid fit two."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: made.append(a[0].shape) or svd(*a, **k))
        return made

    @pytest.mark.parametrize("model, theory, n_calls", [
        ("mlr1", None, 1), ("mlr2", None, 1), ("hybrid", "column:P_isochoric", 2),
    ])
    def test_calls_per_fit(self, model, theory, n_calls, calls, request):
        case = "boxbehnken" if model == "mlr2" else "factorial"
        ds, cfg = request.getfixturevalue(case), request.getfixturevalue(f"{case}_config")
        analyze(ds, cfg, model, theory)
        assert len(calls) == n_calls

    def test_alpha_is_refused_before_any_factorization(self, calls, factorial, factorial_config):
        with pytest.raises(AnalysisError, match=r"^alpha must lie in \(0, 1\), got 2\.0$"):
            analyze(factorial, factorial_config, "mlr1", alpha=2.0)
        assert calls == []

    def test_constant_theory_has_an_empty_excess_basis(self, factorial_design):
        sys = hybrid.assemble(factorial_design, np.full(factorial_design.n_rows, 3.0))
        assert sys.basis_excess.shape == (factorial_design.n_rows, 0)
        assert sys.rank == factorial_design.n_coef


def ols_solve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ordinary least squares as the augmented solve with z = 1: the excess
    block vanishes and its coefficients are zero.  A square design leaves no
    residual degrees of freedom, which the solve refuses; its coefficients
    are taken by the solve's own route, the coefficient map applied to the
    basis coordinates of y."""
    design = DesignMatrix(x, tuple(f"c{j}" for j in range(x.shape[1])))
    sys = hybrid.assemble(design, np.ones(len(y)))
    if sys.df_residual > 0:
        coef = hybrid.solve(sys, y).coef
    else:
        coef = sys.coef_map @ np.concatenate([sys.basis_design.T @ y, sys.basis_excess.T @ y])
    p1 = x.shape[1]
    assert np.array_equal(coef[p1:], np.zeros(p1))
    return coef[:p1]


def with_intercept(x: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(x.shape[0]), x])


class TestOlsSolve:
    def test_factorial_first_order_fit(self, factorial, factorial_design):
        coef = ols_solve(factorial_design.values, factorial.response)
        assert np.allclose(coef, FIRST_ORDER_COEF, atol=1e-3)

    def test_boxbehnken_second_order_fit(self, boxbehnken):
        design = dataset.build_design(dataset.code(boxbehnken), "second")
        coef = ols_solve(design.values, boxbehnken.response)
        assert np.allclose(coef, SECOND_ORDER_COEF, atol=1e-3)

    def test_identity_design_returns_y(self, rng):
        # a square nonsingular design (intercept, then unit columns) fits
        # every response exactly
        y = rng.normal(size=6)
        x = with_intercept(np.eye(6)[:, 1:])
        coef = ols_solve(x, y)
        assert np.allclose(x @ coef, y, atol=1e-12)
        assert np.allclose(coef, np.r_[y[0], y[1:] - y[0]], atol=1e-12)

    def test_residual_orthogonal_to_columns(self, rng):
        x = with_intercept(rng.normal(size=(10, 2)))
        y = rng.normal(size=10)
        coef = ols_solve(x, y)
        assert np.max(np.abs(x.T @ (y - x @ coef))) < 1e-9

    def test_rank_deficient_raises(self):
        x = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(AnalysisError, match=r"^design matrix of shape \(5, 2\) is rank deficient "):
            ols_solve(x, np.zeros(5))

    def test_matches_generalized_inverse_path(self, rng):
        for _ in range(20):
            n, p = rng.integers(4, 13), rng.integers(1, 4)
            x = with_intercept(rng.normal(size=(n, p)))
            y = rng.normal(size=n)
            coef = ols_solve(x, y)
            via_ginv = np.linalg.pinv(x) @ y
            assert np.allclose(coef, via_ginv, rtol=1e-9, atol=1e-12)


class TestGinvProperty:
    def test_design_recovery_on_random_low_rank(self, rng):
        # M M^+ M = M for arbitrary rank
        for _ in range(30):
            n = int(rng.integers(2, 13))
            p = int(rng.integers(1, min(n, 7)))
            r = int(rng.integers(1, p + 1))
            m = rng.normal(size=(n, r)) @ rng.normal(size=(r, p))
            basis = thin_svd(m).basis
            assert np.allclose(basis @ (basis.T @ m), m, atol=1e-8 * max(1.0, np.abs(m).max()))
