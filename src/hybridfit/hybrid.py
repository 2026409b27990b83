"""Regression that fuses a deterministic theory column with observed data.

The model scales a low-order polynomial in coded factors by the theoretical
response z computed for the same runs:

    y_i = z_i * (coef_0 + coef_1 * x_i1 + ...) + e_i.

Writing D = diag(z), the scaled model y = D X theta + e splits into the plain
polynomial part X theta plus the excess (D - I) X theta that the theory
scaling adds.  Stacking the two blocks side by side gives an augmented
least-squares system whose rank may fall short of its column count.

The system is represented by two thin orthonormal bases taken from truncated
SVDs: Q_X spans the design columns, and Q_E the part of the excess block the
design cannot explain, cut from the excess of z / max|z| so that it does not
depend on the units of z.  Both are cut with the one rank tolerance, so the
rank, the solution, the sums of squares and the covariances all rest on the
same decision, and memory stays O(n p): no n x n matrix is formed unless a
caller asks for a projector.  Every solve is cross-checked: the fitted values
from the coefficients (augmented @ coef) must agree with the projection
Q_X Q_X'y + Q_E Q_E'y, and the sums of squares must add up to y'y.  Both
tolerances come from :mod:`hybridfit.tolerances`.

Setting z identically to one recovers ordinary multiple linear regression
exactly: the excess block vanishes and the excess coefficients are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DesignMatrix
from .errors import InconsistencyError, RankError, ShapeError
from .linalg import thin_svd
from .tolerances import CROSS_CHECK_TOL


@dataclass(frozen=True)
class TheoryVector:
    """Theory-model outputs for each run, in response units."""

    values: np.ndarray
    source_label: str = ""

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "values", values)
        if values.size == 0:
            raise ShapeError("theory vector is empty")
        if not np.all(np.isfinite(values)):
            raise ShapeError("theory vector has non-finite entries")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class HybridSystem:
    """Assembled matrices of the augmented system, fixed by design + theory.

    ``excess`` is (diag(z) - I) X, the regressors the theory scaling adds
    beyond the plain polynomial.  ``excess_ortho`` is the part of that block
    the plain polynomial cannot explain (its residual after projecting onto
    the design columns); its rank is what the theory data genuinely add.
    ``coef_map`` turns the basis coordinates ``[Q_X'y; Q_E'y]`` into the
    stacked least-squares coefficients, so it is also the factor of their
    covariance.
    """

    design: DesignMatrix
    theory: TheoryVector
    excess: np.ndarray          # (diag(z) - I) @ X
    augmented: np.ndarray       # [X | excess]
    excess_ortho: np.ndarray    # (I - P_X) @ excess
    basis_design: np.ndarray    # Q_X: orthonormal basis of col(X)
    basis_excess: np.ndarray    # Q_E: orthonormal basis of col(excess_ortho)
    coef_map: np.ndarray        # 2(p+1) x rank
    rank: int                   # cols(Q_X) + cols(Q_E)

    @property
    def n_runs(self) -> int:
        return self.design.n_rows

    @property
    def n_coef(self) -> int:
        """Coefficients per block (p + 1)."""
        return self.design.n_coef

    @property
    def proj_design(self) -> np.ndarray:
        """Projector onto col(X), formed on demand (n x n)."""
        return self.basis_design @ self.basis_design.T

    @property
    def proj_excess(self) -> np.ndarray:
        """Projector onto col(excess_ortho), formed on demand (n x n)."""
        return self.basis_excess @ self.basis_excess.T


@dataclass(frozen=True)
class HybridFit:
    """Solved system: coefficient blocks, sums of squares, error variance,
    covariances.

    The four sums of squares are the ones the solve checks for additivity:
    ``ss_total`` = ``ss_design`` + ``ss_excess`` + ``ss_residual`` up to
    roundoff.  :func:`hybridfit.inference.partition` reports them.
    """

    coef_design: np.ndarray     # block multiplying X
    coef_excess: np.ndarray     # block multiplying (diag(z) - I) X
    coef: np.ndarray            # the two blocks stacked; the canonical report
    fitted: np.ndarray
    residuals: np.ndarray
    ss_total: float             # y'y
    ss_design: float            # |Q_X'y|^2
    ss_excess: float            # |Q_E'y|^2
    ss_residual: float          # |y - fitted|^2
    sigma2: float | None        # residual-variance estimate; None if saturated
    coef_cov: np.ndarray | None

    @property
    def saturated(self) -> bool:
        """True when the residual has no degrees of freedom."""
        return self.sigma2 is None


def assemble(design: DesignMatrix, theory: TheoryVector) -> HybridSystem:
    """Build the augmented system for a design matrix and theory column."""
    if len(theory) != design.n_rows:
        raise ShapeError(
            f"{design.n_rows} design rows but {len(theory)} theory values"
        )
    x = design.values
    z = theory.values
    excess = (z - 1.0)[:, None] * x
    augmented = np.hstack([x, excess])
    # Q_E is cut from (z/m - 1) X, m = max|z|: modulo col(X) the span of the
    # excess block, but free of the units of z and exactly zero for constant z.
    m = float(np.max(np.abs(z))) or 1.0
    scaled = (z / m - 1.0)[:, None] * x
    svd_x = thin_svd(x)
    q_x = svd_x.basis
    # Project twice: one pass leaves a component in col(X) of the order of
    # roundoff times |scaled|, which is not small next to the weakest
    # direction the rank tolerance keeps.
    scaled_coords = q_x.T @ scaled
    scaled_ortho = scaled - q_x @ scaled_coords
    scaled_ortho -= q_x @ (q_x.T @ scaled_ortho)
    # Cut against the scale of the whole system, so a block that the design
    # explains up to roundoff (z constant up to rounding) has rank zero.
    svd_e = thin_svd(scaled_ortho, scale=np.linalg.norm(np.hstack([x, scaled]), 2))

    w_x = svd_x.coef_map
    # Coefficients b' on (z/m - 1) X come from Q_E alone, and the design block
    # fits the rest through Q_X.  As (D - I) X = m (z/m - 1) X + (m - 1) X, on
    # [X | excess] that is b = b' / m and a design block larger by b (1 - m).
    w_e = svd_e.coef_map / m
    carry = w_x @ (scaled_coords @ svd_e.coef_map)
    coef_map = np.block([
        [w_x, (1.0 - m) * w_e - carry],
        [np.zeros((design.n_coef, svd_x.rank)), w_e],
    ])
    return HybridSystem(
        design=design,
        theory=theory,
        excess=excess,
        augmented=augmented,
        excess_ortho=m * scaled_ortho,
        basis_design=q_x,
        basis_excess=svd_e.basis,
        coef_map=coef_map,
        rank=svd_x.rank + svd_e.rank,
    )


def _require_full_rank_design(sys: HybridSystem) -> None:
    if sys.basis_design.shape[1] < sys.n_coef:
        raise RankError(
            f"design matrix of shape {sys.design.values.shape} is rank "
            f"deficient (rank {sys.basis_design.shape[1]} of {sys.n_coef} "
            "columns); its coefficients are not estimable"
        )


def solve(sys: HybridSystem, y: np.ndarray) -> HybridFit:
    """Least-squares solution of the augmented system.

    The fitted values are the projection of y onto the two orthonormal
    bases.  The coefficients are the minimum-norm solution taken from the
    same truncated SVD factors: the excess block against the orthogonalized
    excess columns (a vanishing excess gives a zero block), then the design
    block for the remainder.  The squared norms of the two coordinate
    vectors and of the residual are the model's sums of squares.  Raises
    :class:`InconsistencyError` when the fitted values of the two routes
    disagree or the sums of squares do not add up to y'y.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != sys.n_runs:
        raise ShapeError(f"{sys.n_runs} runs but {y.shape[0]} responses")
    _require_full_rank_design(sys)

    coords_design = sys.basis_design.T @ y
    coords_excess = sys.basis_excess.T @ y
    fitted = sys.basis_design @ coords_design + sys.basis_excess @ coords_excess
    coef = sys.coef_map @ np.concatenate([coords_design, coords_excess])
    residuals = y - fitted

    # Roundoff in augmented @ coef is relative to the magnitudes it sums,
    # which grow without bound as the excess block nears rank deficiency.
    scale = float(np.max(np.abs(sys.augmented) @ np.abs(coef)))
    gap = float(np.max(np.abs(sys.augmented @ coef - fitted)))
    if not gap <= CROSS_CHECK_TOL * scale:
        raise InconsistencyError(
            f"coefficient and projection routes disagree on fitted values "
            f"by {gap:.3e} (scale {scale:.3e})"
        )
    ss_total = float(y @ y)
    ss_design = float(coords_design @ coords_design)
    ss_excess = float(coords_excess @ coords_excess)
    # The norm of the residual itself, not y'y less the fitted part: that
    # difference loses every digit when the fit is close to exact.
    ss_residual = float(residuals @ residuals)
    defect = abs(ss_design + ss_excess + ss_residual - ss_total)
    if not defect <= CROSS_CHECK_TOL * ss_total:
        raise InconsistencyError(
            f"sums of squares miss y'y = {ss_total:.6g} by {defect:.3e}"
        )

    df_residual = sys.n_runs - sys.rank
    if df_residual > 0:
        sigma2 = ss_residual / df_residual
        coef_cov, _ = covariance_of_solution(sys, sigma2)
    else:
        sigma2 = None
        coef_cov = None
    p1 = sys.n_coef
    return HybridFit(
        coef_design=coef[:p1],
        coef_excess=coef[p1:],
        coef=coef,
        fitted=fitted,
        residuals=residuals,
        ss_total=ss_total,
        ss_design=ss_design,
        ss_excess=ss_excess,
        ss_residual=ss_residual,
        sigma2=sigma2,
        coef_cov=coef_cov,
    )


def covariance_of_solution(
    sys: HybridSystem, sigma2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Covariance of the stacked coefficient vector.

    The solution is ``coef_map @ [Q_X'y; Q_E'y]`` and the bases are
    orthonormal, so its covariance is ``coef_map @ coef_map' * sigma2``.
    Returns the full 2(p+1) x 2(p+1) matrix and the off-diagonal
    (design block, excess block) cross-covariance.  When the augmented
    normal-equations matrix is invertible this equals its inverse times
    sigma2.
    """
    if sigma2 < 0.0:
        raise ShapeError(f"sigma2 must be nonnegative, got {sigma2}")
    _require_full_rank_design(sys)
    cov = (sys.coef_map @ sys.coef_map.T) * sigma2
    cov = 0.5 * (cov + cov.T)
    p1 = sys.n_coef
    return cov, cov[:p1, p1:]


def variance_of_fit(sys: HybridSystem, sigma2: float) -> np.ndarray:
    """Covariance of the fitted values: the sum of the two orthogonal
    projectors, scaled by sigma2.  Forms an n x n matrix."""
    if sigma2 < 0.0:
        raise ShapeError(f"sigma2 must be nonnegative, got {sigma2}")
    return (sys.proj_design + sys.proj_excess) * sigma2
