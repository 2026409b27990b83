"""Regression that fuses a deterministic theory column with observed data.

The model scales a low-order polynomial in coded factors by the theoretical
response z computed for the same runs:

    y_i = z_i * (coef_0 + coef_1 * x_i1 + ...) + e_i.

Writing D = diag(z), the scaled model y = D X theta + e splits into the plain
polynomial part X theta plus the excess (D - I) X theta that the theory
scaling adds.  Stacking the two blocks side by side gives an augmented
least-squares system whose rank may fall short of its column count.

The system is represented by two thin orthonormal bases taken from two
truncated SVDs: Q_X spans the design columns, and Q_E the part of the excess
block the design cannot explain, cut from the excess of z / max|z| so that it
does not depend on the units of z.  There is one rank decision: every
singular value is cut at ``RANK_TOL`` times sigma_1(X).  The rank, the
solution, the sums of squares and the covariances all rest on it, and memory
stays O(n p): no n x n matrix is formed.  Each SVD is of the matrix itself,
not of its normal-equations matrix, which would square the condition number
and with it the smallest singular value the tolerance can resolve (Golub &
Van Loan, *Matrix Computations*, section 5.3).  Every solve is
cross-checked: the fitted values from the coefficients (augmented @ coef)
must agree with the projection Q_X Q_X'y + Q_E Q_E'y, and the sums of
squares must add up to y'y.  Both tolerances come from
:mod:`hybridfit.tolerances`.  The solved :class:`HybridFit` is the one
record of those sums of squares: the ANOVA tables, lack of fit and R-squared
are all read off it.

Without a theory (z None) the system is X alone: ordinary multiple linear
regression, with no excess block.  Any given z keeps both blocks; z = 1
recovers the plain fit exactly, with zero excess coefficients.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dataset import DesignMatrix
from .errors import InconsistencyError, RankError, SaturatedModelError, ShapeError
from .tolerances import CROSS_CHECK_TOL, RANK_TOL


def sum_of_squares(a: np.ndarray) -> float:
    """Sum of the squared entries of ``a``, in an order fixed by its length:
    a BLAS dot product splits a long vector across threads, so its rounding
    would depend on the thread count."""
    return float(np.add.reduce(a * a))


class ThinSvd(NamedTuple):
    """Truncated thin SVD of an n x p matrix M: ``basis`` (n x r, orthonormal,
    spanning the numerical column space of M) @ diag(singular_values) @
    ``right.T`` reproduces M up to the singular values cut as zero."""

    basis: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.singular_values.size)

    @property
    def coef_map(self) -> np.ndarray:
        """``V S^-1`` (p x r): maps basis coordinates ``basis' w`` to the
        minimum-norm coefficients c with ``M c`` the projection of w."""
        return self.right / self.singular_values


def thin_svd(m: np.ndarray, scale: float | None = None) -> ThinSvd:
    """Thin SVD of ``m`` keeping the singular values above ``RANK_TOL * scale``,
    ``scale`` being by default the largest of them.  Pass the scale of a
    larger system when ``m`` is a piece of it, so that a piece made only of
    roundoff counts as rank zero."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if scale is None:
        scale = s[0]
    keep = s > RANK_TOL * scale
    return ThinSvd(basis=u[:, keep], singular_values=s[keep], right=vt[keep].T)


class HybridSystem(NamedTuple):
    """Assembled matrices of the augmented system, fixed by design + theory.

    ``augmented`` is [X | (diag(z) - I) X]: the plain polynomial and the
    excess regressors the theory scaling adds.  ``basis_excess`` spans the
    part of the excess block the plain polynomial cannot explain; its rank
    is what the theory data genuinely add.  ``coef_map`` turns the basis
    coordinates ``[Q_X'y; Q_E'y]`` into the stacked least-squares
    coefficients, so it is also the factor of their covariance.
    """

    design: DesignMatrix
    z: np.ndarray | None        # theory response of each run; None: plain fit
    augmented: np.ndarray       # [X | (diag(z) - I) X], or X alone
    basis_design: np.ndarray    # Q_X: orthonormal basis of col(X)
    basis_excess: np.ndarray    # Q_E: the excess block outside col(X)
    coef_map: np.ndarray        # 2(p+1) x rank, or (p+1) x rank
    rank: int                   # cols(Q_X) + cols(Q_E)

    @property
    def n_runs(self) -> int:
        return self.design.n_rows

    @property
    def n_coef(self) -> int:
        """Coefficients per block (p + 1)."""
        return self.design.n_coef

    @property
    def df_theory_gain(self) -> int:
        """Ranked directions the theory scaling adds to the design's."""
        return self.rank - self.n_coef

    @property
    def df_residual(self) -> int:
        return self.n_runs - self.rank


class HybridFit(NamedTuple):
    """Solved system: coefficients, sums of squares, error variance,
    covariances.

    The four sums of squares are the ones the solve checks for additivity:
    ``ss_total`` = ``ss_design`` + ``ss_excess`` + ``ss_residual`` up to
    roundoff.  ``ss_excess`` is the theory gain: what the theory scaling
    explains beyond the plain polynomial.
    """

    coef: np.ndarray            # design block, then any excess block
    fitted: np.ndarray
    residuals: np.ndarray
    ss_total: float             # y'y
    ss_design: float            # |Q_X'y|^2
    ss_excess: float            # |Q_E'y|^2
    ss_residual: float          # |y - fitted|^2
    sigma2: float               # residual-variance estimate
    coef_cov: np.ndarray        # sigma2 * coef_map @ coef_map'

    @property
    def ss_regression(self) -> float:
        """Every ranked direction: the plain polynomial and the theory gain."""
        return self.ss_design + self.ss_excess


def assemble(design: DesignMatrix, z: np.ndarray | None) -> HybridSystem:
    """Build the system for a design matrix and the theory response z of
    each run, in response units, or of the design alone for z None."""
    x = design.values
    svd_x = thin_svd(x)
    q_x = svd_x.basis
    if z is None:
        return HybridSystem(design, None, x, q_x, np.zeros((design.n_rows, 0)),
                            svd_x.coef_map, svd_x.rank)
    z = np.asarray(z, dtype=float).ravel()
    if z.size != design.n_rows:
        raise ShapeError(f"{design.n_rows} design rows but {z.size} theory values")
    if not np.all(np.isfinite(z)):
        raise ShapeError("theory vector has non-finite entries")
    augmented = np.hstack([x, (z - 1.0)[:, None] * x])
    # Q_E is cut from (z/m - 1) X, m = max|z|: modulo col(X) the span of the
    # excess block, but free of the units of z and exactly zero for constant z.
    m = float(np.max(np.abs(z))) or 1.0
    scaled = (z / m - 1.0)[:, None] * x
    # Project twice: one pass leaves a component in col(X) of the order of
    # roundoff times |scaled|, which is not small next to the weakest
    # direction the rank tolerance keeps.
    scaled_coords = q_x.T @ scaled
    scaled_ortho = scaled - q_x @ scaled_coords
    scaled_ortho -= q_x @ (q_x.T @ scaled_ortho)
    # Cut against sigma_1(X) (X has an intercept, so it is positive): a block
    # the design explains up to roundoff has rank zero.  As |z/m - 1| <= 2,
    # |[X | scaled]|_2 would move the cut by at most a factor sqrt(5).
    svd_e = thin_svd(scaled_ortho, scale=svd_x.singular_values[0])

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
        z=z,
        augmented=augmented,
        basis_design=q_x,
        basis_excess=svd_e.basis,
        coef_map=coef_map,
        rank=svd_x.rank + svd_e.rank,
    )


def solve(sys: HybridSystem, y: np.ndarray) -> HybridFit:
    """Least-squares solution of the augmented system.

    The fitted values are the projection of y onto the two orthonormal
    bases.  The coefficients are the minimum-norm solution taken from the
    same truncated SVD factors: the excess block against the orthogonalized
    excess columns (a vanishing excess gives a zero block), then the design
    block for the remainder.  The squared norms of the two coordinate
    vectors and of the residual are the model's sums of squares, and
    ``coef_map`` is the factor of the coefficient covariance: the bases are
    orthonormal, so it is sigma2 * coef_map @ coef_map'.  Raises
    :class:`RankError` when the design is rank deficient,
    :class:`SaturatedModelError` when the residual has no degrees of freedom
    and :class:`InconsistencyError` when the fitted values of the two routes
    disagree or the sums of squares do not add up to y'y.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != sys.n_runs:
        raise ShapeError(f"{sys.n_runs} runs but {y.shape[0]} responses")
    if sys.basis_design.shape[1] < sys.n_coef:
        raise RankError(
            f"design matrix of shape {sys.design.values.shape} is rank "
            f"deficient (rank {sys.basis_design.shape[1]} of {sys.n_coef} "
            "columns); its coefficients are not estimable"
        )
    if sys.df_residual <= 0:
        raise SaturatedModelError(
            "no residual degrees of freedom: the error variance is not "
            "estimable; add replicate runs"
        )

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
    ss_total = sum_of_squares(y)
    ss_design = float(coords_design @ coords_design)
    ss_excess = float(coords_excess @ coords_excess)
    # The norm of the residual itself, not y'y less the fitted part: that
    # difference loses every digit when the fit is close to exact.
    ss_residual = sum_of_squares(residuals)
    defect = abs(ss_design + ss_excess + ss_residual - ss_total)
    if not defect <= CROSS_CHECK_TOL * ss_total:
        raise InconsistencyError(
            f"sums of squares miss y'y = {ss_total:.6g} by {defect:.3e}"
        )

    sigma2 = ss_residual / sys.df_residual
    coef_cov = (sys.coef_map @ sys.coef_map.T) * sigma2
    return HybridFit(
        coef=coef,
        fitted=fitted,
        residuals=residuals,
        ss_total=ss_total,
        ss_design=ss_design,
        ss_excess=ss_excess,
        ss_residual=ss_residual,
        sigma2=sigma2,
        coef_cov=0.5 * (coef_cov + coef_cov.T),
    )

