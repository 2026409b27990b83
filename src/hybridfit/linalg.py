"""Rank-aware dense linear algebra used by every fitting routine.

All rank decisions in the package compare singular values against the single
relative tolerance :data:`hybridfit.tolerances.RANK_TOL`.  Rank-deficient
systems are handled through thin, truncated singular value decompositions:
the kept left singular vectors are an orthonormal basis of the numerical
column space, and ``V S^-1 U'`` is the Moore-Penrose inverse.  Every
downstream quantity (fitted values, residual sums of squares, projectors) is
invariant to the choice of generalized inverse, so the most stable
representative is used.
The SVD is taken of the matrix itself, not of its normal-equations matrix,
which would square the condition number and with it the smallest singular
value the tolerance can resolve (Golub & Van Loan, *Matrix Computations*,
section 5.3).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tolerances import RANK_TOL


class ThinSvd(NamedTuple):
    """Truncated thin SVD of an n x p matrix M: ``basis @ diag(s) @ right.T``
    reproduces M up to the singular values cut as numerically zero.

    ``basis`` (n x r) has orthonormal columns spanning the numerical column
    space of M; ``right`` (p x r) holds the matching right singular vectors.
    """

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


def thin_svd(
    m: np.ndarray, scale: float | None = None, tol: float = RANK_TOL
) -> ThinSvd:
    """Thin SVD of ``m`` keeping the singular values above ``tol * scale``.

    ``scale`` defaults to the largest singular value of ``m``.  Pass the
    scale of a larger system when ``m`` is a piece of it, so that a piece
    made only of roundoff counts as rank zero.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if scale is None:
        scale = s[0]
    keep = s > tol * scale
    return ThinSvd(basis=u[:, keep], singular_values=s[keep], right=vt[keep].T)
