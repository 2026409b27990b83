"""Sums of squares, F tests, lack of fit, R-squared, residual diagnostics.

The augmented model's total sum of squares splits orthogonally into the part
explained by the plain polynomial, the part added by the theory scaling, and
the residual.  :func:`partition` reports these as the solve computed them;
nothing here projects y again.  When the design carries replicate runs the
residual further splits into pure error (within-replicate scatter, a
model-free estimate of the error variance) and lack of fit.

:func:`f_test` is the one place an F ratio and its p-value are computed.
The p-value is the upper tail :func:`f_sf` taken directly from the
regularized incomplete beta function, not one minus the CDF, which would
cancel to zero for p below about 1e-16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .errors import ConstantResponseError, InconsistencyError, ShapeError
from .hybrid import HybridFit, HybridSystem

# Relative slack allowed before a negative sum of squares is treated as a
# genuine inconsistency rather than roundoff.
SS_REL_TOL = 1e-8


@dataclass(frozen=True)
class SSPartition:
    """Sum-of-squares decomposition of the augmented model.

    ``ss_regression`` splits into ``ss_design`` (plain polynomial) plus
    ``ss_theory_gain`` (added by the theory scaling); ``ss_total`` is the
    uncorrected total and ``ss_total_corrected`` is the total minus the
    plain-polynomial part.
    """

    ss_total: float
    ss_regression: float
    ss_design: float
    ss_theory_gain: float
    ss_residual: float
    ss_total_corrected: float
    df_regression: int
    df_design: int
    df_theory_gain: int
    df_residual: int
    n_runs: int


@dataclass(frozen=True)
class PureErrorDecomposition:
    """Residual sum of squares split into pure error and lack of fit."""

    ss_pure_error: float
    df_pure_error: int
    ss_lack_of_fit: float
    df_lack_of_fit: int


@dataclass(frozen=True)
class FTest:
    """An F ratio with its degrees of freedom, p-value, and critical value
    at the analysis level."""

    f: float
    df_num: int
    df_den: int
    p: float
    critical: float

    @property
    def significant(self) -> bool:
        return self.f > self.critical


@dataclass(frozen=True)
class ResidualDiagnostics:
    """Point sets behind the two standard residual plots.

    ``normal_plot`` pairs each ordered residual with its standard-normal
    plotting position (Blom's (i - 3/8)/(n + 1/4) probability, mapped through
    the inverse normal CDF).  ``scatter`` pairs fitted value with residual,
    in run order.
    """

    normal_plot: tuple[tuple[float, float], ...]
    scatter: tuple[tuple[float, float], ...]


def partition(sys: HybridSystem, fit: HybridFit) -> SSPartition:
    """Partition y'y over the orthogonal pieces of the augmented model, from
    the sums of squares :func:`hybridfit.hybrid.solve` formed for ``fit``."""
    if not np.isfinite(fit.ss_residual):
        raise InconsistencyError(
            f"residual sum of squares is not a number: {fit.ss_residual}"
        )
    p1 = sys.n_coef
    return SSPartition(
        ss_total=fit.ss_total,
        ss_regression=fit.ss_design + fit.ss_excess,
        ss_design=fit.ss_design,
        ss_theory_gain=fit.ss_excess,
        ss_residual=fit.ss_residual,
        ss_total_corrected=fit.ss_total - fit.ss_design,
        df_regression=sys.rank,
        df_design=p1,
        df_theory_gain=sys.rank - p1,
        df_residual=sys.n_runs - sys.rank,
        n_runs=sys.n_runs,
    )


def pure_error(
    y: np.ndarray,
    groups: Sequence[Sequence[int]],
    ss_residual: float,
    df_residual: int,
) -> PureErrorDecomposition:
    """Split the residual sum of squares into pure error and lack of fit.

    Pure error pools the squared deviations of replicate observations from
    their group means; its degrees of freedom are the pooled (group size - 1).
    Lack of fit is the remainder of ``ss_residual``, the fit's residual sum
    of squares.  The split is valid only if the fitted values are equal
    within each group: group runs whose model-matrix rows are identical (for
    the hybrid model, the same settings and the same theory value).
    """
    y = np.asarray(y, dtype=float).ravel()
    ss_pe = 0.0
    df_pe = 0
    for group in groups:
        if len(group) > 1:
            vals = y[list(group)]
            ss_pe += float(np.sum((vals - vals.mean()) ** 2))
            df_pe += len(group) - 1
    ss_lof = ss_residual - ss_pe
    if not ss_lof >= -SS_REL_TOL * max(ss_residual, 1.0):
        raise InconsistencyError(
            f"pure error {ss_pe:.6g} exceeds the residual sum of squares "
            f"{ss_residual:.6g}"
        )
    df_lof = df_residual - df_pe
    if df_lof < 0:
        raise InconsistencyError(
            f"pure-error df {df_pe} exceeds residual df {df_residual}"
        )
    return PureErrorDecomposition(
        ss_pure_error=ss_pe,
        df_pure_error=df_pe,
        ss_lack_of_fit=max(ss_lof, 0.0),
        df_lack_of_fit=df_lof,
    )


def f_test(
    ss_num: float, df_num: int, ss_den: float, df_den: int, alpha: float
) -> FTest:
    """F test of the mean square ``ss_num / df_num`` against
    ``ss_den / df_den`` at level ``alpha``.

    A numerator without degrees of freedom tests nothing (for lack of fit:
    the model fits every distinct setting exactly); it is reported as F = 0
    with p = 1, against the critical value for one numerator df.
    """
    critical = f_critical(alpha, max(df_num, 1), df_den)
    if df_num == 0:
        return FTest(0.0, 0, df_den, 1.0, critical)
    f = (ss_num / df_num) / (ss_den / df_den)
    return FTest(f, df_num, df_den, f_sf(f, df_num, df_den), critical)


def r_squared(
    fit, y: np.ndarray, ss_pure_error: float = 0.0
) -> tuple[float, float]:
    """Multiple correlation coefficient and its attainable maximum.

    ``fit`` is any solved fit exposing a ``fitted`` attribute.  The maximum
    discounts pure error, which no model can explain.  Requires a response
    with variation about its mean.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = y.shape[0]
    if n < 2:
        raise ConstantResponseError("R-squared needs at least two runs")
    ss_about_mean = float(y @ y - n * y.mean() ** 2)
    if not ss_about_mean > SS_REL_TOL * max(float(y @ y), 1.0):
        raise ConstantResponseError(
            "response is constant; R-squared is undefined"
        )
    explained = float(fit.fitted @ y - n * y.mean() ** 2)
    r2 = explained / ss_about_mean
    r2_max = (ss_about_mean - ss_pure_error) / ss_about_mean
    return r2, r2_max


def f_sf(x: float, df1: int, df2: int) -> float:
    """Upper tail P(F > x) of the F distribution, from the regularized
    incomplete beta function I_t(df2/2, df1/2) at t = df2 / (df2 + df1 x)."""
    if df1 < 1 or df2 < 1:
        raise ShapeError(f"degrees of freedom must be >= 1, got {df1}, {df2}")
    if x <= 0.0:
        return 1.0
    t = df2 / (df2 + df1 * x)
    return float(special.betainc(df2 / 2.0, df1 / 2.0, t))


def f_critical(alpha: float, df1: int, df2: int) -> float:
    """Upper alpha-point of the F distribution: the x with
    ``f_sf(x, df1, df2) == alpha``."""
    if not 0.0 < alpha < 1.0:
        raise ShapeError(f"alpha must lie in (0, 1), got {alpha}")
    if df1 < 1 or df2 < 1:
        raise ShapeError(f"degrees of freedom must be >= 1, got {df1}, {df2}")
    t = float(special.betaincinv(df1 / 2.0, df2 / 2.0, 1.0 - alpha))
    if t >= 1.0:
        return math.inf
    return df2 * t / (df1 * (1.0 - t))


def normal_plot_positions(n: int) -> np.ndarray:
    """Standard-normal plotting positions for n ordered points, using Blom's
    probabilities (i - 3/8)/(n + 1/4)."""
    i = np.arange(1, n + 1)
    probs = (i - 0.375) / (n + 0.25)
    return special.ndtri(probs)


def residual_diagnostics(fit) -> ResidualDiagnostics:
    """Point sets for the normal-probability and residual-vs-fitted plots.

    ``fit`` is any solved fit exposing ``fitted`` and ``residuals``.
    """
    resid = np.asarray(fit.residuals, dtype=float)
    n = resid.shape[0]
    # stable sort: ties keep run order
    order = np.argsort(resid, kind="stable")
    quantiles = normal_plot_positions(n)
    normal_plot = tuple(
        (float(q), float(resid[idx])) for q, idx in zip(quantiles, order)
    )
    scatter = tuple(
        (float(f), float(r)) for f, r in zip(fit.fitted, resid)
    )
    return ResidualDiagnostics(normal_plot=normal_plot, scatter=scatter)


def box_wetz_ratio(f_critical: float, f_lack_of_fit: float) -> tuple[float, bool]:
    """Prediction margin: the critical F value over the observed
    lack-of-fit F, with the verdict of the Box & Wetz (1973) rule that a
    fitted model is only a useful predictor when the margin is at least
    four."""
    if not f_lack_of_fit > 0.0:
        raise ShapeError(
            f"lack-of-fit F must be positive, got {f_lack_of_fit}"
        )
    ratio = f_critical / f_lack_of_fit
    return ratio, ratio >= 4.0
