"""Pure error and lack of fit, F tests, residual diagnostics.

The sums of squares of the augmented model are the ones
:func:`hybridfit.hybrid.solve` formed and checked; nothing here projects y
again.  When the design carries repeated runs the residual further splits
into pure error (the scatter of y within each group of runs with equal
fitted values, a model-free estimate of the error variance) and lack of fit
(the group means of the residuals).

:func:`f_test` is the one place an F ratio and its p-value are computed.
The p-value is the upper tail :func:`f_sf` taken directly from the
regularized incomplete beta function, not one minus the CDF, which would
cancel to zero for p below about 1e-16.

The F tail, its quantile and the normal plotting positions need no special
function library.  The tail is the regularized incomplete beta function,
evaluated by the continued fraction of DiDonato & Morris (ACM TOMS 708,
1992) with its prefactor t^a (1 - t)^b / B(a, b) formed as they do: Stirling
corrections and ``log1p`` around the mean t0 = a / (a + b), never as a
difference of large ``lgamma`` values.  Every term that would cancel is
written in the F ratio itself rather than in the rounded t.  The quantile is
Newton's method on the log tail against log x, safeguarded by bisection.
The probit is Wichura's AS241 (1988).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import AnalysisError, InconsistencyError
from .hybrid import HybridFit, sum_of_squares
from .tolerances import SS_REL_TOL


class PureErrorDecomposition(NamedTuple):
    """Residual sum of squares split into pure error and lack of fit."""

    ss_pure_error: float
    df_pure_error: int
    ss_lack_of_fit: float
    df_lack_of_fit: int


class FTest(NamedTuple):
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


class ResidualDiagnostics(NamedTuple):
    """Point sets behind the two standard residual plots, each an
    ``(x, y)`` pair of equal-length arrays.

    ``normal_plot`` holds the standard-normal plotting positions (Blom's
    (i - 3/8)/(n + 1/4) probability, mapped through the inverse normal CDF)
    and the residuals in ascending order.  ``scatter`` holds the fitted
    values and the residuals, in run order.
    """

    normal_plot: tuple[np.ndarray, np.ndarray]
    scatter: tuple[np.ndarray, np.ndarray]


def pure_error(
    y: np.ndarray, groups: np.ndarray, fit: HybridFit, df_residual: int
) -> PureErrorDecomposition:
    """Split the residual sum of squares of ``fit`` into pure error and
    lack of fit.

    ``groups`` numbers each run's group 0, 1, ... (as
    :func:`hybridfit.dataset.identical_rows` does); the fitted values must
    be equal within a group, so group runs whose model-matrix rows are
    identical (for the hybrid model, the same settings and the same theory
    value).  Pure error pools the squared deviations of y from its group
    means, on the pooled (group size - 1) degrees of freedom.  Lack of fit
    is the sum over runs of the squared mean residual of each run's group,
    formed directly rather than as a difference, which would lose digits
    when it is small.  The two parts must add up to
    ``fit.ss_residual`` within :data:`hybridfit.tolerances.SS_REL_TOL` of
    sqrt(SS_res * y'y), and their degrees of freedom to at most
    ``df_residual``, or :class:`InconsistencyError` is raised.
    """
    y = np.asarray(y, dtype=float).ravel()
    counts = np.bincount(groups)
    deviations = y - (np.bincount(groups, y) / counts)[groups]
    ss_pe = sum_of_squares(deviations)
    df_pe = int(groups.size - counts.size)
    mean_residuals = np.bincount(groups, fit.residuals) / counts
    ss_lof = sum_of_squares(mean_residuals[groups])
    # The fitted values of a group agree only up to roundoff relative to y,
    # which moves each part by up to about sqrt(SS_res) times that roundoff.
    defect = abs(ss_pe + ss_lof - fit.ss_residual)
    if not defect <= SS_REL_TOL * math.sqrt(fit.ss_residual * fit.ss_total):
        raise InconsistencyError(
            f"pure error {ss_pe:.6g} and lack of fit {ss_lof:.6g} miss the "
            f"residual sum of squares {fit.ss_residual:.6g} by {defect:.3e}"
        )
    df_lof = df_residual - df_pe
    if df_lof < 0:
        raise InconsistencyError(
            f"pure-error df {df_pe} exceeds residual df {df_residual}"
        )
    return PureErrorDecomposition(
        ss_pure_error=ss_pe,
        df_pure_error=df_pe,
        ss_lack_of_fit=ss_lof,
        df_lack_of_fit=df_lof,
    )


def f_test(
    ss_num: float, df_num: int, ss_den: float, df_den: int, alpha: float
) -> FTest:
    """F test of the mean square ``ss_num / df_num`` against
    ``ss_den / df_den`` at level ``alpha``.  Each df must be at least 1:
    :func:`f_critical` raises :class:`AnalysisError` for fewer.
    """
    critical = f_critical(alpha, df_num, df_den)
    f = (ss_num / df_num) / (ss_den / df_den)
    return FTest(f, df_num, df_den, f_sf(f, df_num, df_den), critical)


# Stirling-series remainder del(x) = lgamma(x) - ((x - 1/2) ln x - x + ln
# sqrt(2 pi)) for x >= 8, as the odd polynomial in 1/x of TOMS 708.
_DEL_COEFS = (
    0.0833333333333333, -0.00277777777760991, 7.9365066682539e-4,
    -5.9520293135187e-4, 8.37308034031215e-4, -0.00165322962780713,
)
_LN_SQRT_2PI = 0.9189385332046727


def _stirling_del(x: float) -> float:
    t = 1.0 / (x * x)
    acc = 0.0
    for c in reversed(_DEL_COEFS):
        acc = acc * t + c
    return acc / x


def _rlog1(e: float, one_plus_e: float) -> float:
    """e - ln(1 + e), with 1 + e passed as computed without forming the
    sum.  Near zero, where e - log1p(e) would cancel, it is the series
    2 r^2 / (1 - r) - 2 (r^3/3 + r^5/5 + ...) in r = e / (2 + e)."""
    if abs(e) > 0.6:
        return e - math.log(one_plus_e)
    r = e / (2.0 + e)
    r2 = r * r
    term = r * r2
    total = 0.0
    k = 3.0
    while True:
        add = term / k
        total += add
        if abs(add) <= 1e-17 * abs(total):
            return r * e - 2.0 * total
        term *= r2
        k += 2.0


def _log_prefactor(x: float, df1: int, df2: int) -> float:
    """ln[t^a w^b / B(a, b)] for the F tail: a = df2/2, b = df1/2,
    t = df2 / (df2 + df1 x) and w = 1 - t, all written in x."""
    a, b = 0.5 * df2, 0.5 * df1
    den = df2 + df1 * x
    if a >= 8.0 and b >= 8.0:
        # t / t0 = 1 + e1 and w / w0 = 1 + e2 with a e1 + b e2 = 0
        e1 = -df1 * (x - 1.0) / den
        e2 = df2 * (x - 1.0) / den
        ratio = (df1 + df2) / den
        bcorr = _stirling_del(a) + _stirling_del(b) - _stirling_del(a + b)
        return (
            0.5 * math.log(a * b / (a + b)) - _LN_SQRT_2PI - bcorr
            - (a * _rlog1(e1, ratio) + b * _rlog1(e2, x * ratio))
        )
    ln_t = -math.log1p(df1 * x / df2)
    ln_w = -math.log1p(df2 / (df1 * x))
    lo, hi = min(a, b), max(a, b)
    if hi >= 8.0:
        # ln Gamma(hi) - ln Gamma(lo + hi), without the large lgamma values
        ln_ratio = (
            _stirling_del(hi) - _stirling_del(lo + hi)
            - (lo + hi - 0.5) * math.log1p(lo / hi) - lo * (math.log(hi) - 1.0)
        )
        ln_beta = math.lgamma(lo) + ln_ratio
    else:
        ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return a * ln_t + b * ln_w - ln_beta


def _beta_fraction(a: float, b: float, t: float, w: float, lam: float) -> float:
    """I_t(a, b) over its prefactor, for lam = (a + b) w - b >= 0: the even
    part of the incomplete-beta continued fraction, written in lam so that
    no term cancels when t is near 1 (TOMS 708 ``bfrac``).  The convergents
    are run forward, rescaled each step so that the last denominator is 1."""
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    wp1 = w + 1.0
    p = 1.0
    s = a + 1.0
    r = c1 / c
    an, bn = 0.0, r  # the convergent before r, over r's denominator
    n = 0.0
    while n < 100_000:
        n += 1.0
        nt = n / a
        v = n * (b - n) * t
        e = a / s
        alpha = p * (p + c0) * e * e * (v * t)
        beta = n + v / s + (nt + 1.0) / (c1 + nt + nt) * (c + n * wp1)
        p = nt + 1.0
        s += 2.0
        a_next = alpha * an + beta * r
        b_next = alpha * bn + beta
        an, bn = r / b_next, 1.0 / b_next
        r0, r = r, a_next / b_next
        if abs(r - r0) <= 1e-15 * r:
            return r
    raise InconsistencyError(
        f"incomplete beta continued fraction did not converge at a={a}, b={b}"
    )


def _f_sf_and_prefactor(x: float, df1: int, df2: int) -> tuple[float, float]:
    """P(F > x) and the prefactor t^a w^b / B(a, b), which is also
    -d P(F > x) / d ln x.  Expects 0 < x and a finite df2 + df1 x."""
    a, b = 0.5 * df2, 0.5 * df1
    den = df2 + df1 * x
    t, w = df2 / den, df1 * x / den
    lam = a * df1 * (x - 1.0) / den  # (a + b) w - b, without cancellation
    pre = math.exp(_log_prefactor(x, df1, df2))
    if lam >= 0.0:
        return pre * _beta_fraction(a, b, t, w, lam), pre
    return 1.0 - pre * _beta_fraction(b, a, w, t, -lam), pre


# Iterates are capped at e^690 (about 1e300), so that df1 * x stays finite;
# a quantile beyond the cap reads as infinite.
_LN_X_LIMIT = 690.0


def _check_dof(df1: int, df2: int) -> None:
    if df1 < 1 or df2 < 1:
        raise AnalysisError(f"degrees of freedom must be >= 1, got {df1}, {df2}")


def f_sf(x: float, df1: int, df2: int) -> float:
    """Upper tail P(F > x) of the F distribution, from the regularized
    incomplete beta function I_t(df2/2, df1/2) at t = df2 / (df2 + df1 x)."""
    _check_dof(df1, df2)
    if x <= 0.0:
        return 1.0
    if not df2 + df1 * x < math.inf:  # x is infinite or nan
        return math.nan if math.isnan(x) else 0.0
    return _f_sf_and_prefactor(x, df1, df2)[0]


def f_critical(alpha: float, df1: int, df2: int) -> float:
    """Upper alpha-point of the F distribution: the x with
    ``f_sf(x, df1, df2) == alpha``.

    Newton's method on the log of the tail in s = ln x, from s = 0.  That
    log is concave in s (the log of an F variate has a log-concave
    density), so the first step lands at or above the root, and each later
    one between the root and the iterate before it.  Only a step that
    overshoots to the right can underflow the tail or its slope, and lo is
    finite by then: the next iterate is the midpoint of the bracket
    [lo, hi] the iterates have built.  The root lies above e^-690 for every
    float alpha below 1, so s needs no lower bound.
    """
    if not 0.0 < alpha < 1.0:
        raise AnalysisError(f"alpha must lie in (0, 1), got {alpha}")
    _check_dof(df1, df2)
    target = math.log(alpha)
    lo, hi = -math.inf, math.inf
    s = 0.0
    for _ in range(200):
        p, pre = _f_sf_and_prefactor(math.exp(s), df1, df2)
        if p > alpha:
            if s >= _LN_X_LIMIT:
                return math.inf
            lo = s
        else:
            hi = s
        step = (math.log(p) - target) * p / pre if p > 0.0 and pre > 0.0 else math.nan
        if abs(step) <= 1e-12:
            return math.exp(s + step)
        s_next = s + step
        s = min(s_next if lo < s_next < hi else 0.5 * (lo + hi), _LN_X_LIMIT)
    raise InconsistencyError(
        f"F quantile did not converge at alpha={alpha}, df=({df1}, {df2})"
    )


# Wichura's AS241 (PPND16): rational approximations to the normal quantile
# in r = 0.180625 - q^2 for |q| = |p - 1/2| <= 0.425, else in
# r = sqrt(-ln min(p, 1 - p)) - 1.6 up to r = 5.  AS241's third branch,
# r > 5, is left out: the only probabilities asked for are Blom's plotting
# positions, whose smallest, 0.625 / (n + 0.25), stays above e^-25 (about
# 1.4e-11, r = 5) for every n below 4.5e10.
# Coefficients run from the constant term up.
_PROBIT_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e+2, 1.9715909503065514427e+3,
     1.3731693765509461125e+4, 4.5921953931549871457e+4, 6.7265770927008700853e+4,
     3.3430575583588128105e+4, 2.5090809287301226727e+3),
    (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2,
     5.3941960214247511077e+3, 2.1213794301586595867e+4, 3.9307895800092710610e+4,
     2.8729085735721942674e+4, 5.2264952788528545610e+3),
)
_PROBIT_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
     6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
     5.47593808499534494600e-4, 1.05075007164441684324e-9),
)


def _rational(coefs, r):
    """num(r) / den(r) by Horner's rule, in place so that an array r costs
    no temporaries."""
    num, den = coefs
    acc_num, acc_den = num[-1] * r, den[-1] * r
    for cn, cd in zip(num[-2:0:-1], den[-2:0:-1]):
        acc_num += cn
        acc_num *= r
        acc_den += cd
        acc_den *= r
    return (acc_num + num[0]) / (acc_den + den[0])


def _probit(p):
    """Standard-normal quantile of p in [e^-25, 1 - e^-25], a float or an
    array."""
    q = p - 0.5
    central = q * _rational(_PROBIT_CENTRAL, 0.180625 - q * q)
    tail = _rational(_PROBIT_NEAR, np.sqrt(-np.log(np.minimum(p, 1.0 - p))) - 1.6)
    return np.where(np.abs(q) <= 0.425, central, np.copysign(tail, q))


def normal_plot_positions(n: int) -> np.ndarray:
    """Standard-normal plotting positions for n ordered points, using Blom's
    probabilities (i - 3/8)/(n + 1/4)."""
    i = np.arange(1, n + 1)
    probs = (i - 0.375) / (n + 0.25)
    return _probit(probs)


def residual_diagnostics(fit) -> ResidualDiagnostics:
    """Point sets for the normal-probability and residual-vs-fitted plots.

    ``fit`` is any solved fit exposing ``fitted`` and ``residuals``.
    """
    resid = np.asarray(fit.residuals, dtype=float)
    fitted = np.asarray(fit.fitted, dtype=float)
    # equal finite values are equal bits, except -0.0 and 0.0: put the signed
    # zeros back in run order, as a stable sort leaves them
    ordered = np.sort(resid)
    ordered[ordered == 0.0] = resid[resid == 0.0]
    return ResidualDiagnostics(
        normal_plot=(normal_plot_positions(resid.shape[0]), ordered),
        scatter=(fitted, resid),
    )


def box_wetz_ratio(f_critical: float, f_lack_of_fit: float) -> tuple[float, bool]:
    """Prediction margin: the critical F value over the observed
    lack-of-fit F, with the verdict of the Box & Wetz (1973) rule that a
    fitted model is only a useful predictor when the margin is at least
    four."""
    if not f_lack_of_fit > 0.0:
        raise AnalysisError(
            f"lack-of-fit F must be positive, got {f_lack_of_fit}"
        )
    ratio = f_critical / f_lack_of_fit
    return ratio, ratio >= 4.0
