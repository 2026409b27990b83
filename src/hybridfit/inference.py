"""Sums of squares, F tests, lack of fit, residual diagnostics.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InconsistencyError, ShapeError
from .hybrid import HybridFit, HybridSystem
from .tolerances import SS_REL_TOL


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
    the sums of squares :func:`hybridfit.hybrid.solve` formed (and, by their
    additivity check, found finite) for ``fit``."""
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
    the hybrid model, the same settings and the same theory value).  Pure
    error above ``ss_residual`` by more than
    :data:`hybridfit.tolerances.SS_REL_TOL` of it is an inconsistency.
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
    if not ss_lof >= -SS_REL_TOL * ss_residual:
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


# Quantiles beyond e^690 (about 1e300) read as infinite, below e^-690 as 0,
# so that df1 * x stays finite.
_LN_X_LIMIT = 690.0


def _check_dof(df1: int, df2: int) -> None:
    if df1 < 1 or df2 < 1:
        raise ShapeError(f"degrees of freedom must be >= 1, got {df1}, {df2}")


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

    The log of the tail is concave in ln x (the log of an F variate has a
    log-concave density), so Newton's method on it converges from any start
    and approaches the root from above after its first step.  It starts from
    Paulson's normal approximation to the cube root of F; bisection on the
    bracket the iterates build guards steps that leave it.
    """
    if not 0.0 < alpha < 1.0:
        raise ShapeError(f"alpha must lie in (0, 1), got {alpha}")
    _check_dof(df1, df2)
    z = -float(_probit(alpha))  # upper alpha-point of the normal
    c1, c2 = 2.0 / (9.0 * df1), 2.0 / (9.0 * df2)
    # (1 - c2) y - (1 - c1) = z sqrt(c1 + c2 y^2), solved for y = x^(1/3)
    quad = (1.0 - c2) ** 2 - z * z * c2
    disc = ((1.0 - c1) * (1.0 - c2)) ** 2 - quad * ((1.0 - c1) ** 2 - z * z * c1)
    s = 0.0
    if quad > 0.0 and disc >= 0.0:
        y = ((1.0 - c1) * (1.0 - c2) + math.copysign(math.sqrt(disc), z)) / quad
        if y > 0.0:
            s = 3.0 * math.log(y)
    target = math.log(alpha)
    lo, hi = -math.inf, math.inf
    for _ in range(200):
        p, pre = _f_sf_and_prefactor(math.exp(s), df1, df2)
        if p > alpha:
            if s >= _LN_X_LIMIT:
                return math.inf
            lo = s
        elif p < alpha:
            if s <= -_LN_X_LIMIT:
                return 0.0
            hi = s
        else:
            return math.exp(s)
        step = (math.log(p) - target) * p / pre if p > 0.0 and pre > 0.0 else math.nan
        if abs(step) <= 1e-12:
            return math.exp(s + step)
        s_next = s + step
        if not lo < s_next < hi:
            if math.isinf(hi):
                s_next = s + 2.0
            elif math.isinf(lo):
                s_next = s - 2.0
            else:
                s_next = 0.5 * (lo + hi)
        s = min(max(s_next, -_LN_X_LIMIT), _LN_X_LIMIT)
    raise InconsistencyError(
        f"F quantile did not converge at alpha={alpha}, df=({df1}, {df2})"
    )


# Wichura's AS241 (PPND16): rational approximations to the normal quantile
# in r = 0.180625 - q^2 for |q| = |p - 1/2| <= 0.425, else in
# r = sqrt(-ln min(p, 1 - p)) - 1.6 up to r = 5 and r - 5 beyond.
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
_PROBIT_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
     1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
     1.42151175831644588870e-7, 2.04426310338993978564e-15),
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
    """Standard-normal quantile of p in (0, 1), a float or an array."""
    q = p - 0.5
    central = q * _rational(_PROBIT_CENTRAL, 0.180625 - q * q)
    r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    tail = _rational(_PROBIT_NEAR, r - 1.6)
    far = r > 5.0
    if np.any(far):  # p below about 1.4e-11
        tail = np.where(far, _rational(_PROBIT_FAR, r - 5.0), tail)
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
