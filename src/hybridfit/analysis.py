"""The one analysis pipeline behind ``fit`` and ``validate``.

:func:`analyze` fits one model to a dataset and computes every number the
reports print: coefficients and their standard errors, pure error and lack
of fit, R-squared and its attainable maximum, the F tests and the
prediction-usefulness margin.  The sums of squares are the solved fit's and
the degrees of freedom the system's; nothing copies them.  Every tested row
of the ANOVA tables is one of its :class:`~hybridfit.inference.FTest`
results, each built by :func:`hybridfit.inference.f_test`; the reports only
render them.

All three models go through the same solve.  ``hybrid`` scales a
first-order polynomial by a theory column z, a plain array taken from the
data file (``column:<name>``) or simulated by a flow solver; the
:class:`Analysis` keeps the name of that source as ``theory``.  ``mlr1``
and ``mlr2`` are plain first- and second-order polynomials with no theory
and so no excess block: the rank is p + 1, the residual df is n - p - 1,
and the solution covariance is sigma^2 (X'X)^-1, taken from the SVD of X
rather than from X'X.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import config, dataset, gauge, hybrid, inference
from .errors import AnalysisError
from .tolerances import ROUNDOFF_SS_TOL

# Polynomial order of each model's design.
ORDERS = {"mlr1": "first", "mlr2": "second", "hybrid": "first"}


class Analysis(NamedTuple):
    """Everything ``fit`` reports and ``validate`` checks for one model."""

    model: str                      # mlr1 | mlr2 | hybrid
    theory: str | None              # z's source; None for mlr1 and mlr2
    alpha: float
    system: hybrid.HybridSystem
    fit: hybrid.HybridFit
    pure_error: inference.PureErrorDecomposition
    ss_about_mean: float            # sum of (y - ybar)^2
    # every ranked direction, uncorrected for the mean: F(rank, n-rank)
    overall: inference.FTest
    # mlr: the regression about the mean, F(p, n-p-1); hybrid: the linear
    # term, F(p+1, n-rank).
    regression: inference.FTest
    theory_gain: inference.FTest | None  # hybrid, when the theory adds rank
    lack_of_fit: inference.FTest | None  # None without replicate scatter
    box_wetz: tuple[float, bool] | None  # margin and verdict, when F_lof > 0
    # gauge constants and the keys that fell back to defaults, when the
    # theory column was simulated
    constants: tuple[gauge.GaugeConstants, tuple[str, ...]] | None = None

    @property
    def is_mlr(self) -> bool:
        return self.model != "hybrid"

    @property
    def labels(self) -> tuple[str, ...]:
        names = self.system.design.column_labels
        if self.is_mlr:
            return names
        return names + tuple(f"(z-1)*{name}" for name in names)

    @property
    def coef(self) -> np.ndarray:
        return self.fit.coef

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.fit.coef_cov))

    @property
    def ss_regression_about_mean(self) -> float:
        return self.ss_about_mean - self.fit.ss_residual

    @property
    def r2(self) -> float:
        return 1.0 - self.fit.ss_residual / self.ss_about_mean

    @property
    def r2_max(self) -> float:
        """The R-squared left after pure error, which no model explains."""
        return 1.0 - self.pure_error.ss_pure_error / self.ss_about_mean

    @property
    def residual_sample_sd(self) -> float:
        """sqrt(SS_residual / (n - 1)): the residual scatter on the
        about-mean degrees of freedom, the paper's headline comparison."""
        return float(np.sqrt(self.fit.ss_residual / (self.system.n_runs - 1)))


def theory_column(model: str, theory: str | None, alpha: float) -> str | None:
    """Check a fit request before any data is read; return the data column a
    ``column:<name>`` theory reads, or None.  Raises :class:`AnalysisError`
    at the first rule broken: a model of ``ORDERS``; a theory for ``hybrid``
    and for it alone, named in ``gauge.THEORIES`` or ``column:<name>``; alpha
    in (0, 1)."""
    if model not in ORDERS:
        raise AnalysisError(f"unknown model {model!r}")
    if theory is not None and model != "hybrid":
        raise AnalysisError(f"--theory is for model=hybrid only, got model={model}")
    if model == "hybrid" and not theory:
        raise AnalysisError("model=hybrid requires a theory source")
    column = None
    if theory is not None and theory not in gauge.THEORIES:
        prefix, _, column = theory.partition(":")
        if prefix != "column" or not column:
            raise AnalysisError(
                f"unknown theory source {theory!r}: expected "
                f"{', '.join(gauge.THEORIES)} or column:<name>"
            )
    if not 0.0 < alpha < 1.0:  # NaN included
        raise AnalysisError(f"alpha must lie in (0, 1), got {alpha}")
    return column


def analyze(
    ds: dataset.Dataset,
    cfg: dict[str, str],
    model: str,
    theory: str | None = None,
    alpha: float = 0.05,
) -> Analysis:
    """Fit ``model`` to ``ds`` and compute everything its reports need.

    The request is checked first, by :func:`theory_column` as ``fit`` checks
    it.  ``theory`` is given for ``model="hybrid"`` only: ``adiabatic`` or
    ``isochoric`` simulate z with the gauge constants of ``cfg``, and
    ``column:<name>`` takes it from an extra column of ``ds``.  Raises
    :class:`AnalysisError` when the response is constant or overflows
    (checked next), the theory column is missing, the design is rank
    deficient, the model is saturated (raised by the solve), or the residual
    is roundoff (``ROUNDOFF_SS_TOL`` y'y or less).  Statistical inadequacy
    is a reported verdict, not an error.
    """
    column = theory_column(model, theory, alpha)
    y = ds.response
    if np.ptp(y) == 0:
        raise AnalysisError(
            "response is constant; R-squared and F tests are undefined"
        )
    with np.errstate(over="ignore"):  # reported as one error just below
        deviations = y - y.mean()
        ss_about_mean = hybrid.sum_of_squares(deviations)
    if not np.isfinite(ss_about_mean):
        raise AnalysisError("response overflows: its sum of squares about "
                            "the mean is not finite; rescale it")

    coded = dataset.code(ds)
    design = dataset.build_design(coded, ORDERS[model], [s.name for s in ds.factors])
    z, constants = None, None
    if column is not None:
        if column not in ds.extras:
            raise AnalysisError(
                f"theory column {column!r} is not in the dataset; its extra "
                f"columns are {sorted(ds.extras)}"
            )
        z = ds.extras[column]
    elif theory is not None:
        constants = config.gauge_constants(cfg)
        z = gauge.simulate_design(ds, theory, constants[0])
    system = hybrid.assemble(design, z)
    fit = hybrid.solve(system, y)
    if fit.ss_residual <= ROUNDOFF_SS_TOL * fit.ss_total:
        raise AnalysisError(
            f"residual sum of squares {fit.ss_residual:.3e} is roundoff next to "
            f"y'y = {fit.ss_total:.6g}; F statistics are undefined"
        )

    # Pure error needs equal fitted values within a group: group the runs
    # that share coded settings and any theory value (for mlr, the replicates).
    _, groups = dataset.identical_rows(coded if z is None else np.column_stack([coded, z]))
    pe = inference.pure_error(y, groups, fit, system.df_residual)

    def against_residual(ss: float, df: int) -> inference.FTest:
        return inference.f_test(ss, df, fit.ss_residual, system.df_residual, alpha)

    overall = against_residual(fit.ss_regression, system.rank)
    if model == "hybrid":
        regression = against_residual(fit.ss_design, system.n_coef)
        theory_gain = (
            against_residual(fit.ss_excess, system.df_theory_gain)
            if system.df_theory_gain > 0
            else None
        )
    else:
        regression = against_residual(
            ss_about_mean - fit.ss_residual, system.n_coef - 1
        )
        theory_gain = None

    lack_of_fit, box_wetz = None, None
    if pe.df_pure_error > 0 and pe.ss_pure_error > 0.0:
        lack_of_fit = inference.f_test(
            pe.ss_lack_of_fit, pe.df_lack_of_fit,
            pe.ss_pure_error, pe.df_pure_error, alpha,
        )
        if lack_of_fit.f > 0.0:
            box_wetz = inference.box_wetz_ratio(lack_of_fit.critical, lack_of_fit.f)

    return Analysis(
        model=model,
        theory=theory,
        alpha=alpha,
        system=system,
        fit=fit,
        pure_error=pe,
        ss_about_mean=ss_about_mean,
        overall=overall,
        regression=regression,
        theory_gain=theory_gain,
        lack_of_fit=lack_of_fit,
        box_wetz=box_wetz,
        constants=constants,
    )
