"""The one analysis pipeline behind ``fit`` and ``validate``.

:func:`analyze` fits one model to a dataset and computes every number the
reports print: coefficients and their standard errors, the sum-of-squares
partition, pure error and lack of fit, R-squared and its attainable maximum,
the F tests and the prediction-usefulness margin.  Every tested row of the
ANOVA tables is one of its :class:`~hybridfit.inference.FTest` results, each
built by :func:`hybridfit.inference.f_test`; the reports only render them.

All three models go through the same augmented solve.  ``hybrid`` scales a
first-order polynomial by a theory column z, taken from the data file
(``column:<name>``) or simulated by a flow solver.  ``mlr1`` and ``mlr2``
are plain first- and second-order polynomials: the augmented system with
z identically one, whose excess block vanishes, so the rank is p + 1, the
residual df is n - p - 1, and the design block of the solution covariance
is sigma^2 (X'X)^-1, taken from the SVD of X rather than from X'X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config, dataset, gauge, hybrid, inference
from .errors import AnalysisError, ConstantResponseError, SaturatedModelError

# Polynomial order of each model's design.
ORDERS = {"mlr1": "first", "mlr2": "second", "hybrid": "first"}


@dataclass(frozen=True)
class Analysis:
    """Everything ``fit`` reports and ``validate`` checks for one model."""

    model: str                      # mlr1 | mlr2 | hybrid
    alpha: float
    system: hybrid.HybridSystem
    fit: hybrid.HybridFit
    part: inference.SSPartition
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
        return self.fit.coef_design if self.is_mlr else self.fit.coef

    @property
    def std_errors(self) -> np.ndarray:
        variances = np.clip(np.diag(self.fit.coef_cov), 0.0, None)
        return np.sqrt(variances[: len(self.labels)])

    @property
    def ss_regression_about_mean(self) -> float:
        return self.ss_about_mean - self.part.ss_residual

    @property
    def r2(self) -> float:
        return 1.0 - self.part.ss_residual / self.ss_about_mean

    @property
    def r2_max(self) -> float:
        """The R-squared left after pure error, which no model explains."""
        return 1.0 - self.pure_error.ss_pure_error / self.ss_about_mean

    @property
    def residual_sample_sd(self) -> float:
        """sqrt(SS_residual / (n - 1)): the residual scatter on the
        about-mean degrees of freedom, the paper's headline comparison."""
        return float(np.sqrt(self.part.ss_residual / (self.part.n_runs - 1)))


def _theory(
    ds: dataset.Dataset, cfg: dict[str, str], model: str, theory: str
) -> tuple[hybrid.TheoryVector, tuple[gauge.GaugeConstants, tuple[str, ...]] | None]:
    if model != "hybrid":
        return hybrid.TheoryVector(np.ones(ds.n_runs), "none"), None
    if theory.startswith("column:"):
        name = theory.split(":", 1)[1]
        return hybrid.TheoryVector(ds.extras[name], theory), None
    if theory == "none":
        raise AnalysisError("model=hybrid requires a theory source")
    constants = config.gauge_constants(cfg)
    return gauge.simulate_design(ds, theory, constants[0]), constants


def analyze(
    ds: dataset.Dataset,
    cfg: dict[str, str],
    model: str,
    theory: str = "none",
    alpha: float = 0.05,
) -> Analysis:
    """Fit ``model`` to ``ds`` and compute everything its reports need.

    ``theory`` is read for ``model="hybrid"`` only: ``adiabatic`` or
    ``isochoric`` simulate z with the gauge constants of ``cfg``, and
    ``column:<name>`` takes it from an extra column of ``ds``.  Raises
    :class:`AnalysisError` when the response is constant or overflows
    (checked first), the design is rank deficient, the model is saturated,
    or the residual is zero.  Statistical inadequacy is a reported verdict,
    not an error.
    """
    if model not in ORDERS:
        raise AnalysisError(f"unknown model {model!r}")
    y = ds.response
    if np.ptp(y) == 0:
        raise ConstantResponseError(
            "response is constant; R-squared and F tests are undefined"
        )
    with np.errstate(over="ignore"):  # reported as one error just below
        deviations = y - y.mean()
        ss_about_mean = float(deviations @ deviations)
    if not np.isfinite(ss_about_mean):
        raise AnalysisError("response overflows: its sum of squares about "
                            "the mean is not finite; rescale it")

    coded = dataset.code(ds)
    design = dataset.build_design(coded, ORDERS[model], [s.name for s in ds.factors])
    z, constants = _theory(ds, cfg, model, theory)
    system = hybrid.assemble(design, z)
    fit = hybrid.solve(system, y)
    part = inference.partition(system, fit)
    if part.df_residual <= 0:
        raise SaturatedModelError(
            "no residual degrees of freedom: the error variance is not "
            "estimable; add replicate runs"
        )
    if part.ss_residual <= 0.0:
        raise SaturatedModelError(
            "residual sum of squares is zero; F statistics are undefined"
        )

    # Pure error needs equal fitted values within a group: group the runs
    # that share coded settings and theory value (for z = 1, the replicates).
    groups = dataset.row_groups(np.column_stack([coded, z.values]))
    pe = inference.pure_error(y, groups, part.ss_residual, part.df_residual)

    def against_residual(ss: float, df: int) -> inference.FTest:
        return inference.f_test(ss, df, part.ss_residual, part.df_residual, alpha)

    overall = against_residual(part.ss_regression, part.df_regression)
    if model == "hybrid":
        regression = against_residual(part.ss_design, part.df_design)
        theory_gain = (
            against_residual(part.ss_theory_gain, part.df_theory_gain)
            if part.df_theory_gain > 0
            else None
        )
    else:
        regression = against_residual(
            ss_about_mean - part.ss_residual, part.df_design - 1
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
        alpha=alpha,
        system=system,
        fit=fit,
        part=part,
        pure_error=pe,
        ss_about_mean=ss_about_mean,
        overall=overall,
        regression=regression,
        theory_gain=theory_gain,
        lack_of_fit=lack_of_fit,
        box_wetz=box_wetz,
        constants=constants,
    )
