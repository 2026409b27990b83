"""The one analysis pipeline behind ``fit`` and ``validate``.

:func:`analyze` fits one model to a dataset and computes every number the
reports print: coefficients and their standard errors, the sum-of-squares
partition, pure error and lack of fit, R-squared and its attainable maximum,
the F tests and the prediction-usefulness margin.

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
from .errors import AnalysisError, ConstantResponseError, NoReplicatesError

# Polynomial order of each model's design.
ORDERS = {"mlr1": "first", "mlr2": "second", "hybrid": "first"}


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
class Analysis:
    """Everything ``fit`` reports and ``validate`` checks for one model."""

    model: str                      # mlr1 | mlr2 | hybrid
    alpha: float
    system: hybrid.HybridSystem
    fit: hybrid.HybridFit
    part: inference.SSPartition
    pure_error: inference.PureErrorDecomposition
    ss_about_mean: float            # y'y - n ybar^2
    r2: float
    r2_max: float
    # mlr: the regression about the mean, F(p, n-p-1); hybrid: the linear
    # term, F(p+1, n-rank).
    regression: FTest
    theory_gain: FTest | None       # hybrid, when the theory adds rank
    lack_of_fit: FTest | None       # None without replicate scatter
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
    :class:`AnalysisError` when the response is constant (checked first),
    the design is rank deficient, the model is saturated, or the residual
    is zero.  Statistical inadequacy is a reported verdict, not an error.
    """
    if model not in ORDERS:
        raise AnalysisError(f"unknown model {model!r}")
    y = ds.response
    ss_total = float(y @ y)
    ss_about_mean = float(ss_total - ds.n_runs * y.mean() ** 2)
    if not ss_about_mean > inference.SS_REL_TOL * max(ss_total, 1.0):
        raise ConstantResponseError(
            "response is constant; R-squared and F tests are undefined"
        )

    coded = dataset.code(ds)
    design = dataset.build_design(coded, ORDERS[model], [s.name for s in ds.factors])
    z, constants = _theory(ds, cfg, model, theory)
    system = hybrid.assemble(design, z)
    fit = hybrid.solve(system, y)
    part = inference.partition(system, y)
    # raises when the model is saturated or the residual is zero
    fstats = inference.f_statistics(part)

    # Pure error needs equal fitted values within a group: group the runs
    # that share coded settings and theory value (for z = 1, the replicates).
    groups = dataset.row_groups(np.column_stack([coded, z.values]))
    pe = inference.pure_error(y, groups, fit.fitted, part.df_residual)
    r2, r2_max = inference.r_squared(fit, y, pe.ss_pure_error)

    def f_test(f: float, df: int) -> FTest:
        return FTest(
            f, df, part.df_residual,
            1.0 - inference.f_cdf(f, df, part.df_residual),
            inference.f_critical(alpha, df, part.df_residual),
        )

    if model == "hybrid":
        regression = f_test(fstats.f_design, part.df_design)
        theory_gain = (
            f_test(fstats.f_theory_gain, part.df_theory_gain)
            if part.df_theory_gain > 0
            else None
        )
    else:
        df_about_mean = part.df_design - 1
        ms_about_mean = (ss_about_mean - part.ss_residual) / df_about_mean
        regression = f_test(
            ms_about_mean / (part.ss_residual / part.df_residual), df_about_mean
        )
        theory_gain = None

    try:
        f_lof, p_lof = inference.lack_of_fit_test(pe)
    except NoReplicatesError:
        lack_of_fit, box_wetz = None, None
    else:
        crit = inference.f_critical(
            alpha, max(pe.df_lack_of_fit, 1), pe.df_pure_error
        )
        lack_of_fit = FTest(f_lof, pe.df_lack_of_fit, pe.df_pure_error, p_lof, crit)
        box_wetz = inference.box_wetz_ratio(crit, f_lof) if f_lof > 0.0 else None

    return Analysis(
        model=model,
        alpha=alpha,
        system=system,
        fit=fit,
        part=part,
        pure_error=pe,
        ss_about_mean=ss_about_mean,
        r2=r2,
        r2_max=r2_max,
        regression=regression,
        theory_gain=theory_gain,
        lack_of_fit=lack_of_fit,
        box_wetz=box_wetz,
        constants=constants,
    )
