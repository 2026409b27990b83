"""End-to-end validation against the bundled pneumatic-gauge case study.

The repository ships the case study's two designed experiments (an 11-run
two-level factorial with replicated center runs, and a 15-run Box-Behnken
design) together with known-good reference outputs for every analysis this
package performs on them: plain polynomial fits of first and second order,
the two theory-scaled fits, the flow solvers, and the headline adequacy
verdicts.  :func:`run_validation` loads the bundled files with
:func:`hybridfit.config.load_case`, runs the four fits through
:func:`hybridfit.analysis.analyze` -- the pipeline behind ``hybridfit fit``,
so the numbers checked are the numbers ``fit`` prints -- and compares number
by number, which makes it both an install check and a regression test for
the numerical core.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from . import analysis, config, gauge, report
from .errors import AnalysisError

FACTORIAL_BASENAME = "gauge_factorial"
BOXBEHNKEN_BASENAME = "gauge_boxbehnken"

# Reference values for the bundled case study.  Tolerances: "abs" is a
# per-entry absolute bound, "rel" a relative one.
COEF_FIRST_ORDER = (208.423, -34.409, 36.616, 18.277)
COEF_SECOND_ORDER = (212.598, -34.274, 38.221, 21.697, 0.286, -2.362,
                     -6.333, -9.561, 13.288, 6.227)
COEF_ADIABATIC = (27.044, 4.607, 6.614, 3.894, 0.907, -0.012, -0.010, -0.016)
COEF_ISOCHORIC = (15.429, 5.647, 7.694, 2.555, 0.971, -0.006, -0.026, -0.013)

FITTED_ADIABATIC = (188.345, 126.913, 283.472, 154.861, 198.295, 166.684,
                    294.225, 240.605, 213.083, 213.083, 213.083)
FITTED_ISOCHORIC = (188.704, 126.729, 283.427, 154.948, 198.099, 166.922,
                    294.322, 240.681, 212.938, 212.938, 212.938)

BACKPRESSURE_ADIABATIC = (187.986, 115.955, 280.554, 134.781, 196.727,
                          155.951, 293.607, 229.213, 206.223, 206.223, 206.223)
BACKPRESSURE_ISOCHORIC = (187.410, 116.513, 279.595, 136.175, 196.582,
                          155.431, 293.388, 226.924, 204.463, 204.463, 204.463)

KNOWN_DISCREPANCIES = (
    "first-order ANOVA: computed total df is 10 (n-1 for 11 runs); the "
    "reference table printed 14, which is not matched",
    "Box-Behnken table: the recorded fitted column equals the observations "
    "on all non-center runs, inconsistent with its own residual sum of "
    "squares 123.114; observations and coefficients are trusted instead",
    "Box-Behnken table: natural-unit sensor areas 0.546 and 1.834 disagree "
    "with the coded levels +1 used for fitting; coded columns are "
    "authoritative for the fit",
)


class CheckResult(NamedTuple):
    name: str
    expected: float
    got: float
    tol: float
    tol_kind: str  # "abs" or "rel"

    @property
    def passed(self) -> bool:
        if self.tol_kind == "abs":
            return abs(self.got - self.expected) <= self.tol
        return abs(self.got - self.expected) <= self.tol * abs(self.expected)


class ValidationResult(NamedTuple):
    checks: tuple[CheckResult, ...]
    notes: tuple[str, ...]
    constants: gauge.GaugeConstants

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def default_data_dir() -> Path:
    """Locate the repository data directory (cwd/data, or relative to the
    source checkout for editable installs)."""
    candidates = [
        Path.cwd() / "data",
        Path(__file__).resolve().parents[2] / "data",
    ]
    for cand in candidates:
        if (cand / f"{FACTORIAL_BASENAME}.tsv").is_file():
            return cand
    raise AnalysisError(
        "bundled case-study data not found; pass an explicit data directory "
        f"(tried {', '.join(str(c) for c in candidates)})"
    )


def _check_vector(checks, name, expected, got, tol, tol_kind):
    for i, (e, g) in enumerate(zip(expected, got)):
        checks.append(CheckResult(f"{name}[{i}]", float(e), float(g), tol, tol_kind))


def run_validation(data_dir: Path | None = None) -> ValidationResult:
    """Recompute the full case study and compare against reference values.

    The result carries the individual check outcomes, notes on the known
    discrepancies in the reference tables (logged, never matched), and the
    gauge constants used for the solver checks.  A bundled file that cannot
    be read raises :class:`~hybridfit.errors.AnalysisError` naming it.
    """
    data_dir = Path(data_dir) if data_dir is not None else default_data_dir()
    checks: list[CheckResult] = []

    def load(basename: str, extras: tuple[str, ...] = ()):
        return config.load_case(
            data_dir / f"{basename}.tsv", data_dir / f"{basename}_spec.txt", extras
        )

    def lof(a: analysis.Analysis) -> float:
        return a.lack_of_fit.f if a.lack_of_fit is not None else math.nan

    # --- first-order plain fit on the factorial design -------------------
    cfg5, _, ds5 = load(FACTORIAL_BASENAME, extras=("P_adiabatic", "P_isochoric"))
    mlr1 = analysis.analyze(ds5, cfg5, "mlr1")
    _check_vector(checks, "mlr1.coef", COEF_FIRST_ORDER, mlr1.coef, 1e-3, "abs")
    checks.append(CheckResult("mlr1.ss_regression", 2.287e4, mlr1.ss_regression_about_mean, 0.005, "rel"))
    checks.append(CheckResult("mlr1.ss_residual", 2.99e3, mlr1.fit.ss_residual, 0.005, "rel"))
    checks.append(CheckResult("mlr1.ss_pure_error", 0.949, mlr1.pure_error.ss_pure_error, 0.005, "rel"))
    checks.append(CheckResult("mlr1.f_regression", 17.85, mlr1.regression.f, 0.005, "rel"))
    checks.append(CheckResult("mlr1.f_lack_of_fit", 1260.0, lof(mlr1), 0.02, "rel"))
    for name, expected, got in [
        ("mlr1.df_regression", 3, mlr1.regression.df_num),
        ("mlr1.df_residual", 7, mlr1.system.df_residual),
        ("mlr1.df_lack_of_fit", 5, mlr1.pure_error.df_lack_of_fit),
        ("mlr1.df_pure_error", 2, mlr1.pure_error.df_pure_error),
    ]:
        checks.append(CheckResult(name, expected, got, 0.0, "abs"))

    # --- second-order plain fit on the Box-Behnken design ----------------
    cfg7, _, ds7 = load(BOXBEHNKEN_BASENAME)
    mlr2 = analysis.analyze(ds7, cfg7, "mlr2")
    _check_vector(checks, "mlr2.coef", COEF_SECOND_ORDER, mlr2.coef, 1e-3, "abs")
    checks.append(CheckResult("mlr2.ss_regression", 2.624e4, mlr2.ss_regression_about_mean, 0.005, "rel"))
    checks.append(CheckResult("mlr2.ss_residual", 123.114, mlr2.fit.ss_residual, 0.005, "rel"))
    checks.append(CheckResult("mlr2.f_regression", 118.419, mlr2.regression.f, 0.02, "rel"))
    checks.append(CheckResult("mlr2.f_lack_of_fit", 85.831, lof(mlr2), 0.02, "rel"))

    # --- theory-scaled fits on the factorial design ----------------------
    hybrids = {}
    for label, coef_ref, fitted_ref, ss_gain_ref, f_design_ref, f_gain_ref in [
        ("adiabatic", COEF_ADIABATIC, FITTED_ADIABATIC, 2986.0, 84730.0, 505.0),
        ("isochoric", COEF_ISOCHORIC, FITTED_ISOCHORIC, 2987.0, 145200.0, 866.0),
    ]:
        a = analysis.analyze(ds5, cfg5, "hybrid", f"column:P_{label}")
        hybrids[label] = a
        f_gain = a.theory_gain.f if a.theory_gain is not None else 0.0
        _check_vector(checks, f"{label}.coef", coef_ref, a.coef, 5e-3, "abs")
        _check_vector(checks, f"{label}.fitted", fitted_ref, a.fit.fitted, 0.5, "abs")
        checks.append(CheckResult(f"{label}.ss_design", 5.007e5, a.fit.ss_design, 0.005, "rel"))
        checks.append(CheckResult(f"{label}.ss_theory_gain", ss_gain_ref, a.fit.ss_excess, 0.005, "rel"))
        checks.append(CheckResult(f"{label}.f_design", f_design_ref, a.regression.f, 0.02, "rel"))
        checks.append(CheckResult(f"{label}.f_theory_gain", f_gain_ref, f_gain, 0.02, "rel"))
        if label == "adiabatic":
            checks.append(CheckResult("adiabatic.ss_residual", 4.432, a.fit.ss_residual, 0.005, "rel"))
            checks.append(CheckResult("adiabatic.ss_lack_of_fit", 3.483, a.pure_error.ss_lack_of_fit, 0.005, "rel"))
            checks.append(CheckResult("adiabatic.ss_pure_error", 0.949, a.pure_error.ss_pure_error, 0.005, "rel"))
            checks.append(CheckResult("adiabatic.f_lack_of_fit", 7.342, lof(a), 0.02, "rel"))
        else:
            checks.append(CheckResult("isochoric.ss_residual", 2.586, a.fit.ss_residual, 0.005, "rel"))
            checks.append(CheckResult("isochoric.f_lack_of_fit", 3.45, lof(a), 0.02, "rel"))

    # headline comparisons between the second-order plain fit and the
    # isochoric theory-scaled fit
    iso_ss_res = hybrids["isochoric"].fit.ss_residual
    checks.append(CheckResult(
        "headline.ss_residual_ratio", 47.6, mlr2.fit.ss_residual / iso_ss_res, 0.02, "rel"
    ))
    checks.append(CheckResult(
        "headline.sample_sd_mlr2", 2.965, mlr2.residual_sample_sd, 0.02, "rel",
    ))
    checks.append(CheckResult(
        "headline.sample_sd_isochoric", 0.509,
        hybrids["isochoric"].residual_sample_sd, 0.02, "rel",
    ))

    # --- prediction-usefulness margins (critical over observed lack-of-fit
    # F; a useful predictor needs a margin of at least four) ---------------
    for label, margin_ref, useful_ref in [
        ("adiabatic", 2.5, False),
        ("isochoric", 5.4, True),
    ]:
        margin, useful = hybrids[label].box_wetz or (math.nan, math.nan)
        checks.append(CheckResult(f"{label}.box_wetz_margin", margin_ref, margin, 0.05, "rel"))
        checks.append(CheckResult(
            f"{label}.box_wetz_useful", float(useful_ref), float(useful), 0.0, "abs"
        ))

    # --- flow solvers against the recorded simulation columns ------------
    constants, _ = config.gauge_constants(cfg5)
    for label, reference in [
        ("adiabatic", BACKPRESSURE_ADIABATIC),
        ("isochoric", BACKPRESSURE_ISOCHORIC),
    ]:
        solved = gauge.simulate_design(ds5, label, constants)
        _check_vector(checks, f"gauge.{label}", reference, solved, 0.5, "abs")

    return ValidationResult(
        checks=tuple(checks), notes=KNOWN_DISCREPANCIES, constants=constants
    )


def render_validation_report(result: ValidationResult) -> str:
    """Human-readable pass/fail table, one line per reference number."""
    n_pass = sum(c.passed for c in result.checks)
    lines = [
        "case-study validation: "
        f"{n_pass}/{len(result.checks)} checks passed",
        report.constants_line(result.constants, ()),
        "",
        f"{'status':6}  {'check':28}  {'expected':>12}  {'got':>14}  tolerance",
    ]
    for c in result.checks:
        tol = f"{c.tol:g} ({c.tol_kind})"
        lines.append(
            f"{'PASS' if c.passed else 'FAIL':6}  {c.name:28}  "
            f"{c.expected:>12.6g}  {c.got:>14.8g}  {tol}"
        )
    lines.append("")
    lines.append("known discrepancies in the reference tables (logged, not matched):")
    for note in result.notes:
        lines.append(f"  - {note}")
    return "\n".join(lines) + "\n"
