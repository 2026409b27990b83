"""The one analysis pipeline: plain fits as the z = 1 augmented solve, the
guards, and the figures ``fit`` prints."""

import numpy as np
import pytest

from hybridfit import dataset, hybrid, inference, report
from hybridfit.analysis import analyze
from hybridfit.cli import main
from hybridfit.dataset import Dataset, FactorSpec
from hybridfit.errors import (
    AnalysisError,
    ConstantResponseError,
    RankError,
    SaturatedModelError,
)

# Coded units equal natural units for factors spanning [-1, 1].
UNIT_FACTORS = (FactorSpec("x1", -1.0, 1.0), FactorSpec("x2", -1.0, 1.0))


def sums_of_squares(a):
    """The four sums of squares of an analysis's fit and the ranks and
    degrees of freedom of its system."""
    fit, sys = a.fit, a.system
    return (fit.ss_total, fit.ss_design, fit.ss_excess, fit.ss_residual,
            sys.rank, sys.df_theory_gain, sys.df_residual)


def near_collinear_case():
    """n = 40, x2 = x1 + 1e-7 u: condition number about 2e7, far inside the
    rank tolerance, so the design has full rank."""
    rng = np.random.default_rng(7)
    n = 40
    x1 = rng.uniform(-1.0, 1.0, n)
    x2 = x1 + 1e-7 * rng.normal(size=n)
    y = 1.0 + 2.0 * x1 + 3.0 * x2 + rng.normal(scale=0.1, size=n)
    return np.column_stack([x1, x2]), y


def qr_std_errors(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference standard errors sigma * |row_i(R^-1)| from X = QR, which
    never forms X'X."""
    q, r = np.linalg.qr(x)
    resid = y - x @ np.linalg.solve(r, q.T @ y)
    sigma = np.sqrt(resid @ resid / (x.shape[0] - x.shape[1]))
    return sigma * np.linalg.norm(np.linalg.solve(r, np.eye(x.shape[1])), axis=1)


class TestPlainFitStandardErrors:
    def test_near_collinear_design_matches_qr_reference(self):
        naturals, y = near_collinear_case()
        ds = Dataset(UNIT_FACTORS, naturals, y)
        a = analyze(ds, {}, "mlr1")
        x = a.system.design.values
        assert np.array_equal(x[:, 1:], naturals)
        assert np.linalg.cond(x) > 1e7
        ref = qr_std_errors(x, y)
        assert a.std_errors == pytest.approx(ref, rel=1e-6)

    def test_fit_writes_them(self, tmp_path):
        naturals, y = near_collinear_case()
        rows = ["\t".join(map(repr, row)) for row in np.column_stack([naturals, y]).tolist()]
        data = tmp_path / "collinear.tsv"
        data.write_text("x1\tx2\ty\n" + "\n".join(rows) + "\n")
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "factor.x1.low = -1\nfactor.x1.high = 1\n"
            "factor.x2.low = -1\nfactor.x2.high = 1\nresponse.column = y\n"
        )
        out = tmp_path / "out"
        assert main(["fit", "--data", str(data), "--spec", str(spec),
                     "--model", "mlr1", "--out", str(out)]) == 0
        lines = (out / "coefficients.tsv").read_text().splitlines()[1:]
        printed = [float(ln.split("\t")[2]) for ln in lines]
        x = np.column_stack([np.ones(len(y)), naturals])
        # six significant figures
        assert printed == pytest.approx(qr_std_errors(x, y), rel=1e-5)


class TestPlainFitIsTheUnitTheorySolve:
    def test_excess_block_vanishes(self, factorial, factorial_config):
        # no theory, so no excess block: the system is X alone
        a = analyze(factorial, factorial_config, "mlr1")
        assert a.system.z is None
        assert a.theory == "none"
        assert a.system.rank == 4 and a.system.df_residual == 11 - 4
        assert a.fit.coef.shape == (4,) and a.fit.coef_cov.shape == (4, 4)
        assert a.labels == ("1", "A", "Ps", "B")
        assert a.theory_gain is None

    def test_pure_error_groups_are_the_replicates(self, factorial, factorial_config):
        a = analyze(factorial, factorial_config, "mlr1")
        _, groups = dataset.identical_rows(dataset.code(factorial))
        pe = inference.pure_error(factorial.response, groups, a.fit, a.system.df_residual)
        assert a.pure_error == pe

    def test_hybrid_on_unit_column_gives_the_plain_fit(self, factorial, factorial_config):
        ones = Dataset(
            factorial.factors, factorial.naturals, factorial.response,
            extras={"ones": np.ones(factorial.n_runs)},
        )
        plain = analyze(ones, factorial_config, "mlr1")
        scaled = analyze(ones, factorial_config, "hybrid", "column:ones")
        assert scaled.coef[:4] == pytest.approx(plain.coef, abs=1e-9)
        assert sums_of_squares(scaled) == sums_of_squares(plain)
        assert scaled.pure_error == plain.pure_error

    def test_column_theory_matches_the_layers(self, factorial, factorial_config):
        a = analyze(factorial, factorial_config, "hybrid", "column:P_adiabatic")
        assert a.theory == "column:P_adiabatic"
        system = hybrid.assemble(a.system.design, factorial.extras["P_adiabatic"])
        fit = hybrid.solve(system, factorial.response)
        assert np.array_equal(a.coef, fit.coef)
        assert sums_of_squares(a) == (
            fit.ss_total, fit.ss_design, fit.ss_excess, fit.ss_residual,
            system.rank, system.df_theory_gain, system.df_residual,
        )
        assert a.std_errors == pytest.approx(np.sqrt(np.diag(fit.coef_cov)))


class TestResidualSampleSd:
    """``fit`` prints and ``validate`` checks the same number."""

    def test_about_mean_df(self, boxbehnken, boxbehnken_config):
        a = analyze(boxbehnken, boxbehnken_config, "mlr2")
        assert a.residual_sample_sd == pytest.approx(
            np.sqrt(np.sum(a.fit.residuals ** 2) / 14), rel=1e-10
        )
        assert a.residual_sample_sd == pytest.approx(2.965, rel=0.02)
        line = next(
            ln for ln in report.summary_lines(a)
            if ln.startswith("residual sample standard deviation")
        )
        assert line.endswith(f": {a.residual_sample_sd:.3f}")


class TestGuards:
    def test_constant_response_is_checked_first(self):
        # also saturated (two runs, two coefficients): the constant check wins
        ds = Dataset((UNIT_FACTORS[0],), np.array([[-1.0], [1.0]]), np.array([5.0, 5.0]))
        with pytest.raises(ConstantResponseError, match="constant"):
            analyze(ds, {}, "mlr1")

    def test_saturated(self):
        ds = Dataset((UNIT_FACTORS[0],), np.array([[-1.0], [1.0]]), np.array([1.0, 2.0]))
        with pytest.raises(SaturatedModelError, match="not estimable"):
            analyze(ds, {}, "mlr1")

    def test_rank_deficient_design(self, factorial, factorial_config):
        with pytest.raises(RankError, match=r"shape \(11, 10\).*rank 8"):
            analyze(factorial, factorial_config, "mlr2")

    def test_unknown_model_and_missing_theory(self, factorial, factorial_config):
        with pytest.raises(AnalysisError, match="unknown model"):
            analyze(factorial, factorial_config, "mlr3")
        with pytest.raises(AnalysisError, match="theory source"):
            analyze(factorial, factorial_config, "hybrid")

    def test_missing_theory_column_names_the_extras(self, factorial, factorial_config):
        with pytest.raises(AnalysisError) as info:
            analyze(factorial, factorial_config, "hybrid", "column:P_nope")
        assert str(info.value) == (
            "theory column 'P_nope' is not in the dataset; its extra columns "
            "are ['P_adiabatic', 'P_isochoric']"
        )


def saturated_replicated_case() -> Dataset:
    """Six distinct settings (rank-4 design), center triplicated, each
    setting with its own theory value: the augmented system rank equals the
    number of distinct settings, so the residual is pure error only."""
    corners = np.array(
        [
            [-1, -1, -1],
            [1, -1, -1],
            [-1, 1, -1],
            [-1, -1, 1],
            [1, 1, 1],
            [0, 0, 0],
            [0, 0, 0],
            [0, 0, 0],
        ],
        dtype=float,
    )
    z_by_setting = {}
    z = []
    for row in corners:
        key = tuple(row)
        z_by_setting.setdefault(key, 1.0 + 0.37 * len(z_by_setting))
        z.append(z_by_setting[key])
    y = np.array([10.0, 12.0, 9.0, 11.0, 14.0, 13.0, 13.4, 12.7])
    factors = UNIT_FACTORS + (FactorSpec("x3", -1.0, 1.0),)
    return Dataset(factors, corners, y, extras={"z": np.array(z)})


class TestRSquared:
    """R-squared and its attainable maximum, as ``analyze`` reports them."""

    def test_perfect_fit(self, factorial, factorial_design, factorial_config):
        # a residual of roundoff is no error estimate: no R-squared or F test
        sys = hybrid.assemble(
            factorial_design, factorial.extras["P_adiabatic"]
        )
        beta = np.linspace(1.0, 2.0, 8)
        y = sys.augmented @ beta
        ds = Dataset(factorial.factors, factorial.naturals, y, extras=factorial.extras)
        with pytest.raises(SaturatedModelError, match="is roundoff"):
            analyze(ds, factorial_config, "hybrid", "column:P_adiabatic")
        # a plain fit to noise-free data: SS_res is about eps^2 y'y, and F
        # would be about 1e29
        y = 200.0 + dataset.code(factorial) @ [10.0, -5.0, 3.0]
        ds = Dataset(factorial.factors, factorial.naturals, y)
        with pytest.raises(SaturatedModelError, match="roundoff next to y'y"):
            analyze(ds, factorial_config, "mlr1")

    def test_near_exact_fit_with_replicates_is_reported(self):
        # the replicates' fitted values agree only up to roundoff relative to
        # y, which next to a residual of 1e-9 relative moves the pure-error
        # and lack-of-fit sums far more than 1e-8 of SS_res
        rng = np.random.default_rng(11)
        settings = rng.uniform(-1.0, 1.0, size=(10, 2))
        x = settings[np.r_[np.arange(10), 0, 0, 3, 7]]
        y = 5.0 + 2.0 * x[:, 0] - x[:, 1] + 1e-9 * rng.normal(size=14)
        for model in ("mlr1", "mlr2"):
            a = analyze(Dataset(UNIT_FACTORS, x, y), {}, model)
            pe = a.pure_error
            assert pe.ss_pure_error + pe.ss_lack_of_fit == pytest.approx(
                a.fit.ss_residual, rel=1e-5
            )
            assert a.r2 == pytest.approx(1.0, abs=1e-12)

    def test_saturated_design_reaches_max(self):
        a = analyze(saturated_replicated_case(), {}, "hybrid", "column:z")
        assert a.system.rank == 6
        pe = a.pure_error
        assert pe.ss_lack_of_fit == pytest.approx(0.0, abs=1e-9)
        assert a.fit.ss_residual == pytest.approx(pe.ss_pure_error, rel=1e-8)
        assert a.r2 == pytest.approx(a.r2_max, abs=1e-10)

    def test_two_formula_agreement(self, factorial, factorial_config):
        a = analyze(factorial, factorial_config, "hybrid", "column:P_adiabatic")
        y = factorial.response
        n = y.size
        ss_about_mean = y @ y - n * y.mean() ** 2
        assert a.r2 == pytest.approx(1.0 - a.fit.ss_residual / ss_about_mean, abs=1e-9)
        explained = a.fit.fitted @ y - n * y.mean() ** 2
        assert a.r2 == pytest.approx(explained / ss_about_mean, abs=1e-9)

    def test_constant_response_rejected(self, factorial, factorial_config):
        ds = Dataset(
            factorial.factors, factorial.naturals, np.full(11, 3.0),
            extras=factorial.extras,
        )
        with pytest.raises(ConstantResponseError):
            analyze(ds, factorial_config, "hybrid", "column:P_adiabatic")
