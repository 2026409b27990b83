"""The one analysis pipeline: plain fits as the z = 1 augmented solve, the
guards, and the figures ``fit`` prints."""

import numpy as np
import pytest

from hybridfit import dataset, hybrid, inference
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
        a = analyze(factorial, factorial_config, "mlr1")
        assert np.array_equal(a.system.theory.values, np.ones(factorial.n_runs))
        assert a.system.rank == 4 and a.part.df_residual == 11 - 4
        assert np.array_equal(a.fit.coef_excess, np.zeros(4))
        assert a.labels == ("1", "A", "Ps", "B")
        assert a.theory_gain is None

    def test_pure_error_groups_are_the_replicates(self, factorial, factorial_config):
        a = analyze(factorial, factorial_config, "mlr1")
        groups = dataset.replicate_groups(factorial)
        pe = inference.pure_error(
            factorial.response, groups, a.part.ss_residual, a.part.df_residual
        )
        assert a.pure_error == pe

    def test_hybrid_on_unit_column_gives_the_plain_fit(self, factorial, factorial_config):
        ones = Dataset(
            factorial.factors, factorial.naturals, factorial.response,
            extras={"ones": np.ones(factorial.n_runs)},
        )
        plain = analyze(ones, factorial_config, "mlr1")
        scaled = analyze(ones, factorial_config, "hybrid", "column:ones")
        assert scaled.coef[:4] == pytest.approx(plain.coef, abs=1e-9)
        assert scaled.part == plain.part
        assert scaled.pure_error == plain.pure_error

    def test_column_theory_matches_the_layers(self, factorial, factorial_config):
        a = analyze(factorial, factorial_config, "hybrid", "column:P_adiabatic")
        system = hybrid.assemble(
            a.system.design, hybrid.TheoryVector(factorial.extras["P_adiabatic"])
        )
        fit = hybrid.solve(system, factorial.response)
        assert np.array_equal(a.coef, fit.coef)
        assert a.part == inference.partition(system, fit)
        assert a.std_errors == pytest.approx(np.sqrt(np.diag(fit.coef_cov)))


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
