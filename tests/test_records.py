"""The result and input records: immutable, and their constructors keep
their checks and messages."""

import numpy as np
import pytest

from hybridfit import analysis, hybrid, inference, report
from hybridfit.cli import report_formats
from hybridfit.dataset import Dataset, DesignMatrix, FactorSpec
from hybridfit.errors import AnalysisError
from hybridfit.gauge import GaugeConstants, solve_backpressures
from hybridfit.validation import CheckResult, ValidationResult


@pytest.fixture(scope="module")
def records(factorial, factorial_config):
    """One record of each type, with the name of a field to try to assign."""
    a = analysis.analyze(
        factorial, factorial_config, "hybrid", "column:P_adiabatic"
    )
    table = report.anova_tables(a)["anova_table2"]
    check = CheckResult("x", 1.0, 1.0, 0.0, "abs")
    return [
        (FactorSpec("A", 0.0, 1.0), "center"),
        (factorial, "naturals"),
        (a.system.design, "values"),
        (a.system, "rank"),
        (a.fit, "coef"),
        (hybrid.thin_svd(a.system.design.values), "basis"),
        (a.pure_error, "ss_pure_error"),
        (a.overall, "f"),
        (inference.residual_diagnostics(a.fit), "scatter"),
        (a, "fit"),
        (table, "rows"),
        (table.rows[0], "ss"),
        (GaugeConstants(), "gamma"),
        (check, "got"),
        (ValidationResult((check,), (), GaugeConstants()), "checks"),
    ]


def test_assigning_a_field_raises(records):
    assert len({type(record) for record, _ in records}) == 15
    for record, name in records:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before


@pytest.mark.parametrize("build,error,message", [
    (lambda: inference.f_critical(1.5, 1, 1),
     AnalysisError, "alpha must lie in (0, 1), got 1.5"),
    (lambda: report_formats("pdf,text"),
     AnalysisError, "unknown report formats: ['pdf']"),
    (lambda: FactorSpec("A", 1.0, 1.0),
     AnalysisError, "factor 'A' needs low < center < high, got 1.0, 1.0, 1.0"),
    (lambda: FactorSpec("A", 0.0, 1.0, center=1.0),
     AnalysisError, "factor 'A' needs low < center < high, got 0.0, 1.0, 1.0"),
    (lambda: Dataset((), np.empty((0, 0)), []),
     AnalysisError, "dataset needs at least one row"),
    (lambda: Dataset((FactorSpec("A", 0.0, 1.0),), [[0.5, 0.5]], [1.0]),
     AnalysisError, "2 factor columns but 1 factor specs"),
    (lambda: Dataset((FactorSpec("A", 0.0, 1.0),), [[0.5]], [1.0, 2.0]),
     AnalysisError, "1 rows but 2 responses"),
    (lambda: Dataset((FactorSpec("A", 0.0, 1.0),), [[0.5]], [1.0],
                     extras={"z": np.ones(2)}),
     AnalysisError, "extra column 'z' has the wrong length"),
    (lambda: DesignMatrix(np.ones((2, 2)), ("1",)),
     AnalysisError, "one label per design column required"),
    (lambda: DesignMatrix([[1.0, 0.0], [0.0, 1.0]], ("1", "x1")),
     AnalysisError, "first design column must be the intercept (all ones)"),
    (lambda: hybrid.assemble(DesignMatrix(np.ones((2, 1)), ("1",)), []),
     AnalysisError, "2 design rows but 0 theory values"),
    (lambda: hybrid.assemble(DesignMatrix(np.ones((2, 1)), ("1",)), [1.0, np.inf]),
     AnalysisError, "theory vector has non-finite entries"),
    (lambda: GaugeConstants(gamma=1.0), AnalysisError, "gamma must exceed 1, got 1.0"),
    (lambda: GaugeConstants(p_atm=0.0), AnalysisError, "p_atm must be positive, got 0.0"),
    (lambda: GaugeConstants(gamma=np.inf), AnalysisError, "gamma must be finite, got inf"),
    (lambda: GaugeConstants(p_atm=np.inf), AnalysisError, "p_atm must be finite, got inf"),
    (lambda: GaugeConstants(c_orifice=1.5),
     AnalysisError, "c_orifice must lie in (0, 1], got 1.5"),
    (lambda: GaugeConstants(1.4, 101.325, 1.0, 0.0),
     AnalysisError, "c_sensor must lie in (0, 1], got 0.0"),
    (lambda: solve_backpressures("adiabatic", [[0.5, -0.1, 0.6]], GaugeConstants()),
     AnalysisError, "row 1: pressure_supply must be positive, got -0.1"),
])
def test_constructor_checks_keep_their_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_constructors_normalise_their_inputs():
    assert FactorSpec("A", 1.0, 3.0).center == 2.0
    ds = Dataset(factors=(FactorSpec("A", 0.0, 1.0),), naturals=[[0], [1]],
                 response=[[1.0], [2.0]])
    assert ds.naturals.dtype == float and ds.naturals.shape == (2, 1)
    assert ds.response.dtype == float and ds.response.shape == (2,)
    assert ds.extras == {} and ds.response_units == ""
    design = DesignMatrix([1, 1], ("1", "x1"))
    assert design.values.dtype == float and design.values.shape == (1, 2)
    system = hybrid.assemble(DesignMatrix(np.ones((4, 1)), ("1",)), [[1, 2], [3, 4]])
    z = system.augmented[:, 1] + 1.0
    assert z.dtype == float and z.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_keyword_construction_and_defaults():
    assert GaugeConstants() == GaugeConstants(gamma=1.4, p_atm=101.325,
                                              c_orifice=1.0, c_sensor=1.0)
    row = report.AnovaRow("Total", 1.0, 2)
    assert (row.ms, row.f, row.p) == (None, None, None)
