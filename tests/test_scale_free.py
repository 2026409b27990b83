"""The statistics do not depend on the units or origin of the response, the
units of the theory column, or the order of the runs.

The regressions run ``fit`` on the bundled factorial with one column
rescaled or shifted; the metamorphic suite draws random designs and checks
every reported statistic under ``y * 2^k``, ``z * 2^k`` (bit for bit: a power
of two rescales every floating-point step exactly), ``y + c`` (plain
polynomials, which carry an intercept) and a permutation of the runs.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridfit.analysis import analyze
from hybridfit.cli import main
from hybridfit.dataset import Dataset, FactorSpec
from hybridfit.errors import ConstantResponseError

SUMMARY_KEYS = ("R^2", "lack of fit", "model adequacy verdict", "runs")


def fit_summary(data_dir, tmp_path, flags, column=None, transform=None):
    """``fit`` on the bundled factorial, with ``transform`` applied to one
    column first; returns the exit code and the summary lines that start
    with one of SUMMARY_KEYS."""
    data = data_dir / "gauge_factorial.tsv"
    if column is not None:
        lines = data.read_text().splitlines()
        j = lines[0].split("\t").index(column)
        rows = [ln.split("\t") for ln in lines[1:]]
        for row in rows:
            row[j] = repr(transform(float(row[j])))
        data = tmp_path / f"{column}.tsv"
        data.write_text("\n".join([lines[0]] + ["\t".join(r) for r in rows]) + "\n")
    out = tmp_path / f"out_{data.stem}"
    rc = main([
        "fit", "--data", str(data),
        "--spec", str(data_dir / "gauge_factorial_spec.txt"),
        *flags, "--format", "text", "--out", str(out),
    ])
    if rc != 0:
        return rc, []
    summary = (out / "summary.txt").read_text().splitlines()
    return rc, [ln for ln in summary if ln.startswith(SUMMARY_KEYS)]


MLR1 = ["--model", "mlr1"]
ISOCHORIC = ["--model", "hybrid", "--theory", "column:P_isochoric"]


class TestBundledFactorial:
    @pytest.mark.parametrize("flags", [MLR1, ISOCHORIC], ids=["mlr1", "hybrid"])
    @pytest.mark.parametrize(
        "transform", [lambda y: y + 1e6, lambda y: y * 1e-8], ids=["shift", "shrink"]
    )
    def test_response_origin_and_units(self, flags, transform, data_dir, tmp_path):
        rc, plain = fit_summary(data_dir, tmp_path, flags)
        assert rc == 0
        rc, moved = fit_summary(data_dir, tmp_path, flags, "P_obs", transform)
        assert rc == 0
        assert moved == plain

    @pytest.mark.parametrize("flags", [MLR1, ISOCHORIC], ids=["mlr1", "hybrid"])
    def test_overflowing_response_is_one_error(self, flags, data_dir, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, _ = fit_summary(data_dir, tmp_path, flags, "P_obs", lambda y: y * 1e153)
        assert rc == 1
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "overflow" in err[0]
        assert "constant" not in err[0]

    @pytest.mark.parametrize("factor", [1e-11, 2.0**-40], ids=["1e-11", "2^-40"])
    def test_theory_units(self, factor, data_dir, tmp_path):
        rc, lines = fit_summary(
            data_dir, tmp_path, ISOCHORIC, "P_isochoric", lambda z: z * factor
        )
        assert rc == 0
        assert "runs: 11; coefficients per block: 4; model rank: 8" in lines
        assert any(ln.startswith("lack of fit: F(1,2) = 3.45405,") for ln in lines)
        assert "model adequacy verdict: adequate" in lines

    def test_equal_tenths_are_constant(self, factorial):
        ds = Dataset(factorial.factors, factorial.naturals, np.full(11, 0.1))
        with pytest.raises(ConstantResponseError):
            analyze(ds, {}, "mlr1")


# ---------------------------------------------------------------------------
# metamorphic suite
# ---------------------------------------------------------------------------

FACTORS = (FactorSpec("x1", -1.0, 1.0), FactorSpec("x2", -1.0, 1.0))


@st.composite
def cases(draw, models=("mlr1", "mlr2", "hybrid")):
    """A random two-factor design: 8 to 14 distinct settings, the first one
    run two to four times, a theory value per setting, and a response with
    a linear-plus-interaction trend (scaled by z for the hybrid model) plus
    noise."""
    model = draw(st.sampled_from(models))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    settings_ = rng.uniform(-1.0, 1.0, size=(int(rng.integers(8, 15)), 2))
    repeats = np.repeat([0], int(rng.integers(1, 4)))
    rows = np.concatenate([np.arange(len(settings_)), repeats])
    x = settings_[rows]
    z = rng.uniform(0.5, 3.0, size=len(settings_))[rows]
    trend = 5.0 + 2.0 * x[:, 0] - x[:, 1] + 0.5 * x[:, 0] * x[:, 1]
    if model == "hybrid":
        trend = z * trend
    y = trend + rng.normal(scale=rng.uniform(0.05, 1.0), size=len(rows))
    return model, x, y, z


def run(model, x, y, z):
    ds = Dataset(FACTORS, x, y, extras={"z": z})
    theory = "column:z" if model == "hybrid" else "none"
    return analyze(ds, {}, model, theory)


def statistics(a, about_mean_only=False):
    """Every reported statistic: rank, R-squared and its maximum, each F
    test's ratio, p-value, critical value and verdict, and the prediction
    margin.  ``about_mean_only`` leaves out the tests on sums of squares
    uncorrected for the mean, which a shift of y changes."""
    tests = [a.regression, a.theory_gain, a.lack_of_fit]
    if not about_mean_only:
        tests.append(a.overall)
    values = {"rank": a.system.rank, "r2": a.r2, "r2_max": a.r2_max,
              "box_wetz": a.box_wetz}
    for name, t in zip(("regression", "theory_gain", "lack_of_fit", "overall"), tests):
        if t is not None:
            values[name] = (t.f, t.p, t.critical, t.df_num, t.df_den, t.significant)
    return values


def assert_close(got, reference, rel, about_mean_only=False):
    """``got`` equals the statistics of the analysis ``reference`` within
    ``rel``.  The lack-of-fit test and the margin divide by SS_lof = SS_res -
    SS_pe, a difference that magnifies relative roundoff by SS_res / SS_lof,
    so their tolerance carries that factor."""
    want = statistics(reference, about_mean_only)
    pe = reference.pure_error
    magnified = rel * max(1.0, reference.part.ss_residual / (pe.ss_lack_of_fit or 1.0))
    assert got.keys() == want.keys()
    for key, value in want.items():
        tol = magnified if key in ("lack_of_fit", "box_wetz") else rel
        assert got[key] == pytest.approx(value, rel=tol, abs=0.0), key


@settings(max_examples=40, deadline=None)
@given(case=cases(), k=st.integers(-60, 60))
def test_response_scaled_by_power_of_two(case, k):
    model, x, y, z = case
    assert statistics(run(model, x, y * 2.0**k, z)) == statistics(run(model, x, y, z))


@settings(max_examples=40, deadline=None)
@given(case=cases(models=("hybrid",)), k=st.integers(-60, 60))
def test_theory_scaled_by_power_of_two(case, k):
    model, x, y, z = case
    assert statistics(run(model, x, y, z * 2.0**k)) == statistics(run(model, x, y, z))


@settings(max_examples=40, deadline=None)
@given(case=cases(models=("mlr1", "mlr2")), shift=st.floats(-1e6, 1e6))
def test_plain_fit_response_shifted(case, shift):
    # Rounding y + c can move replicates that agree to many digits by a large
    # part of their difference, so the reference is (y + c) - c: the rounded
    # data shifted back, off from it by one rounding at the scale of y.
    model, x, y, z = case
    c = shift * np.std(y)
    moved = y + c
    unmoved = run(model, x, moved - c, z)
    got = statistics(run(model, x, moved, z), about_mean_only=True)
    assert_close(got, unmoved, 1e-6, about_mean_only=True)


@settings(max_examples=40, deadline=None)
@given(case=cases(), seed=st.integers(0, 2**32 - 1))
def test_runs_permuted(case, seed):
    model, x, y, z = case
    perm = np.random.default_rng(seed).permutation(len(y))
    permuted = statistics(run(model, x[perm], y[perm], z[perm]))
    assert_close(permuted, run(model, x, y, z), 1e-12)
