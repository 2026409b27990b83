"""What each entry point loads, checked in a fresh interpreter.

``import hybridfit`` is lazy (PEP 562): a public name loads its module on
first access.  The CLI imports the layers a command runs inside that
command.  These tests read ``sys.modules`` after the fact; they carry no
timing bounds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hybridfit
from hybridfit import analysis, cli

SRC = Path(__file__).resolve().parents[1] / "src"
DATA_DIR = Path(__file__).resolve().parents[1] / "data"

# Runs argv[1] as code, then prints the loaded numpy and hybridfit modules.
PROBE = """
import sys
exec(sys.argv[1])
print(" ".join(sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("numpy", "hybridfit")
)))
"""

RUN_CLI = """
from hybridfit.cli import main
try:
    rc = main(sys.argv[2:])
except SystemExit as exc:
    rc = exc.code
assert rc == 0, rc
"""


def loaded_modules(code: str, *args: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, code, *args],
        capture_output=True, text=True, timeout=120, cwd=SRC.parent,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def factorial_args(tmp_path: Path) -> list[str]:
    return [
        "--data", str(DATA_DIR / "gauge_factorial.tsv"),
        "--spec", str(DATA_DIR / "gauge_factorial_spec.txt"),
        "--out", str(tmp_path),
    ]


def test_bare_import_loads_no_numpy_and_no_submodule():
    assert loaded_modules("import hybridfit") == {"hybridfit"}


def test_help_loads_no_numpy():
    loaded = loaded_modules(RUN_CLI, "--help")
    assert not any(name.split(".")[0] == "numpy" for name in loaded), loaded


@pytest.mark.parametrize("theory", ["adiabatic", "isochoric"])
def test_simulate_skips_analysis_inference_and_validation(theory, tmp_path):
    loaded = loaded_modules(
        RUN_CLI, "simulate", "--theory", theory, *factorial_args(tmp_path)
    )
    assert {"hybridfit.config", "hybridfit.dataset", "hybridfit.gauge",
            "hybridfit.report"} <= loaded
    # the flow solvers return arrays, so the fit core (with the SVD, which
    # has no module of its own) stays unloaded too
    assert not loaded & {
        "hybridfit.analysis", "hybridfit.hybrid", "hybridfit.inference",
        "hybridfit.linalg", "hybridfit.validation",
    }


def test_fit_skips_validation(tmp_path):
    loaded = loaded_modules(
        RUN_CLI, "fit", "--model", "hybrid", "--theory", "adiabatic",
        *factorial_args(tmp_path),
    )
    assert "hybridfit.analysis" in loaded
    assert "hybridfit.validation" not in loaded


def test_every_public_name_resolves():
    for name in hybridfit.__all__:
        obj = getattr(hybridfit, name)
        assert getattr(obj, "__name__", name) == name
    namespace: dict = {}
    exec("from hybridfit import *", namespace)
    assert set(hybridfit.__all__) <= set(namespace)
    assert set(hybridfit.__all__) <= set(dir(hybridfit))


def test_public_names_are_pinned():
    assert hybridfit.__all__ == [
        "Analysis", "AnalysisError", "Dataset", "DesignMatrix", "FTest",
        "FactorSpec", "GaugeConstants", "HybridFit", "HybridSystem",
        "PureErrorDecomposition", "analyze",
        "assemble", "box_wetz_ratio", "build_design", "code", "f_critical",
        "f_sf", "f_test", "load_case", "load_table", "pure_error",
        "residual_diagnostics", "simulate_design", "solve", "solve_backpressures",
    ]


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        hybridfit.no_such_name  # noqa: B018


def test_cli_model_choices_are_the_analysis_models():
    assert set(cli.MODELS) == set(analysis.ORDERS)
