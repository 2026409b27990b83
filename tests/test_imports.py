"""What each entry point loads, checked in a fresh interpreter.

``import hybridfit`` loads no submodule and re-exports no name: each name
is imported from the module that defines it.  The CLI imports the layers a
command runs inside that command.  These tests read ``sys.modules`` after
the fact; they carry no timing bounds.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hybridfit
from hybridfit import analysis, cli, gauge

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

# What simulate and fit must and must not load.  The flow solvers return
# arrays, so simulate leaves the fit core (with the SVD, which has no module
# of its own) unloaded too.
SIMULATE_LOADS = {
    "hybridfit.config", "hybridfit.dataset", "hybridfit.gauge",
    "hybridfit.report",
}
SIMULATE_SKIPS = {
    "hybridfit.analysis", "hybridfit.hybrid", "hybridfit.inference",
    "hybridfit.validation",
}
FIT_LOADS = {"hybridfit.analysis"}
FIT_SKIPS = {"hybridfit.validation"}

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
    assert SIMULATE_LOADS <= loaded
    assert not loaded & SIMULATE_SKIPS


def test_fit_skips_validation(tmp_path):
    loaded = loaded_modules(
        RUN_CLI, "fit", "--model", "hybrid", "--theory", "adiabatic",
        *factorial_args(tmp_path),
    )
    assert FIT_LOADS <= loaded
    assert not loaded & FIT_SKIPS


# Where each layer name below is defined.
LAYER_NAMES = {
    "analyze": "analysis",
    "load_case": "config",
    "solve_backpressures": "gauge",
    "AnalysisError": "errors",
}


@pytest.mark.parametrize("name", sorted(LAYER_NAMES))
def test_package_reexports_no_layer_name(name):
    assert not hasattr(hybridfit, name)
    module = importlib.import_module(f"hybridfit.{LAYER_NAMES[name]}")
    assert getattr(module, name).__name__ == name


def test_asserted_modules_exist():
    # a module that is gone would make an assertion about it vacuous
    names = SIMULATE_LOADS | SIMULATE_SKIPS | FIT_LOADS | FIT_SKIPS
    missing = sorted(
        name for name in names
        if not (SRC / name.replace(".", "/")).with_suffix(".py").is_file()
    )
    assert not missing


def test_cli_model_choices_are_the_analysis_models():
    assert set(cli.MODELS) == set(analysis.ORDERS)


def test_cli_theory_choices_are_the_gauge_theories():
    assert cli.THEORIES == gauge.THEORIES
