from pathlib import Path

import numpy as np
import pytest

from hybridfit import config, dataset, gauge

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def load_case(basename: str, extras: tuple[str, ...] = ()):
    return config.load_case(
        DATA_DIR / f"{basename}.tsv", DATA_DIR / f"{basename}_spec.txt", extras
    )


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def adiabatic_factor():
    """The solvers' adiabatic flow factor at a pressure ratio (a float or an
    array), with the scratch arrays it writes into made here."""

    def factor(pressure_ratio, gamma):
        r = np.asarray(pressure_ratio, dtype=float)
        work = np.empty_like(r), np.empty_like(r)
        out = gauge._adiabatic_factor(r, gamma, work)
        return out if out.ndim else float(out)

    return factor


@pytest.fixture(scope="session")
def isochoric_factor():
    """The solvers' isochoric flow factor at a pressure ratio (a float or an
    array), with the scratch arrays it writes into made here."""

    def factor(pressure_ratio):
        r = np.asarray(pressure_ratio, dtype=float)
        out = gauge._isochoric_factor(r, (np.empty_like(r), np.empty_like(r)))
        return out if out.ndim else float(out)

    return factor


@pytest.fixture(scope="session")
def factorial():
    """The 11-run two-level factorial gauge design with center replicates,
    including the recorded simulation columns."""
    return load_case("gauge_factorial", extras=("P_adiabatic", "P_isochoric"))[2]


@pytest.fixture(scope="session")
def factorial_config():
    return load_case("gauge_factorial")[0]


@pytest.fixture(scope="session")
def boxbehnken():
    """The 15-run Box-Behnken gauge design (coded factors)."""
    return load_case("gauge_boxbehnken")[2]


@pytest.fixture(scope="session")
def boxbehnken_config():
    return load_case("gauge_boxbehnken")[0]


@pytest.fixture(scope="session")
def factorial_design(factorial):
    return dataset.build_design(dataset.code(factorial), "first")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
