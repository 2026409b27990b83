from pathlib import Path

import numpy as np
import pytest

from hybridfit import config, dataset

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def load_case(basename: str, extras: tuple[str, ...] = ()):
    cfg = config.read_keyvalues(DATA_DIR / f"{basename}_spec.txt")
    text = dataset.read_text(DATA_DIR / f"{basename}.tsv")
    return config.load_case(text, cfg, extras), cfg


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def factorial():
    """The 11-run two-level factorial gauge design with center replicates,
    including the recorded simulation columns."""
    ds, _ = load_case("gauge_factorial", extras=("P_adiabatic", "P_isochoric"))
    return ds


@pytest.fixture(scope="session")
def factorial_config():
    _, cfg = load_case("gauge_factorial")
    return cfg


@pytest.fixture(scope="session")
def boxbehnken():
    """The 15-run Box-Behnken gauge design (coded factors)."""
    ds, _ = load_case("gauge_boxbehnken")
    return ds


@pytest.fixture(scope="session")
def boxbehnken_config():
    _, cfg = load_case("gauge_boxbehnken")
    return cfg


@pytest.fixture(scope="session")
def factorial_design(factorial):
    return dataset.build_design(dataset.code(factorial), "first")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
