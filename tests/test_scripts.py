import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_gauge_response_writes_its_files(tmp_path):
    sweep = load_script("sweep_gauge_response")
    assert sweep.main(["--out", str(tmp_path)]) == 0
    for name in ("sweep_adiabatic.tsv", "sweep_isochoric.tsv", "sweep_adiabatic.svg"):
        assert (tmp_path / name).stat().st_size > 0
    rows = (tmp_path / "sweep_isochoric.tsv").read_text().splitlines()
    assert rows[0] == "area_sensor\tpressure_supply\tbackpressure"
    assert len(rows) == 1 + 3 * 60
