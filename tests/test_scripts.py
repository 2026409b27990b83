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


def test_run_case_study_writes_every_report(tmp_path):
    case_study = load_script("run_case_study")
    assert case_study.main(["--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fit_hybrid_adiabatic", "fit_hybrid_isochoric", "fit_mlr1", "fit_mlr2",
        "simulate_adiabatic", "simulate_isochoric", "validate",
    ]
    for fit in ("fit_mlr1", "fit_mlr2", "fit_hybrid_adiabatic", "fit_hybrid_isochoric"):
        assert (tmp_path / fit / "summary.txt").stat().st_size > 0
    report = (tmp_path / "validate" / "validation_report.txt").read_text()
    assert report.startswith("case-study validation: 108/108 checks passed")
