"""Smoke test of the benchmark: every workload at tiny size, no timing bounds.

    python3 -m pytest -q perfbench/test_smoke.py

Checks the output schema against BENCHMARK.json, that every operation passed
its correctness check, that the checks themselves catch wrong output, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_ROWS = 120


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", "0.1", "--trace", str(trace), "--rows", str(TINY_ROWS)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_schema_and_checks(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_refuses_without_program_sources():
    bare = ROOT / ".perfbench_tmp" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("fit_large", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_coefficient_check_catches_a_wrong_digit(tmp_path):
    path = tmp_path / "coefficients.tsv"
    path.write_text("term\testimate\tstd_error\n1\t2.000\t0.1\nx\t-1.250\t0.1\n")
    assert oracle.check_coefficients(path, np.array([2.0002, -1.2503])) == []
    assert oracle.check_coefficients(path, np.array([2.0002, -1.2520])) != []


def test_flow_checks_catch_a_wrong_back_pressure(tmp_path):
    k = {"gamma": 1.4, "p_atm": 101.325, "c_orifice": 1.0, "c_sensor": 1.0}
    a, ps, b = np.array([0.3, 1.2]), np.array([0.2, 0.29]), np.array([1.1, 0.6])
    cells = [f"{a[i]}\t{ps[i]}\t{b[i]}" for i in range(2)]
    source = tmp_path / "in.tsv"
    source.write_text("A\tPs\tB\n" + "".join(f"{c}\n" for c in cells))
    spec = tmp_path / "spec.txt"
    spec.write_text("gauge.gamma = 1.4\n")
    for theory, exact in [
        ("isochoric", oracle.isochoric_backpressure(a, ps, b, k)),
        ("adiabatic", oracle.adiabatic_backpressure(a, ps, b, k)),
    ]:
        out = tmp_path / f"{theory}.tsv"
        for shift, ok in [(0.0, True), (0.002, False)]:
            rows = "".join(f"{cells[i]}\t{exact[i] + shift:.3f}\n" for i in range(2))
            out.write_text("A\tPs\tB\tP\n" + rows)
            assert (oracle.check_simulated(out, source, spec, theory) == []) == ok, theory


def test_isochoric_closed_form_balances_the_flows():
    k = {"gamma": 1.4, "p_atm": 101.325, "c_orifice": 0.9, "c_sensor": 0.8}
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0.05, 3.0, 500), rng.uniform(0.05, 3.0, 500)
    ps = rng.uniform(0.15, 0.6, 500)
    p = oracle.isochoric_backpressure(a, ps, b, k)

    def flow(up, down):
        return np.where(down / up >= 0.5, np.sqrt(down * (up - down)), up / 2.0)

    orifice = k["c_orifice"] * b * flow(1000.0 * ps, p)
    sensor = k["c_sensor"] * a * flow(p, k["p_atm"])
    assert np.all(np.abs(orifice - sensor) <= 1e-9 * orifice)


def test_validate_check_counts_pass_lines():
    good = "case-study validation: 2/2 checks passed\nPASS a\nPASS b\n"
    assert oracle.check_validate(good.replace("2/2", "108/108") + "PASS c\n" * 106) == ([], 108)
    assert oracle.check_validate(good)[0] != []  # fewer than 108 checks
    assert oracle.check_validate("nothing")[0] != []


def test_import_time_parse_counts_outermost_numpy_and_scipy():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy.special._ufuncs",
        "import time:        10 |         60 |   scipy.special",
        "import time:        40 |        400 | hybridfit.dataset",
        "import time:         5 |        465 | hybridfit",
    ])
    assert spans.import_times(stderr) == pytest.approx(
        {"numpy": 0.3, "scipy": 0.06, "hybridfit_self": 0.045})
