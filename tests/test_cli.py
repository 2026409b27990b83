import argparse
import collections
import json
import os
import random
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from hybridfit import dataset
from hybridfit.analysis import analyze
from hybridfit.cli import build_parser, main
from hybridfit.errors import AnalysisError

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
DATA_DIR = Path(__file__).resolve().parents[1] / "data"
THEORIES = ("adiabatic", "isochoric")
FIRST_ORDER_COEF = (208.423, -34.409, 36.616, 18.277)
# fit flags that make a refused request, and the message of its one error
# line, the same from `fit` and from `analyze`
REFUSED_REQUESTS = [
    (["--model", "hybrid"], "model=hybrid requires a theory source"),
    (["--model", "hybrid", "--alpha", "2"], "model=hybrid requires a theory source"),
    (["--alpha", "2"], "alpha must lie in (0, 1), got 2.0"),
    (["--alpha", "nan"], "alpha must lie in (0, 1), got nan"),
    (["--model", "hybrid", "--theory", "adiabatic", "--alpha", "0"],
     "alpha must lie in (0, 1), got 0.0"),
    (["--model", "hybrid", "--theory", "bogus"],
     "unknown theory source 'bogus': expected adiabatic, isochoric or column:<name>"),
    (["--model", "hybrid", "--theory", "column:"],
     "unknown theory source 'column:': expected adiabatic, isochoric or column:<name>"),
    (["--theory", "column:P_adiabatic"], "--theory is for model=hybrid only, got model=mlr1"),
    (["--model", "mlr2", "--theory", "bogus", "--alpha", "2"],
     "--theory is for model=hybrid only, got model=mlr2"),
    (["--theory", ""], "--theory is for model=hybrid only, got model=mlr1"),
    (["--model", "hybrid", "--theory", ""], "model=hybrid requires a theory source"),
]


def read_coefficients(path: Path) -> list[tuple[str, float]]:
    lines = path.read_text().strip().splitlines()[1:]
    return [(ln.split("\t")[0], float(ln.split("\t")[1])) for ln in lines]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSimulate:
    def test_adiabatic_column_matches_recorded(self, data_dir, tmp_path, capsys):
        rc = main([
            "simulate",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--theory", "adiabatic",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gamma=1.4" in out and "p_atm=101.325" in out
        lines = (tmp_path / "simulated.tsv").read_text().strip().splitlines()
        header = lines[0].split("\t")
        sim_idx = header.index("P_adiabatic_sim")
        ref_idx = header.index("P_adiabatic")
        for line in lines[1:]:
            cells = line.split("\t")
            assert float(cells[sim_idx]) == pytest.approx(
                float(cells[ref_idx]), abs=0.5
            )

    def test_isochoric_column_matches_recorded(self, data_dir, tmp_path):
        rc = main([
            "simulate",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--theory", "isochoric",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "simulated.tsv").read_text().strip().splitlines()
        header = lines[0].split("\t")
        sim_idx = header.index("P_isochoric_sim")
        ref_idx = header.index("P_isochoric")
        for line in lines[1:]:
            cells = line.split("\t")
            assert float(cells[sim_idx]) == pytest.approx(
                float(cells[ref_idx]), abs=0.5
            )

    def test_supply_below_atmosphere_fails_with_row(self, tmp_path, capsys):
        data = tmp_path / "bad.tsv"
        data.write_text(
            "A\tPs\tB\tP_obs\n0.5\t0.2\t0.6\t150.0\n0.5\t0.05\t0.6\t120.0\n"
        )
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "factor.A.low = 0.3\nfactor.A.high = 0.7\n"
            "factor.Ps.low = 0.04\nfactor.Ps.high = 0.3\n"
            "factor.B.low = 0.4\nfactor.B.high = 0.8\n"
            "response.column = P_obs\n"
        )
        rc = main([
            "simulate", "--data", str(data), "--spec", str(spec),
            "--theory", "adiabatic", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "row 2" in err


    @pytest.mark.parametrize("theory", ["adiabatic", "isochoric"])
    def test_overflowing_flows_raise_no_warning(self, theory, data_dir, tmp_path, capsys):
        # row 2 at a supply of 1e300 MPa: no flow overflows, but a
        # closed-form candidate the isochoric regime test does not pick
        # does, which under filterwarnings = error would escape as a
        # RuntimeWarning, and both theories solve the row; at 1e306 MPa the
        # supply itself overflows in kPa, and both theories refuse it
        lines = (data_dir / "gauge_factorial.tsv").read_text().splitlines()
        cells = lines[2].split("\t")
        for supply in ("1e300", "1e306"):
            lines[2] = "\t".join([cells[0], supply, *cells[2:]])
            data = tmp_path / "overflow.tsv"
            data.write_text("\n".join(lines) + "\n")
            out = tmp_path / f"out-{supply}"
            rc = main([
                "simulate", "--data", str(data),
                "--spec", str(data_dir / "gauge_factorial_spec.txt"),
                "--theory", theory, "--out", str(out),
            ])
            err = capsys.readouterr().err
            if supply == "1e300":
                assert rc == 0 and err == ""
                values = [float(row.split("\t")[-1])
                          for row in (out / "simulated.tsv").read_text().splitlines()[1:]]
                assert all(np.isfinite(values))
                # both restrictors choked: b ps / a
                assert values[1] == pytest.approx(4.00159109e302, rel=1e-9)
            else:
                assert rc == 1, supply
                assert len(err.splitlines()) == 1 and err.startswith("error: row 2: "), err

    @pytest.mark.parametrize("theory", ["adiabatic", "isochoric"])
    def test_subnormal_atmosphere_solves_every_row(self, theory, data_dir, tmp_path, capsys):
        # at p_atm = 5e-324 the sensor ratio p_atm / p underflows to 0, the
        # choked limit: every row solves, and nothing is printed to stderr
        text = (data_dir / "gauge_factorial_spec.txt").read_text()
        spec = tmp_path / "spec.txt"
        spec.write_text(text.replace("gauge.p_atm = 101.325", "gauge.p_atm = 5e-324"))
        rc = main([
            "simulate", "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(spec), "--theory", theory, "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert len((tmp_path / "out" / "simulated.tsv").read_text().splitlines()) == 12

    def test_infinite_gamma_is_refused_as_input(self, data_dir, tmp_path, capsys):
        # the flow factors at gamma = inf are nan: refused as a constant, not
        # as a row whose root the solver could not certify
        text = (data_dir / "gauge_factorial_spec.txt").read_text()
        spec = tmp_path / "spec.txt"
        spec.write_text(text.replace("gauge.gamma = 1.4", "gauge.gamma = inf"))
        rc = main([
            "simulate", "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(spec), "--theory", "adiabatic", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: gamma must be finite, got inf\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gamma", ["1.000000000001", "1.0000000000000002"])
    def test_gamma_too_near_one_is_refused_as_input(self, gamma, data_dir, tmp_path, capsys):
        # both once exited 0, with row 11 at 212.0369 and 204.4634 kPa
        text = (data_dir / "gauge_factorial_spec.txt").read_text()
        spec = tmp_path / "spec.txt"
        spec.write_text(text.replace("gauge.gamma = 1.4", f"gauge.gamma = {gamma}"))
        rc = main([
            "simulate", "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(spec), "--theory", "adiabatic", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr() == (
            "", f"error: gamma must be at least 1 + 1e-06, got {gamma}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_carried_columns_keep_header_order(self, data_dir, tmp_path):
        # carried columns before and between the factors: every column stays
        # where the input has it, each cell spelled as the input spells it,
        # and the computed column, the same as for the bundled order, is last
        order = ["P_isochoric", "B", "A", "P_obs", "Ps", "P_adiabatic"]
        lines = (data_dir / "gauge_factorial.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
        source = ["\t".join(order)] + ["\t".join(row[name] for name in order) for row in rows]
        data = tmp_path / "shuffled.tsv"
        data.write_text("\n".join(source) + "\n")
        rc = main([
            "simulate", "--data", str(data),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--theory", "isochoric", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        written = (tmp_path / "out" / "simulated.tsv").read_text().splitlines()
        golden = (GOLDEN_DIR / "simulate_isochoric" / "simulated.tsv").read_text().splitlines()
        assert written[0] == source[0] + "\tP_isochoric_sim"
        for src, line, bundled in zip(source, written, golden, strict=True):
            assert line == src + "\t" + bundled.split("\t")[-1]

    def test_resimulating_adds_a_fresh_column(self, data_dir, tmp_path):
        # simulating a simulated table once more must not repeat a column
        # name, or a later column:<name> theory would read the stale copy
        spec = str(data_dir / "gauge_factorial_spec.txt")
        data = str(data_dir / "gauge_factorial.tsv")
        for step in ("first", "second"):
            rc = main([
                "simulate", "--data", data, "--spec", spec,
                "--theory", "adiabatic", "--out", str(tmp_path / step),
            ])
            assert rc == 0
            data = str(tmp_path / step / "simulated.tsv")
        lines = (tmp_path / "second" / "simulated.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        assert len(set(header)) == len(header)
        assert header[-2:] == ["P_adiabatic_sim", "P_adiabatic_sim_sim"]
        for line in lines[1:]:
            cells = line.split("\t")
            assert cells[-1] == cells[-2]

    @pytest.mark.parametrize("row, cells", [
        ("0.3\t0.2\t0.6\t150\t999", 5), ("0.3\t0.2\t0.6", 3),
    ], ids=["extra_cell", "short_row"])
    def test_ragged_row_is_refused(self, row, cells, tmp_path, capsys):
        # an extra cell was dropped and a short row's computed value would
        # land under the wrong column name: both are one error line
        data = tmp_path / "ragged.tsv"
        data.write_text(f"A\tPs\tB\tP_obs\n0.5\t0.2\t0.6\t150.0\n{row}\n")
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "factor.A.low = 0.3\nfactor.A.high = 0.7\n"
            "factor.Ps.low = 0.15\nfactor.Ps.high = 0.3\n"
            "factor.B.low = 0.4\nfactor.B.high = 0.8\nresponse.column = B\n"
        )
        rc = main([
            "simulate", "--data", str(data), "--spec", str(spec),
            "--theory", "isochoric", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: row 2: {cells} cells under 4 column names\n"
        assert not (tmp_path / "out").exists()

    def test_text_column_is_carried_as_read(self, data_dir, tmp_path):
        # a run label is no number, and is neither parsed nor refused; its
        # quotes send the rows through the CSV reader, which keeps them
        lines = (data_dir / "gauge_factorial.tsv").read_text().splitlines()
        labelled = [lines[0] + "\tnote"] + [
            f"{line}\trun {i}, \"as built\"" for i, line in enumerate(lines[1:], 1)
        ]
        data = tmp_path / "labelled.tsv"
        data.write_text("\n".join(labelled) + "\n")
        rc = main([
            "simulate", "--data", str(data),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--theory", "isochoric", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        written = (tmp_path / "out" / "simulated.tsv").read_text().splitlines()
        golden = (GOLDEN_DIR / "simulate_isochoric" / "simulated.tsv").read_text().splitlines()
        for src, line, bundled in zip(labelled, written, golden, strict=True):
            assert line == src + "\t" + bundled.split("\t")[-1]

    def test_quoted_cell_holding_a_tab_is_refused(self, data_dir, tmp_path, capsys):
        # a quoted CSV cell may hold a tab, which no tab-separated cell can
        lines = (data_dir / "gauge_factorial.tsv").read_text().replace("\t", ",").splitlines()
        lines[0] += ",note"
        lines[1:] = [f'{line},"run {i}"' for i, line in enumerate(lines[1:], 1)]
        lines[3] = lines[3].replace('"run 3"', '"run\t3"')
        data = tmp_path / "quoted.csv"
        data.write_text("\n".join(lines) + "\n")
        rc = main([
            "simulate", "--data", str(data),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--theory", "adiabatic", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: row 3: a cell holds a tab\n"

    @pytest.mark.parametrize("theory", ["adiabatic", "isochoric"])
    def test_coded_factors_are_not_flow_inputs(self, theory, data_dir, tmp_path, capsys):
        # the Box-Behnken spec declares its coded columns x1..x3 as factors
        rc = main([
            "simulate",
            "--data", str(data_dir / "gauge_boxbehnken.tsv"),
            "--spec", str(data_dir / "gauge_boxbehnken_spec.txt"),
            "--theory", theory,
            "--out", str(tmp_path),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: the spec's factors (x1, x2, x3) are not flow inputs: the "
            "flow solvers take (area_sensor mm^2, pressure_supply MPa, "
            "area_orifice mm^2) in natural units, and these low levels are not "
            "positive: x1 = -1, x2 = -1, x3 = -1\n"
        )
        assert not (tmp_path / "simulated.tsv").exists()


class TestFit:
    def test_svg_text_with_markup_characters_is_well_formed(self, data_dir, tmp_path):
        units = "kPa <gauge> & co"
        spec = tmp_path / "spec.txt"
        spec.write_text(
            (data_dir / "gauge_factorial_spec.txt").read_text().replace(
                "response.units = kPa", f"response.units = {units}"
            )
        )
        rc = main([
            "fit",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(spec),
            "--model", "mlr1",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        for name in ("residuals_normal.svg", "residuals_fitted.svg"):
            root = ET.parse(tmp_path / "out" / name).getroot()
            texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
            assert f"residual ({units})" in texts[2]

    @pytest.mark.parametrize("base, flags", [
        ("gauge_factorial", ["--model", "hybrid", "--theory", "adiabatic"]),
        ("gauge_boxbehnken", ["--model", "mlr2"]),
    ], ids=["hybrid", "mlr2"])
    def test_svg_markers_are_one_defined_circle(self, base, flags, data_dir, tmp_path):
        rc = main([
            "fit",
            "--data", str(data_dir / f"{base}.tsv"),
            "--spec", str(data_dir / f"{base}_spec.txt"),
            *flags,
            "--out", str(tmp_path),
        ])
        assert rc == 0
        runs = len(dataset.split_table((data_dir / f"{base}.tsv").read_text()).rows)
        svgs = sorted(tmp_path.glob("*.svg"))
        assert [p.name for p in svgs] == ["residuals_fitted.svg", "residuals_normal.svg"]
        for path in svgs:
            root = ET.parse(path).getroot()
            ns = "{http://www.w3.org/2000/svg}"
            (defs,) = root.findall(f"{ns}defs")
            (marker,) = defs
            assert marker.tag == f"{ns}circle" and marker.get("id") == "m"
            assert marker.get("r") == "3.5"
            ids = {el.get("id") for el in root.iter() if el.get("id")}
            uses = root.findall(f"{ns}use")
            assert len(uses) == runs
            assert {use.get("href") for use in uses} <= {f"#{i}" for i in ids}
            assert not root.findall(f"{ns}circle")  # no circle outside <defs>

    def test_mlr1_matches_reference(self, data_dir, tmp_path):
        rc = main([
            "fit",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--model", "mlr1",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        coefs = read_coefficients(tmp_path / "coefficients.tsv")
        assert [c for _, c in coefs] == pytest.approx(FIRST_ORDER_COEF, abs=1e-3)
        summary = (tmp_path / "summary.txt").read_text()
        assert "model adequacy verdict: inadequate" in summary
        anova = (tmp_path / "anova_table3.tsv").read_text().splitlines()
        by_source = {ln.split("\t")[0]: ln.split("\t") for ln in anova[1:]}
        assert float(by_source["Regression"][1]) == pytest.approx(2.287e4, rel=0.005)
        assert float(by_source["Residual"][1]) == pytest.approx(2.99e3, rel=0.005)
        assert float(by_source["Pure error"][1]) == pytest.approx(0.949, rel=0.005)
        assert float(by_source["Lack of fit"][4]) == pytest.approx(1260.0, rel=0.02)
        overall = (tmp_path / "anova_table2.tsv").read_text().splitlines()
        by_source2 = {ln.split("\t")[0]: ln.split("\t") for ln in overall[1:]}
        assert by_source2["Regression"][2] == "4"
        assert by_source2["Total"][2] == "11"
        assert float(by_source2["Total"][1]) == pytest.approx(5.037e5, rel=0.005)

    def test_hybrid_isochoric_column_is_adequate(self, data_dir, tmp_path):
        rc = main([
            "fit",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--model", "hybrid",
            "--theory", "column:P_isochoric",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "model adequacy verdict: adequate" in summary
        assert "useful predictor by the four-to-five-times rule: yes" in summary
        coefs = read_coefficients(tmp_path / "coefficients.tsv")
        assert [c for _, c in coefs] == pytest.approx(
            (15.429, 5.647, 7.694, 2.555, 0.971, -0.006, -0.026, -0.013), abs=5e-3
        )

    @pytest.mark.parametrize("alpha", ["0.9999999999", "0.05000001"])
    def test_alpha_is_echoed_with_every_digit(self, alpha, data_dir, tmp_path):
        # six significant digits would print 1, a level the CLI refuses, and
        # 0.05, a different test
        rc = main([
            "fit",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--model", "mlr1",
            "--alpha", alpha,
            "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        assert f"alpha: {alpha}" in lines
        critical = [ln for ln in lines if "critical at alpha=" in ln]
        assert len(critical) == 2
        assert all(f"critical at alpha={alpha}: " in ln for ln in critical)

    def test_critical_value_beyond_every_float_reads_inf(self, data_dir, tmp_path):
        # P(F(1, 2) > 1e300) is about 2e-300, still above alpha
        rc = main([
            "fit",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--model", "hybrid",
            "--theory", "column:P_isochoric",
            "--alpha", "1e-300",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        assert "alpha: 1e-300" in lines
        assert "lack of fit: F(1,2) = 3.45405, p = 0.2042, critical at alpha=1e-300: inf" in lines

    def test_hybrid_simulated_theory_runs(self, data_dir, tmp_path):
        rc = main([
            "fit",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--model", "hybrid",
            "--theory", "adiabatic",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "gauge constants" in summary
        assert "theory source: adiabatic" in summary

    def test_hybrid_theory_varying_within_replicates(self, data_dir, tmp_path):
        # z = sqrt(P_obs) differs across the three centre runs, so their
        # augmented rows differ: no pure-error group, and the verdict is
        # reported.  (z = P_obs itself would fit y = z exactly.)
        src = (data_dir / "gauge_factorial.tsv").read_text().splitlines()
        lines = [src[0] + "\tz"] + [
            f"{ln}\t{float(ln.split()[3]) ** 0.5!r}" for ln in src[1:]
        ]
        data = tmp_path / "with_z.tsv"
        data.write_text("\n".join(lines) + "\n")
        rc = main([
            "fit",
            "--data", str(data),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--model", "hybrid",
            "--theory", "column:z",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "lack of fit: test unavailable (no replicate runs)" in summary

    def test_hybrid_with_ones_column_reproduces_mlr1(self, data_dir, tmp_path):
        src = (data_dir / "gauge_factorial.tsv").read_text().splitlines()
        augmented = [src[0] + "\tones"] + [ln + "\t1.0" for ln in src[1:]]
        data = tmp_path / "with_ones.tsv"
        data.write_text("\n".join(augmented) + "\n")

        out_h = tmp_path / "hybrid"
        out_m = tmp_path / "mlr"
        spec = str(data_dir / "gauge_factorial_spec.txt")
        assert main(["fit", "--data", str(data), "--spec", spec,
                     "--model", "hybrid", "--theory", "column:ones",
                     "--out", str(out_h)]) == 0
        assert main(["fit", "--data", str(data), "--spec", spec,
                     "--model", "mlr1", "--out", str(out_m)]) == 0
        hybrid_coef = read_coefficients(out_h / "coefficients.tsv")
        mlr_coef = read_coefficients(out_m / "coefficients.tsv")
        assert [c for _, c in hybrid_coef[:4]] == pytest.approx(
            [c for _, c in mlr_coef], abs=1e-9
        )
        assert all(c == 0.0 for _, c in hybrid_coef[4:])

    def test_constant_response_fails(self, data_dir, tmp_path, capsys):
        src = (data_dir / "gauge_factorial.tsv").read_text().splitlines()
        header = src[0].split("\t")
        rows = []
        for ln in src[1:]:
            cells = ln.split("\t")
            cells[header.index("P_obs")] = "100.0"
            rows.append("\t".join(cells))
        data = tmp_path / "const.tsv"
        data.write_text("\n".join([src[0]] + rows) + "\n")
        rc = main([
            "fit", "--data", str(data),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--model", "mlr1", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "constant" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "model_args",
        [["--model", "hybrid", "--theory", "column:P_isochoric"], ["--model", "mlr1"]],
        ids=["hybrid", "mlr1"],
    )
    def test_non_finite_response_fails(
        self, data_dir, tmp_path, capsys, model_args, token
    ):
        src = (data_dir / "gauge_factorial.tsv").read_text().splitlines()
        col = src[0].split("\t").index("P_obs")
        cells = src[3].split("\t")
        cells[col] = token
        src[3] = "\t".join(cells)
        data = tmp_path / "nonfinite.tsv"
        data.write_text("\n".join(src) + "\n")
        out = tmp_path / "out"
        rc = main([
            "fit", "--data", str(data),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--out", str(out),
        ] + model_args)
        assert rc == 1
        err = capsys.readouterr().err
        assert "row 3" in err and "'P_obs'" in err and "non-finite" in err
        assert not (out / "summary.txt").exists()

    def test_saturated_model_fails_with_explanation(self, tmp_path, capsys):
        data = tmp_path / "tiny.tsv"
        data.write_text(
            "A\ty\n0.1\t1.0\n0.9\t2.0\n"
        )
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "factor.A.low = 0.1\nfactor.A.high = 0.9\nresponse.column = y\n"
        )
        rc = main([
            "fit", "--data", str(data), "--spec", str(spec),
            "--model", "mlr1", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "not estimable" in capsys.readouterr().err

    def test_rank_deficient_design_fails(self, data_dir, tmp_path, capsys):
        # the factorial has 9 distinct settings: the 10 second-order columns
        # have rank 8 there
        out = tmp_path / "out"
        rc = main([
            "fit",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--model", "mlr2",
            "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "rank deficient" in err and "rank 8" in err
        assert not (out / "summary.txt").exists()

    def test_small_p_values_are_not_rounded_to_zero(self, tmp_path):
        # n = 400 with a strong linear signal: every regression p-value lies
        # far below 1e-16, where one minus the CDF reads 0.0
        from scipy import stats

        rng = np.random.default_rng(2024)
        x = rng.uniform(-1.0, 1.0, size=(400, 2))
        y = 0.5 + 1.0 * x[:, 0] + 0.5 * x[:, 1] + rng.normal(size=400)
        rows = ["\t".join(map(repr, row)) for row in np.column_stack([x, y]).tolist()]
        data = tmp_path / "strong.tsv"
        data.write_text("x1\tx2\ty\n" + "\n".join(rows) + "\n")
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "factor.x1.low = -1\nfactor.x1.high = 1\n"
            "factor.x2.low = -1\nfactor.x2.high = 1\nresponse.column = y\n"
        )
        out = tmp_path / "out"
        assert main(["fit", "--data", str(data), "--spec", str(spec),
                     "--model", "mlr1", "--out", str(out)]) == 0
        for table in ("anova_table2", "anova_table3", "anova_table4"):
            rows = [ln.split("\t") for ln in (out / f"{table}.tsv").read_text().splitlines()[1:]]
            residual_df = int(next(r for r in rows if r[0] == "Residual")[2])
            tested = [r for r in rows if r[5]]
            assert tested
            for source, _, df, _, f, p in tested:
                p = float(p)
                assert np.isfinite(p) and 0.0 < p < 1e-16, (table, source, p)
                assert p == pytest.approx(
                    stats.f.sf(float(f), int(df), residual_df), rel=1e-12
                )

    def test_format_subset(self, data_dir, tmp_path):
        rc = main([
            "fit",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--model", "mlr1",
            "--format", "text",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "anova_table3.txt").exists()
        assert not (tmp_path / "anova_table3.tsv").exists()
        assert not (tmp_path / "residuals_normal.svg").exists()
        assert (tmp_path / "coefficients.tsv").exists()
        assert (tmp_path / "summary.txt").exists()

    def test_fit_deterministic(self, data_dir, tmp_path):
        args = [
            "fit",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--model", "hybrid",
            "--theory", "column:P_adiabatic",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS splits a dot product of more than 10000 entries across
        # threads, which reorders its sum: 10001 runs is the smallest table
        # on which such a reduction would change the bytes
        n = 10001
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, size=(n, 3))
        x[::20] = 0.0
        y = (200.0 + x @ [10.0, -5.0, 3.0] + 4.0 * x[:, 0] * x[:, 1]
             + rng.normal(0.0, 1.5, n))
        rows = np.column_stack([x, y]).tolist()
        data = tmp_path / "large.tsv"
        data.write_text("x1\tx2\tx3\tP_obs\n"
                        + "".join("\t".join(map(repr, row)) + "\n" for row in rows))
        spec = tmp_path / "spec.txt"
        spec.write_text("".join(f"factor.x{j}.low = -1\nfactor.x{j}.high = 1\n"
                                for j in (1, 2, 3)) + "response.column = P_obs\n")
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "hybridfit.cli", "fit", "--data", str(data),
                 "--spec", str(spec), "--model", "mlr2", "--format", "text,rows",
                 "--out", str(tmp_path / threads)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(SRC_DIR), "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
        assert tree_bytes(tmp_path / "1") == tree_bytes(tmp_path / "2")


class TestRunConfig:
    """The settings of one fit, taken from its flags alone; a bad one is one
    error line and exit status 1."""

    def fit(self, data_dir, tmp_path, *flags):
        return main([
            "fit",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            *flags,
            "--out", str(tmp_path / "out"),
        ])

    def test_hybrid_requires_theory(self, data_dir, tmp_path, capsys):
        rc = main([
            "fit",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--model", "hybrid",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "theory source" in capsys.readouterr().err

    def test_alpha_range(self, data_dir, tmp_path, capsys):
        assert self.fit(data_dir, tmp_path, "--alpha", "1.5") == 1
        assert capsys.readouterr().err == "error: alpha must lie in (0, 1), got 1.5\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,message", REFUSED_REQUESTS)
    def test_flags_are_checked_before_any_file_is_read(
        self, flags, message, data_dir, tmp_path, capsys
    ):
        # a missing data file would be the error if the files came first
        rc = main([
            "fit",
            "--data", str(tmp_path / "nope.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            *flags,
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,message", REFUSED_REQUESTS)
    def test_analyze_refuses_what_fit_refuses(
        self, flags, message, factorial, factorial_config
    ):
        # the request fit parses from these flags, made to the library
        args = build_parser().parse_args(
            ["fit", "--data", "-", "--spec", "-", "--out", "-", *flags]
        )
        with pytest.raises(AnalysisError) as info:
            analyze(factorial, factorial_config, args.model, args.theory, args.alpha)
        assert str(info.value) == message

    def test_unknown_format(self, data_dir, tmp_path, capsys):
        for formats in ("pdf,text", "pdf"):
            assert self.fit(data_dir, tmp_path, "--format", formats) == 1
            assert capsys.readouterr().err == "error: unknown report formats: ['pdf']\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--model", "mlr1", "--theory", ""], "--theory is for model=hybrid only, got model=mlr1"),
        (["--format", ""], "unknown report formats: ['']"),
        (["--format", "text,"], "unknown report formats: ['']"),
    ], ids=["theory", "format", "format_with_trailing_comma"])
    def test_empty_flag_value_is_given(self, flags, message, data_dir, tmp_path, capsys):
        # an empty value is a flag given, not one left out: refused before
        # the (missing) data file is read
        rc = main([
            "fit",
            "--data", str(tmp_path / "nope.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            *flags,
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model,theory", [
        ("mlr1", "bogus"), ("mlr1", "adiabatic"), ("mlr2", "adiabatic"), ("mlr1", "column:nope"),
    ])
    def test_theory_flag_is_for_hybrid_only(
        self, model, theory, data_dir, tmp_path, capsys
    ):
        rc = self.fit(data_dir, tmp_path, "--model", model, "--theory", theory)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --theory is for model=hybrid only, got model={model}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["run.model", "run.theory", "run.alpha"])
    @pytest.mark.parametrize("data", ["gauge_factorial.tsv", "missing.tsv"])
    def test_run_key_in_spec_is_refused(self, key, data, data_dir, tmp_path, capsys):
        # the spec describes the data and the flags choose the fit, so a
        # setting has one source; the spec is read first, so its error is
        # the one reported when the data file is missing too
        text = (data_dir / "gauge_factorial_spec.txt").read_text()
        spec = tmp_path / "spec.txt"
        spec.write_text(text + f"{key} = mlr2\n")
        rc = main([
            "fit", "--data", str(data_dir / data),
            "--spec", str(spec), "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        lineno = len(text.splitlines()) + 1
        assert capsys.readouterr().err == f"error: {spec}:{lineno}: unknown key {key!r}\n"
        assert not (tmp_path / "out").exists()


class TestValidate:
    def test_fresh_checkout_passes(self, data_dir, capsys):
        rc = main(["validate", "--data-dir", str(data_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    @pytest.mark.parametrize("in_checkout", [True, False], ids=["checkout", "elsewhere"])
    def test_bundled_data_is_found_without_the_flag(
        self, in_checkout, data_dir, tmp_path, monkeypatch, capsys
    ):
        # ./data first, then the data directory of the source checkout
        monkeypatch.chdir(data_dir.parent if in_checkout else tmp_path)
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("case-study validation: 108/108 checks passed\n")

    def test_perturbed_data_fails_with_expected_vs_got(self, data_dir, tmp_path, capsys):
        work = tmp_path / "data"
        work.mkdir()
        for name in (
            "gauge_factorial.tsv", "gauge_factorial_spec.txt",
            "gauge_boxbehnken.tsv", "gauge_boxbehnken_spec.txt",
        ):
            shutil.copy(data_dir / name, work / name)
        lines = (work / "gauge_factorial.tsv").read_text().splitlines()
        cells = lines[1].split("\t")
        cells[3] = str(float(cells[3]) + 10.0)  # perturb one observation
        lines[1] = "\t".join(cells)
        (work / "gauge_factorial.tsv").write_text("\n".join(lines) + "\n")

        rc = main(["validate", "--data-dir", str(work)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "expected" in out and "got" in out

    def test_validate_deterministic(self, data_dir, tmp_path):
        assert main(["validate", "--data-dir", str(data_dir),
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["validate", "--data-dir", str(data_dir),
                     "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "validation_report.txt").read_bytes()
        b = (tmp_path / "b" / "validation_report.txt").read_bytes()
        assert a == b

    @pytest.mark.parametrize("flag", ["--data-dir", "--out"])
    def test_empty_flag_value_is_given(self, flag, tmp_path, monkeypatch, capsys):
        # an empty value is a flag given, not one left out: refused before
        # any table is read or any report written
        monkeypatch.chdir(tmp_path)
        rc = main(["validate", flag, ""])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {flag} needs a directory, got an empty value\n")
        assert list(tmp_path.iterdir()) == []

    def test_missing_data_dir_fails(self, tmp_path, capsys):
        rc = main(["validate", "--data-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot read {tmp_path}")


class TestInputFiles:
    @pytest.mark.parametrize("command", ["fit", "simulate"])
    @pytest.mark.parametrize("missing", ["--data", "--spec"])
    def test_unreadable_file_is_one_error_line(
        self, command, missing, data_dir, tmp_path, capsys
    ):
        paths = {
            "--data": str(data_dir / "gauge_factorial.tsv"),
            "--spec": str(data_dir / "gauge_factorial_spec.txt"),
        }
        paths[missing] = str(tmp_path / "nope.txt")
        extra = ["--model", "mlr1"] if command == "fit" else ["--theory", "adiabatic"]
        rc = main([
            command, "--data", paths["--data"], "--spec", paths["--spec"],
            *extra, "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: cannot read {paths[missing]}: No such file or directory"
        ]
        assert not (tmp_path / "out").exists()

    def test_simulate_reports_errors_in_fits_order(self, data_dir, tmp_path, capsys):
        # the data file is read first, then response.column is checked, then
        # the factors: a spec with neither, read with a missing data file
        # and then with the bundled one, fails as fit fails
        spec = tmp_path / "spec.txt"
        spec.write_text("gauge.gamma = 1.4\n")
        errors = {}
        for command, extra in (("fit", ["--model", "mlr1"]), ("simulate", ["--theory", "adiabatic"])):
            for data in (tmp_path / "nope.tsv", data_dir / "gauge_factorial.tsv"):
                rc = main([command, "--data", str(data), "--spec", str(spec),
                           *extra, "--out", str(tmp_path / "out")])
                assert rc == 1
                errors.setdefault(command, []).append(capsys.readouterr().err)
        assert errors["simulate"] == errors["fit"] == [
            f"error: cannot read {tmp_path / 'nope.tsv'}: No such file or directory\n",
            "error: config is missing 'response.column'\n",
        ]

    @pytest.mark.parametrize("command", ["fit", "validate", "simulate"])
    @pytest.mark.parametrize("edit, cells", [
        (lambda line: line + "\t999", 7), (lambda line: line.rsplit("\t", 1)[0], 5),
    ], ids=["extra_cell", "short_row"])
    def test_ragged_row_is_refused(self, command, edit, cells, data_dir, tmp_path, capsys):
        # every command refuses alike: a loader that read only the named
        # columns would miss an extra cell, and put a short row's last
        # cells under the wrong names
        work = tmp_path / "data"
        shutil.copytree(data_dir, work)
        lines = (data_dir / "gauge_factorial.tsv").read_text().splitlines()
        lines[2] = edit(lines[2])
        (work / "gauge_factorial.tsv").write_text("\n".join(lines) + "\n")
        files = ["--data", str(work / "gauge_factorial.tsv"),
                 "--spec", str(work / "gauge_factorial_spec.txt"), "--out", str(tmp_path / "out")]
        args = {
            "fit": [*files, "--model", "mlr1"],
            "validate": ["--data-dir", str(work)],
            "simulate": [*files, "--theory", "isochoric"],
        }
        assert main([command, *args[command]]) == 1
        assert capsys.readouterr().err == f"error: row 2: {cells} cells under 6 column names\n"
        assert not (tmp_path / "out").exists()

    def test_directory_or_binary_given_as_data_file(self, data_dir, tmp_path, capsys):
        binary = tmp_path / "binary.tsv"
        binary.write_bytes(b"A\tPs\tB\tP_obs\n\xff\xfe\n")
        for data, reason in ((tmp_path, "Is a directory"), (binary, "not UTF-8 text")):
            rc = main([
                "fit", "--data", str(data),
                "--spec", str(data_dir / "gauge_factorial_spec.txt"),
                "--out", str(tmp_path / "out"),
            ])
            assert rc == 1
            assert capsys.readouterr().err == f"error: cannot read {data}: {reason}\n"

    @pytest.mark.parametrize("command", [
        ["fit", "--model", "hybrid", "--theory", "column:P_adiabatic"],
        ["simulate", "--theory", "adiabatic"],
    ], ids=["fit", "simulate"])
    def test_spec_is_read_once(self, command, data_dir, tmp_path, monkeypatch):
        reads = collections.Counter()
        read_text = dataset.read_text

        def counting(path):
            reads[Path(path).name] += 1
            return read_text(path)

        monkeypatch.setattr(dataset, "read_text", counting)
        rc = main([
            command[0],
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            *command[1:], "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert reads["gauge_factorial_spec.txt"] == 1
        assert reads["gauge_factorial.tsv"] == 1

    def test_simulate_splits_the_table_once(self, data_dir, tmp_path, monkeypatch):
        text = dataset.read_text(data_dir / "gauge_factorial.tsv")
        split = dataset.split_table
        seen = []

        def counting(t):
            seen.append(t)
            return split(t)

        monkeypatch.setattr(dataset, "split_table", counting)
        rc = main([
            "simulate",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--theory", "adiabatic", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        # one split feeds the loader and the writer of the carried lines
        assert seen == [text]

    @staticmethod
    def outputs(data, spec, command, out):
        """The files ``command`` writes, less the summary's two lines that
        name the input paths."""
        rc = main([command[0], "--data", str(data), "--spec", str(spec),
                   *command[1:], "--out", str(out)])
        assert rc == 0
        files = tree_bytes(out)
        if "summary.txt" in files:
            lines = files["summary.txt"].splitlines(keepends=True)
            assert lines[1].startswith(b"data: ") and lines[2].startswith(b"config: ")
            files["summary.txt"] = b"".join(lines[:1] + lines[3:])
        return files

    @staticmethod
    def copies(data_dir, tmp_path, prefix, edit):
        """The factorial table and spec, each rewritten by ``edit``."""
        paths = []
        for name in ("gauge_factorial.tsv", "gauge_factorial_spec.txt"):
            paths.append(tmp_path / f"{prefix}_{name}")
            paths[-1].write_bytes(edit((data_dir / name).read_bytes()))
        return paths

    @pytest.mark.parametrize("command", [
        ["fit", "--model", "hybrid", "--theory", "column:P_adiabatic"],
        ["simulate", "--theory", "isochoric"],
    ], ids=["fit", "simulate"])
    def test_byte_order_mark_is_ignored(self, command, data_dir, tmp_path):
        bom = self.copies(data_dir, tmp_path, "bom", lambda b: b"\xef\xbb\xbf" + b)
        plain = (data_dir / "gauge_factorial.tsv", data_dir / "gauge_factorial_spec.txt")
        assert (
            self.outputs(*plain, command, tmp_path / "plain")
            == self.outputs(*bom, command, tmp_path / "bom")
        )

    @pytest.mark.parametrize("command", [
        ["fit", "--model", "hybrid", "--theory", "column:P_isochoric"],
        ["simulate", "--theory", "isochoric"],
        ["fit", "--model", "hybrid", "--theory", "adiabatic"],
    ], ids=["fit", "simulate", "fit_adiabatic"])
    def test_crlf_line_endings_give_the_same_files(self, command, data_dir, tmp_path):
        crlf = self.copies(data_dir, tmp_path, "crlf", lambda b: b.replace(b"\n", b"\r\n"))
        lf = (data_dir / "gauge_factorial.tsv", data_dir / "gauge_factorial_spec.txt")
        assert (
            self.outputs(*lf, command, tmp_path / "lf")
            == self.outputs(*crlf, command, tmp_path / "crlf")
        )

    @pytest.mark.parametrize("sep, theory", [
        pytest.param(sep, theory, id=name if theory == "adiabatic" else f"{name}-{theory}")
        for theory in THEORIES
        for name, sep in (("comma", ","), ("semicolon", ";"), ("space", " "), ("spaces", "  "))
    ])
    def test_other_delimiters_simulate_as_tabs(self, sep, theory, data_dir, tmp_path):
        # each line is split on its delimiter and written with tabs
        table = self.copies(data_dir, tmp_path, "sep", lambda b: b.replace(b"\t", sep.encode()))
        tabs = (data_dir / "gauge_factorial.tsv", data_dir / "gauge_factorial_spec.txt")
        command = ["simulate", "--theory", theory]
        assert (
            self.outputs(*tabs, command, tmp_path / "tabs")
            == self.outputs(*table, command, tmp_path / "sep")
        )

    @pytest.mark.parametrize("line,message", [
        ("factor.A.centre = 0.6", "unknown key 'factor.A.centre'"),
        ("gauge.gama = 1.3", "unknown key 'gauge.gama'"),
        ("factor.A.B.low = 0.3", "unknown key 'factor.A.B.low'"),
        ("report.width = 800", "unknown key 'report.width'"),
        ("alpha = 0.1", "unknown key 'alpha'"),
        ("factor.A.low = 0.3", "key 'factor.A.low' was already set on line 4"),
    ], ids=["misspelt", "gauge_field", "too_deep", "section", "bare", "set_twice"])
    def test_spec_key_is_known_and_set_once(
        self, line, message, data_dir, tmp_path, capsys
    ):
        # a key nothing reads, or a second value, would change the fit in silence
        text = (data_dir / "gauge_factorial_spec.txt").read_text()
        assert text.splitlines()[3] == "factor.A.low = 0.251"
        spec = tmp_path / "spec.txt"
        spec.write_text(text + line + "\n")
        rc = main([
            "fit", "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(spec), "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        lineno = len(text.splitlines()) + 1
        assert capsys.readouterr().err == f"error: {spec}:{lineno}: {message}\n"
        assert not (tmp_path / "out").exists()


def factorial_with(rows):
    """The bundled factorial's text with each data row i of ``rows`` edited:
    the cells it names set, or the whole line replaced by a string."""
    lines = (DATA_DIR / "gauge_factorial.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    for i, edit in rows.items():
        if isinstance(edit, str):
            lines[i] = edit
            continue
        cells = lines[i].split("\t")
        for name, value in edit.items():
            cells[header.index(name)] = value
        lines[i] = "\t".join(cells)
    return "\n".join(lines) + "\n"


def sampled_table(p_obs):
    """2000 runs drawn in the factorial's ranges, each factor to six
    decimals, with P_obs printed by the %-format ``p_obs``."""
    rng = random.Random(7)
    ranges = ((0.251, 1.257), (0.199, 0.297), (0.503, 1.131))
    lines = ["A\tPs\tB\tP_obs"]
    for _ in range(2000):
        cells = [repr(round(rng.uniform(low, high), 6)) for low, high in ranges]
        lines.append("\t".join(cells + [p_obs % rng.uniform(100.0, 300.0)]))
    return "\n".join(lines) + "\n"


def simulated(name, source, spec_edit=None, theories=THEORIES, column="P_{}_sim", cells=None):
    """A ``simulate`` case per theory that must write the column named
    ``column`` and, where given, the computed ``cells`` {data row: cell}."""
    return [
        pytest.param(source, spec_edit, ["simulate", "--theory", theory],
                     {0: column.format(theory), **(cells or {})}, id=f"{name}-{theory}")
        for theory in theories
    ]


EDGE_CASES = [
    # supplies near the largest double (rows 2 and 3) and areas whose squares
    # overflow or underflow (rows 4 and 5): the areas over the larger keep
    # every flow finite, and the isochoric closed form squares no pressure
    *simulated("huge_rows", factorial_with({
        2: {"A": "0.1", "Ps": "1e305"},
        3: {"A": "0.6175", "Ps": "3.45e299", "B": "658.63"},
        4: {"A": "1e300", "Ps": "0.2", "B": "1e300"},
        5: {"A": "1e3", "Ps": "1e300", "B": "1e-300"},
    })),
    # roots at the ends of [p_atm, supply], each certified: a supply 1e-9
    # above p_atm, and a nearly dead-ended nozzle
    *simulated("near_atm", factorial_with({2: {"Ps": "0.101325000101325"}}), cells={2: "101.325"}),
    *simulated("dead_ended", factorial_with({2: {"A": "1e-9"}}), cells={2: "199.000"}),
    # critical (choking) ratios of 0.595 and 0.487, away from air's 0.528
    *simulated("gamma_1.05", factorial_with({}), ("gauge.gamma = 1.4", "gauge.gamma = 1.05"),
               theories=["adiabatic"]),
    *simulated("gamma_1.67", factorial_with({}), ("gauge.gamma = 1.4", "gauge.gamma = 1.67"),
               theories=["adiabatic"]),
    # carried cells come back byte for byte, short decimals and a P_obs of
    # 17 significant digits alike
    *simulated("short_p_obs", sampled_table("%.3f"), column="P_{}"),
    *simulated("long_p_obs", sampled_table("%.14f"), column="P_{}"),
    # a row made only of tabs is a row of empty cells, not a blank line
    *(pytest.param(factorial_with({2: "\t" * 5}), None, command,
                   "row 2, column 'A': cannot parse '' as a number", id=f"tab_only_row-{command[0]}")
      for command in (["simulate", "--theory", "isochoric"], ["fit", "--model", "mlr1"])),
]


class TestEdgeInputs:
    """Inputs at the edges of what the commands take, each run through
    ``main`` in process, where any warning fails the test.  A command that
    succeeds prints nothing to stderr and writes every input line back as
    read, with a computed ``%.3f`` cell appended; one that fails prints one
    error line and writes nothing."""

    @pytest.mark.parametrize("source, spec_edit, command, expected", EDGE_CASES)
    def test_command_on_edge_input(
        self, source, spec_edit, command, expected, data_dir, tmp_path, capsys
    ):
        data = tmp_path / "data.tsv"
        data.write_text(source)
        spec_text = (data_dir / "gauge_factorial_spec.txt").read_text()
        if spec_edit is not None:
            assert spec_edit[0] in spec_text
            spec_text = spec_text.replace(*spec_edit)
        spec = tmp_path / "spec.txt"
        spec.write_text(spec_text)
        out = tmp_path / "out"
        rc = main([command[0], "--data", str(data), "--spec", str(spec),
                   *command[1:], "--out", str(out)])
        err = capsys.readouterr().err
        if isinstance(expected, str):
            assert (rc, err) == (1, f"error: {expected}\n")
            assert not out.exists()
            return
        assert (rc, err) == (0, "")
        written = (out / "simulated.tsv").read_text().splitlines()
        for i, (line, src) in enumerate(zip(written, source.splitlines(), strict=True)):
            carried, computed = line.rsplit("\t", 1)
            assert carried == src, i
            if i in expected:
                assert computed == expected[i], i
            else:
                assert re.fullmatch(r"[0-9]+\.[0-9]{3}", computed), line


# Runs each command of a JSON list of argument lists through main, in one
# interpreter, and exits with the largest exit status.
FRESH_RUNS = """
import json, sys
from hybridfit.cli import main
sys.exit(max(main(args) for args in json.loads(sys.argv[1])))
"""


def test_fresh_processes_write_identical_files(data_dir, tmp_path):
    # two interpreters with different string-hash seeds, so an output that
    # took its order from a set or a dict of strings differs between them
    factorial = ["--data", str(data_dir / "gauge_factorial.tsv"),
                 "--spec", str(data_dir / "gauge_factorial_spec.txt")]
    boxbehnken = ["--data", str(data_dir / "gauge_boxbehnken.tsv"),
                  "--spec", str(data_dir / "gauge_boxbehnken_spec.txt")]
    for seed in ("1", "2"):
        out = tmp_path / seed
        runs = [
            ["fit", *factorial, "--model", "hybrid", "--theory", "adiabatic",
             "--out", str(out / "fit_hybrid")],
            ["fit", *boxbehnken, "--model", "mlr2", "--out", str(out / "fit_mlr2")],
            *(["simulate", *factorial, "--theory", theory, "--out", str(out / f"simulate_{theory}")]
              for theory in THEORIES),
        ]
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_RUNS, json.dumps(runs)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": seed},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
    first = tree_bytes(tmp_path / "1")
    assert {Path(name).parts[0] for name in first} == {
        "fit_hybrid", "fit_mlr2", "simulate_adiabatic", "simulate_isochoric"}
    assert first == tree_bytes(tmp_path / "2")


class TestOutputDirectory:
    """An --out that cannot be created, or a file in it that cannot be
    written, is one error line and exit status 1, not a traceback."""

    COMMANDS = [
        ["simulate", "--theory", "adiabatic"],
        ["fit", "--model", "mlr1"],
        ["validate"],
    ]

    @staticmethod
    def run(command, data_dir, out):
        inputs = (
            ["--data-dir", str(data_dir)] if command[0] == "validate" else [
                "--data", str(data_dir / "gauge_factorial.tsv"),
                "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            ]
        )
        return main([*command, *inputs, "--out", str(out)])

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_out_is_one_error_line(self, command, data_dir, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        # a nested --out is named whole, not by the level that failed
        for out in (blocker / "out", blocker / "a" / "b"):
            assert self.run(command, data_dir, out) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: cannot write {out}: Not a directory"
            ]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command, name", [
        (COMMANDS[0], "simulated.tsv"),
        (COMMANDS[1], "residuals_normal.svg"),
        (COMMANDS[2], "validation_report.txt"),
    ])
    def test_full_disk_is_one_error_line(self, command, name, data_dir, tmp_path, capsys):
        # /dev/full opens, then fails every write with ENOSPC, which names
        # no file
        out = tmp_path / "out"
        out.mkdir()
        (out / name).symlink_to("/dev/full")
        assert self.run(command, data_dir, out) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write {out / name}: No space left on device"
        ]


def test_parser_is_built_once_per_process(data_dir, tmp_path, monkeypatch):
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        built.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    for run in (1, 2):
        rc = main([
            "simulate",
            "--data", str(data_dir / "gauge_factorial.tsv"),
            "--spec", str(data_dir / "gauge_factorial_spec.txt"),
            "--theory", "isochoric", "--out", str(tmp_path / f"out{run}"),
        ])
        assert rc == 0
    # none when an earlier test in this process built it
    assert len(built) <= 1


# Blocks scipy before the package is imported, so any import of it fails,
# then imports every module the package holds, found rather than listed.
SCIPY_BLOCKED = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import hybridfit
for module in pkgutil.iter_modules(hybridfit.__path__):
    importlib.import_module(f"hybridfit.{module.name}")
from hybridfit import cli
rc = cli.main(["validate", "--data-dir", sys.argv[1]])
loaded = sorted(
    name for name, mod in sys.modules.items()
    if mod is not None and name.split(".")[0] == "scipy"
)
print("scipy modules:", loaded)
sys.exit(rc)
"""


def test_runtime_needs_no_scipy(data_dir):
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED, str(data_dir)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "case-study validation: 108/108 checks passed"
    assert lines[-1] == "scipy modules: []"
