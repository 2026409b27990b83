"""hybridfit benchmark: one closed-loop client, one process, three workloads.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/`` (no install needed).  ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` is a separate run that
records layer spans (see ``spans.py``) and reports per-layer metrics.  Every
operation's output is checked by ``oracle.py``, which does not use
hybridfit.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; full results, input
records and the environment go to ``.perfbench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# One BLAS thread: the box is shared, and the dense n x n products of the
# hybrid path would otherwise time the neighbours' load.  Set before numpy
# is imported here or in any child.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_tmp"

# What `hybridfit` (the console script) runs.
CONSOLE = "import sys; from hybridfit.cli import main; sys.exit(main())"
SETUP_REPS = 3

# Speed calibration.  The reference box is shared, and its host switches
# between two speeds about 1.7x apart for seconds up to whole runs at a
# time; wall and CPU time move together, and no steal time is recorded.  So
# a fixed probe that hybridfit does not touch (a pure-Python loop, a BLAS
# product and a bare interpreter start) runs right before every timed
# operation and set-up, and the gated times are scaled to the reference
# speed: t * CALIB_REF_S / probe.  Raw times are reported beside them.
CALIB_REF_S = 0.035
CALIB_MATRIX = np.random.default_rng(0).standard_normal((400, 400))


def calibrate() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    for _ in range(3):
        CALIB_MATRIX @ CALIB_MATRIX
    subprocess.run([sys.executable, "-S", "-c", "pass"], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probe: float) -> float:
    return seconds * CALIB_REF_S / probe


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

@dataclass
class Op:
    name: str
    role: int                         # 0: first op group, 1: second op group
    argv: list[str] | None            # hybridfit arguments; None = bare import
    out_dir: Path | None              # checked files; None = check stdout
    check: Callable[["Result"], list[str]]


@dataclass
class Result:
    op: Op
    traced: bool
    seconds: float = 0.0
    rc: int = 0
    stdout: str = ""
    stderr: str = ""
    maxrss_kb: int = 0
    probe: float = 0.0                # calibration probe run just before
    out_bytes: int = 0
    spans: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


def _digest(result: Result) -> tuple[str, int]:
    h = hashlib.sha256()
    if result.op.out_dir is None:
        h.update(result.stdout.encode())
        return h.hexdigest(), 0
    size = 0
    for path in sorted(result.op.out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            size += len(data)
            h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), size


class Workload:
    """Inputs, the operation schedule and how one operation runs."""

    name = ""
    roles = ("", "")                  # printed names of the two op groups

    def __init__(self, seed: int, rows: int | None, work: Path) -> None:
        self.seed = seed
        self.rows = rows
        self.work = work
        self.inputs: dict = {}
        self.schedule: list[Op] = []
        self.reference: dict[str, str] = {}
        self.validation_passed = 0

    def prepare(self) -> None:
        raise NotImplementedError

    def _execute(self, op: Op, traced: bool) -> Result:
        raise NotImplementedError

    def run_op(self, op: Op, traced: bool = False) -> Result:
        """Run one operation and check it: exit status, the independent
        check the first time an output is seen, and byte-identity with the
        first output of the same operation."""
        if op.out_dir is not None and op.out_dir.exists():
            shutil.rmtree(op.out_dir)
        try:
            result = self._execute(op, traced)
        except (Exception, SystemExit) as exc:  # a failed op, counted, not fatal
            return Result(op, traced, rc=1, problems=[f"{op.name}: {exc!r}"])
        if result.rc != 0:
            result.problems.append(f"{op.name}: exit status {result.rc}: {result.stderr[-300:]}")
            return result
        digest, result.out_bytes = _digest(result)
        if op.name not in self.reference:
            result.problems += op.check(result)
            if not result.problems:
                self.reference[op.name] = digest
        elif digest != self.reference[op.name]:
            result.problems.append(f"{op.name}: output differs from the first run's bytes")
        return result

    def setup_times(self, log: "RunLog") -> list[tuple[float, float]]:
        """(seconds, calibration probe) of each set-up."""
        raise NotImplementedError


class InProcess(Workload):
    """Operations call ``hybridfit.cli.main`` in this process; stdout goes
    to a buffer so terminal I/O is not timed."""

    tracer: spans.Tracer | None = None

    def _execute(self, op: Op, traced: bool) -> Result:
        from hybridfit import cli

        buf = io.StringIO()
        result = Result(op, traced)
        if traced:
            self.tracer = self.tracer or spans.Tracer()
            with contextlib.redirect_stdout(buf), self.tracer.installed():
                with self.tracer.op(op.name) as root:
                    result.rc = cli.main(op.argv)
            result.seconds = root[spans.END] - root[spans.START]
            result.spans = self.tracer.take()
        else:
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                result.rc = cli.main(op.argv)
                result.seconds = time.perf_counter() - t0
        result.stdout = buf.getvalue()
        return result

    def setup_times(self, log: "RunLog") -> list[tuple[float, float]]:
        """Each set-up runs in a fresh interpreter: import, generate the
        inputs, run and check every operation once."""
        times = []
        for k in range(SETUP_REPS):
            cmd = [sys.executable, str(HERE / "child.py"), "setup", self.name,
                   str(self.seed), str(self.rows or 0), str(self.work / f"setup{k}")]
            probe = calibrate()
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True)
            times.append((time.perf_counter() - t0, probe))
            log.count(proc.returncode == 0, f"setup {k}: exit {proc.returncode}: {proc.stderr[-300:]}")
        return times


class FitLarge(InProcess):
    name = "fit_large"
    roles = ("fit_hybrid_s", "fit_mlr_s")
    default_rows = 3000

    def prepare(self) -> None:
        rows = self.rows or self.default_rows
        self.inputs = inputs.fit_table(self.seed, self.work / "inputs", rows=rows)
        table = self.work / "inputs" / "fit_large.tsv"
        spec = self.work / "inputs" / "fit_large_spec.txt"
        x, cols = oracle.coded_factors(table, spec)
        y = cols["P_obs"]
        ref_hybrid = oracle.reference_coefficients(oracle.polynomial(x, "first"), y, cols["z"])
        ref_mlr = oracle.reference_coefficients(oracle.polynomial(x, "second"), y, None)
        common = ["--data", str(table), "--spec", str(spec), "--format", "text,rows,plots"]
        out_h, out_m = self.work / "out_hybrid", self.work / "out_mlr2"
        self.schedule = [
            Op("fit_hybrid", 0,
               ["fit", *common, "--model", "hybrid", "--theory", "column:z", "--out", str(out_h)],
               out_h, lambda r: oracle.check_coefficients(out_h / "coefficients.tsv", ref_hybrid)),
            Op("fit_mlr2", 1, ["fit", *common, "--model", "mlr2", "--out", str(out_m)],
               out_m, lambda r: oracle.check_coefficients(out_m / "coefficients.tsv", ref_mlr)),
        ]


class GaugeSweep(InProcess):
    name = "gauge_sweep"
    roles = ("simulate_adiabatic_s", "simulate_isochoric_s")
    default_rows = 2000

    def prepare(self) -> None:
        rows = self.rows or self.default_rows
        self.inputs = inputs.gauge_design(self.seed, self.work / "inputs", rows=rows)
        table = self.work / "inputs" / "gauge_sweep.tsv"
        spec = self.work / "inputs" / "gauge_sweep_spec.txt"
        self.schedule = []
        for role, theory in enumerate(("adiabatic", "isochoric")):
            out = self.work / f"out_{theory}"
            self.schedule.append(Op(
                f"simulate_{theory}", role,
                ["simulate", "--data", str(table), "--spec", str(spec), "--theory", theory,
                 "--out", str(out)],
                out,
                lambda r, out=out, theory=theory: oracle.check_simulated(
                    out / "simulated.tsv", table, spec, theory),
            ))


class CliCaseStudy(Workload):
    """One ``hybridfit`` subprocess per operation on the bundled data; a
    bare ``import hybridfit`` runs between every two commands, so the
    import has as many samples as the commands pooled."""

    name = "cli_case_study"
    roles = ("cli_s", "import_s")

    def prepare(self) -> None:
        fac, fac_spec = DATA / "gauge_factorial.tsv", DATA / "gauge_factorial_spec.txt"
        bb, bb_spec = DATA / "gauge_boxbehnken.tsv", DATA / "gauge_boxbehnken_spec.txt"
        self.inputs = {
            "generator": None,
            "seed": self.seed,
            "params": {"bundled": True},
            "files": [
                {"path": str(p.relative_to(ROOT)), "bytes": p.stat().st_size,
                 "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
                for p in (fac, fac_spec, bb, bb_spec)
            ],
        }
        x, cols = oracle.coded_factors(fac, fac_spec)
        k = oracle.gauge_constants(oracle.read_spec(fac_spec))
        z = oracle.adiabatic_backpressure(cols["A"], cols["Ps"], cols["B"], k)
        ref_hybrid = oracle.reference_coefficients(oracle.polynomial(x, "first"), cols["P_obs"], z)
        xb, bcols = oracle.coded_factors(bb, bb_spec)
        ref_mlr = oracle.reference_coefficients(oracle.polynomial(xb, "second"), bcols["P_obs"], None)
        rel = lambda p: str(p.relative_to(ROOT))  # noqa: E731
        out_h, out_m, out_s = (self.work / d for d in ("cli_hybrid", "cli_mlr2", "cli_simulate"))

        def check_validate(r: Result) -> list[str]:
            problems, self.validation_passed = oracle.check_validate(r.stdout)
            return problems

        imp = Op("import", 1, None, None, lambda r: [])
        self.commands = [
            Op("validate", 0, ["validate"], None, check_validate),
            Op("fit_hybrid_adiabatic", 0,
               ["fit", "--data", rel(fac), "--spec", rel(fac_spec), "--model", "hybrid",
                "--theory", "adiabatic", "--out", str(out_h)],
               out_h, lambda r: oracle.check_coefficients(out_h / "coefficients.tsv", ref_hybrid)),
            Op("fit_mlr2", 0,
               ["fit", "--data", rel(bb), "--spec", rel(bb_spec), "--model", "mlr2",
                "--out", str(out_m)],
               out_m, lambda r: oracle.check_coefficients(out_m / "coefficients.tsv", ref_mlr)),
            Op("simulate_isochoric", 0,
               ["simulate", "--data", rel(fac), "--spec", rel(fac_spec), "--theory", "isochoric",
                "--out", str(out_s)],
               out_s, lambda r: oracle.check_simulated(out_s / "simulated.tsv", fac, fac_spec, "isochoric")),
        ]
        self.warmup = [imp] + self.commands
        self.schedule = [op for cmd in self.commands for op in (imp, cmd)]

    def _execute(self, op: Op, traced: bool) -> Result:
        result = Result(op, traced)
        spans_path = self.work / "child_spans.json"
        if op.argv is None:
            cmd = [sys.executable, "-c", "import hybridfit"]
        elif traced:
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(spans_path), op.name,
                   "--", *op.argv]
        else:
            cmd = [sys.executable, "-c", CONSOLE, *op.argv]
        if traced:
            cmd.insert(1, "-Ximporttime")
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            result.seconds = time.perf_counter() - t0
        proc.returncode = result.rc = os.waitstatus_to_exitcode(status)
        result.maxrss_kb = usage.ru_maxrss
        result.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        result.stderr = err_path.read_text(encoding="utf-8", errors="replace")
        if traced and op.argv is not None and spans_path.exists():
            result.spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        return result

    def setup_times(self, log: "RunLog") -> list[tuple[float, float]]:
        """A set-up is one warm-up round of all five operations."""
        times = []
        for _ in range(SETUP_REPS):
            probe = calibrate()
            t0 = time.perf_counter()
            for op in self.warmup:
                log.add(self.run_op(op))
            times.append((time.perf_counter() - t0, probe))
        return times


WORKLOADS = {w.name: w for w in (CliCaseStudy, FitLarge, GaugeSweep)}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

class RunLog:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def add(self, result: Result) -> Result:
        self.count(result.ok, "; ".join(result.problems))
        return result


# The end-to-end metrics BENCHMARK.json gates; the times among them are at
# the reference speed (see calibrate).
GATED = ("setup_s", "first_op_s.p50", "first_op_s.p90", "second_op_s.p50",
         "second_op_s.p90", "peak_rss_mb")


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile, at most the 90th, with at least ten samples
    beyond it (never below the median); returns (value, percentile)."""
    xs = sorted(values)
    n = len(xs)
    k = max(min(math.ceil(0.9 * n) - 1, n - 11), (n - 1) // 2)
    return xs[k], 100.0 * (k + 1) / n


def measure(bench: Workload, seconds: float, trace: bool, log: RunLog) -> tuple[list[Result], float]:
    """Closed loop over the schedule until ``seconds`` have passed (at least
    one round; two when tracing, which alternates traced and untraced
    rounds).  Untraced runs put a calibration probe before every op; the
    returned wall time leaves the probes out."""
    schedule = bench.schedule
    min_ops = len(schedule) * (2 if trace else 1)
    results = []
    probes = 0.0
    t0 = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - t0 < seconds:
        traced = trace and (i // len(schedule)) % 2 == 0
        probe = 0.0 if trace else calibrate()
        result = bench.run_op(schedule[i % len(schedule)], traced)
        result.probe = probe
        probes += probe
        results.append(log.add(result))
        i += 1
    return results, time.perf_counter() - t0 - probes


def end_to_end(bench: Workload, results: list[Result], wall: float,
               setup: list[tuple[float, float]], log: RunLog) -> dict:
    metrics = {
        "setup_s": (statistics.median(at_reference_speed(*s) for s in setup), "s", len(setup), None),
        "setup_raw_s": (statistics.median(t for t, _ in setup), "s", len(setup), None),
    }
    for role, prefix in enumerate(("first_op_s", "second_op_s")):
        done = [r for r in results if r.op.role == role and r.ok]
        for name, times in [
            (prefix, sorted(at_reference_speed(r.seconds, r.probe) for r in done) or [0.0]),
            (f"{prefix}_raw", sorted(r.seconds for r in done) or [0.0]),
        ]:
            metrics[f"{name}.p50"] = (statistics.median(times), "s", len(times), 50.0)
            value, pct = tail(times)
            metrics[f"{name}.p90"] = (value, "s", len(times), pct)
    metrics["calibration_probe_s"] = (
        statistics.median(r.probe for r in results), "s", len(results), None)
    done = sum(r.ok for r in results)
    metrics["ops_per_s"] = (done / wall, "1/s", done, None)
    if isinstance(bench, InProcess):
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(r.maxrss_kb for r in results)
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB", len(results), None)
    metrics["fail_ratio"] = (log.failed / log.attempted, "ratio", log.attempted, None)
    return metrics


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(bench: Workload, results: list[Result]) -> dict:
    traced = [r for r in results if r.traced and r.ok]
    ops = []
    for r in traced:
        incl, calls, layer_self = defaultdict(float), Counter(), defaultdict(float)
        for s, own in zip(r.spans, spans.self_times(r.spans)):
            if s[spans.PARENT] < 0:
                layer_self["cli"] += own
                continue
            incl[s[spans.NAME]] += s[spans.END] - s[spans.START]
            calls[s[spans.NAME]] += 1
            layer_self[s[spans.NAME].split(".")[0]] += own
        ops.append((r, incl, calls, layer_self))
    with_spans = [op for op in ops if op[0].spans]
    all_spans = [s for r in traced for s in r.spans]

    def ms(*names: str) -> float:
        return 1000.0 * _median_or_zero(
            sum(incl[n] for n in names) for _, incl, calls, _ in ops if any(calls[n] for n in names)
        )

    def calls_per_op(name: str) -> float:
        counts = [calls[name] for _, _, calls, _ in ops if calls[name]]
        return statistics.fmean(counts) if counts else 0.0

    def extra(name: str, key: str) -> list:
        return [s[spans.EXTRA][key] for s in all_spans
                if s[spans.NAME] == name and key in s[spans.EXTRA]]

    def per_point_us(name: str) -> float:
        durations = [s[spans.END] - s[spans.START] for s in all_spans if s[spans.NAME] == name]
        return 1e6 * statistics.fmean(durations) if durations else 0.0

    def simulate_ms(theory: str) -> float:
        per_op = []
        for r, *_ in ops:
            d = [s[spans.END] - s[spans.START] for s in r.spans
                 if s[spans.NAME] == "gauge.simulate_design" and s[spans.EXTRA].get("label") == theory]
            if d:
                per_op.append(sum(d))
        return 1000.0 * _median_or_zero(per_op)

    nxn = [sum(s[spans.EXTRA].get("nxn_bytes", 0) for s in r.spans if s[spans.NAME].startswith("hybrid."))
           for r, _, calls, _ in ops if any(k.startswith("hybrid.") for k in calls)]
    rows_simulated = sum(extra("gauge.simulate_design", "rows"))
    solves = sum(1 for s in all_spans if s[spans.NAME].startswith("gauge.solve_backpressure_"))
    imports = [spans.import_times(r.stderr) for r in traced if isinstance(bench, CliCaseStudy)]
    fit_bytes = [r.out_bytes for r in results if r.ok and r.op.argv and r.op.argv[0] == "fit"]

    ratios = []
    for name in {r.op.name for r in results}:
        t = [r.seconds for r in results if r.op.name == name and r.ok and r.traced]
        u = [r.seconds for r in results if r.op.name == name and r.ok and not r.traced]
        if t and u:
            ratios.append(statistics.median(t) / statistics.median(u))

    n_ops = max(len(with_spans), 1)
    m = {
        "import.numpy_ms": (_median_or_zero(i["numpy"] for i in imports), "ms"),
        "import.scipy_ms": (_median_or_zero(i["scipy"] for i in imports), "ms"),
        "import.hybridfit_self_ms": (_median_or_zero(i["hybridfit_self"] for i in imports), "ms"),
        "validation.run_validation_ms": (ms("validation.run_validation"), "ms"),
        "validation.checks_passed": (bench.validation_passed, "count"),
        "dataset.load_table_ms": (ms("dataset.load_table"), "ms"),
        "dataset.replicate_groups_ms": (ms("dataset.replicate_groups"), "ms"),
        "dataset.code_ms": (ms("dataset.code"), "ms"),
        "dataset.build_design_ms": (ms("dataset.build_design"), "ms"),
        "hybrid.assemble_ms": (ms("hybrid.assemble"), "ms"),
        "hybrid.solve_ms": (ms("hybrid.solve"), "ms"),
        "hybrid.assemble_peak_mb": (_median_or_zero(extra("hybrid.assemble", "peak_bytes")) / 2**20, "MB"),
        "hybrid.solve_peak_mb": (_median_or_zero(extra("hybrid.solve", "peak_bytes")) / 2**20, "MB"),
        "hybrid.nxn_bytes_computed": (_median_or_zero(nxn), "bytes"),
        "hybrid.rank": (_median_or_zero(extra("hybrid.assemble", "rank")), "count"),
        "linalg.ols_solve_ms": (ms("linalg.ols_solve"), "ms"),
        "inference.partition_ms": (ms("inference.partition"), "ms"),
        "inference.pure_error_ms": (ms("inference.pure_error"), "ms"),
        "inference.r_squared_ms": (ms("inference.r_squared"), "ms"),
        "inference.residual_diagnostics_ms": (ms("inference.residual_diagnostics"), "ms"),
        "inference.mlr_partition_ms": (ms("inference.mlr_partition"), "ms"),
        "inference.f_critical_calls": (calls_per_op("inference.f_critical"), "count"),
        "gauge.simulate_design_adiabatic_ms": (simulate_ms("adiabatic"), "ms"),
        "gauge.simulate_design_isochoric_ms": (simulate_ms("isochoric"), "ms"),
        "gauge.solve_backpressure_adiabatic_us_per_point":
            (per_point_us("gauge.solve_backpressure_adiabatic"), "us"),
        "gauge.solve_backpressure_isochoric_us_per_point":
            (per_point_us("gauge.solve_backpressure_isochoric"), "us"),
        "gauge.distinct_ratio": (solves / rows_simulated if rows_simulated else 0.0, "ratio"),
        "report.render_anova_ms": (ms("report.render_anova_text", "report.render_anova_rows"), "ms"),
        "report.render_coefficients_ms": (ms("report.render_coefficients"), "ms"),
        "report.write_diagnostic_files_ms": (ms("report.write_diagnostic_files"), "ms"),
        "report.bytes_written": (statistics.fmean(fit_bytes) if fit_bytes else 0.0, "bytes"),
    }
    for layer in ("cli",) + spans.LAYERS:
        total = sum(layer_self[layer] for *_, layer_self in with_spans)
        m[f"{layer}.self_ms"] = (1000.0 * total / n_ops, "ms")
    m["trace.overhead_ratio"] = (max(ratios) if ratios else 0.0, "ratio")
    return m


# --------------------------------------------------------------------------
# records and output
# --------------------------------------------------------------------------

def environment() -> dict:
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((SRC / "hybridfit").rglob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, rows: int | None) -> dict:
    log = RunLog()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = WORKLOADS[name](seed, rows, work)
        t0 = time.perf_counter()
        bench.prepare()
        setup = [] if trace else bench.setup_times(log)
        if trace or isinstance(bench, InProcess):
            for op in getattr(bench, "warmup", bench.schedule):
                log.add(bench.run_op(op))
        local_setup = time.perf_counter() - t0
        results, wall = measure(bench, seconds, trace, log)
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "inputs": bench.inputs,
            "environment": environment(),
            "loop": "closed, one client, single process",
            "run_wall_s": wall,
            "local_setup_s": local_setup,
            "setup_samples_s": setup,
            "attempted": log.attempted,
            "failed": log.failed,
            "problems": log.problems,
            "op_samples": {
                op_name: {
                    "traced": [r.seconds for r in results if r.op.name == op_name and r.traced],
                    "untraced": [r.seconds for r in results if r.op.name == op_name and not r.traced],
                }
                for op_name in dict.fromkeys(r.op.name for r in results)
            },
        }
        if trace:
            record["per_layer"] = per_layer(bench, results)
            spans_file = OUT / f"{name}_seed{seed}_spans.json"
            OUT.mkdir(exist_ok=True)
            spans_file.write_text(json.dumps([
                {"op": r.op.name, "seconds": r.seconds, "spans": r.spans}
                for r in results if r.traced
            ]), encoding="utf-8")
            record["spans_file"] = str(spans_file.relative_to(ROOT))
        else:
            record["end_to_end"] = end_to_end(bench, results, wall, setup, log)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def print_record(record: dict, bench_cls: type[Workload]) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"run {record['run_wall_s']:.1f} s  attempted {record['attempted']}  "
          f"failed {record['failed']}")
    for f in record["inputs"]["files"]:
        print(f"  input {f['path']}  {f['bytes']} bytes  sha256 {f['sha256']}")
    if "end_to_end" in record:
        print("  (* gated in BENCHMARK.json, at the reference speed; the rest is reported only)")
        for key, (value, unit, n, pct) in record["end_to_end"].items():
            shown = key.replace("first_op_s", bench_cls.roles[0]).replace(
                "second_op_s", bench_cls.roles[1])
            note = f"n={n}" + (f", percentile {pct:.0f}" if pct not in (None, 50.0) else "")
            gated = "*" if key in GATED else " "
            print(f"  {gated} {key:18} {shown:28} {value:12.6g} {unit:5} {note}")
    else:
        for key, (value, unit) in record["per_layer"].items():
            print(f"  {key:48} {value:14.6g} {unit}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def result_line(record: dict) -> dict:
    if "end_to_end" in record:
        metrics = {k: record["end_to_end"][k] for k in GATED}
    else:
        metrics = record["per_layer"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process so peak RSS stays per
    workload; prints each workload's table and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.rows:
            cmd += ["--rows", str(args.rows)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=None,
                        help="override the generated table size (smoke test)")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "hybridfit" / "cli.py", DATA / "gauge_factorial.tsv") if not p.is_file()]
    if missing:
        print(f"error: not a hybridfit checkout, missing {[str(p) for p in missing]}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.rows)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print_record(record, WORKLOADS[args.workload])
    print(f"  results: {out_file.relative_to(ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
