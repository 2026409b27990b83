"""Child-process entry points of the benchmark.

``child.py cli <spans.json> <op name> -- <hybridfit arguments>``
    One traced CLI invocation: import the package, install the layer
    tracer, run ``hybridfit.cli.main`` under a root span, write the spans
    to the given file and exit with main's return code.  The harness runs
    it under ``python -X importtime`` so the import layer is measured too.

``child.py setup <workload> <seed> <rows> <work dir>``
    One fresh-process set-up of an in-process workload: import, generate
    the inputs, run and check every operation once.  The harness times the
    whole process; exit status 0 means every warm-up operation passed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def traced_cli(spans_path: str, op_name: str, argv: list[str]) -> int:
    from hybridfit import cli

    tracer = spans.Tracer()
    try:
        with tracer.installed(), tracer.op(op_name):
            return cli.main(argv)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.take()), encoding="utf-8")


def setup_probe(workload: str, seed: int, rows: int, work_dir: str) -> int:
    import run

    bench = run.WORKLOADS[workload](seed, rows, Path(work_dir))
    bench.prepare()
    return 0 if all(bench.run_op(op).ok for op in bench.schedule) else 1


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        sep = rest.index("--")
        return traced_cli(rest[0], rest[1], rest[sep + 1:])
    if mode == "setup":
        return setup_probe(rest[0], int(rest[1]), int(rest[2]), rest[3])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
