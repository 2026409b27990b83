"""Span tracing at hybridfit's layer boundaries, installed from outside.

:meth:`Tracer.installed` wraps every public function defined in each layer
module and rebinds every module-level reference to it, including names
re-bound with ``from ... import`` (such as ``cli.ols_solve``) and values of
module-level dicts (such as a dispatch table of solvers).  Each call then
records a span: id, parent id, name, start, end and a few observations of
the result.  Spans stay in memory, grouped by operation; the harness writes
them out when the run ends.  Leaving the context restores every reference.

Nothing here imports numpy or hybridfit at module level, so a traced child
process can import this module before ``-X importtime`` starts recording
the program's own imports.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
import tracemalloc
from contextlib import contextmanager

PACKAGE = "hybridfit"
LAYERS = ("config", "dataset", "hybrid", "linalg", "inference", "gauge", "report", "validation")

# Called once per bisection step, hundreds of thousands of times per
# operation: a span each would cost more than the work it measures.
INNER_LOOP = frozenset({
    "gauge.flow_factor_adiabatic",
    "gauge.flow_factor_isochoric",
    "gauge.critical_pressure_ratio",
})

# Layers whose outermost calls get a tracemalloc peak and an n x n census
# of the arrays reachable from their result.
MEMORY_LAYERS = ("hybrid.",)

# Span fields, in order.
ID, PARENT, NAME, START, END, EXTRA = range(6)


def square_array_bytes(obj) -> int:
    """nbytes of the n x n arrays reachable from a result through dataclass
    fields, lists and tuples, where n is the longest leading dimension seen
    (the run count for hybridfit's systems and fits).  Computed from array
    shapes, not measured traffic."""
    arrays, seen, todo = [], set(), [obj]
    while todo:
        cur = todo.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        if hasattr(cur, "shape") and hasattr(cur, "nbytes"):
            arrays.append(cur)
        elif dataclasses.is_dataclass(cur) and not isinstance(cur, type):
            todo += [getattr(cur, f.name) for f in dataclasses.fields(cur)]
        elif isinstance(cur, (list, tuple)):
            todo += list(cur)
    if not arrays:
        return 0
    n = max((a.shape[0] for a in arrays if len(a.shape) >= 1), default=0)
    return int(sum(a.nbytes for a in arrays if tuple(a.shape) == (n, n)))


class Tracer:
    """Collects the spans of one operation at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        record = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, {}]
        self.spans.append(record)
        self._stack.append(record[ID])
        return record

    @contextmanager
    def op(self, name: str):
        """Root span of one operation; the harness's own time inside it that
        no layer span covers is the CLI's self time."""
        self.spans = []
        self._stack = []
        record = self._open(name)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        memory = name.startswith(MEMORY_LAYERS)
        labelled = name == "gauge.simulate_design"
        tracer = self

        def wrapper(*args, **kwargs):
            record = tracer._open(name)
            own_trace = memory and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                tracer._stack.pop()
                if own_trace:
                    record[EXTRA]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if own_trace:
                record[EXTRA]["nxn_bytes"] = square_array_bytes(result)
                rank = getattr(result, "rank", None)
                if isinstance(rank, int):
                    record[EXTRA]["rank"] = rank
            if labelled:
                record[EXTRA]["label"] = next((a for a in args if isinstance(a, str)), None)
                try:
                    record[EXTRA]["rows"] = len(result)
                except TypeError:
                    pass
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextmanager
    def installed(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue  # a layer a later version folded away
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or name in INNER_LOOP
                ):
                    continue
                wrapped[obj] = self._wrap(name, obj)

        patches = []  # (namespace, key, original)
        namespaces = [importlib.import_module(PACKAGE), importlib.import_module(f"{PACKAGE}.cli")]
        for ns in [vars(m) for m in namespaces + list(modules.values())]:
            for key, val in list(ns.items()):
                if key.startswith("__"):
                    continue
                if inspect.isfunction(val) and val in wrapped:
                    patches.append((ns, key, val))
                    ns[key] = wrapped[val]
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if inspect.isfunction(v2) and v2 in wrapped:
                            patches.append((val, k2, v2))
                            val[k2] = wrapped[v2]
        try:
            yield
        finally:
            for ns, key, val in reversed(patches):
                ns[key] = val


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import time (ms) of numpy and of scipy, counted at the
    outermost import of each, and the self time (ms) of hybridfit's own
    modules, from ``-X importtime`` output."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|")
        name = raw.rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(self_us), int(cum_us)))
    totals = {"numpy": 0.0, "scipy": 0.0, "hybridfit_self": 0.0}
    ancestors: dict[int, str] = {}
    # -X importtime prints children before their parent; walk backwards so
    # every entry's parent has been seen.
    for depth, name, self_us, cum_us in reversed(entries):
        ancestors[depth] = name
        root = name.split(".")[0]
        parent_root = ancestors.get(depth - 1, "").split(".")[0]
        if root in ("numpy", "scipy") and parent_root != root:
            totals[root] += cum_us / 1000.0
        if root == PACKAGE:
            totals["hybridfit_self"] += self_us / 1000.0
    return totals
