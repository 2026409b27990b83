"""hybridfit: regression that fuses deterministic simulation output with
physical experiment observations.

The model multiplies a theory-computed response by a low-order polynomial in
coded factors, absorbing what the theory misses while keeping its structure.
The package covers the full workflow: table ingestion and factor coding,
design-matrix construction, the rank-aware augmented least-squares solve,
ANOVA with lack-of-fit testing, residual diagnostics, the pneumatic-gauge
flow simulators used as the theory source, and a CLI.
"""

import importlib

# Where each public name is defined.  The package imports nothing up front:
# the first access to a name loads its module (PEP 562), so a command pays
# only for the layers it runs and ``import hybridfit`` loads no numpy.
_SOURCES = {
    "analysis": ("Analysis", "analyze"),
    "config": ("load_case",),
    "dataset": (
        "Dataset", "DesignMatrix", "FactorSpec", "build_design", "code",
        "load_table",
    ),
    "errors": ("AnalysisError",),
    "gauge": (
        "GaugeConstants", "simulate_design", "solve_backpressures",
    ),
    "hybrid": (
        "HybridFit", "HybridSystem", "assemble", "solve",
    ),
    "inference": (
        "FTest", "PureErrorDecomposition", "box_wetz_ratio", "f_critical",
        "f_sf", "f_test", "pure_error", "residual_diagnostics",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
