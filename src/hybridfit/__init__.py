"""hybridfit: regression that fuses deterministic simulation output with
physical experiment observations.

The model multiplies a theory-computed response by a low-order polynomial in
coded factors, absorbing what the theory misses while keeping its structure.
The package covers the full workflow: table ingestion and factor coding,
design-matrix construction, the rank-aware augmented least-squares solve,
ANOVA with lack-of-fit testing, residual diagnostics, the pneumatic-gauge
flow simulators used as the theory source, and a CLI.
"""

from .analysis import Analysis, analyze
from .config import load_case
from .dataset import (
    Dataset,
    DesignMatrix,
    FactorSpec,
    TableSchema,
    build_design,
    code,
    decode,
    load_table,
    replicate_groups,
)
from .errors import AnalysisError
from .gauge import (
    GaugeConstants,
    GaugeInputs,
    simulate_design,
    solve_backpressure_adiabatic,
    solve_backpressure_isochoric,
    solve_backpressures,
)
from .hybrid import (
    HybridFit,
    HybridSystem,
    TheoryVector,
    assemble,
    covariance_of_solution,
    solve,
    variance_of_fit,
)
from .inference import (
    FTest,
    PureErrorDecomposition,
    SSPartition,
    box_wetz_ratio,
    f_critical,
    f_sf,
    f_test,
    partition,
    pure_error,
    residual_diagnostics,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "AnalysisError",
    "Dataset",
    "DesignMatrix",
    "FactorSpec",
    "FTest",
    "GaugeConstants",
    "GaugeInputs",
    "HybridFit",
    "HybridSystem",
    "PureErrorDecomposition",
    "SSPartition",
    "TableSchema",
    "TheoryVector",
    "analyze",
    "assemble",
    "box_wetz_ratio",
    "build_design",
    "code",
    "covariance_of_solution",
    "decode",
    "f_critical",
    "f_sf",
    "f_test",
    "load_case",
    "load_table",
    "partition",
    "pure_error",
    "replicate_groups",
    "residual_diagnostics",
    "simulate_design",
    "solve",
    "solve_backpressure_adiabatic",
    "solve_backpressure_isochoric",
    "solve_backpressures",
    "variance_of_fit",
]
