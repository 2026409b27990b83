"""hybridfit: regression that fuses deterministic simulation output with
physical experiment observations.

The model multiplies a theory-computed response by a low-order polynomial in
coded factors, absorbing what the theory misses while keeping its structure.
The package covers the full workflow: table ingestion and factor coding,
design-matrix construction, the rank-aware augmented least-squares solve,
ANOVA with lack-of-fit testing, residual diagnostics, the pneumatic-gauge
flow simulators used as the theory source, and a CLI.
"""

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
    flow_factor_adiabatic,
    flow_factor_isochoric,
    simulate_design,
    solve_backpressure_adiabatic,
    solve_backpressure_isochoric,
)
from .hybrid import (
    HybridFit,
    HybridSystem,
    TheoryVector,
    alias_matrix,
    assemble,
    covariance_of_solution,
    solve,
    variance_of_fit,
)
from .inference import (
    FStatistics,
    MlrPartition,
    PureErrorDecomposition,
    SSPartition,
    box_wetz_ratio,
    f_cdf,
    f_critical,
    f_statistics,
    lack_of_fit_test,
    mlr_partition,
    partition,
    pure_error,
    r_squared,
    residual_diagnostics,
)
from .linalg import matrix_rank, ols_solve

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "Dataset",
    "DesignMatrix",
    "FactorSpec",
    "FStatistics",
    "GaugeConstants",
    "GaugeInputs",
    "HybridFit",
    "HybridSystem",
    "MlrPartition",
    "PureErrorDecomposition",
    "SSPartition",
    "TableSchema",
    "TheoryVector",
    "alias_matrix",
    "assemble",
    "box_wetz_ratio",
    "build_design",
    "code",
    "covariance_of_solution",
    "decode",
    "f_cdf",
    "f_critical",
    "f_statistics",
    "flow_factor_adiabatic",
    "flow_factor_isochoric",
    "lack_of_fit_test",
    "load_table",
    "matrix_rank",
    "mlr_partition",
    "ols_solve",
    "partition",
    "pure_error",
    "r_squared",
    "replicate_groups",
    "residual_diagnostics",
    "simulate_design",
    "solve",
    "solve_backpressure_adiabatic",
    "solve_backpressure_isochoric",
    "variance_of_fit",
]
