"""hybridfit: regression that fuses deterministic simulation output with
physical experiment observations.

The model multiplies a theory-computed response by a low-order polynomial in
coded factors, absorbing what the theory misses while keeping its structure.
The package covers the full workflow: table ingestion and factor coding,
design-matrix construction, the rank-aware augmented least-squares solve,
ANOVA with lack-of-fit testing, residual diagnostics, the pneumatic-gauge
flow simulators used as the theory source, and a CLI.  Each name is imported
from the module that defines it (``from hybridfit.analysis import analyze``);
the package itself imports nothing, so ``import hybridfit`` loads no numpy.
"""

__version__ = "0.1.0"
