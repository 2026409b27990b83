"""Exception types raised by the fitting and simulation pipeline."""


class AnalysisError(Exception):
    """Bad input, or a result that cannot be computed from that input."""


class InconsistencyError(AnalysisError):
    """A built-in cross-check failed, or the flow solver could not certify a root."""
