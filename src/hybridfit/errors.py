"""Exception types raised by the fitting and simulation pipeline."""


class AnalysisError(Exception):
    """Base class for every error this package raises on bad input or state."""


class InputFileError(AnalysisError):
    """An input file does not exist or cannot be read as text."""


class SchemaError(AnalysisError):
    """A required column is missing from an input table."""


class TableParseError(AnalysisError):
    """A cell in an input table could not be parsed as a number."""


class DegenerateFactorError(AnalysisError):
    """A factor has zero half-range, so coded levels are undefined."""


class ShapeError(AnalysisError):
    """Array dimensions do not agree."""


class RankError(AnalysisError):
    """A matrix that must have full column rank does not."""


class SaturatedModelError(AnalysisError):
    """The residual has no degrees of freedom, so the error variance
    cannot be estimated and F-tests are unavailable."""


class ConstantResponseError(AnalysisError):
    """The response has no variation about its mean; R-squared is undefined."""


class InconsistencyError(AnalysisError):
    """Two computations that must agree (a built-in cross-check) did not."""
