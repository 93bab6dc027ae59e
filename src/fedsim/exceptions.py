"""Exception types shared across the package."""


class FedsimError(Exception):
    """Base class for all fedsim-specific errors."""


class ShapeMismatchError(FedsimError):
    """Parameter vectors of different lengths were combined, or a vector or
    feature matrix does not fit its :class:`~fedsim.models.ModelSpec`."""


class NumericError(FedsimError):
    """A non-finite value (NaN/Inf) appeared where finite math is required."""


class ConfigError(FedsimError):
    """An experiment or federation configuration failed validation."""


class CsvParseError(FedsimError):
    """A CSV dataset file could not be parsed; message names row/column."""
