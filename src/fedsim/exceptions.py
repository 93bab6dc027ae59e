"""Exception types shared across the package, and the integer check that
the config types share."""

import numbers


def is_integer(value) -> bool:
    """An integer; numpy integers count, ``bool`` does not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def check_int(name: str, value, least: int) -> None:
    """Raise ``ValueError`` naming ``name`` and ``value`` unless ``value`` is
    an integer >= ``least``."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


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
