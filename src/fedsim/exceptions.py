"""Exception types shared across the package, and the one field check that
every config type runs."""

import dataclasses
import numbers
import operator
import sys


class FedsimError(Exception):
    """Base class for all fedsim-specific errors."""


class ShapeMismatchError(FedsimError):
    """Parameter vectors of different lengths were combined, or a vector or
    feature matrix does not fit its :class:`~fedsim.models.ModelSpec`."""


class NumericError(FedsimError):
    """A non-finite value (NaN/Inf) appeared where finite math is required."""


class ConfigError(FedsimError, ValueError):
    """An experiment or federation configuration failed validation."""


class CsvParseError(FedsimError):
    """A CSV dataset file could not be parsed; message names row/column."""


def bounded(default=dataclasses.MISSING, *, ge=None, gt=None, lt=None, choices=None):
    """A config field with ``default`` and the bounds :func:`check_fields`
    checks: ``ge``, ``gt`` and ``lt`` for a number or for each entry of a
    tuple, ``choices`` for a string."""
    bounds = {"ge": ge, "gt": gt, "lt": lt, "choices": choices}
    return dataclasses.field(
        default=default, metadata={key: value for key, value in bounds.items() if value is not None}
    )


# Each numeric bound bounded() takes: its sign in messages, and its test.
_LIMITS = (("ge", ">=", operator.ge), ("gt", ">", operator.gt), ("lt", "<", operator.lt))


def _is_integer(value) -> bool:
    """An integer; numpy integers count, ``bool`` does not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def _is_finite_number(value) -> bool:
    """A real number other than ``bool``; the comparison is False for nan,
    for inf and for ints too large for a float."""
    return (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and -sys.float_info.max <= value <= sys.float_info.max
    )


def _checked(name: str, value, kind: str, bounds, what: str):
    """``value`` as a ``kind`` (``int`` or ``float``) within ``bounds``; else
    a ConfigError saying that ``name`` must be ``what`` within them."""
    limits = [(sign, test, bounds[key]) for key, sign, test in _LIMITS if key in bounds]
    is_kind = _is_integer if kind == "int" else _is_finite_number
    if not (is_kind(value) and all(test(value, limit) for _, test, limit in limits)):
        rule = " and ".join(f"{sign} {limit}" for sign, _, limit in limits)
        raise ConfigError(f"{name} must be {what}{' ' if rule else ''}{rule}, got {value!r}")
    return int(value) if kind == "int" else float(value)


def check_fields(config) -> None:
    """Check every field of the frozen dataclass ``config`` by its annotation
    and its :func:`bounded` metadata, storing each checked value in its
    plain type; raise :class:`ConfigError` naming the first field that fails
    and its value.

    * ``int``: an integer (numpy's count, ``bool`` does not), stored as ``int``;
      ``int | None`` may also be ``None``.
    * ``float``: a finite real number, not ``bool``, stored as ``float``.
    * ``tuple[int, ...]``: a list or tuple of such integers, stored as a tuple.
    * ``str``: one of the field's ``choices``, where it declares them.

    Any other field is left to the config type's own checks.  The
    annotations are read as strings, so each module that declares a config
    type uses ``from __future__ import annotations``.
    """
    for field in dataclasses.fields(config):
        name, kind, bounds = field.name, field.type, field.metadata
        value = getattr(config, name)
        if kind == "int" or (kind == "int | None" and value is not None):
            value = _checked(name, value, "int", bounds, "an integer")
        elif kind == "float":
            value = _checked(name, value, "float", bounds, "a finite number")
        elif kind == "tuple[int, ...]":
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name} must be a list of integers, got {value!r}")
            value = tuple(_checked(name, entry, "int", bounds, "integers") for entry in value)
        elif "choices" in bounds and value not in bounds["choices"]:
            raise ConfigError(f"{name} must be one of {bounds['choices']}, got {value!r}")
        else:
            continue
        object.__setattr__(config, name, value)
