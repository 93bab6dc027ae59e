"""Exception types shared across the package, and :class:`Config`, the base
of every config type, with the one field check it runs."""

import dataclasses
import functools
import numbers
import operator
import sys
import typing


class FedsimError(Exception):
    """Base class for all fedsim-specific errors."""


class ShapeMismatchError(FedsimError):
    """Parameter vectors of different lengths were combined, or a vector or
    feature matrix does not fit its :class:`~fedsim.models.ModelSpec`."""


class NumericError(FedsimError):
    """A non-finite value (NaN/Inf) appeared where finite math is required.

    ``index``, when set, is the position of the failing item among those one
    call handled: :func:`fedsim.models.sgd_train` sets it to the model's."""

    index: int | None = None


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


def _describe(kind, many: bool) -> str:
    """What a value of ``kind`` is, or ``many`` values are, in a message."""
    if kind is int or kind is float:
        return "a finite number" if kind is float else "integers" if many else "an integer"
    names = " or ".join(option.__name__ for option in typing.get_args(kind) or (kind,))
    return f"{'instances' if many else 'an instance'} of {names}"


def checked(name: str, value, kind, bounds, many: bool = False):
    """``value`` checked against the annotation ``kind`` and ``bounds``, in its plain
    type; else a ConfigError naming ``name``.  ``many``: an entry of a tuple."""
    options = typing.get_args(kind)
    if type(None) in options:  # X | None
        return None if value is None else checked(name, value, options[0], bounds)
    if typing.get_origin(kind) is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            what = _describe(options[0], many=True)
            raise ConfigError(f"{name} must be a list of {what}, got {value!r}")
        return tuple(checked(name, entry, options[0], bounds, many=True) for entry in value)
    if kind is int or kind is float:
        limits = [(sign, test, bounds[key]) for key, sign, test in _LIMITS if key in bounds]
        is_kind = _is_integer if kind is int else _is_finite_number
        if not (is_kind(value) and all(test(value, limit) for _, test, limit in limits)):
            rule = " and ".join(f"{sign} {limit}" for sign, _, limit in limits)
            what = f"{_describe(kind, many)}{' ' if rule else ''}{rule}"
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return kind(value)
    if "choices" in bounds:
        if value not in bounds["choices"]:
            raise ConfigError(f"{name} must be one of {bounds['choices']}, got {value!r}")
    elif not isinstance(value, kind):
        raise ConfigError(f"{name} must be {_describe(kind, many)}, got {value!r}")
    return value


# Resolved once per config type: resolving costs far more than checking.
_annotations = functools.cache(typing.get_type_hints)


def check_fields(config) -> None:
    """Check every field of the frozen dataclass ``config`` by its annotation
    and its :func:`bounded` metadata, storing each checked value in its
    plain type; raise :class:`ConfigError` naming the first field that fails
    and its value.

    * ``int``: an integer (numpy's count, ``bool`` does not), stored as ``int``.
    * ``float``: a finite real number, not ``bool``, stored as ``float``.
    * ``str``: a string, and one of the field's ``choices`` if it declares them.
    * a config type, or a union of them such as ``Rule``: an instance of it.
    * ``tuple[X, ...]``: a list or tuple of values ``X`` takes, stored as a
      tuple; the bounds apply to each entry.
    * ``X | None``: ``None``, or a value ``X`` takes.

    :func:`typing.get_type_hints` resolves the annotations, so each name in
    one must exist at run time in its module, not only under ``TYPE_CHECKING``.
    """
    kinds = _annotations(type(config))
    for field in dataclasses.fields(config):
        value = checked(field.name, getattr(config, field.name), kinds[field.name], field.metadata)
        object.__setattr__(config, field.name, value)


class Config:
    """Base of every config type, a frozen dataclass whose fields :func:`check_fields`
    checks on construction; a rule across fields follows ``super().__post_init__()``."""

    def __post_init__(self) -> None:
        check_fields(self)
