"""Flat parameter vectors and the one ordered weighted sum over them.

A model's parameters travel between client training and the server step as
one flat, finite float64 vector.  Its layout (which slice is which layer's
weight or bias) is fixed by :meth:`fedsim.models.ModelSpec.layer_dims`, and
every vector in a run comes from one spec.  Server steps compute on the raw
``values`` arrays and wrap only what they hand back in a
:class:`ParamVector`, which is where finiteness is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import NumericError, ShapeMismatchError


@dataclass(frozen=True)
class ParamVector:
    """One model's full parameter set, flattened to a float64 vector.

    The underlying array is copied on construction and marked read-only, so
    instances are safe to share across concurrently training clients.  All
    entries must be finite.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        if not np.isfinite(arr).all():
            raise NumericError("parameter vector contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def with_values(self, values: np.ndarray) -> "ParamVector":
        """New vector holding ``values`` (validated on construction)."""
        return ParamVector(values)


def linear_combination(
    vectors: Sequence[ParamVector], coefficients: Sequence[float]
) -> ParamVector:
    """Elementwise sum of ``coefficients[i] * vectors[i]``.

    Accumulation runs in input order, so the result is deterministic for a
    fixed argument order.
    """
    if len(vectors) == 0:
        raise ValueError("linear_combination needs at least one vector")
    if len(vectors) != len(coefficients):
        raise ValueError(
            f"{len(vectors)} vectors but {len(coefficients)} coefficients"
        )
    coeffs = [float(c) for c in coefficients]
    size = len(vectors[0])
    if any(len(v) != size for v in vectors[1:]):
        raise ShapeMismatchError("parameter vectors differ in length")
    # A non-finite coefficient, like an overflow, leaves a non-finite entry,
    # which surfaces as NumericError when the result vector is built.
    with np.errstate(over="ignore", invalid="ignore"):
        acc = coeffs[0] * vectors[0].values
        for c, v in zip(coeffs[1:], vectors[1:]):
            acc += c * v.values
    return ParamVector(acc)
