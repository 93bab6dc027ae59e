"""Flat parameter vectors and the one ordered weighted sum over them.

A model's parameters travel between client training and the server step as
one flat, finite float64 vector.  Its layout (which slice is which layer's
weight or bias) is fixed by :meth:`fedsim.models.ModelSpec.layer_dims`, and
every vector in a run comes from one spec.  Server steps compute on the
raw ``values`` arrays, summing them with :func:`linear_combination`;
``Aggregator.aggregate`` wraps a step's result, which checks it finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import NumericError


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
) -> np.ndarray:
    """Elementwise sum of ``coefficients[i] * vectors[i]``, unchecked, as a raw
    array; it runs in input order, so it is deterministic for a fixed order.
    The caller passes at least one vector, each as long, one coefficient each."""
    acc = coefficients[0] * vectors[0].values
    for c, v in zip(coefficients[1:], vectors[1:]):
        acc += c * v.values
    return acc
