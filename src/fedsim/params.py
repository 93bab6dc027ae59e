"""Flat parameter vectors and the one ordered weighted sum over them.

A model's parameters live in named, shaped tensors only at the model
boundary.  Between client training and the server step they travel as a
single flat float64 vector paired with a :class:`ShapeManifest` that
remembers how to restore the tensor structure.  Server steps compute on the
raw ``values`` arrays and wrap only what they hand back in a
:class:`ParamVector`, which is where finiteness is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .exceptions import NumericError, ShapeMismatchError


@dataclass(frozen=True)
class ShapeManifest:
    """Ordered (name, shape) entries describing one model architecture.

    The entry order is fixed for a given architecture so that
    :meth:`ParamVector.from_tensors` and :meth:`ParamVector.to_tensors` are
    exact inverses.
    """

    entries: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        for name, shape in self.entries:
            if not shape or any(int(d) < 1 for d in shape):
                raise ValueError(f"manifest entry {name!r} has invalid shape {shape}")

    @cached_property
    def total_size(self) -> int:
        # Read by every ParamVector construction, so it is summed once.
        return sum(math.prod(shape) for _, shape in self.entries)

    @classmethod
    def from_shapes(cls, shapes: Sequence[tuple[str, Sequence[int]]]) -> "ShapeManifest":
        return cls(tuple((name, tuple(int(d) for d in shape)) for name, shape in shapes))


@dataclass(frozen=True)
class ParamVector:
    """One model's full parameter set, flattened to a float64 vector.

    The underlying array is copied on construction and marked read-only, so
    instances are safe to share across concurrently training clients.  All
    entries must be finite.
    """

    values: np.ndarray
    manifest: ShapeManifest

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        if arr.size != self.manifest.total_size:
            raise ShapeMismatchError(
                f"vector has {arr.size} values but manifest expects "
                f"{self.manifest.total_size}"
            )
        if not np.isfinite(arr).all():
            raise NumericError("parameter vector contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def with_values(self, values: np.ndarray) -> "ParamVector":
        """New vector with the same manifest (validated on construction)."""
        return ParamVector(values, self.manifest)

    @classmethod
    def from_tensors(cls, tensors: Sequence[tuple[str, np.ndarray]]) -> "ParamVector":
        """Flatten named tensors in the given order."""
        manifest = ShapeManifest.from_shapes([(n, t.shape) for n, t in tensors])
        flat = np.concatenate([np.asarray(t, dtype=np.float64).reshape(-1) for _, t in tensors])
        return cls(flat, manifest)

    def to_tensors(self) -> dict[str, np.ndarray]:
        """Restore the named, shaped tensors recorded in the manifest."""
        out: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in self.manifest.entries:
            size = math.prod(shape)
            out[name] = self.values[offset : offset + size].reshape(shape)
            offset += size
        return out


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
    if not all(np.isfinite(coeffs)):
        raise NumericError("non-finite coefficient in linear combination")
    manifest = vectors[0].manifest
    if any(v.manifest is not manifest and v.manifest != manifest for v in vectors[1:]):
        raise ShapeMismatchError("parameter vectors do not share a manifest")
    # Overflow surfaces as NumericError when the result vector is built.
    with np.errstate(over="ignore"):
        acc = coeffs[0] * vectors[0].values
        for c, v in zip(coeffs[1:], vectors[1:]):
            acc += c * v.values
    return ParamVector(acc, manifest)

