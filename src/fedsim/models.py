"""Small differentiable classifiers and the local SGD trainer run by clients.

Models are multinomial logistic regression (no hidden layers) or a dense
MLP with relu/tanh activations and a softmax head, trained with mean
cross-entropy.  Forward, loss, and gradient are all exact closed-form
numpy, which keeps client training deterministic and cheap enough to
finite-difference in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import Config, ShapeMismatchError, bounded, checked
from .params import ParamVector

if TYPE_CHECKING:
    from .data import Dataset

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class ModelSpec(Config):
    """Architecture description and the one owner of the parameter layout: per
    layer of :meth:`layer_dims`, the row-major weight, then the bias."""

    input_dim: int = bounded(ge=1)
    hidden_dims: tuple[int, ...] = bounded((), ge=1)
    activation: str = bounded("relu", choices=ACTIVATIONS)
    num_classes: int = bounded(2, ge=2)

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per dense layer, output layer last."""
        widths = [self.input_dim, *self.hidden_dims, self.num_classes]
        return [(widths[i], widths[i + 1]) for i in range(len(widths) - 1)]

    @cached_property
    def _slices(self) -> tuple[tuple[int, int, int, tuple[int, int]], ...]:
        """Per layer, (weight start, bias start, bias end, weight shape) in
        the flat vector; worked out once per spec."""
        table, offset = [], 0
        for fan_in, fan_out in self.layer_dims():
            bias = offset + fan_in * fan_out
            table.append((offset, bias, bias + fan_out, (fan_in, fan_out)))
            offset = bias + fan_out
        return tuple(table)

    @cached_property
    def num_params(self) -> int:
        return self._slices[-1][2]


@dataclass(frozen=True)
class TrainConfig(Config):
    # lr = 0 is allowed so the zero-step identity is testable.
    learning_rate: float = bounded(0.1, ge=0)
    batch_size: int = bounded(16, ge=1)
    local_epochs: int = bounded(1, ge=1)


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Seeded initialization: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(checked("seed", seed, int, {"ge": 0}))
    flat = np.zeros(spec.num_params)
    for weight, _ in _layers(flat, spec):
        bound = 1.0 / np.sqrt(weight.shape[0])
        weight[...] = rng.uniform(-bound, bound, size=weight.shape)
    return ParamVector(flat)


def _layers(flat: np.ndarray, spec: ModelSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views of each dense layer of a flat vector laid out as
    :class:`ModelSpec` describes; a vector of any other size is rejected."""
    if flat.size != spec.num_params:
        raise ShapeMismatchError(
            f"model expects {spec.num_params} parameters, got {flat.size}"
        )
    return [(flat[w:b].reshape(shape), flat[b:end]) for w, b, end, shape in spec._slices]


def _check_features(spec: ModelSpec, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ShapeMismatchError(
            f"features must be (n, {spec.input_dim}), got {x.shape}"
        )
    return x


def _forward(layers: list[tuple[np.ndarray, np.ndarray]], spec: ModelSpec, x: np.ndarray):
    """Returns (per-layer inputs, logits).

    Each hidden activation overwrites its pre-activation, which backprop
    does not need: relu's mask is ``h > 0`` and tanh's derivative is
    ``1 - h**2``, the same bits as computed from the pre-activation.
    """
    inputs = [x]
    h = x
    for k, (w, b) in enumerate(layers):
        z = h @ w
        z += b
        if k < len(layers) - 1:
            if spec.activation == "relu":
                np.maximum(z, 0.0, out=z)
            else:
                np.tanh(z, out=z)
            inputs.append(z)
        h = z
    return inputs, h


def _softmax_cross_entropy(
    logits: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy of ``logits`` against labels ``y``, with the
    max-shifted exponentials and their (n, 1) row sums, by which the softmax
    divides.  The sum over n is the bits of ``np.mean``."""
    max_logit = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - max_logit)
    row_sums = exp.sum(axis=1, keepdims=True)
    log_norm = max_logit[:, 0] + np.log(row_sums[:, 0])
    n = y.shape[0]
    return float((log_norm - logits[np.arange(n), y]).sum() / n), exp, row_sums


def _check_labels(spec: ModelSpec, labels: np.ndarray, n_rows: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.shape != (n_rows,):
        raise ValueError(f"labels must have shape ({n_rows},), got {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= spec.num_classes):
        raise ValueError(
            f"labels must lie in [0, {spec.num_classes}), got range "
            f"[{y.min()}, {y.max()}]"
        )
    return y.astype(np.int64, copy=False)


def loss_and_gradient(
    values: np.ndarray, spec: ModelSpec, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its exact gradient.

    ``values`` is the flat weight vector laid out as ``spec`` describes.  The
    gradient comes back as a fresh, writable float64 array of the same
    layout; neither ``values`` nor ``features`` is written to.
    """
    x = _check_features(spec, features)
    y = _check_labels(spec, labels, x.shape[0])
    n = x.shape[0]
    layers = _layers(values, spec)
    inputs, logits = _forward(layers, spec, x)
    loss, delta, row_sums = _softmax_cross_entropy(logits, y)
    delta /= row_sums
    delta[np.arange(n), y] -= 1.0
    delta /= n

    # Each layer's gradient is written into its views of one flat buffer.
    flat = np.empty(values.size)
    grads = _layers(flat, spec)
    for k in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grads[k]
        np.matmul(inputs[k].T, delta, out=grad_w)
        delta.sum(axis=0, out=grad_b)
        if k > 0:
            delta = delta @ layers[k][0].T
            h = inputs[k]
            if spec.activation == "relu":
                delta *= h > 0
            else:
                delta *= 1.0 - h**2
    return loss, flat


def sgd_train(
    params: ParamVector, spec: ModelSpec, dataset: "Dataset", config: TrainConfig, seed: int
) -> ParamVector:
    """Mini-batch SGD for ``local_epochs`` epochs, shuffled by ``seed``.

    Pure function of its arguments: the same (params, dataset, config, seed)
    always returns the same vector.  Training steps one working copy of the
    weights in place; finiteness is checked once, on the result, because an
    entry that goes non-finite under ``values -= lr * grad`` stays so.  numpy's
    overflow and invalid-value warnings are silenced meanwhile, so a diverging
    run reports only that ``NumericError``.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = np.random.default_rng(checked("seed", seed, int, {"ge": 0}))
    values = params.values.copy()
    lr, size = config.learning_rate, config.batch_size
    full = n - n % size
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.local_epochs):
            perm = rng.permutation(n)
            # Sorted batch indices keep the full-batch case bit-identical to a
            # single loss_and_gradient step.  One gather covers every full
            # batch; the ragged tail, if any, is its own.
            batches = np.sort(perm[:full].reshape(-1, size), axis=1)
            steps = list(zip(dataset.features[batches], dataset.labels[batches]))
            if full < n:
                tail = np.sort(perm[full:])
                steps.append((dataset.features[tail], dataset.labels[tail]))
            for x, y in steps:
                grad = loss_and_gradient(values, spec, x, y)[1]
                grad *= lr  # the bits of values - lr * grad, with no temporary
                values -= grad
    return ParamVector(values)


def evaluate(params: ParamVector, spec: ModelSpec, dataset: "Dataset") -> dict[str, float]:
    """Accuracy (argmax, ties to the lowest class index) and mean cross-entropy.

    A finite model whose logits overflow scores a non-finite loss, and a row
    with a NaN logit counts as a miss; numpy's overflow and invalid-value
    warnings are silenced meanwhile.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    # A Dataset's labels index its class names, so this bounds every label.
    if dataset.num_classes > spec.num_classes:
        raise ValueError(f"dataset has {dataset.num_classes} classes, model has {spec.num_classes}")
    x = _check_features(spec, dataset.features)
    y = dataset.labels
    n = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        _, logits = _forward(_layers(params.values, spec), spec, x)
        loss = _softmax_cross_entropy(logits, y)[0]
        hits = np.argmax(logits, axis=1) == y
        # np.argmax picks a row's first NaN; any NaN logit makes the loss NaN.
        if np.isnan(loss):
            hits &= ~np.isnan(logits).any(axis=1)
    # A Python float: its repr goes into history.csv.
    return {"accuracy": int(np.count_nonzero(hits)) / n, "loss": loss}
