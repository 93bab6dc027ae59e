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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .exceptions import Config, NumericError, ShapeMismatchError, bounded, checked
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
    :class:`ModelSpec` describes, or of each vector of a (..., P) stack of
    them: shapes (..., fan_in, fan_out) and (..., fan_out).  A vector of
    any other size is rejected."""
    if flat.shape[-1] != spec.num_params:
        raise ShapeMismatchError(
            f"model expects {spec.num_params} parameters, got {flat.shape[-1]}"
        )
    stack = flat.shape[:-1]
    return [
        (flat[..., w:b].reshape(*stack, *shape), flat[..., b:end])
        for w, b, end, shape in spec._slices
    ]


def _check_features(spec: ModelSpec, features: np.ndarray, stack: tuple[int, ...] = ()) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != len(stack) + 2 or x.shape[:-2] != stack or x.shape[-1] != spec.input_dim:
        dims = ", ".join([*map(str, stack), "n", str(spec.input_dim)])
        raise ShapeMismatchError(f"features must be ({dims}), got {x.shape}")
    return x


def _forward(layers: list[tuple[np.ndarray, np.ndarray]], spec: ModelSpec, x: np.ndarray):
    """Returns (per-layer inputs, logits); with stacked layers, the model at
    each stack index reads the features at that index, one product per slice.

    Each hidden activation overwrites its pre-activation, which backprop
    does not need: relu's mask is ``h > 0`` and tanh's derivative is
    ``1 - h**2``, the same bits as computed from the pre-activation.
    """
    inputs = [x]
    h = x
    for k, (w, b) in enumerate(layers):
        z = h @ w
        z += b[..., None, :]
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean cross-entropy of ``logits`` (..., n, C) against labels ``y``
    (..., n), one per leading index, with the max-shifted exponentials and
    their (..., n, 1) row sums, by which the softmax divides.  The sum over n
    is the bits of ``np.mean``.

    The row max reduces a class-major copy: a max along a short last axis
    costs numpy about 60 ns a row.  A max is exact, so no bit changes; the
    row sums, whose order matters, stay along the last axis.
    """
    rows = logits.reshape(-1, logits.shape[-1])
    max_logit = rows.T.copy().max(axis=0).reshape(*y.shape, 1)
    exp = np.exp(logits - max_logit)
    row_sums = exp.sum(axis=-1, keepdims=True)
    log_norm = max_logit[..., 0] + np.log(row_sums[..., 0])
    picked = rows[np.arange(y.size), y.reshape(-1)].reshape(y.shape)
    return (log_norm - picked).sum(axis=-1) / y.shape[-1], exp, row_sums


def _check_labels(spec: ModelSpec, labels: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    y = np.asarray(labels)
    if y.shape != shape:
        raise ValueError(f"labels must have shape {shape}, got {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= spec.num_classes):
        raise ValueError(
            f"labels must lie in [0, {spec.num_classes}), got range "
            f"[{y.min()}, {y.max()}]"
        )
    return y.astype(np.int64, copy=False)


def loss_and_gradient(
    values: np.ndarray, spec: ModelSpec, features: np.ndarray, labels: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy over the batch and its exact gradient.

    ``values`` is the flat weight vector laid out as ``spec`` describes, with
    ``features`` (n, d) and ``labels`` (n,); the loss comes back as a float.
    With leading stack axes, ``values`` (..., P), ``features`` (..., n, d)
    and ``labels`` (..., n), each model is scored on the batch at its own
    index: the losses come back as an array of the stack's shape and the
    gradients as (..., P), and each slice has the bits of the unstacked call
    on it.  ``features`` and ``labels`` may be read-only broadcast views.
    The gradient is a fresh, writable float64 array; neither ``values`` nor
    ``features`` is written to.
    """
    if np.ndim(values) == 0:
        raise ShapeMismatchError(f"values must be (..., P), got {np.shape(values)}")
    stack = values.shape[:-1]
    x = _check_features(spec, features, stack)
    y = _check_labels(spec, labels, x.shape[:-1])
    layers = _layers(values, spec)
    inputs, logits = _forward(layers, spec, x)
    loss, delta, row_sums = _softmax_cross_entropy(logits, y)
    delta /= row_sums
    # delta is a fresh C-ordered array, so this reshape is a view of it.
    delta.reshape(-1, spec.num_classes)[np.arange(y.size), y.reshape(-1)] -= 1.0
    delta /= y.shape[-1]

    # Each layer's gradient is written into its views of one flat buffer.
    flat = np.empty(values.shape)
    grads = _layers(flat, spec)
    for k in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grads[k]
        np.matmul(np.swapaxes(inputs[k], -1, -2), delta, out=grad_w)
        delta.sum(axis=-2, out=grad_b)
        if k > 0:
            delta = delta @ np.swapaxes(layers[k][0], -1, -2)
            h = inputs[k]
            if spec.activation == "relu":
                delta *= h > 0
            else:
                delta *= 1.0 - h**2
    return (loss if stack else float(loss)), flat


def sgd_train(
    starts: Sequence[ParamVector],
    spec: ModelSpec,
    datasets: Sequence["Dataset"],
    config: TrainConfig,
    seeds: Sequence[int],
) -> list[ParamVector]:
    """Mini-batch SGD for ``local_epochs`` epochs from each of ``starts`` on
    each dataset: with K datasets, entry ``s * K + i`` of the result is
    ``starts[s]`` trained on ``datasets[i]``, shuffled by ``seeds[i]``.

    Pure function of its arguments, and each entry has the bits of a call
    from its start alone on ``datasets[i]`` and ``seeds[i]`` alone.  Datasets
    of equal size train as one stack of every (start, dataset) pair, with one
    ``loss_and_gradient`` call per step; each epoch's batches are gathered
    once into one buffer, which every start reads through a broadcast view.
    Each stack steps one working copy of its weights in place.  Finiteness
    is checked once, on the results in result order, because an entry that
    goes non-finite under ``values -= lr * grad`` stays so; the
    ``NumericError`` of the first non-finite model carries its position as
    ``index``.  numpy's overflow and invalid-value warnings are silenced
    meanwhile, so a diverging run reports only that error.
    """
    if len(datasets) != len(seeds):
        raise ValueError(f"{len(datasets)} datasets but {len(seeds)} seeds")
    if len(starts) == 0:
        raise ValueError("need at least one starting model")
    rngs = [np.random.default_rng(checked("seed", seed, int, {"ge": 0})) for seed in seeds]
    stacks: dict[int, list[int]] = {}
    for i, dataset in enumerate(datasets):
        if len(dataset) == 0:
            raise ValueError("cannot train on an empty dataset")
        _check_features(spec, dataset.features)
        stacks.setdefault(len(dataset), []).append(i)
    origins = np.stack([start.values for start in starts])
    lr, size, count = config.learning_rate, config.batch_size, len(datasets)
    trained: list = [None] * (len(starts) * count)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, members in stacks.items():
            values = np.repeat(origins[:, None], len(members), axis=1)
            x = np.empty((len(members), n, spec.input_dim))
            y = np.empty((len(members), n), dtype=np.int64)
            # Every start reads the one buffer; a stacked product has the bits
            # of one product per slice, where concatenated rows would not.
            xs = np.broadcast_to(x, (len(starts), *x.shape))
            ys = np.broadcast_to(y, (len(starts), *y.shape))
            full = n - n % size
            for _ in range(config.local_epochs):
                for row, i in enumerate(members):
                    # Each batch's rows in sorted order, then the ragged tail
                    # sorted: the full-batch case is then bit-identical to a
                    # single loss_and_gradient step.
                    order = rngs[i].permutation(n)
                    order[:full].reshape(-1, size).sort(axis=1)
                    order[full:].sort()
                    np.take(datasets[i].features, order, axis=0, out=x[row], mode="clip")
                    np.take(datasets[i].labels, order, out=y[row], mode="clip")
                for offset in range(0, n, size):
                    batch = slice(offset, offset + size)
                    grad = loss_and_gradient(values, spec, xs[:, :, batch], ys[:, :, batch])[1]
                    grad *= lr  # the bits of values - lr * grad, with no temporary
                    values -= grad
            for s in range(len(starts)):
                for row, i in enumerate(members):
                    trained[s * count + i] = values[s, row]
    results: list[ParamVector] = []
    for values in trained:
        try:
            results.append(ParamVector(values))
        except NumericError as exc:
            exc.index = len(results)
            raise
    return results


def _score(params: ParamVector, spec: ModelSpec, dataset: "Dataset") -> dict[str, float]:
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    # A Dataset's labels index its class names, so this bounds every label.
    if dataset.num_classes > spec.num_classes:
        raise ValueError(f"dataset has {dataset.num_classes} classes, model has {spec.num_classes}")
    x = _check_features(spec, dataset.features)
    y = dataset.labels
    _, logits = _forward(_layers(params.values, spec), spec, x)
    loss = float(_softmax_cross_entropy(logits, y)[0])
    hits = np.argmax(logits, axis=1) == y
    # np.argmax picks a row's first NaN; any NaN logit makes the loss NaN.
    if np.isnan(loss):
        hits &= ~np.isnan(logits).any(axis=1)
    # A Python float: its repr goes into history.csv.
    return {"accuracy": int(np.count_nonzero(hits)) / x.shape[0], "loss": loss}


def evaluate(
    models: Sequence[ParamVector], spec: ModelSpec, datasets: Sequence["Dataset"]
) -> list[dict[str, float]]:
    """Accuracy (argmax, ties to the lowest class index) and mean
    cross-entropy of ``models[i]`` on ``datasets[i]``, one dict per pair.

    Each pair is its own forward pass: a pass stacked over the pairs copies
    every test set and runs no faster.  A finite model whose logits overflow
    scores a non-finite loss, and a row with a NaN logit counts as a miss;
    numpy's overflow and invalid-value warnings are silenced meanwhile.
    """
    if len(models) != len(datasets):
        raise ValueError(f"{len(models)} models but {len(datasets)} datasets")
    with np.errstate(over="ignore", invalid="ignore"):
        return [_score(params, spec, dataset) for params, dataset in zip(models, datasets)]
