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
from itertools import groupby
from typing import TYPE_CHECKING, Sequence

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


def _check_dataset(spec: ModelSpec, dataset: "Dataset", use: str) -> None:
    """Rejects an empty dataset, one of another feature width, or one naming more
    classes than the model: a Dataset's labels index its names, so this bounds them."""
    if len(dataset) == 0:
        raise ValueError(f"cannot {use} on an empty dataset")
    if dataset.num_classes > spec.num_classes:
        raise ValueError(f"dataset has {dataset.num_classes} classes, model has {spec.num_classes}")
    if dataset.features.shape[1] != spec.input_dim:
        raise ShapeMismatchError(f"features must be (n, {spec.input_dim}), got {dataset.features.shape}")


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

    It is :func:`sgd_train`'s step, which checks each dataset once, so it
    checks only the parameter count: the caller keeps the batch shapes in
    step and every label in [0, num_classes).
    """
    stack = values.shape[:-1]
    layers = _layers(values, spec)
    inputs, logits = _forward(layers, spec, features)
    loss, delta, row_sums = _softmax_cross_entropy(logits, labels)
    delta /= row_sums
    # delta is a fresh C-ordered array, so this reshape is a view of it.
    delta.reshape(-1, spec.num_classes)[np.arange(labels.size), labels.reshape(-1)] -= 1.0
    delta /= labels.shape[-1]

    # Each layer's gradient is written into its views of one flat buffer.
    flat = np.empty(values.shape)
    grads = _layers(flat, spec)
    for k in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grads[k]
        np.matmul(np.swapaxes(inputs[k], -1, -2), delta, out=grad_w)
        delta.sum(axis=-2, out=grad_b)
        if k > 0:
            # The activation is read only for its mask, so the next delta
            # overwrites it; the product has the bits of a fresh one.
            h = inputs[k]
            mask = h > 0 if spec.activation == "relu" else 1.0 - h**2
            delta = np.matmul(delta, np.swapaxes(layers[k][0], -1, -2), out=h)
            delta *= mask
    return (loss if stack else float(loss)), flat


def sgd_train(
    starts: Sequence[ParamVector],
    spec: ModelSpec,
    datasets: Sequence["Dataset"],
    config: TrainConfig,
    seeds: Sequence[int],
) -> np.ndarray:
    """Mini-batch SGD for ``local_epochs`` epochs from each of ``starts`` on
    each dataset, as a read-only float64 (S * K, P) table: with K datasets,
    row ``s * K + i`` is ``starts[s]`` trained on ``datasets[i]``, shuffled
    by ``seeds[i]``.

    Pure function of its arguments, and each row has the bits of a call
    from its start alone on ``datasets[i]`` and ``seeds[i]`` alone.  Each run
    of adjacent datasets of equal size trains as one stack of every (start,
    dataset) pair, with one ``loss_and_gradient`` call per step, and steps
    its own slice of the (S, K, P) table it returns in place; each epoch's
    batches are gathered once into one buffer, which every start reads
    through a broadcast view.  A model that diverges comes back as a
    non-finite row, not as an error; numpy's overflow and invalid-value
    warnings are silenced meanwhile.  Each dataset is checked once, before
    any training, as :func:`evaluate` checks it.
    """
    if len(datasets) != len(seeds):
        raise ValueError(f"{len(datasets)} datasets but {len(seeds)} seeds")
    if len(starts) == 0:
        raise ValueError("need at least one starting model")
    trained = np.empty((len(starts), len(datasets), spec.num_params))
    for s, start in enumerate(starts):
        _layers(start.values, spec)  # rejects a start of another length before any training
        trained[s] = start.values
    rngs = [np.random.default_rng(checked("seed", seed, int, {"ge": 0})) for seed in seeds]
    for dataset in datasets:
        _check_dataset(spec, dataset, "train")
    lr, size = config.learning_rate, config.batch_size
    lo = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n, run in groupby(datasets, len):
            run = list(run)
            values = trained[:, lo : lo + len(run)]
            x = np.empty((len(run), n, spec.input_dim))
            y = np.empty((len(run), n), dtype=np.int64)
            # Every start reads the one buffer; a stacked product has the bits
            # of one product per slice, where concatenated rows would not.
            xs = np.broadcast_to(x, (len(starts), *x.shape))
            ys = np.broadcast_to(y, (len(starts), *y.shape))
            full = n - n % size
            for _ in range(config.local_epochs):
                for row, dataset in enumerate(run):
                    # Each batch's rows in sorted order, then the ragged tail
                    # sorted: the full-batch case is then bit-identical to a
                    # single loss_and_gradient step.
                    order = rngs[lo + row].permutation(n)
                    order[:full].reshape(-1, size).sort(axis=1)
                    order[full:].sort()
                    np.take(dataset.features, order, axis=0, out=x[row], mode="clip")
                    np.take(dataset.labels, order, out=y[row], mode="clip")
                for offset in range(0, n, size):
                    batch = slice(offset, offset + size)
                    grad = loss_and_gradient(values, spec, xs[:, :, batch], ys[:, :, batch])[1]
                    grad *= lr  # the bits of values - lr * grad, with no temporary
                    values -= grad
                    del grad  # released before the next step builds its own
            lo += len(run)
    table = trained.reshape(-1, spec.num_params)
    table.setflags(write=False)
    return table


def _score(model: np.ndarray, spec: ModelSpec, dataset: "Dataset") -> dict[str, float]:
    if np.ndim(model) != 1:
        raise ShapeMismatchError(f"a model must be a flat vector, got shape {np.shape(model)}")
    _check_dataset(spec, dataset, "evaluate")
    x, y = dataset.features, dataset.labels
    _, logits = _forward(_layers(model, spec), spec, x)
    loss = float(_softmax_cross_entropy(logits, y)[0])
    hits = np.argmax(logits, axis=1) == y
    # np.argmax picks a row's first NaN; any NaN logit makes the loss NaN.
    if np.isnan(loss):
        hits &= ~np.isnan(logits).any(axis=1)
    # A Python float: its repr goes into history.csv.
    return {"accuracy": int(np.count_nonzero(hits)) / x.shape[0], "loss": loss}


def evaluate(
    models: Sequence[np.ndarray], spec: ModelSpec, datasets: Sequence["Dataset"]
) -> list[dict[str, float]]:
    """Accuracy (argmax, ties to the lowest class index) and mean
    cross-entropy of ``models[i]`` on ``datasets[i]``, one dict per pair.

    Each model is a flat (P,) array, such as a row of :func:`sgd_train`'s
    table; anything else raises :class:`ShapeMismatchError`.  Each pair is
    its own forward pass: a pass stacked over the pairs copies every test
    set and runs no faster.  A model whose logits overflow scores a
    non-finite loss, and a row with a NaN logit counts as a miss; numpy's
    overflow and invalid-value warnings are silenced meanwhile.
    """
    if len(models) != len(datasets):
        raise ValueError(f"{len(models)} models but {len(datasets)} datasets")
    with np.errstate(over="ignore", invalid="ignore"):
        return [_score(model, spec, dataset) for model, dataset in zip(models, datasets)]
