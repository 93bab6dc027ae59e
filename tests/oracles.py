"""Slow, obvious reference implementations that fast paths are tested against.

``minimize`` is the list-based Nelder-Mead simplex that re-sorts its
vertices every iteration; :func:`fedsim.nelder_mead.minimize`, which keeps
its vertex rows sorted by insertion, must agree with it bit for bit.

``objective_f`` is the fedavgopt objective by its definition: the candidate
aggregate built over the full vectors and each client's two distances taken
with ``np.linalg.norm``.  The closure :func:`fedsim.strategies.objective_f`
returns, which takes the norms in the QR factor of the client basis, must
agree with it to rounding.

``gram_objective`` builds a fresh array for every intermediate of each call;
the closure :func:`fedsim.strategies.objective_f` returns, which writes
them into buffers it allocates once, must return the same bits.

``forward`` is the model's forward pass keeping every pre-activation, with
each activation a fresh array; ``loss_and_gradient``, ``evaluate`` and
``sgd_train`` are written on it with plain per-layer numpy arrays, no
``ParamVector``, and backprop derives the activation derivatives from the
pre-activations.  The fedsim functions of the same names, which overwrite
pre-activations in place and write gradients into one flat buffer, must
match them bit for bit.

``compare_strategies`` runs every (rule, seed) pair as its own
``run_federation``, a sequential round loop that trains only that rule's
clients, round 1 included; :func:`fedsim.orchestrator.compare_strategies`,
which advances every rule one round at a time and trains all of a round's
(rule, client) pairs in one ``sgd_train`` call, must write the same files.

``aggregate_fedavgm``, ``aggregate_fedmedian`` and ``aggregate_fedopt`` build
every intermediate as a checked ``ParamVector`` through ``linear_combination``;
the ``step`` methods of the rules in :mod:`fedsim.strategies`, unchecked
kernels on raw arrays, must match them bit for bit, global model and carried
state alike.

``load_csv`` parses each cell into its own Python float, keeps one list per
row and converts them all at the end; :func:`fedsim.data.load_csv`, which
parses chunks of plain rows with one ``np.loadtxt`` call each, streams the
rest through the csv module into one float64 buffer and scans cells one by
one only in a row that fails, must return the same bits or raise the same
message.

``subset`` takes rows through the public ``Dataset`` constructor, which
copies and re-checks them; :meth:`fedsim.Dataset.subset`, which freezes a
fresh fancy index in place, must hold the same bits, read-only.

``stratified_partition`` and ``stratified_train_test_split`` each run their
own per-class loop and take rows through ``subset``; :mod:`fedsim.data`,
which deals both through one routine, must return the same rows in the same
order or raise the same error.

``generate_blobs`` draws each class's noise in its own call and joins the
classes with ``np.concatenate``; :func:`fedsim.generate_blobs`, which draws
all of the noise in one call and scales and shifts it in place, must return
the same bits.

``stream_seeds`` spawns a config seed's streams as numpy's documented
parallel-streams recipe does: the seed's root ``SeedSequence`` spawns one
child per stream, and a stream's child one per client;
:func:`fedsim.stream_seed`, which builds each child from its spawn key
directly, must give the same seeds.  ``make_client_shards`` and
``run_federation`` take every seed they draw from it.

``init_params`` lays out each layer's weight and bias itself and joins them
with ``np.concatenate``; :func:`fedsim.init_params`, which draws each weight
into its view of a zeroed vector laid out by the spec, must return the same
bits.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import re
from typing import Callable, Sequence

import numpy as np

import fedsim
from fedsim import (
    Aggregator,
    ClientRoundMetrics,
    ClientShard,
    ClientUpdate,
    ComparisonResult,
    Dataset,
    FedAvgM,
    FederationConfig,
    FedMedian,
    FedOpt,
    MinimizeResult,
    ModelSpec,
    NumericError,
    ParamVector,
    RoundReport,
    SimplexConfig,
    StrategyRun,
    aggregate_fedavg,
    weighted_accuracy,
)
from fedsim.exceptions import CsvParseError, checked
from fedsim.nelder_mead import Objective
from fedsim.params import linear_combination as ordered_sum
from fedsim.strategies import DENOMINATOR_FLOOR, Rule, _params_and_counts, candidate_aggregate


def minimize(objective: Objective, x0: Sequence[float], config: SimplexConfig = SimplexConfig()) -> MinimizeResult:
    """Minimize ``objective`` from ``x0`` until the simplex collapses.

    Convergence requires both the infinity-norm spread of the vertices
    around the best one to fall below ``x_tolerance`` and the best-to-worst
    objective spread to fall below ``f_tolerance``.  The returned point is
    never worse than the start: ``x0`` is itself a vertex of the initial
    simplex and the best vertex value is non-increasing across iterations.

    Raises :class:`NumericError` if the objective is non-finite at ``x0``.
    """
    start = np.asarray(x0, dtype=np.float64).reshape(-1)
    dim = start.size
    if dim < 1:
        raise ValueError("x0 must have dimension >= 1")
    max_iter = config.resolved_max_iterations(dim)
    reflection, expansion, contraction, shrink = config.coefficients(dim)

    def evaluate(x: np.ndarray) -> float:
        value = float(objective(x))
        return value if math.isfinite(value) else math.inf

    f0 = float(objective(start))
    if not math.isfinite(f0):
        raise NumericError("objective is non-finite at the start point")

    # Simplex state: parallel lists of vertices, stored objective values and
    # creation ids.  Ordering ties break on creation id for determinism.
    vertices: list[np.ndarray] = [start.copy()]
    fvalues: list[float] = [f0]
    created: list[int] = [0]
    next_id = 1
    for i in range(dim):
        vertex = start.copy()
        vertex[i] += config.initial_step
        vertices.append(vertex)
        fvalues.append(evaluate(vertex))
        created.append(next_id)
        next_id += 1

    def reorder() -> None:
        order = sorted(range(dim + 1), key=lambda k: (fvalues[k], created[k]))
        nonlocal vertices, fvalues, created
        vertices = [vertices[k] for k in order]
        fvalues = [fvalues[k] for k in order]
        created = [created[k] for k in order]

    iterations = 0
    converged = False
    while True:
        reorder()
        best = vertices[0]
        x_spread = max(float(np.max(np.abs(v - best))) for v in vertices[1:])
        f_spread = fvalues[-1] - fvalues[0]
        if x_spread < config.x_tolerance and f_spread < config.f_tolerance:
            converged = True
            break
        if iterations >= max_iter:
            break
        iterations += 1

        centroid = np.mean(np.stack(vertices[:-1]), axis=0)
        worst = vertices[-1]
        f_worst = fvalues[-1]
        f_second = fvalues[-2]

        def replace_worst(x: np.ndarray, fx: float) -> None:
            nonlocal next_id
            vertices[-1] = x
            fvalues[-1] = fx
            created[-1] = next_id
            next_id += 1

        x_reflect = centroid + reflection * (centroid - worst)
        f_reflect = evaluate(x_reflect)

        if f_reflect < fvalues[0]:
            x_expand = centroid + expansion * (centroid - worst)
            f_expand = evaluate(x_expand)
            if f_expand < f_reflect:
                replace_worst(x_expand, f_expand)
            else:
                replace_worst(x_reflect, f_reflect)
        elif f_reflect < f_second:
            replace_worst(x_reflect, f_reflect)
        elif f_reflect < f_worst:
            # Outside contraction, between centroid and reflected point.
            x_contract = centroid + contraction * (x_reflect - centroid)
            f_contract = evaluate(x_contract)
            if f_contract <= f_reflect:
                replace_worst(x_contract, f_contract)
            else:
                _shrink(vertices, fvalues, created, shrink, evaluate)
                next_id = max(created) + 1
        else:
            # Inside contraction, between centroid and the worst vertex.
            x_contract = centroid - contraction * (centroid - worst)
            f_contract = evaluate(x_contract)
            if f_contract < f_worst:
                replace_worst(x_contract, f_contract)
            else:
                _shrink(vertices, fvalues, created, shrink, evaluate)
                next_id = max(created) + 1

    best_x = vertices[0].copy()
    best_x.setflags(write=False)
    return MinimizeResult(
        x_star=best_x,
        f_star=fvalues[0],
        iterations=iterations,
        converged=converged,
    )


def _shrink(
    vertices: list[np.ndarray],
    fvalues: list[float],
    created: list[int],
    factor: float,
    evaluate: Callable[[np.ndarray], float],
) -> None:
    """Pull every non-best vertex toward the best one, re-evaluating each."""
    best = vertices[0]
    base = max(created) + 1
    for i in range(1, len(vertices)):
        vertices[i] = best + factor * (vertices[i] - best)
        fvalues[i] = evaluate(vertices[i])
        created[i] = base + i - 1


def objective_f(
    x: Sequence[float],
    client_params: Sequence[ParamVector],
    counts: Sequence[int],
) -> float:
    """Sum over clients of ||w(x) - w_j|| / ||w(x) + w_j|| for the candidate
    aggregate w(x), with the denominator floored at ``DENOMINATOR_FLOOR``,
    each norm taken over the full vectors."""
    candidate = candidate_aggregate(client_params, counts, x)
    return sum(
        float(np.linalg.norm(candidate - w.values))
        / max(float(np.linalg.norm(candidate + w.values)), DENOMINATOR_FLOOR)
        for w in client_params
    )


def gram_objective(
    client_params: Sequence[ParamVector],
    counts: Sequence[int],
) -> Objective:
    """The fedavgopt objective in the QR factor of the client basis, each
    call allocating its intermediates; the closure
    :func:`fedsim.strategies.objective_f` returns, which writes them into
    buffers it keeps, must return the same bits."""
    weights = np.asarray(counts, dtype=np.float64) / float(sum(counts))
    stacked = np.stack([w.values for w in client_params])
    _, exponent = math.frexp(float(np.max(np.abs(stacked))))
    stacked = np.ldexp(stacked, -exponent)
    floor = math.ldexp(DENOMINATOR_FLOOR, -exponent)
    mean = weights @ stacked
    r = np.linalg.qr(np.vstack([stacked - mean, mean]).T, mode="r")
    k = len(weights)
    # -R[:, j] and +R[:, j]: client j's column, signed for each side.
    clients = np.stack([-r[:, :k], r[:, :k]])
    coeffs = np.empty((2, k + 1))

    def evaluate(x: np.ndarray) -> float:
        c = weights * x
        s = float(np.add.reduce(c))
        # Side 0 is w(x) - w_j, side 1 is w(x) + w_j; column j is client j.
        coeffs[:, :k] = c
        coeffs[:, k] = (s - 1.0, s + 1.0)
        diffs = (coeffs @ r.T)[:, :, None] + clients
        norms = np.sqrt(np.einsum("smk,smk->sk", diffs, diffs))
        value = float(np.add.reduce(norms[0] / np.maximum(norms[1], floor)))
        return value if math.isfinite(value) else math.inf

    return evaluate


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Weights uniform in +-1/sqrt(fan_in), biases zero, layer by layer."""
    rng = np.random.default_rng(seed)
    flat = []
    for fan_in, fan_out in spec.layer_dims():
        bound = 1.0 / np.sqrt(fan_in)
        flat.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).reshape(-1))
        flat.append(np.zeros(fan_out))
    return ParamVector(np.concatenate(flat))


def _split(values: np.ndarray, layer_dims: Sequence[tuple[int, int]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Copies of each dense layer's (fan_in, fan_out) weight matrix and bias
    from a flat vector holding them layer by layer, weight row-major first."""
    layers = []
    offset = 0
    for fan_in, fan_out in layer_dims:
        w = values[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = values[offset : offset + fan_out]
        offset += fan_out
        layers.append((w.copy(), b.copy()))
    return layers


def forward(layers: Sequence[tuple[np.ndarray, np.ndarray]], activation: str, x: np.ndarray):
    """Returns (per-layer inputs, pre-activations, logits), each activation a
    fresh array computed from its kept pre-activation."""
    inputs, pre_acts = [x], []
    for k, (w, b) in enumerate(layers):
        z = inputs[-1] @ w + b
        pre_acts.append(z)
        if k < len(layers) - 1:
            inputs.append(np.maximum(z, 0.0) if activation == "relu" else np.tanh(z))
    return inputs, pre_acts, pre_acts[-1]


def _softmax(logits: np.ndarray) -> np.ndarray:
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


def _mean_cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    max_logit = logits.max(axis=1, keepdims=True)
    log_norm = max_logit[:, 0] + np.log(np.exp(logits - max_logit).sum(axis=1))
    return float(np.mean(log_norm - logits[np.arange(y.shape[0]), y]))


def _backprop(layers, activation, inputs, pre_acts, delta) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weight, bias) gradients, given the logits' gradient."""
    grads = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        grads[k] = (inputs[k].T @ delta, delta.sum(axis=0))
        if k > 0:
            upstream = delta @ layers[k][0].T
            z = pre_acts[k - 1]
            if activation == "relu":
                delta = upstream * (z > 0)
            else:
                delta = upstream * (1.0 - np.tanh(z) ** 2)
    return grads


def _logit_gradient(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    m = logits.shape[0]
    delta = _softmax(logits)
    delta[np.arange(m), y] -= 1.0
    delta /= m
    return delta


def loss_and_gradient(
    values: np.ndarray,
    layer_dims: Sequence[tuple[int, int]],
    activation: str,
    features: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its flat gradient, laid out like ``values``."""
    layers = _split(values, layer_dims)
    inputs, pre_acts, logits = forward(layers, activation, features)
    grads = _backprop(layers, activation, inputs, pre_acts, _logit_gradient(logits, labels))
    flat = np.concatenate([g.reshape(-1) for pair in grads for g in pair])
    return _mean_cross_entropy(logits, labels), flat


def evaluate(
    values: np.ndarray,
    layer_dims: Sequence[tuple[int, int]],
    activation: str,
    features: np.ndarray,
    labels: np.ndarray,
) -> dict[str, float]:
    """Argmax accuracy (ties to the lowest class) and mean cross-entropy."""
    _, _, logits = forward(_split(values, layer_dims), activation, features)
    accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
    return {"accuracy": accuracy, "loss": _mean_cross_entropy(logits, labels)}


# The random streams of one config seed, in the order that keys them.
STREAMS = ("blobs", "partition", "split", "init", "batches")


def stream_seeds(seed: int, stream: str, count: int = 1) -> list[int]:
    """The seeds of clients 0 to ``count - 1`` of ``stream`` under config
    seed ``seed``: one 64-bit word of each client's spawned child."""
    streams = np.random.SeedSequence(seed).spawn(len(STREAMS))
    clients = streams[STREAMS.index(stream)].spawn(count)
    return [int(child.generate_state(1, np.uint64)[0]) for child in clients]


def sgd_train(
    values: np.ndarray,
    layer_dims: Sequence[tuple[int, int]],
    activation: str,
    features: np.ndarray,
    labels: np.ndarray,
    learning_rate: float,
    batch_size: int,
    local_epochs: int,
    seed: int,
) -> np.ndarray:
    """Mini-batch SGD on mean cross-entropy; returns the flat trained weights.

    Batches are the sorted indices of consecutive slices of one seeded
    permutation per epoch.
    """
    layers = _split(values, layer_dims)
    rng = np.random.default_rng(seed)
    n = features.shape[0]
    for _ in range(local_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = np.sort(perm[start : start + batch_size])
            x, y = features[batch], labels[batch]
            inputs, pre_acts, logits = forward(layers, activation, x)
            grads = _backprop(layers, activation, inputs, pre_acts, _logit_gradient(logits, y))
            layers = [
                (w - learning_rate * gw, b - learning_rate * gb)
                for (w, b), (gw, gb) in zip(layers, grads)
            ]
    return np.concatenate([a.reshape(-1) for layer in layers for a in layer])


def run_federation(
    config: FederationConfig, rule: Rule, shards: Sequence[ClientShard]
) -> list[RoundReport]:
    """``rule``'s federation alone: each round trains the clients from this
    rule's global model in their own ``sgd_train`` call, scores them, steps
    the rule and scores the new global model."""
    trains, tests = [s.train for s in shards], [s.test for s in shards]
    seeds = stream_seeds(config.seed, "batches", len(shards))
    global_params = init_params(config.model, stream_seeds(config.seed, "init")[0])
    aggregator = Aggregator(rule)
    reports = []
    for round_idx in range(1, config.rounds + 1):
        trained = fedsim.sgd_train([global_params], config.model, trains, config.train, seeds)
        per_client = tuple(
            ClientRoundMetrics(shard.client_id, len(shard.test), m["accuracy"], m["loss"])
            for shard, m in zip(shards, fedsim.evaluate(trained, config.model, tests))
        )
        updates = [
            ClientUpdate(shard.client_id, len(shard.train), ParamVector(values))
            for shard, values in zip(shards, trained)
        ]
        global_params = aggregator.aggregate(updates, global_params)
        global_metrics = fedsim.evaluate([global_params.values] * len(shards), config.model, tests)
        reports.append(
            RoundReport(
                round=round_idx,
                per_client=per_client,
                aggregated_accuracy=weighted_accuracy(
                    [(m.num_test_examples, m.accuracy) for m in per_client]
                ),
                global_accuracy=weighted_accuracy(
                    [(len(test), m["accuracy"]) for test, m in zip(tests, global_metrics)]
                ),
                alpha=aggregator.last_alpha,
            )
        )
    return reports


def compare_strategies(
    base_config: FederationConfig,
    rules: Sequence[Rule],
    seeds: Sequence[int],
    shard_factory: Callable[[int], Sequence[ClientShard]],
) -> ComparisonResult:
    """Every (rule, seed) pair as its own :func:`run_federation`."""
    runs = []
    for seed in seeds:
        shards = shard_factory(seed)
        config = dataclasses.replace(base_config, seed=seed)
        for rule in rules:
            runs.append(StrategyRun(rule.name, seed, tuple(run_federation(config, rule, shards))))
    return ComparisonResult(tuple(runs))


def zeros_like(vector: ParamVector) -> ParamVector:
    return ParamVector(np.zeros(len(vector)))


def coordinate_median(vectors: Sequence[ParamVector]) -> ParamVector:
    """Per-coordinate median; even counts use the midpoint of the two middle
    order statistics."""
    stacked = np.stack([v.values for v in vectors], axis=0)
    return ParamVector(np.median(stacked, axis=0))


def linear_combination(vectors: Sequence[ParamVector], coefficients: Sequence[float]) -> ParamVector:
    """The ordered sum of ``coefficients[i] * vectors[i]``, wrapped and so
    checked finite."""
    return ParamVector(ordered_sum(vectors, coefficients))


def aggregate_fedavgm(
    updates: Sequence[ClientUpdate],
    previous_global: ParamVector,
    momentum: ParamVector | None,
    hp: FedAvgM,
) -> tuple[ParamVector, ParamVector]:
    """Server momentum over the pseudo-gradient previous - fedavg.

    v <- beta * v + (previous - fedavg);  next = previous - lr * v.
    With beta = 0 and lr = 1 this collapses to plain fedavg.  The state is v.
    """
    average = ParamVector(aggregate_fedavg(updates))
    delta = linear_combination([previous_global, average], [1.0, -1.0])
    momentum = momentum if momentum is not None else zeros_like(previous_global)
    velocity = linear_combination([momentum, delta], [hp.momentum_beta, 1.0])
    new_global = linear_combination([previous_global, velocity], [1.0, -hp.server_lr])
    return new_global, velocity


def aggregate_fedmedian(
    updates: Sequence[ClientUpdate],
    previous_global: ParamVector,
    hp: FedMedian,
) -> ParamVector:
    """Step from the previous global along the coordinate-median
    pseudo-gradient; at lr = 1 this is exactly the coordinate median of the
    client parameters (translation equivariance)."""
    params, _ = _params_and_counts(updates)
    median = coordinate_median(params)
    if hp.server_lr == 1.0:
        return median
    gradient = linear_combination([previous_global, median], [1.0, -1.0])
    return linear_combination([previous_global, gradient], [1.0, -hp.server_lr])


def aggregate_fedopt(
    updates: Sequence[ClientUpdate],
    previous_global: ParamVector,
    moments: tuple[ParamVector, ParamVector] | None,
    hp: FedOpt,
) -> tuple[ParamVector, tuple[ParamVector, ParamVector]]:
    """Adaptive server step driven by the averaged client delta.

    delta = fedavg - previous;  m <- beta1 * m + (1 - beta1) * delta, and the
    second moment follows the configured rule (adagrad accumulates, adam
    decays, yogi moves toward delta^2 by sign).  The step is
    lr * m / (sqrt(v) + tau), or just lr * m for the sgd variant.  The second
    moment starts at tau^2 so the first division is well conditioned.  The
    state is (m, v).
    """
    average = ParamVector(aggregate_fedavg(updates))
    delta = linear_combination([average, previous_global], [1.0, -1.0])

    if moments is None:
        m_prev = zeros_like(previous_global)
        v_prev = previous_global.with_values(np.full(len(previous_global), hp.tau**2))
    else:
        m_prev, v_prev = moments
    m = linear_combination([m_prev, delta], [hp.beta1, 1.0 - hp.beta1])

    d2 = delta.values**2
    if hp.server_optimizer == "sgd":
        v = v_prev
        step = hp.server_lr * m.values
    else:
        if hp.server_optimizer == "adagrad":
            v_values = v_prev.values + d2
        elif hp.server_optimizer == "adam":
            v_values = hp.beta2 * v_prev.values + (1.0 - hp.beta2) * d2
        else:  # yogi
            v_values = v_prev.values - (1.0 - hp.beta2) * d2 * np.sign(v_prev.values - d2)
        v = previous_global.with_values(v_values)
        step = hp.server_lr * m.values / (np.sqrt(v.values) + hp.tau)

    new_global = previous_global.with_values(previous_global.values + step)
    return new_global, (m, v)


def load_csv(path: str, label_column: str) -> Dataset:
    """Parse a comma-separated file: header row, numeric feature columns, one
    label column mapped to class indices by first appearance.  A leading
    UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write, is
    dropped."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        header = _csv_row(path, reader, "header")
        if header is None:
            raise CsvParseError(f"{path}: file is empty")
        if label_column not in header:
            raise CsvParseError(
                f"{path}: label column {label_column!r} not found in header {header}"
            )
        label_idx = header.index(label_column)

        rows: list[list[float]] = []
        raw_labels: list[str] = []
        row_num = 0
        while True:
            row_num += 1
            row = _csv_row(path, reader, f"row {row_num}")
            if row is None:
                break
            if len(row) != len(header):
                raise CsvParseError(
                    f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
                )
            values = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = None
                # float() also accepts nan and inf, and rounds 1e400 to inf.
                if value is None or not math.isfinite(value):
                    raise CsvParseError(
                        f"{path}: row {row_num}, column {header[i]!r}: "
                        f"{'non-numeric' if value is None else 'non-finite'} value {cell!r}"
                    )
                values.append(value)
            rows.append(values)
            raw_labels.append(row[label_idx])

    if not rows:
        raise CsvParseError(f"{path}: no data rows")

    class_names: list[str] = []
    mapping: dict[str, int] = {}
    labels = []
    for name in raw_labels:
        if name not in mapping:
            mapping[name] = len(class_names)
            class_names.append(name)
        labels.append(mapping[name])
    return Dataset(np.asarray(rows, dtype=np.float64), np.asarray(labels), tuple(class_names))


def _csv_row(path: str, reader, where: str) -> list[str] | None:
    """The next row of ``reader``, or None at the end; a cell over the csv
    module's field limit, or a byte the ``surrogateescape`` handler kept as
    U+DC80 to U+DCFF, is a fault of the row ``where``."""
    try:
        row = next(reader)
    except StopIteration:
        return None
    except csv.Error as exc:
        limit = csv.field_size_limit()
        if str(exc) == f"field larger than field limit ({limit})":
            raise CsvParseError(f"{path}: {where} has a cell longer than {limit} characters") from None
        raise CsvParseError(f"{path}: {where}: {exc}") from None
    undecoded = re.search("[\udc80-\udcff]", "".join(row))
    if undecoded:
        byte = ord(undecoded.group()) - 0xDC00
        raise CsvParseError(f"{path}: {where} is not UTF-8 text (byte 0x{byte:02x})")
    return row


def subset(dataset: Dataset, indices) -> Dataset:
    return Dataset(dataset.features[indices], dataset.labels[indices], dataset.class_names)


def stratified_partition(dataset: Dataset, num_clients: int, seed: int) -> list[Dataset]:
    """Disjoint cover of the dataset with i.i.d. class proportions: per class,
    shard counts differ by at most one."""
    num_clients = checked("num_clients", num_clients, int, {"ge": 1})
    rng = np.random.default_rng(checked("seed", seed, int, {"ge": 0}))
    per_client_indices: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for c in range(dataset.num_classes):
        class_idx = np.flatnonzero(dataset.labels == c)
        if class_idx.size < num_clients:
            raise ValueError(
                f"class {dataset.class_names[c]!r} has {class_idx.size} samples, "
                f"fewer than {num_clients} clients"
            )
        shuffled = rng.permutation(class_idx)
        for k, chunk in enumerate(np.array_split(shuffled, num_clients)):
            per_client_indices[k].append(chunk)
    shards = []
    for chunks in per_client_indices:
        indices = rng.permutation(np.concatenate(chunks))
        shards.append(subset(dataset, indices))
    return shards


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def stratified_train_test_split(
    dataset: Dataset, train_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Per class, ``round(train_fraction * count)`` rows (half-up, clamped so
    neither side is empty) go to train; the rest to test."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_parts = []
    test_parts = []
    for c in range(dataset.num_classes):
        class_idx = np.flatnonzero(dataset.labels == c)
        count = class_idx.size
        if count < 2:
            raise ValueError(
                f"class {dataset.class_names[c]!r} has {count} samples; "
                "need >= 2 to split"
            )
        n_train = min(max(_round_half_up(train_fraction * count), 1), count - 1)
        shuffled = rng.permutation(class_idx)
        train_parts.append(shuffled[:n_train])
        test_parts.append(shuffled[n_train:])
    train_idx = rng.permutation(np.concatenate(train_parts))
    test_idx = rng.permutation(np.concatenate(test_parts))
    return subset(dataset, train_idx), subset(dataset, test_idx)


def make_client_shards(
    dataset: Dataset, num_clients: int, train_fraction: float, seed: int
) -> list[ClientShard]:
    """Client i's shard: its part of the partition, split on its own stream."""
    parts = stratified_partition(dataset, num_clients, stream_seeds(seed, "partition")[0])
    splits = stream_seeds(seed, "split", num_clients)
    return [
        ClientShard(f"client_{i}", *stratified_train_test_split(part, train_fraction, split))
        for i, (part, split) in enumerate(zip(parts, splits))
    ]


def generate_blobs(
    samples_per_class: int, num_classes: int, dim: int, spread: float, seed: int
) -> Dataset:
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(num_classes, dim))
    features = np.concatenate(
        [
            centers[c] + rng.normal(0.0, 1.0, size=(samples_per_class, dim)) * spread
            for c in range(num_classes)
        ]
    )
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    return Dataset(features, labels, tuple(f"class_{c}" for c in range(num_classes)))
