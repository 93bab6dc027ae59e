"""Stacked products against per-slice ones, under whatever BLAS kernel runs.

``loss_and_gradient`` on a (K, P) stack must return, for every k, the bits of
the unstacked call on slice k, and ``sgd_train`` on datasets of equal size,
which trains them as one stack, the bits of one call per dataset.  Run as a
script, this checks both on the geometries of the benchmark workloads and of
smaller ragged ones, prints ``ok`` and exits 0, or names the first mismatch
and exits 1.  ``tests/test_golden.py`` runs it once per OpenBLAS kernel the
host can run.
"""

from __future__ import annotations

import sys

import numpy as np

from fedsim import Dataset, ModelSpec, TrainConfig, init_params, loss_and_gradient, sgd_train

# (spec, stack size K, batch rows B): the blobs, mlp-csv and many-clients
# geometries, then small ragged ones.
STEPS = [
    (ModelSpec(input_dim=20, num_classes=4), 4, 32),
    (ModelSpec(input_dim=50, hidden_dims=(64,), num_classes=4), 4, 32),
    (ModelSpec(input_dim=20, hidden_dims=(64,), num_classes=4), 16, 32),
    (ModelSpec(input_dim=50, hidden_dims=(64,), num_classes=4), 4, 8),
    (ModelSpec(input_dim=4, hidden_dims=(5,), activation="tanh", num_classes=3), 2, 5),
    (ModelSpec(input_dim=6, hidden_dims=(8, 1), activation="relu", num_classes=3), 3, 1),
]


def check_steps() -> list[str]:
    problems = []
    for case, (spec, stack, rows) in enumerate(STEPS):
        rng = np.random.default_rng(case)
        values = 0.3 * rng.normal(size=(stack, spec.num_params))
        x = rng.normal(size=(stack, rows, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=(stack, rows))
        losses, grads = loss_and_gradient(values, spec, x, y)
        for k in range(stack):
            loss, grad = loss_and_gradient(values[k], spec, x[k], y[k])
            if float(losses[k]) != loss or grads[k].tobytes() != grad.tobytes():
                problems.append(f"step case {case} (K={stack}, B={rows}): slice {k} differs")
    return problems


def check_training() -> list[str]:
    spec = ModelSpec(input_dim=50, hidden_dims=(64,), num_classes=4)
    rng = np.random.default_rng(7)
    names = tuple(f"class_{c}" for c in range(spec.num_classes))
    datasets = [
        Dataset(rng.normal(size=(n, spec.input_dim)), rng.integers(0, 4, size=n), names)
        for n in (100, 100, 70, 100)
    ]
    params = init_params(spec, 0)
    config = TrainConfig(learning_rate=0.1, batch_size=32, local_epochs=2)
    seeds = [0, 1, 2, 3]
    trained = sgd_train(params, spec, datasets, config, seeds)
    return [
        f"sgd_train: model {i} differs from its own run"
        for i, (model, data, seed) in enumerate(zip(trained, datasets, seeds))
        if model.values.tobytes() != sgd_train(params, spec, [data], config, [seed])[0].values.tobytes()
    ]


if __name__ == "__main__":
    found = check_steps() + check_training()
    print("\n".join(found) or "ok")
    sys.exit(1 if found else 0)
