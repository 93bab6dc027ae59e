"""Stacked products against per-slice ones, under whatever BLAS kernel runs.

``loss_and_gradient`` on a (K, P) stack must return, for every k, the bits of
the unstacked call on slice k, and so must it on an (S, K, P) stack whose
features and labels are broadcast over S.  ``sgd_train``, which trains each
run of adjacent datasets of equal size as one stack stepping its own slice
of the returned table, must return the bits of one call per dataset, and
with S starts the bits of one call per (start, dataset) pair.  Run as a
script, this checks all four on the geometries of the benchmark workloads
and of smaller ragged ones, prints ``ok`` and exits 0, or names the first
mismatch and exits 1.  ``tests/test_golden.py`` runs it once per OpenBLAS
kernel the host can run.
"""

from __future__ import annotations

import sys

import numpy as np

from fedsim import Dataset, ModelSpec, TrainConfig, init_params, sgd_train
from fedsim.models import loss_and_gradient

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


def check_broadcast_steps(starts: int = 3) -> list[str]:
    """Each STEPS geometry with ``starts`` weight stacks over one batch stack,
    as sgd_train steps S starts: the batches are broadcast over S."""
    problems = []
    for case, (spec, stack, rows) in enumerate(STEPS):
        rng = np.random.default_rng([case, starts])
        values = 0.3 * rng.normal(size=(starts, stack, spec.num_params))
        x = rng.normal(size=(stack, rows, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=(stack, rows))
        losses, grads = loss_and_gradient(
            values, spec, np.broadcast_to(x, (starts, *x.shape)), np.broadcast_to(y, (starts, *y.shape))
        )
        for s in range(starts):
            for k in range(stack):
                loss, grad = loss_and_gradient(values[s, k], spec, x[k], y[k])
                if float(losses[s, k]) != loss or grads[s, k].tobytes() != grad.tobytes():
                    problems.append(
                        f"broadcast step case {case} (S={starts}, K={stack}, B={rows}): slice ({s}, {k}) differs"
                    )
    return problems


def check_training() -> list[str]:
    """Interleaved sizes, three runs, and adjacent runs, two of them."""
    spec = ModelSpec(input_dim=50, hidden_dims=(64,), num_classes=4)
    rng = np.random.default_rng(7)
    names = tuple(f"class_{c}" for c in range(spec.num_classes))
    config = TrainConfig(learning_rate=0.1, batch_size=32, local_epochs=2)
    seeds = [0, 1, 2, 3]
    problems = []
    for sizes in ((100, 100, 70, 100), (100, 100, 70, 70)):
        datasets = [
            Dataset(rng.normal(size=(n, spec.input_dim)), rng.integers(0, 4, size=n), names)
            for n in sizes
        ]
        for starts in ([init_params(spec, 0)], [init_params(spec, s) for s in range(3)]):
            trained = sgd_train(starts, spec, datasets, config, seeds)
            for s, start in enumerate(starts):
                for i, (data, seed) in enumerate(zip(datasets, seeds)):
                    alone = sgd_train([start], spec, [data], config, [seed])[0]
                    if trained[s * len(datasets) + i].tobytes() != alone.tobytes():
                        problems.append(
                            f"sgd_train {sizes} (S={len(starts)}): model ({s}, {i}) differs from its own run"
                        )
    return problems


if __name__ == "__main__":
    found = check_steps() + check_broadcast_steps() + check_training()
    print("\n".join(found) or "ok")
    sys.exit(1 if found else 0)
