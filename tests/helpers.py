"""Small shared builders for the test suite."""

import dataclasses

import numpy as np

from fedsim import ClientUpdate, ParamVector, StrategyHyperparams


# The hyperparameters each strategy's server step reads, spelled out apart
# from ``fedsim.strategies.HYPERPARAMS``.
HYPERPARAM_KEYS = {
    "fedavg": (),
    "fedavgm": ("server_lr", "momentum_beta"),
    "fedmedian": ("server_lr",),
    "fedopt": ("server_lr", "tau", "beta1", "beta2", "server_optimizer"),
    "fedyogi": ("server_lr", "tau", "beta1", "beta2", "server_optimizer"),
    "fedavgopt": (),
}
HYPERPARAM_FIELDS = tuple(f.name for f in dataclasses.fields(StrategyHyperparams))


def make_vec(values) -> ParamVector:
    """ParamVector holding ``values``, flattened."""
    return ParamVector(np.asarray(values, dtype=np.float64))


def make_updates(param_rows, counts=None) -> list[ClientUpdate]:
    """One ClientUpdate per row."""
    vectors = [make_vec(row) for row in param_rows]
    if counts is None:
        counts = [1] * len(vectors)
    return [
        ClientUpdate(client_id=f"client_{i}", num_examples=int(n), params=v)
        for i, (v, n) in enumerate(zip(vectors, counts))
    ]


def random_vectors(rng, num, size):
    """A list of ``num`` ParamVectors of length ``size`` with N(0,1) entries."""
    return [ParamVector(rng.normal(size=size)) for _ in range(num)]


def finite_difference_gradient(params, spec, features, labels, h=1e-5):
    """Central-difference loss gradient, coordinate by coordinate."""
    from fedsim import loss_and_gradient

    base = params.values
    numeric = np.zeros_like(base)
    for i in range(base.size):
        bump = np.zeros_like(base)
        bump[i] = h
        plus, _ = loss_and_gradient(params.with_values(base + bump), spec, features, labels)
        minus, _ = loss_and_gradient(params.with_values(base - bump), spec, features, labels)
        numeric[i] = (plus - minus) / (2.0 * h)
    return numeric
