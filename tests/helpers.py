"""Small shared builders for the test suite."""

import numpy as np

from fedsim import (
    ClientUpdate,
    FedAvg,
    FedAvgM,
    FedAvgOpt,
    FederationConfig,
    FedMedian,
    FedOpt,
    FedYogi,
    ModelSpec,
    ParamVector,
    SimplexConfig,
    TrainConfig,
)
from fedsim.cli import DatasetConfig, ExperimentConfig

# Every config type, listed by hand: each subclasses ``fedsim.exceptions.Config``.
CONFIG_TYPES = (
    DatasetConfig,
    ExperimentConfig,
    ModelSpec,
    TrainConfig,
    FederationConfig,
    SimplexConfig,
    FedAvgM,
    FedMedian,
    FedOpt,
    FedYogi,
    FedAvg,
    FedAvgOpt,
    ClientUpdate,
)

# The fields of each strategy's rule type, which are the settings its server
# step reads, spelled out apart from ``fedsim.strategies.RULES``.
RULE_FIELDS = {
    "fedavg": (),
    "fedavgm": ("server_lr", "momentum_beta"),
    "fedmedian": ("server_lr",),
    "fedopt": ("server_lr", "tau", "beta1", "beta2", "server_optimizer"),
    "fedyogi": ("server_lr", "tau", "beta1", "beta2"),
    "fedavgopt": ("solver",),
}
# The keys of each strategy's ``hyperparams`` section: its rule's fields but
# ``solver``, which the ``solver`` section fills.
HYPERPARAM_KEYS = {
    name: tuple(key for key in keys if key != "solver") for name, keys in RULE_FIELDS.items()
}
# Every key some ``hyperparams`` section accepts.
HYPERPARAM_FIELDS = tuple(dict.fromkeys(key for keys in HYPERPARAM_KEYS.values() for key in keys))


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` for the test with a wrapper that records the
    positional arguments of each call; returns the list of records."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


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
    from fedsim.models import loss_and_gradient

    base = params.values
    numeric = np.zeros_like(base)
    for i in range(base.size):
        bump = np.zeros_like(base)
        bump[i] = h
        plus, _ = loss_and_gradient(base + bump, spec, features, labels)
        minus, _ = loss_and_gradient(base - bump, spec, features, labels)
        numeric[i] = (plus - minus) / (2.0 * h)
    return numeric
