import csv
import dataclasses
import filecmp
import json
import logging
import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

import fedsim.cli
import oracles
from fedsim import (
    ClientUpdate,
    ComparisonResult,
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
from fedsim.cli import (
    HISTORY_HEADER,
    DatasetConfig,
    ExperimentConfig,
    _init_logging,
    emit_plot_data,
    main,
    parse_config,
    run_comparison,
    run_experiment,
)
from fedsim.exceptions import Config, ConfigError
from helpers import CONFIG_TYPES, HYPERPARAM_FIELDS, HYPERPARAM_KEYS, count_calls

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SMALL_YAML = """
dataset:
  kind: blobs
  samples_per_class: 8
  num_classes: 2
  dim: 3
strategies: [fedavg, fedavgopt]
rounds: 2
train_fraction: 0.5
train:
  learning_rate: 0.2
  batch_size: 4
"""


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def small_config(tmp_path, extra="", **overrides):
    path = write_config(tmp_path, SMALL_YAML + textwrap.dedent(extra))
    config = parse_config(path)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


# Each int-typed field of every config type with its least accepted value
# and, where the YAML reader fills the field, config text that puts it one
# below; ``seeds`` has a case for its first entry and one for a later entry.
# run_comparison builds the ModelSpec and FederationConfig from the
# ExperimentConfig.
BELOW_BOUND = [
    (DatasetConfig, "samples_per_class", 1, "dataset: {kind: blobs, samples_per_class: 0}"),
    (DatasetConfig, "num_classes", 2, "dataset: {kind: blobs, num_classes: 1}"),
    (DatasetConfig, "dim", 1, "dataset: {kind: blobs, dim: 0}"),
    (ExperimentConfig, "seeds", 0, "seeds: [2, -1]"),
    (ExperimentConfig, "seeds", 0, "seeds: [-1]"),
    (ExperimentConfig, "rounds", 1, "rounds: 0"),
    (ExperimentConfig, "num_clients", 1, "num_clients: 0"),
    (ExperimentConfig, "hidden_dims", 1, "model: {hidden_dims: [4, 0]}"),
    (ModelSpec, "input_dim", 1, None),
    (ModelSpec, "hidden_dims", 1, None),
    (ModelSpec, "num_classes", 2, None),
    (TrainConfig, "batch_size", 1, "train: {batch_size: 0}"),
    (TrainConfig, "local_epochs", 1, "train: {local_epochs: 0}"),
    (FederationConfig, "rounds", 1, None),
    (FederationConfig, "seed", 0, None),
    (SimplexConfig, "max_iterations", 1, "solver: {max_iterations: 0}"),
    (ClientUpdate, "num_examples", 1, None),
]
# The annotations of int-typed fields, and of float-typed ones.
INT_TYPES = ("int", "int | None", "tuple[int, ...]")
FLOAT_TYPES = ("float", "float | None")


class TestParseConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        path = write_config(tmp_path, "dataset: {kind: blobs}\nstrategies: [fedavg]\n")
        config = parse_config(path)
        assert config.rules == (FedAvg(),)
        assert config.seeds == (0,)
        assert config.rounds == 10
        assert config.num_clients == 4
        assert config.train_fraction == 0.2
        assert config.dataset == DatasetConfig(kind="blobs")
        assert config.dataset.spread == 1.8
        assert config.hidden_dims == ()
        assert config.activation == "relu"
        assert config.train == TrainConfig()
        assert config.output_dir == "results"

    def test_full_config(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            dataset:
              kind: blobs
              samples_per_class: 100
              num_classes: 3
              dim: 5
              spread: 2.5
            strategies: [fedavgm, fedyogi, fedavgopt]
            seeds: [1, 2, 3]
            rounds: 4
            num_clients: 5
            train_fraction: 0.3
            model:
              hidden_dims: [8, 4]
              activation: tanh
            train:
              learning_rate: 0.05
              batch_size: 8
              local_epochs: 2
            hyperparams:
              fedyogi:
                server_lr: 0.5
            solver:
              max_iterations: 50
            output_dir: out
            """,
        )
        config = parse_config(path)
        assert config.dataset == DatasetConfig(
            kind="blobs", samples_per_class=100, num_classes=3, dim=5, spread=2.5
        )
        assert config.rules == (
            FedAvgM(),
            FedYogi(server_lr=0.5),
            FedAvgOpt(SimplexConfig(max_iterations=50)),
        )
        assert config.seeds == (1, 2, 3)
        assert config.rounds == 4
        assert config.num_clients == 5
        assert config.train_fraction == 0.3
        assert config.hidden_dims == (8, 4)
        assert config.activation == "tanh"
        assert config.train == TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=2)
        assert config.output_dir == "out"

    def test_hyperparam_override_keeps_other_defaults(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            dataset: {kind: blobs}
            strategies: [fedyogi]
            hyperparams:
              fedyogi: {server_lr: 0.5}
            """,
        )
        (hp,) = parse_config(path).rules
        default = FedYogi()
        assert hp.server_lr == 0.5
        assert hp.tau == default.tau == 1e-3
        assert hp.beta1 == default.beta1
        assert hp.server_optimizer == default.server_optimizer

    def test_csv_dataset(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            dataset: {kind: csv, path: data.csv, label_column: label}
            strategies: [fedavg]
            """,
        )
        config = parse_config(path)
        assert config.dataset.kind == "csv"
        assert config.dataset.path == "data.csv"
        assert config.dataset.label_column == "label"

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("dataset: {kind: blobs}\nstrategies: [fedprox]\n", "fedyogi"),
            ("dataset: {kind: blobs}\nstrategies: [fedavg]\nrounds: 0\n", "rounds"),
            ("dataset: {kind: blobs}\nstrategies: [fedavg]\nrounds: true\n", "rounds"),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\ntrain_fraction: 1.2\n",
                "train_fraction",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\ntrain_fraction: 0\n",
                "train_fraction",
            ),
            ("dataset: {kind: blobs}\nstrategies: [fedavg]\nbogus: 1\n", "bogus"),
            ("dataset: {kind: blobs, widht: 3}\nstrategies: [fedavg]\n", "widht"),
            ("dataset: {kind: parquet}\nstrategies: [fedavg]\n", "dataset.kind"),
            ("dataset: {kind: blobs, spread: 0}\nstrategies: [fedavg]\n", "spread"),
            ("strategies: [fedavg]\n", "dataset"),
            ("dataset: {kind: blobs}\n", "strategy"),
            ("dataset: {kind: blobs}\nstrategies: []\n", "^need at least one strategy$"),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\nseeds: []\n",
                "^config: need at least one seed$",
            ),
            (
                # The bound is the type's, not a blanket one of the reader.
                "dataset: {kind: blobs, num_classes: 0}\nstrategies: [fedavg]\n",
                "^dataset: num_classes must be an integer >= 2, got 0$",
            ),
            ("dataset: {kind: csv, path: x.csv}\nstrategies: [fedavg]\n", "label_column"),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\n"
                "model: {activation: sigmoid}\n",
                "activation",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\n"
                "hyperparams: {fedavgm: {momentum_beta: 1.5}}\n",
                "fedavgm",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\n"
                "train: {epochs: 2}\n",
                "unknown key 'epochs' in train",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\n"
                "train: {batch_size: 0}\n",
                "^train: batch_size must be an integer >= 1, got 0$",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\n"
                "train: {learning_rate: fast}\n",
                "^train: learning_rate must be a finite number >= 0, got 'fast'$",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\n"
                "solver: {max_iterations: 0}\n",
                "^solver: max_iterations must be an integer >= 1, got 0$",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\n"
                "solver: {max_iterations: 1.5}\n",
                "^solver: max_iterations must be an integer >= 1, got 1.5$",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\n"
                "hyperparams: {fedopt: {server_optimizer: sgdm}}\n",
                "hyperparams.fedopt: server_optimizer must be one of",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\n"
                "hyperparams: {fedavg: {lr: 1}}\n",
                "unknown key 'lr' in hyperparams.fedavg",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedyogi]\n"
                "hyperparams: {fedyogi: {tau: .inf}}\n",
                "^hyperparams.fedyogi: tau must be a finite number > 0, got inf$",
            ),
            (
                "dataset: {kind: blobs, spread: .inf}\nstrategies: [fedavg]\n",
                "^dataset: spread must be a finite number > 0, got inf$",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\ntrain: {learning_rate: .inf}\n",
                "^train: learning_rate must be a finite number >= 0, got inf$",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\ntrain: {learning_rate: .nan}\n",
                "^train: learning_rate must be a finite number >= 0, got nan$",
            ),
            (
                # Top-level keys are named without a section prefix.
                "dataset: {kind: blobs}\nstrategies: [fedavg]\nnum_clients: 0\n",
                "^config: num_clients must be an integer >= 1, got 0$",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\nmodel: {hidden_dims: [true]}\n",
                "^model: hidden_dims must be integers >= 1, got True$",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\nmodel: {hidden_dims: [1.5]}\n",
                "^model: hidden_dims must be integers >= 1, got 1.5$",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\nmodel: {hidden_dims: 3}\n",
                "^model: hidden_dims must be a list of integers, got 3$",
            ),
            (
                # The type check runs first, so True is not taken for a repeated 1.
                "dataset: {kind: blobs}\nstrategies: [fedavg]\nseeds: [1, true]\n",
                "^config: seeds must be integers >= 0, got True$",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg]\nseeds: [0.5]\n",
                "^config: seeds must be integers >= 0, got 0.5$",
            ),
        ],
    )
    def test_invalid_configs(self, tmp_path, text, fragment):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=fragment):
            parse_config(path)

    def test_every_int_field_has_a_below_bound_case(self):
        int_fields = {
            (config_type, field.name)
            for config_type in CONFIG_TYPES
            for field in dataclasses.fields(config_type)
            if field.type in INT_TYPES
        }
        assert int_fields == {(config_type, field) for config_type, field, _, _ in BELOW_BOUND}

    @pytest.mark.parametrize(
        "field, least, text", [row[1:] for row in BELOW_BOUND if row[3] is not None]
    )
    def test_int_below_its_bound_names_the_field(self, tmp_path, field, least, text):
        if not text.startswith("dataset:"):
            text = f"dataset: {{kind: blobs}}\n{text}"
        path = write_config(tmp_path, f"strategies: [fedavg]\n{text}\n")
        with pytest.raises(ConfigError, match=rf": {field} must be .* >= {least}, got {least - 1}$"):
            parse_config(path)

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        text = f"dataset: {{kind: blobs, spread: 1{'0' * 400}}}\nstrategies: [fedavg]\n"
        with pytest.raises(ConfigError, match="^dataset: spread must be a finite number > 0, got 1"):
            parse_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "section, message",
        [
            (
                "train: {bogus: 1}",
                "unknown key 'bogus' in train; allowed keys: "
                "learning_rate, batch_size, local_epochs",
            ),
            (
                "solver: {bogus: 1}",
                "unknown key 'bogus' in solver; allowed keys: max_iterations",
            ),
            (
                "hyperparams: {fedyogi: {bogus: 1}}",
                "unknown key 'bogus' in hyperparams.fedyogi; allowed keys: "
                "server_lr, tau, beta1, beta2",
            ),
            (
                "hyperparams: {fedavg: {server_lr: 1}}",
                "unknown key 'server_lr' in hyperparams.fedavg; hyperparams.fedavg takes no keys",
            ),
            (
                "dataset: {kind: blobs, path: x.csv}",
                "unknown key 'path' in dataset; allowed keys: "
                "kind, samples_per_class, num_classes, dim, spread",
            ),
            (
                "dataset: {kind: csv, path: x.csv, label_column: y, dim: 3}",
                "unknown key 'dim' in dataset; allowed keys: kind, path, label_column",
            ),
            (
                "model: {width: 3}",
                "unknown key 'width' in model; allowed keys: hidden_dims, activation",
            ),
            (
                "epochs: 3",
                "unknown key 'epochs' in config; allowed keys: dataset, strategies, seeds, "
                "rounds, num_clients, train_fraction, model, train, hyperparams, solver, "
                "output_dir",
            ),
        ],
    )
    def test_section_allowed_keys_message(self, tmp_path, section, message):
        if not section.startswith("dataset:"):
            section = f"dataset: {{kind: blobs}}\n{section}"
        path = write_config(tmp_path, f"strategies: [fedavg]\n{section}\n")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "strategy, key, accepted",
        [
            (strategy, key, key in keys)
            for strategy, keys in HYPERPARAM_KEYS.items()
            for key in HYPERPARAM_FIELDS
        ],
    )
    def test_hyperparams_accept_only_the_keys_a_strategy_reads(
        self, tmp_path, strategy, key, accepted
    ):
        value = "adam" if key == "server_optimizer" else 0.5
        path = write_config(
            tmp_path,
            f"dataset: {{kind: blobs}}\nstrategies: [{strategy}]\n"
            f"hyperparams: {{{strategy}: {{{key}: {value}}}}}\n",
        )
        if accepted:
            assert getattr(parse_config(path).rules[0], key) == value
        else:
            with pytest.raises(ConfigError, match=f"unknown key '{key}' in hyperparams.{strategy};"):
                parse_config(path)

    def test_hyperparams_key_counts(self):
        accepted = sum(len(keys) for keys in HYPERPARAM_KEYS.values())
        assert (accepted, len(HYPERPARAM_KEYS) * len(HYPERPARAM_FIELDS) - accepted) == (12, 24)

    def test_empty_file(self, tmp_path):
        path = write_config(tmp_path, "")
        with pytest.raises(ConfigError, match="empty"):
            parse_config(path)

    def test_non_mapping_document(self, tmp_path):
        path = write_config(tmp_path, "- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            parse_config(path)

    def test_invalid_yaml(self, tmp_path):
        path = write_config(tmp_path, "dataset: [unclosed\n")
        with pytest.raises(ConfigError, match="YAML"):
            parse_config(path)


class TestBenchmarkConfigs:
    """The benchmark's workload configs, read from perfbench without changing
    it: parse_config must carry every value a workload sets."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_workload_values_reach_the_config(self, tmp_path, monkeypatch, seed):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        csv_path = str(tmp_path / workloads.CSV_NAME)
        for name, workload in workloads.WORKLOADS.items():
            raw = workloads.config_dict(workload, seed, csv_path)
            config = parse_config(write_config(tmp_path, yaml.safe_dump(raw), f"{name}.yaml"))
            if workload.uses_csv:
                dataset = DatasetConfig("csv", path=csv_path, label_column=workloads.LABEL_COLUMN)
            else:
                dataset = DatasetConfig(
                    "blobs",
                    samples_per_class=workload.samples_per_class,
                    num_classes=workload.num_classes,
                    dim=workload.dim,
                    spread=workload.spread,
                )
            first = seed * workload.seed_count
            assert config.dataset == dataset, name
            assert tuple(rule.name for rule in config.rules) == workload.strategies, name
            assert config.seeds == tuple(range(first, first + workload.seed_count)), name
            assert config.rounds == workload.rounds, name
            assert config.num_clients == workload.num_clients, name
            assert config.train_fraction == workload.train_fraction, name
            assert config.train == TrainConfig(
                learning_rate=workload.learning_rate, batch_size=workload.batch_size
            ), name
            assert config.hidden_dims == workload.hidden_dims, name


# The arguments each config type needs besides the fields under test.
REQUIRED = {
    DatasetConfig: {"kind": "blobs"},
    ExperimentConfig: {"dataset": DatasetConfig("blobs"), "rules": (FedAvg(),)},
    ModelSpec: {"input_dim": 3},
    FederationConfig: {"model": ModelSpec(input_dim=3), "train": TrainConfig()},
    ClientUpdate: {"client_id": "c", "num_examples": 1, "params": ParamVector(np.zeros(2))},
}
# How a message names the rule types, which make up ``Rule``.
RULE_TYPES = "FedAvg or FedAvgM or FedMedian or FedOpt or FedAvgOpt"
# The fields annotated tuple[int, ...].
TUPLE_FIELDS = ("seeds", "hidden_dims")


def build(config_type, **fields):
    """``config_type`` with ``fields`` and whatever else it requires."""
    return config_type(**{**REQUIRED.get(config_type, {}), **fields})


def entry(field, value):
    """``value`` as ``field`` takes it: alone, or as a tuple field's one entry."""
    return (value,) if field in TUPLE_FIELDS else value


# Each int-typed field of every config type, checked for integer-ness by name.
INT_FIELDS = [
    (DatasetConfig, "samples_per_class"),
    (DatasetConfig, "num_classes"),
    (DatasetConfig, "dim"),
    (ExperimentConfig, "seeds"),
    (ExperimentConfig, "rounds"),
    (ExperimentConfig, "num_clients"),
    (ExperimentConfig, "hidden_dims"),
    (ModelSpec, "input_dim"),
    (ModelSpec, "hidden_dims"),
    (ModelSpec, "num_classes"),
    (TrainConfig, "batch_size"),
    (TrainConfig, "local_epochs"),
    (FederationConfig, "rounds"),
    (FederationConfig, "seed"),
    (SimplexConfig, "max_iterations"),
    (ClientUpdate, "num_examples"),
]
# Each float-typed field of every config type, with a value it accepts.
FLOAT_FIELDS = [
    (DatasetConfig, "spread", 0.5),
    (ExperimentConfig, "train_fraction", 0.5),
    (TrainConfig, "learning_rate", 0.5),
    (FedAvgM, "server_lr", 0.5),
    (FedAvgM, "momentum_beta", 0.5),
    (FedMedian, "server_lr", 0.5),
    (FedOpt, "server_lr", 0.5),
    (FedOpt, "tau", 0.5),
    (FedOpt, "beta1", 0.5),
    (FedOpt, "beta2", 0.5),
    (FedYogi, "server_lr", 0.5),
    (FedYogi, "tau", 0.5),
    (FedYogi, "beta1", 0.5),
    (FedYogi, "beta2", 0.5),
]


class TestConfigTypes:
    """The library path: the config types check their own fields, so a
    config built in code meets the same rules as one parsed from YAML."""

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"kind": "parquet"}, "kind"),
            ({"kind": "csv", "label_column": "label"}, "path"),
            ({"kind": "csv", "path": "data.csv"}, "label_column"),
            ({"kind": "blobs", "spread": 0.0}, "spread"),
            ({"kind": "blobs", "spread": -1.0}, "spread"),
            ({"kind": "blobs", "spread": float("inf")}, "spread"),
            ({"kind": "blobs", "spread": float("nan")}, "spread"),
            ({"kind": "blobs", "num_classes": 1}, "num_classes"),
        ],
    )
    def test_dataset_config_rejects(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            DatasetConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"train_fraction": 0.0}, "train_fraction"),
            ({"train_fraction": 1.0}, "train_fraction"),
            ({"activation": "sigmoid"}, "activation"),
            ({"output_dir": ""}, "output_dir"),
            ({"output_dir": 3}, "output_dir"),
        ],
    )
    def test_experiment_config_rejects(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(dataset=DatasetConfig("blobs"), rules=(FedAvg(),), **kwargs)

    @pytest.mark.parametrize(
        "config_type, kwargs, message",
        [
            (
                DatasetConfig,
                {"samples_per_class": 0},
                "samples_per_class must be an integer >= 1, got 0",
            ),
            (DatasetConfig, {"num_classes": 0}, "num_classes must be an integer >= 2, got 0"),
            (DatasetConfig, {"dim": -3}, "dim must be an integer >= 1, got -3"),
            (ExperimentConfig, {"rounds": 0}, "rounds must be an integer >= 1, got 0"),
            (ExperimentConfig, {"num_clients": -2}, "num_clients must be an integer >= 1, got -2"),
            (ExperimentConfig, {"hidden_dims": (4, 0)}, "hidden_dims must be integers >= 1, got 0"),
            (ExperimentConfig, {"seeds": (0, -1)}, "seeds must be integers >= 0, got -1"),
            (ExperimentConfig, {"seeds": (True,)}, "seeds must be integers >= 0, got True"),
            (ExperimentConfig, {"seeds": (0.5,)}, "seeds must be integers >= 0, got 0.5"),
            # Not iterable, or not a number: each once a bare TypeError.
            (ExperimentConfig, {"hidden_dims": 4}, "hidden_dims must be a list of integers, got 4"),
            (ExperimentConfig, {"seeds": 3}, "seeds must be a list of integers, got 3"),
            (
                ExperimentConfig,
                {"train_fraction": "0.5"},
                "train_fraction must be a finite number > 0 and < 1, got '0.5'",
            ),
            (
                ExperimentConfig,
                {"train_fraction": 1.0},
                "train_fraction must be a finite number > 0 and < 1, got 1.0",
            ),
            # Each once constructed, and most then died in the run naming no field.
            (FedAvgOpt, {"solver": None}, "solver must be an instance of SimplexConfig, got None"),
            (
                ExperimentConfig,
                {"dataset": "blobs"},
                "dataset must be an instance of DatasetConfig, got 'blobs'",
            ),
            (
                ExperimentConfig,
                {"train": None},
                "train must be an instance of TrainConfig, got None",
            ),
            (
                ExperimentConfig,
                {"rules": ("fedavg",)},
                f"rules must be instances of {RULE_TYPES}, got 'fedavg'",
            ),
            (FederationConfig, {"model": None}, "model must be an instance of ModelSpec, got None"),
            (FederationConfig, {"train": {}}, "train must be an instance of TrainConfig, got {}"),
            (DatasetConfig, {"path": 3}, "path must be an instance of str, got 3"),
            (
                FederationConfig,
                {"rules": ("fedavg",)},
                f"rules must be instances of {RULE_TYPES}, got 'fedavg'",
            ),
            (
                ExperimentConfig,
                {"rules": FedAvg()},
                f"rules must be a list of instances of {RULE_TYPES}, got FedAvg()",
            ),
            (ExperimentConfig, {"output_dir": 3}, "output_dir must be an instance of str, got 3"),
            # Each once constructed, and refused only by run_comparison, after a CSV was read.
            (ExperimentConfig, {"seeds": ()}, "need at least one seed"),
            (ExperimentConfig, {"rules": ()}, "need at least one strategy"),
        ],
    )
    def test_bounds_name_the_field_and_value(self, config_type, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(config_type, **kwargs)

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_numpy_integer_seed_accepted(self):
        config = ExperimentConfig(
            dataset=DatasetConfig("blobs"), rules=(FedAvg(),), seeds=(np.int64(3),)
        )
        assert config.seeds == (3,)

    @pytest.mark.parametrize("config_type, field, least", [row[:3] for row in BELOW_BOUND])
    def test_int_bound_is_exact(self, config_type, field, least):
        what = "integers" if field in TUPLE_FIELDS else "an integer"
        message = f"{field} must be {what} >= {least}, got {least - 1}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build(config_type, **{field: entry(field, least - 1)})
        stored = getattr(build(config_type, **{field: entry(field, np.int64(least))}), field)
        assert stored == entry(field, least)
        assert type(stored[0] if field in TUPLE_FIELDS else stored) is int

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    @pytest.mark.parametrize("config_type, field", INT_FIELDS)
    def test_non_integer_names_the_field_and_value(self, config_type, field, value):
        what = "integers" if field in TUPLE_FIELDS else "an integer"
        message = rf"^{field} must be {what} >= \d+, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            build(config_type, **{field: entry(field, value)})

    def test_every_int_field_has_a_non_integer_case(self):
        int_fields = {
            (config_type, field.name)
            for config_type in CONFIG_TYPES
            for field in dataclasses.fields(config_type)
            if field.type in INT_TYPES
        }
        assert int_fields == set(INT_FIELDS)

    @pytest.mark.parametrize("value", [math.inf, math.nan, True, "1"])
    @pytest.mark.parametrize("config_type, field, valid", FLOAT_FIELDS)
    def test_non_finite_float_names_the_field_and_value(self, config_type, field, valid, value):
        message = f"^{field} must be a finite number[^,]*, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            build(config_type, **{field: value})

    @pytest.mark.parametrize("config_type, field, valid", FLOAT_FIELDS)
    def test_numpy_float_stored_as_float(self, config_type, field, valid):
        stored = getattr(build(config_type, **{field: np.float64(valid)}), field)
        assert type(stored) is float and stored == valid

    def test_every_float_field_has_a_case(self):
        float_fields = {
            (config_type, field.name)
            for config_type in CONFIG_TYPES
            for field in dataclasses.fields(config_type)
            if field.type in FLOAT_TYPES
        }
        assert float_fields == {(config_type, field) for config_type, field, _ in FLOAT_FIELDS}

    @pytest.mark.parametrize(
        "config_type, field",
        [(t, field.name) for t in CONFIG_TYPES for field in dataclasses.fields(t)],
    )
    def test_every_field_rejects_a_value_of_the_wrong_kind(self, config_type, field):
        # A field that nothing checks would take any value and fail, if at
        # all, only once a run reads it.
        with pytest.raises(ConfigError, match=f"^{field} must be .*, got <object object at "):
            build(config_type, **{field: object()})

    def test_every_config_type_is_listed(self):
        def subclasses(cls):
            return {t for sub in cls.__subclasses__() for t in (sub, *subclasses(sub))}

        found = {t for t in subclasses(Config) if t.__module__.startswith("fedsim.")}
        assert found == set(CONFIG_TYPES)

    def test_numpy_integers_accepted(self):
        config = ExperimentConfig(
            dataset=DatasetConfig("blobs", samples_per_class=np.int64(8), dim=np.int32(3)),
            rules=(FedAvg(),),
            rounds=np.int64(2),
            num_clients=np.int16(3),
            hidden_dims=(np.int64(4),),
        )
        assert (config.rounds, config.num_clients, config.dataset.dim) == (2, 3, 3)
        assert SimplexConfig(max_iterations=np.int64(7)).resolved_max_iterations(2) == 7


class TestOutputs:
    def test_run_experiment_writes_three_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = small_config(tmp_path, output_dir=str(out))
        assert run_experiment(config) == 0
        assert "history.csv" in capsys.readouterr().out

        lines = (out / "history.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == HISTORY_HEADER
        # 2 strategies * 2 rounds * 4 clients data rows.
        assert len(lines) == 1 + 2 * 2 * 4

        with open(out / "history.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            if row["strategy"] == "fedavgopt":
                alpha = json.loads(row["alpha_json"])
                assert len(alpha) == 4
                assert all(isinstance(a, float) for a in alpha)
            else:
                assert row["alpha_json"] == ""

        summary = (out / "summary.txt").read_text(encoding="utf-8")
        assert "fedavg" in summary and "fedavgopt" in summary
        assert "seed=0" in summary

        assert sorted(p.name for p in (out / "curves").iterdir()) == [
            "fedavg.dat",
            "fedavgopt.dat",
        ]

    def test_summary_columns_stay_separated_for_wide_seeds(self, tmp_path):
        out = tmp_path / "out"
        config = small_config(tmp_path, extra="seeds: [12345678, 1]\n", output_dir=str(out))
        run_experiment(config)
        lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        header, rows = lines[2], lines[3:]
        assert header.split() == ["strategy", "seed=12345678", "seed=1", "mean"]
        starts = [m.start() for m in re.finditer(r"\S+", header)]
        for row in rows:
            assert len(row.split()) == 4
            assert [m.start() for m in re.finditer(r"\S+", row)] == starts

    def test_curve_matches_history_precision(self, tmp_path):
        out = tmp_path / "out"
        config = small_config(tmp_path, output_dir=str(out))
        run_experiment(config)
        with open(out / "history.csv", newline="", encoding="utf-8") as handle:
            by_round = {
                (row["strategy"], row["round"]): row["aggregated_accuracy"]
                for row in csv.DictReader(handle)
            }
        for strategy in ("fedavg", "fedavgopt"):
            lines = (out / "curves" / f"{strategy}.dat").read_text().splitlines()
            assert lines[0] == "# round aggregated_accuracy"
            for line in lines[1:]:
                round_idx, acc = line.split(" ")
                assert acc == by_round[(strategy, round_idx)]

    def test_emit_plot_data_multi_seed(self, tmp_path):
        config = small_config(tmp_path, extra="seeds: [0, 1]\n")
        result = run_comparison(config)
        written = emit_plot_data(result, tmp_path / "curves")
        names = sorted(p.name for p in written)
        assert names == [
            "fedavg_mean.dat",
            "fedavg_seed0.dat",
            "fedavg_seed1.dat",
            "fedavgopt_mean.dat",
            "fedavgopt_seed0.dat",
            "fedavgopt_seed1.dat",
        ]

        def read_curve(name):
            lines = (tmp_path / "curves" / name).read_text().splitlines()[1:]
            return [float(line.split(" ")[1]) for line in lines]

        for strategy in ("fedavg", "fedavgopt"):
            s0 = read_curve(f"{strategy}_seed0.dat")
            s1 = read_curve(f"{strategy}_seed1.dat")
            mean = read_curve(f"{strategy}_mean.dat")
            for a, b, m in zip(s0, s1, mean):
                assert m == pytest.approx((a + b) / 2, abs=1e-15)

    def test_emit_plot_data_empty_history(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data(ComparisonResult(runs=()), tmp_path / "curves")


class TestRunComparison:
    def test_csv_is_read_once_for_all_seeds(self, tmp_path, monkeypatch):
        rows = ["x1,x2,label"] + [f"{i}.0,{-i}.5,{i % 2}" for i in range(16)]
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        dataset = DatasetConfig(kind="csv", path=str(tmp_path / "data.csv"), label_column="label")
        loads = count_calls(monkeypatch, fedsim.cli, "load_csv")
        blobs = count_calls(monkeypatch, fedsim.cli, "generate_blobs")
        result = run_comparison(small_config(tmp_path, dataset=dataset, seeds=(0, 1)))
        assert loads == [(str(tmp_path / "data.csv"), "label")]
        assert blobs == []
        assert result.seeds == [0, 1]

    def test_blobs_are_drawn_once_per_seed(self, tmp_path, monkeypatch):
        loads = count_calls(monkeypatch, fedsim.cli, "load_csv")
        blobs = count_calls(monkeypatch, fedsim.cli, "generate_blobs")
        run_comparison(small_config(tmp_path, seeds=(4, 2)))
        assert loads == []
        assert [args[-1] for args in blobs] == [oracles.stream_seeds(s, "blobs")[0] for s in (4, 2)]


    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"seeds": (3, 3)}, "seed 3 is given more than once"),
            ({"seeds": ()}, "need at least one seed"),
            ({"rules": ()}, "need at least one strategy"),
            ({"rules": (FedAvg(), FedAvg())}, "strategy 'fedavg' is given more than once"),
        ],
    )
    def test_repeated_or_missing_run_is_a_config_error(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_comparison(small_config(tmp_path, **overrides))


class TestMain:
    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, SMALL_YAML)
        for name in ("first", "second"):
            code = main(["compare", path, "--output-dir", str(tmp_path / name)])
            assert code == 0
        files = ["history.csv", "summary.txt", "curves/fedavg.dat", "curves/fedavgopt.dat"]
        for name in files:
            assert filecmp.cmp(
                tmp_path / "first" / name, tmp_path / "second" / name, shallow=False
            ), name

    def test_rerun_into_same_directory_removes_stale_curves(self, tmp_path):
        path = write_config(tmp_path, SMALL_YAML + "seeds: [0, 1]\n")
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out)]) == 0
        curves = out / "curves"
        # Names fedsim never writes for a strategy it knows are left alone.
        for keep in ("notes.dat", "fedprox_seed1.dat", "fedavg_seed1.txt"):
            (curves / keep).write_text("mine\n", encoding="utf-8")
        (curves / "fedyogi_mean.dat").write_text("old\n", encoding="utf-8")
        assert main(["compare", path, "--output-dir", str(out), "--seed", "0"]) == 0
        assert sorted(p.name for p in curves.iterdir()) == [
            "fedavg.dat",
            "fedavg_seed1.txt",
            "fedavgopt.dat",
            "fedprox_seed1.dat",
            "notes.dat",
        ]

    def test_compare_is_the_only_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_YAML)
        with pytest.raises(SystemExit) as exc:
            main(["run", path])
        assert exc.value.code == 2
        assert "invalid choice: 'run'" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "nope.yaml")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_error_is_reported(self, tmp_path, capsys):
        path = write_config(tmp_path, "dataset: {kind: blobs}\nstrategies: [fedprox]\n")
        assert main(["compare", path]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "fedprox" in err

    @pytest.mark.parametrize(
        "extra, flags", [("output_dir: ''\n", []), ("", ["--output-dir", ""])]
    )
    def test_empty_output_dir_is_rejected(self, tmp_path, monkeypatch, capsys, extra, flags):
        path = write_config(tmp_path, SMALL_YAML + extra)
        monkeypatch.chdir(tmp_path)
        assert main(["compare", path, *flags]) == 2
        assert "output_dir" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    def test_failed_run_creates_no_output_dir(self, tmp_path, capsys):
        # The shards fail only when the run starts: a class of 3 samples
        # cannot reach 5 clients.
        text = SMALL_YAML.replace("samples_per_class: 8", "samples_per_class: 3")
        path = write_config(tmp_path, text + "num_clients: 5\n")
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_diverged_training_names_its_client(self, tmp_path, capsys):
        # fedavg alone: its round-1 models stay finite and round 2 diverges.
        text = SMALL_YAML.replace("learning_rate: 0.2", "learning_rate: 1.0e+300")
        text = text.replace("strategies: [fedavg, fedavgopt]", "strategies: [fedavg]")
        path = write_config(tmp_path, text + "model: {hidden_dims: [5]}\n")
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: fedavg, seed 0, round 2, client_0: training failed: "
            "parameter vector contains non-finite entries"
        )
        assert not out.exists()

    def test_the_earliest_rounds_failure_is_reported(self, tmp_path, capsys):
        # The same run with fedavgm too, whose server step overflows: its
        # round-1 aggregation fails before fedavg's round-2 training, though
        # fedavg is listed first.
        text = SMALL_YAML.replace("learning_rate: 0.2", "learning_rate: 1.0e+300")
        text = text.replace("strategies: [fedavg, fedavgopt]", "strategies: [fedavg, fedavgm]")
        extra = "model: {hidden_dims: [5]}\nhyperparams: {fedavgm: {server_lr: 1.0e+10}}\n"
        path = write_config(tmp_path, text + extra)
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: fedavgm, seed 0, round 1: aggregation failed: "
            "parameter vector contains non-finite entries"
        )
        assert not out.exists()

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_huge_tau_fails_as_an_aggregation(self, tmp_path, capsys, optimizer):
        # tau^2 overflows to inf in fedopt's second moment: a NumericError and
        # exit 2, where a Python float square once raised OverflowError.
        text = SMALL_YAML.replace("strategies: [fedavg, fedavgopt]", "strategies: [fedavg, fedopt]")
        extra = f"hyperparams: {{fedopt: {{tau: 1.0e+200, server_optimizer: {optimizer}}}}}\n"
        path = write_config(tmp_path, text + extra)
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: fedopt, seed 0, round 1: aggregation failed: "
            "parameter vector contains non-finite entries"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "error: seeds must be integers >= 0, got -1"),
            ("--rounds", "0", "error: rounds must be an integer >= 1, got 0"),
        ],
    )
    def test_flag_below_its_bound_is_rejected(self, tmp_path, capsys, flag, value, message):
        path = write_config(tmp_path, SMALL_YAML)
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out), flag, value]) == 2
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "strategies: [fedavg, fedavgm, fedavg]\n",
                "strategy 'fedavg' is given more than once",
            ),
            # The seeds are checked first.
            ("strategies: [fedavg, fedavg]\nseeds: [0, 0]\n", "seed 0 is given more than once"),
            ("strategies: [fedavg]\nseeds: [3, 1, 3]\n", "seed 3 is given more than once"),
        ],
    )
    def test_repeated_strategy_or_seed_is_rejected(self, tmp_path, capsys, text, message):
        # compare_strategies holds the one repeat rule, for YAML and library
        # callers alike; it rejects the config before any shard is built.
        path = write_config(tmp_path, f"dataset: {{kind: blobs}}\n{text}")
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key",
        [
            "reflection", "expansion", "contraction", "shrink",
            "initial_step", "x_tolerance", "f_tolerance",
        ],
    )
    def test_removed_solver_key_is_rejected(self, tmp_path, capsys, key):
        # The Nelder-Mead search fixes every setting but its cap, so a config
        # naming another is refused rather than run with the key ignored.
        path = write_config(tmp_path, SMALL_YAML + f"solver: {{{key}: 0.5}}\n")
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: unknown key '{key}' in solver; allowed keys: max_iterations"
        )
        assert not out.exists()

    @pytest.mark.parametrize("key", ["strategy", "seed"])
    def test_removed_top_level_key_is_rejected(self, tmp_path, capsys, key):
        # Each list has one spelling, so the singular keys are unknown, not aliases.
        path = write_config(tmp_path, SMALL_YAML + f"{key}: 0\n")
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: unknown key '{key}' in config; allowed keys: dataset, strategies, seeds, "
            "rounds, num_clients, train_fraction, model, train, hyperparams, solver, output_dir"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("strategies: [fedavg]\nseeds: []\n", "config: need at least one seed"),
            ("strategies: []\n", "need at least one strategy"),
        ],
        ids=["seeds", "strategies"],
    )
    def test_empty_run_list_is_rejected(self, tmp_path, capsys, text, message):
        path = write_config(tmp_path, f"dataset: {{kind: blobs}}\n{text}")
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not out.exists()

    def test_rounds_and_seed_overrides(self, tmp_path):
        path = write_config(tmp_path, SMALL_YAML)
        out = tmp_path / "out"
        code = main(
            ["compare", path, "--output-dir", str(out), "--rounds", "3", "--seed", "5"]
        )
        assert code == 0
        lines = (out / "curves" / "fedavg.dat").read_text().splitlines()
        assert len(lines) == 1 + 3
        assert "seed=5" in (out / "summary.txt").read_text(encoding="utf-8")

    def test_one_class_csv_names_the_file_and_label_column(self, tmp_path, capsys):
        # The class count comes from the file, not from a field the user set.
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("x1,label\n1.0,a\n2.0,a\n3.0,a\n4.0,a\n", encoding="utf-8")
        path = write_config(
            tmp_path,
            f"dataset: {{kind: csv, path: {csv_path}, label_column: label}}\n"
            "strategies: [fedavg]\n",
        )
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: {csv_path}: label column 'label' holds 1 class; need at least 2"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, fault",
        [
            (
                b"x1,label\n1.0,a\n2.0," + b"b" * 131_073 + b"\n",
                "row 2 has a cell longer than 131072 characters",
            ),
            (
                "x1,label\n1.0,a\n2.0,\xff\n".encode("latin-1"),
                "row 2 is not UTF-8 text (byte 0xff)",
            ),
        ],
        ids=["long-cell", "latin-1"],
    )
    def test_unreadable_csv_row_is_named(self, tmp_path, capsys, data, fault):
        # Each once left compare without a file or row to point at: the long
        # cell as a csv module traceback, the Latin-1 byte as a bare codec error.
        csv_path = tmp_path / "bad.csv"
        csv_path.write_bytes(data)
        path = write_config(
            tmp_path,
            f"dataset: {{kind: csv, path: {csv_path}, label_column: label}}\n"
            "strategies: [fedavg]\n",
        )
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"error: {csv_path}: {fault}"
        assert not out.exists()

    def test_csv_dataset_end_to_end(self, tmp_path):
        rows = ["x1,x2,label"]
        for i in range(8):
            rows.append(f"{i}.0,{i + 1}.5,pos")
            rows.append(f"-{i}.0,-{i + 1}.5,neg")
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        path = write_config(
            tmp_path,
            f"""
            dataset:
              kind: csv
              path: {tmp_path / "data.csv"}
              label_column: label
            strategies: [fedavg]
            rounds: 2
            num_clients: 2
            train_fraction: 0.5
            """,
        )
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out)]) == 0
        with open(out / "history.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * 2
        assert {row["client_id"] for row in rows} == {"client_0", "client_1"}

    def test_relative_paths_resolve_against_the_working_directory(self, tmp_path, monkeypatch):
        # The data file and the output directory are named relative to the
        # working directory, not to the config file's subdirectory.
        rows = ["x1,x2,label"]
        for i in range(8):
            rows += [f"{i}.0,{i + 1}.5,pos", f"-{i}.0,-{i + 1}.5,neg"]
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        (tmp_path / "configs").mkdir()
        write_config(
            tmp_path / "configs",
            """
            dataset: {kind: csv, path: data.csv, label_column: label}
            strategies: [fedavg]
            rounds: 1
            num_clients: 2
            train_fraction: 0.5
            output_dir: out
            """,
        )
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "configs/config.yaml"]) == 0
        assert (tmp_path / "out" / "history.csv").is_file()
        assert sorted(p.name for p in (tmp_path / "configs").iterdir()) == ["config.yaml"]


class TestLogging:
    def test_env_var_sets_level(self, monkeypatch):
        recorded = {}
        monkeypatch.setattr(
            logging, "basicConfig", lambda **kwargs: recorded.update(kwargs)
        )
        monkeypatch.setenv("FEDSIM_LOG_LEVEL", "debug")
        _init_logging()
        assert recorded["level"] == logging.DEBUG

    def test_unknown_level_falls_back_to_warning(self, monkeypatch):
        recorded = {}
        monkeypatch.setattr(
            logging, "basicConfig", lambda **kwargs: recorded.update(kwargs)
        )
        monkeypatch.setenv("FEDSIM_LOG_LEVEL", "chatty")
        _init_logging()
        assert recorded["level"] == logging.WARNING

    def test_default_is_warning(self, monkeypatch):
        recorded = {}
        monkeypatch.setattr(
            logging, "basicConfig", lambda **kwargs: recorded.update(kwargs)
        )
        monkeypatch.delenv("FEDSIM_LOG_LEVEL", raising=False)
        _init_logging()
        assert recorded["level"] == logging.WARNING
