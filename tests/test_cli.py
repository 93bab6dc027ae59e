import csv
import filecmp
import json
import logging
import re
import textwrap

import pytest

import fedsim.cli
from fedsim import (
    ComparisonResult,
    FedAvg,
    FedAvgM,
    FedAvgOpt,
    FedYogi,
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
from fedsim.exceptions import ConfigError
from helpers import HYPERPARAM_FIELDS, HYPERPARAM_KEYS, count_calls

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
        import dataclasses

        config = dataclasses.replace(config, **overrides)
    return config


class TestParseConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        path = write_config(tmp_path, "dataset: {kind: blobs}\nstrategy: fedavg\n")
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
              initial_step: 0.1
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
            FedAvgOpt(SimplexConfig(max_iterations=50, initial_step=0.1)),
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
            strategy: fedyogi
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
            strategy: fedavg
            """,
        )
        config = parse_config(path)
        assert config.dataset.kind == "csv"
        assert config.dataset.path == "data.csv"
        assert config.dataset.label_column == "label"

    def test_single_seed_key(self, tmp_path):
        path = write_config(tmp_path, "dataset: {kind: blobs}\nstrategy: fedavg\nseed: 7\n")
        assert parse_config(path).seeds == (7,)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("dataset: {kind: blobs}\nstrategy: fedprox\n", "fedyogi"),
            ("dataset: {kind: blobs}\nstrategy: fedavg\nrounds: 0\n", "rounds"),
            ("dataset: {kind: blobs}\nstrategy: fedavg\nrounds: true\n", "rounds"),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\ntrain_fraction: 1.2\n",
                "train_fraction",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\ntrain_fraction: 0\n",
                "train_fraction",
            ),
            ("dataset: {kind: blobs}\nstrategy: fedavg\nbogus: 1\n", "bogus"),
            ("dataset: {kind: blobs, widht: 3}\nstrategy: fedavg\n", "widht"),
            ("dataset: {kind: parquet}\nstrategy: fedavg\n", "dataset.kind"),
            ("dataset: {kind: blobs, spread: 0}\nstrategy: fedavg\n", "spread"),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\nstrategies: [fedavg]\n",
                "not both",
            ),
            ("dataset: {kind: blobs}\nstrategy: fedavg\nseed: 1\nseeds: [2]\n", "not both"),
            ("strategy: fedavg\n", "dataset"),
            ("dataset: {kind: blobs}\n", "strategy"),
            ("dataset: {kind: blobs}\nstrategies: []\n", "strategies"),
            ("dataset: {kind: csv, path: x.csv}\nstrategy: fedavg\n", "label_column"),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\n"
                "model: {activation: sigmoid}\n",
                "activation",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\n"
                "hyperparams: {fedavgm: {momentum_beta: 1.5}}\n",
                "fedavgm",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\n"
                "solver: {x_tolerance: -1}\n",
                "solver",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\n"
                "train: {epochs: 2}\n",
                "unknown key 'epochs' in train",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\n"
                "train: {batch_size: 0}\n",
                "train.batch_size: must be >= 1",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\n"
                "train: {learning_rate: fast}\n",
                "train.learning_rate: expected a number",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\n"
                "solver: {max_iterations: 0}\n",
                "solver.max_iterations: must be >= 1",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\n"
                "solver: {max_iterations: 1.5}\n",
                "solver.max_iterations: expected an integer",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\n"
                "hyperparams: {fedopt: {server_optimizer: sgdm}}\n",
                "hyperparams.fedopt: server_optimizer must be one of",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\n"
                "hyperparams: {fedavg: {lr: 1}}\n",
                "unknown key 'lr' in hyperparams.fedavg",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg, fedavgm, fedavg]\n",
                "strategies: 'fedavg' is listed more than once",
            ),
            (
                "dataset: {kind: blobs}\nstrategies: [fedavg, fedavg]\nseeds: [0, 0]\n",
                "strategies: 'fedavg' is listed more than once",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\nseeds: [3, 1, 3]\n",
                "seeds: 3 is listed more than once",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedyogi\n"
                "hyperparams: {fedyogi: {tau: .inf}}\n",
                "hyperparams.fedyogi.tau: expected a finite number, got inf",
            ),
            (
                "dataset: {kind: blobs, spread: .inf}\nstrategy: fedavg\n",
                "dataset.spread: expected a finite number, got inf",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\ntrain: {learning_rate: .inf}\n",
                "train.learning_rate: expected a finite number, got inf",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\ntrain: {learning_rate: .nan}\n",
                "train.learning_rate: expected a finite number, got nan",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\nsolver: {initial_step: -.inf}\n",
                "solver.initial_step: expected a finite number, got -inf",
            ),
            (
                # Top-level keys are named without a section prefix.
                "dataset: {kind: blobs}\nstrategy: fedavg\nnum_clients: 0\n",
                "^num_clients: must be >= 1, got 0$",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\nmodel: {hidden_dims: [true]}\n",
                "model.hidden_dims: expected an integer, got True",
            ),
            (
                "dataset: {kind: blobs}\nstrategy: fedavg\nmodel: {hidden_dims: [1.5]}\n",
                "model.hidden_dims: expected an integer, got 1.5",
            ),
        ],
    )
    def test_invalid_configs(self, tmp_path, text, fragment):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=fragment):
            parse_config(path)

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        text = f"dataset: {{kind: blobs, spread: 1{'0' * 400}}}\nstrategy: fedavg\n"
        with pytest.raises(ConfigError, match="dataset.spread: expected a finite number"):
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
                "unknown key 'bogus' in solver; allowed keys: reflection, expansion, "
                "contraction, shrink, initial_step, x_tolerance, f_tolerance, max_iterations",
            ),
            (
                "hyperparams: {fedyogi: {bogus: 1}}",
                "unknown key 'bogus' in hyperparams.fedyogi; allowed keys: "
                "server_lr, tau, beta1, beta2, server_optimizer",
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
                "unknown key 'epochs' in config; allowed keys: dataset, strategy, strategies, "
                "seed, seeds, rounds, num_clients, train_fraction, model, train, hyperparams, "
                "solver, output_dir",
            ),
        ],
    )
    def test_section_allowed_keys_message(self, tmp_path, section, message):
        if not section.startswith("dataset:"):
            section = f"dataset: {{kind: blobs}}\n{section}"
        path = write_config(tmp_path, f"strategy: fedavg\n{section}\n")
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
            f"dataset: {{kind: blobs}}\nstrategy: {strategy}\n"
            f"hyperparams: {{{strategy}: {{{key}: {value}}}}}\n",
        )
        if accepted:
            assert getattr(parse_config(path).rules[0], key) == value
        else:
            with pytest.raises(ConfigError, match=f"unknown key '{key}' in hyperparams.{strategy};"):
                parse_config(path)

    def test_hyperparams_key_counts(self):
        accepted = sum(len(keys) for keys in HYPERPARAM_KEYS.values())
        assert (accepted, len(HYPERPARAM_KEYS) * len(HYPERPARAM_FIELDS) - accepted) == (13, 23)

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

    def test_compare_with_huge_solver_step_completes(self, tmp_path):
        # Every first-simplex vertex but the start is too large for the Gram
        # objective's bounds; it scores them inf rather than raising.
        path = write_config(
            tmp_path,
            SMALL_YAML.replace("[fedavg, fedavgopt]", "[fedavgopt]")
            + "solver: {initial_step: 1.0e+160}\n",
        )
        out = tmp_path / "out"
        assert main(["compare", path, "--output-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["curves", "history.csv", "summary.txt"]
        lines = (out / "history.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2 * 4

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
        assert [args[-1] for args in blobs] == [4, 2]


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

    def test_run_requires_single_strategy(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_YAML)
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_single_strategy(self, tmp_path):
        path = write_config(
            tmp_path,
            SMALL_YAML.replace("strategies: [fedavg, fedavgopt]", "strategy: fedavgm"),
        )
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
        assert "fedavgm" in summary

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_error_is_reported(self, tmp_path, capsys):
        path = write_config(tmp_path, "dataset: {kind: blobs}\nstrategy: fedprox\n")
        assert main(["run", path]) == 2
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
            strategy: fedavg
            rounds: 2
            num_clients: 2
            train_fraction: 0.5
            """,
        )
        out = tmp_path / "out"
        assert main(["run", path, "--output-dir", str(out)]) == 0
        with open(out / "history.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * 2
        assert {row["client_id"] for row in rows} == {"client_0", "client_1"}


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
