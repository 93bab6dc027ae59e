import dataclasses
import filecmp
import re
import weakref

import numpy as np
import pytest

import fedsim.orchestrator
import oracles
from fedsim import (
    AlphaSolution,
    ClientShard,
    ClientUpdate,
    ComparisonResult,
    Dataset,
    FedAvg,
    FedAvgM,
    FedAvgOpt,
    FederationConfig,
    FedMedian,
    FedOpt,
    FedYogi,
    ModelSpec,
    TrainConfig,
    aggregate_fedavg,
    compare_strategies,
    evaluate,
    generate_blobs,
    init_params,
    make_client_shards,
    run_federation,
    sgd_train,
    weighted_accuracy,
)
from fedsim.cli import emit_plot_data, write_history_csv, write_summary
from fedsim.exceptions import ConfigError, NumericError
from fedsim.strategies import RULES
from helpers import count_calls

SPEC = ModelSpec(input_dim=3, num_classes=2)
TRAIN = TrainConfig(learning_rate=0.2, batch_size=16, local_epochs=2)


def blob_shards(num_clients, seed, samples_per_class=16):
    data = generate_blobs(samples_per_class, 2, 3, 1.0, seed)
    return make_client_shards(data, num_clients, 0.5, seed)


class TestWeightedAccuracy:
    def test_weighted_mean(self):
        assert weighted_accuracy([(10, 1.0), (30, 0.5)]) == 0.625

    def test_equal_counts_reduce_to_mean(self):
        accs = [0.25, 0.5, 1.0, 0.75]
        got = weighted_accuracy([(8, a) for a in accs])
        assert got == pytest.approx(np.mean(accs), rel=1e-12)

    def test_single_entry(self):
        assert weighted_accuracy([(5, 0.8)]) == 0.8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_accuracy([])

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            weighted_accuracy([(0, 0.5)])


class TestFederationConfig:
    def test_unknown_strategy(self):
        with pytest.raises(ConfigError, match="rule"):
            FederationConfig(model=SPEC, train=TRAIN, rule="fedavg")

    def test_bounds(self):
        with pytest.raises(ConfigError):
            FederationConfig(model=SPEC, train=TRAIN, rounds=0)
        with pytest.raises(ConfigError):
            FederationConfig(model=SPEC, train=TRAIN, seed=-1)

    @pytest.mark.parametrize("seed", [True, 0.5, 2.0, -1, "1"])
    def test_seed_must_be_an_integer(self, seed):
        # True would run as seed 1; 0.5 would fail inside numpy, naming no field.
        message = re.escape(f"seed must be an integer >= 0, got {seed!r}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            FederationConfig(model=SPEC, train=TRAIN, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert FederationConfig(model=SPEC, train=TRAIN, seed=np.int64(3)).seed == 3

    def test_hyperparams_default_and_override(self):
        # The default rule is fedavg; a rule's changed field is used.
        shards = blob_shards(4, 0)
        config = FederationConfig(model=SPEC, train=TRAIN, rounds=2)
        assert (config.rule, config.strategy) == (FedAvg(), "fedavg")
        yogi = dataclasses.replace(config, rule=FedYogi())
        changed = dataclasses.replace(config, rule=FedYogi(server_lr=0.5))
        assert run_federation(yogi, shards) != run_federation(changed, shards)


class TestRunFederation:
    def test_report_shape(self):
        shards = blob_shards(4, 0)
        config = FederationConfig(model=SPEC, train=TRAIN, rounds=3, seed=0)
        reports = run_federation(config, shards)
        assert [r.round for r in reports] == [1, 2, 3]
        for report in reports:
            assert [m.client_id for m in report.per_client] == [
                s.client_id for s in shards
            ]
            for metrics, shard in zip(report.per_client, shards):
                assert metrics.num_test_examples == len(shard.test)
                assert 0.0 <= metrics.accuracy <= 1.0
                assert metrics.loss >= 0.0
            recomputed = weighted_accuracy(
                [(m.num_test_examples, m.accuracy) for m in report.per_client]
            )
            assert report.aggregated_accuracy == recomputed
            assert report.alpha is None

    def test_alpha_present_only_for_weight_search(self):
        shards = blob_shards(4, 1)
        config = FederationConfig(
            model=SPEC, train=TRAIN, rule=FedAvgOpt(), rounds=2, seed=1
        )
        for report in run_federation(config, shards):
            assert isinstance(report.alpha, AlphaSolution)
            assert report.alpha.alpha.shape == (4,)
            assert report.alpha.objective_at_alpha <= report.alpha.objective_at_ones

    @pytest.mark.parametrize("num_clients", [16, 32])
    def test_search_improves_on_ones_at_many_clients(self, num_clients):
        data = generate_blobs(200, 4, 10, 1.8, 0)
        shards = make_client_shards(data, num_clients, 0.5, 0)
        config = FederationConfig(
            model=ModelSpec(input_dim=10, num_classes=4),
            train=TrainConfig(learning_rate=0.1, batch_size=32, local_epochs=1),
            rule=FedAvgOpt(),
            rounds=2,
            seed=0,
        )
        reports = run_federation(config, shards)
        assert len(reports) == 2
        for report in reports:
            assert report.alpha.alpha.shape == (num_clients,)
            assert report.alpha.objective_at_alpha < report.alpha.objective_at_ones

    def test_single_client_round_matches_local_training(self):
        shards = blob_shards(1, 2)
        config = FederationConfig(model=SPEC, train=TRAIN, rounds=1, seed=3)
        (report,) = run_federation(config, shards)
        w0 = init_params(SPEC, 3)
        local = sgd_train(w0, SPEC, shards[0].train, TRAIN, 3)
        metrics = evaluate(local, SPEC, shards[0].test)
        assert report.aggregated_accuracy == metrics["accuracy"]
        # A single-client average is the local model itself.
        assert report.global_accuracy == metrics["accuracy"]

    def test_two_client_rounds_replay_exactly(self):
        # Hand-run two rounds with the public pieces and demand bit-equal
        # accuracies, pinning the train-seed derivation and example weighting.
        data = generate_blobs(20, 2, 3, 1.0, 4)
        shards = make_client_shards(data, 2, 0.3, 4)
        config = FederationConfig(model=SPEC, train=TRAIN, rounds=2, seed=11)
        reports = run_federation(config, shards)

        params = init_params(SPEC, 11)
        for report in reports:
            updates = []
            local_metrics = []
            for i, shard in enumerate(shards):
                local = sgd_train(params, SPEC, shard.train, TRAIN, 11 + i)
                local_metrics.append(
                    (len(shard.test), evaluate(local, SPEC, shard.test)["accuracy"])
                )
                updates.append(
                    ClientUpdate(
                        client_id=shard.client_id,
                        num_examples=len(shard.train),
                        params=local,
                    )
                )
            params = aggregate_fedavg(updates)
            expected_global = weighted_accuracy(
                [
                    (len(s.test), evaluate(params, SPEC, s.test)["accuracy"])
                    for s in shards
                ]
            )
            assert report.aggregated_accuracy == weighted_accuracy(local_metrics)
            assert report.global_accuracy == expected_global

    def test_identical_clients_make_weight_search_match_plain_average(self):
        # Full-batch training ignores the shuffle seed, so four clients
        # holding the same data produce identical updates and both
        # strategies must aggregate to the same model.
        data = generate_blobs(8, 2, 3, 1.0, 5)
        train, test = data.subset(np.arange(8)), data.subset(np.arange(8, 16))
        shards = [ClientShard(f"client_{i}", train, test) for i in range(4)]
        base = FederationConfig(model=SPEC, train=TRAIN, rounds=3, seed=7)
        avg_reports = run_federation(
            dataclasses.replace(base, rule=FedAvg()), shards
        )
        opt_reports = run_federation(
            dataclasses.replace(base, rule=FedAvgOpt()), shards
        )
        for avg, opt in zip(avg_reports, opt_reports):
            assert opt.aggregated_accuracy == avg.aggregated_accuracy
            assert opt.global_accuracy == avg.global_accuracy
            assert opt.alpha.objective_at_ones == 0.0
            assert opt.alpha.objective_at_alpha == 0.0

    def test_deterministic(self):
        shards = blob_shards(4, 6)
        config = FederationConfig(
            model=SPEC, train=TRAIN, rule=FedAvgM(), rounds=3, seed=2
        )
        assert run_federation(config, shards) == run_federation(config, shards)

    def test_insufficient_clients_rejected(self):
        config = FederationConfig(model=SPEC, train=TRAIN)
        with pytest.raises(ConfigError, match="at least one client"):
            run_federation(config, [])

    def test_empty_split_rejected(self):
        shards = blob_shards(2, 8)
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), ("a", "b"))
        broken = [shards[0], ClientShard("client_1", empty, shards[1].test)]
        config = FederationConfig(model=SPEC, train=TRAIN)
        with pytest.raises(ConfigError, match="client_1"):
            run_federation(config, broken)

    def test_numeric_failure_reports_round(self):
        # Huge feature scale makes the squared pseudo-gradient overflow
        # inside the adaptive server optimizer during the first round.
        # A single full-batch step keeps local training itself finite.
        data = generate_blobs(8, 2, 3, 1.0, 9)
        huge = Dataset(data.features * 1e160, data.labels, data.class_names)
        shards = make_client_shards(huge, 2, 0.5, 9)
        config = FederationConfig(
            model=SPEC,
            train=TrainConfig(learning_rate=0.2, batch_size=16, local_epochs=1),
            rule=FedOpt(server_lr=0.1, tau=1e-9, server_optimizer="adagrad"),
            rounds=3,
            seed=0,
        )
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericError, match="fedopt.*round 1"):
                run_federation(config, shards)


class TestCompareStrategies:
    def comparison(self, rules=(FedAvg(), FedAvgM()), seeds=(0, 1)):
        base = FederationConfig(model=SPEC, train=TRAIN, rounds=2, seed=0)
        return compare_strategies(base, rules, seeds, lambda seed: blob_shards(4, seed))

    def test_one_run_per_strategy_seed_pair(self):
        result = self.comparison()
        assert isinstance(result, ComparisonResult)
        assert [(r.strategy, r.seed) for r in result.runs] == [
            ("fedavg", 0),
            ("fedavgm", 0),
            ("fedavg", 1),
            ("fedavgm", 1),
        ]
        assert result.strategies == ["fedavg", "fedavgm"]
        assert result.seeds == [0, 1]
        assert len(result.runs_for("fedavg")) == 2

    def test_round_one_is_strategy_independent(self):
        # Same shards and same initial weights per seed: the first round's
        # local models cannot depend on the aggregation rule.
        result = self.comparison(rules=(FedAvg(), FedMedian(), FedYogi()))
        for seed in result.seeds:
            firsts = [
                run.reports[0]
                for run in result.runs
                if run.seed == seed
            ]
            for other in firsts[1:]:
                assert other.per_client == firsts[0].per_client
                assert other.aggregated_accuracy == firsts[0].aggregated_accuracy

    def test_mean_accuracy_matches_manual_average(self):
        result = self.comparison()
        for strategy in result.strategies:
            runs = result.runs_for(strategy)
            manual = np.mean([np.mean(r.round_accuracies) for r in runs])
            assert result.mean_accuracy(strategy) == pytest.approx(manual, rel=1e-12)
        with pytest.raises(ValueError):
            result.mean_accuracy("fedopt")

    def test_hyperparam_overrides_are_applied(self):
        # server_lr = 0 freezes the global model, so its accuracy equals the
        # initial model's accuracy in every round.
        result = self.comparison(rules=(FedMedian(server_lr=0.0),), seeds=(3,))
        shards = blob_shards(4, 3)
        w0 = init_params(SPEC, 3)
        expected = weighted_accuracy(
            [
                (len(s.test), evaluate(w0, SPEC, s.test)["accuracy"])
                for s in shards
            ]
        )
        for report in result.runs[0].reports:
            assert report.global_accuracy == expected

    def test_each_seeds_shards_are_freed_before_the_next_seeds_are_built(self):
        datasets: list[weakref.ref] = []
        alive_at_build: list[int] = []

        def shards(seed):
            alive_at_build.append(sum(ref() is not None for ref in datasets))
            built = blob_shards(2, seed)
            datasets.extend(weakref.ref(d) for shard in built for d in (shard.train, shard.test))
            return built

        base = FederationConfig(model=SPEC, train=TRAIN, rounds=2, seed=0)
        compare_strategies(base, (FedAvg(), FedMedian()), (0, 1, 2), shards)
        assert alive_at_build == [0, 0, 0]
        assert len(datasets) == 12

    def test_diverged_fedavgopt_raises_its_numeric_error(self):
        # The all-ones objective overflows.  Under the suite's warnings-as-errors
        # a numpy overflow warning once surfaced in place of this error.
        train = TrainConfig(learning_rate=1e300, batch_size=4)
        base = FederationConfig(model=SPEC, train=train, rounds=2)
        with pytest.raises(NumericError, match="^fedavgopt: aggregation failed in round 1: "):
            compare_strategies(base, (FedAvgOpt(),), (0,), lambda seed: blob_shards(2, seed, 8))

    @pytest.mark.parametrize(
        "batch_size, where",
        [
            # Round 1 is trained once per seed for every rule, so its failure
            # names no strategy.  A batch of 4 is each client's whole train
            # split, and its one step from the initial model stays finite.
            (2, "seed 1, round 1, client_1"),
            (4, "fedavg, seed 1, round 2, client_0"),
        ],
    )
    def test_diverged_training_names_its_client(self, batch_size, where):
        spec = ModelSpec(input_dim=3, hidden_dims=(5,), num_classes=2)
        train = TrainConfig(learning_rate=1e300, batch_size=batch_size)
        base = FederationConfig(model=spec, train=train, rounds=2)
        message = f"{where}: training failed: parameter vector contains non-finite entries"
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match=f"^{message}$"):
                compare_strategies(
                    base, (FedAvg(), FedAvgM()), (1,), lambda seed: blob_shards(2, seed, 8)
                )

    def test_run_federation_names_the_strategy_of_a_diverged_round_one(self):
        spec = ModelSpec(input_dim=3, hidden_dims=(5,), num_classes=2)
        train = TrainConfig(learning_rate=1e300, batch_size=2)
        config = FederationConfig(model=spec, train=train, rule=FedAvgM(), rounds=2, seed=1)
        message = "fedavgm, seed 1, round 1, client_1: training failed: "
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match=f"^{message}"):
                run_federation(config, blob_shards(2, 1, 8))

    def test_repeated_strategy_rejected(self):
        # Runs are reported by strategy name, so two fedavgm settings would
        # merge into one curve and one mean.
        with pytest.raises(ConfigError, match="^strategy 'fedavgm' is given more than once$"):
            self.comparison(rules=(FedAvgM(), FedAvg(), FedAvgM(momentum_beta=0.9)))

    @pytest.mark.parametrize(
        "rules, seeds, message",
        [((), (0,), "need at least one strategy"), ((FedAvg(),), (), "need at least one seed")],
    )
    def test_empty_strategies_or_seeds_rejected(self, rules, seeds, message):
        base = FederationConfig(model=SPEC, train=TRAIN, rounds=1)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            compare_strategies(base, rules, seeds, lambda seed: blob_shards(2, seed))

    def test_shard_factory_called_once_per_seed(self):
        calls = []

        def factory(seed):
            calls.append(seed)
            return blob_shards(4, seed)

        base = FederationConfig(model=SPEC, train=TRAIN, rounds=1, seed=0)
        compare_strategies(base, (FedAvg(), FedAvgM(), FedYogi()), (5, 6), factory)
        assert calls == [5, 6]

    @pytest.mark.parametrize(
        "seeds, message",
        [
            ((0, 0), "seed 0 is given more than once"),
            ((True,), "seed must be an integer >= 0, got True"),
            ((-1,), "seed must be an integer >= 0, got -1"),
            ((0.5,), "seed must be an integer >= 0, got 0.5"),
            ((1, True), "seed must be an integer >= 0, got True"),
        ],
    )
    def test_bad_seeds_rejected_before_any_shards(self, seeds, message):
        # A repeated seed would run twice under one seed label; True would be
        # written as a seed; -1 would fail deep inside numpy.
        calls = []
        base = FederationConfig(model=SPEC, train=TRAIN, rounds=1)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            compare_strategies(base, (FedAvg(),), seeds, calls.append)
        assert calls == []

    def test_numpy_integer_seed_runs(self):
        result = self.comparison(rules=(FedAvg(),), seeds=(np.int64(3),))
        assert result.seeds == [3]

    def test_empty_inputs_rejected(self):
        base = FederationConfig(model=SPEC, train=TRAIN, rounds=1)
        with pytest.raises(ValueError):
            compare_strategies(base, (), (0,), lambda s: blob_shards(4, s))
        with pytest.raises(ValueError):
            compare_strategies(base, (FedAvg(),), (), lambda s: blob_shards(4, s))


def write_outputs(result, directory):
    directory.mkdir()
    write_history_csv(result, directory / "history.csv")
    write_summary(result, directory / "summary.txt")
    emit_plot_data(result, directory / "curves")


class TestSharedFirstRound:
    ROUNDS = 3
    SEEDS = (0, 1)

    @pytest.mark.parametrize(
        "model",
        [SPEC, ModelSpec(input_dim=3, hidden_dims=(5,), activation="tanh", num_classes=2)],
        ids=["logistic", "mlp"],
    )
    def test_outputs_match_one_run_federation_per_pair(self, tmp_path, model):
        base = FederationConfig(model=model, train=TRAIN, rounds=self.ROUNDS)
        factory = lambda seed: blob_shards(4, seed)
        rules = [rule() for rule in RULES.values()]
        shared = compare_strategies(base, rules, self.SEEDS, factory)
        plain = oracles.compare_strategies(base, rules, self.SEEDS, factory)
        write_outputs(shared, tmp_path / "shared")
        write_outputs(plain, tmp_path / "plain")
        names = ["history.csv", "summary.txt"]
        names += [f"curves/{p.name}" for p in (tmp_path / "plain" / "curves").iterdir()]
        assert len(names) == 2 + len(RULES) * (len(self.SEEDS) + 1)
        _, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "shared", tmp_path / "plain", names, shallow=False
        )
        assert (mismatch, errors) == ([], [])

    def test_round_one_trained_once_per_seed(self, monkeypatch):
        trained = count_calls(monkeypatch, fedsim.orchestrator, "sgd_train")
        evaluated = count_calls(monkeypatch, fedsim.orchestrator, "evaluate")
        clients, strategies = 4, (FedAvg(), FedMedian(), FedYogi())
        base = FederationConfig(model=SPEC, train=TRAIN, rounds=self.ROUNDS)
        compare_strategies(
            base, strategies, self.SEEDS, lambda seed: blob_shards(clients, seed)
        )
        local = clients * len(self.SEEDS) * (1 + len(strategies) * (self.ROUNDS - 1))
        assert len(trained) == local
        # One local evaluation per trained model, one global one per client
        # and round of every federation.
        federations = len(strategies) * len(self.SEEDS)
        assert len(evaluated) == local + federations * self.ROUNDS * clients

    def test_run_federation_alone_trains_round_one(self, monkeypatch):
        trained = count_calls(monkeypatch, fedsim.orchestrator, "sgd_train")
        config = FederationConfig(model=SPEC, train=TRAIN, rounds=self.ROUNDS)
        run_federation(config, blob_shards(4, 0))
        assert len(trained) == 4 * self.ROUNDS

    def test_invalid_shards_rejected_before_training(self, monkeypatch):
        trained = count_calls(monkeypatch, fedsim.orchestrator, "sgd_train")
        base = FederationConfig(model=SPEC, train=TRAIN, rounds=2)
        with pytest.raises(ConfigError, match="at least one client"):
            compare_strategies(base, (FedAvg(), FedAvgM()), (0,), lambda s: [])
        assert trained == []
