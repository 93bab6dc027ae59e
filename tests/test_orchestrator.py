import dataclasses
import filecmp
import math
import re
import weakref

import numpy as np
import pytest

import fedsim.data
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
    ParamVector,
    SimplexConfig,
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
NON_FINITE = "parameter vector contains non-finite entries"


def blob_shards(num_clients, seed, samples_per_class=16):
    data = generate_blobs(samples_per_class, 2, 3, 1.0, seed)
    return make_client_shards(data, num_clients, 0.5, seed)


def craft_round_two(monkeypatch, edit):
    """Round 2's ``sgd_train`` table, as ``run_federation`` receives it, is a
    read-only copy of the real one that ``edit`` has changed."""
    calls = []

    def train(*args):
        calls.append(None)
        table = sgd_train(*args)
        if len(calls) == 2:
            table = table.copy()
            edit(table)
            table.setflags(write=False)
        return table

    monkeypatch.setattr(fedsim.orchestrator, "sgd_train", train)


def assert_raised_by_param_vector(error):
    """``error`` is the NumericError that building a ParamVector raised."""
    assert type(error) is NumericError and str(error) == NON_FINITE
    frame = error.__traceback__
    while frame.tb_next is not None:
        frame = frame.tb_next
    assert frame.tb_frame.f_code is ParamVector.__post_init__.__code__


def reports_of(config, shards):
    """The reports of a one-rule ``run_federation``."""
    (run,) = run_federation(config, shards)
    return run.reports


def report_bits(reports):
    """Every field of each report, with a coefficient vector as its bytes."""
    return [
        (*dataclasses.astuple(report)[:-1], None if report.alpha is None else (
            report.alpha.alpha.tobytes(), *dataclasses.astuple(report.alpha)[1:]))
        for report in reports
    ]


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
        with pytest.raises(ConfigError, match="^rules must be instances of FedAvg or "):
            FederationConfig(model=SPEC, train=TRAIN, rules=("fedavg",))

    def test_rules_must_be_a_nonempty_list(self):
        with pytest.raises(ConfigError, match="^rules must be a list of instances of "):
            FederationConfig(model=SPEC, train=TRAIN, rules=FedAvg())
        with pytest.raises(ConfigError, match="^need at least one strategy$"):
            FederationConfig(model=SPEC, train=TRAIN, rules=[])
        config = FederationConfig(model=SPEC, train=TRAIN, rules=[FedAvg(), FedAvgOpt()])
        assert config.rules == (FedAvg(), FedAvgOpt())
        # The label of the run's log lines and of the benchmark's tracer.
        assert config.strategy == "fedavg,fedavgopt"

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
        assert (config.rules, config.strategy) == ((FedAvg(),), "fedavg")
        yogi = dataclasses.replace(config, rules=(FedYogi(),))
        changed = dataclasses.replace(config, rules=(FedYogi(server_lr=0.5),))
        assert reports_of(yogi, shards) != reports_of(changed, shards)


class TestRunFederation:
    def test_report_shape(self):
        shards = blob_shards(4, 0)
        config = FederationConfig(model=SPEC, train=TRAIN, rounds=3, seed=0)
        reports = reports_of(config, shards)
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
            model=SPEC, train=TRAIN, rules=(FedAvgOpt(),), rounds=2, seed=1
        )
        for report in reports_of(config, shards):
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
            rules=(FedAvgOpt(),),
            rounds=2,
            seed=0,
        )
        reports = reports_of(config, shards)
        assert len(reports) == 2
        for report in reports:
            assert report.alpha.alpha.shape == (num_clients,)
            assert report.alpha.objective_at_alpha < report.alpha.objective_at_ones

    def test_single_client_round_matches_local_training(self):
        shards = blob_shards(1, 2)
        config = FederationConfig(model=SPEC, train=TRAIN, rounds=1, seed=3)
        (report,) = reports_of(config, shards)
        w0 = init_params(SPEC, oracles.stream_seeds(3, "init")[0])
        local = sgd_train([w0], SPEC, [shards[0].train], TRAIN, oracles.stream_seeds(3, "batches"))[0]
        metrics = evaluate([local], SPEC, [shards[0].test])[0]
        assert report.aggregated_accuracy == metrics["accuracy"]
        # A single-client average is the local model itself.
        assert report.global_accuracy == metrics["accuracy"]

    def test_two_client_rounds_replay_exactly(self):
        # Hand-run two rounds with the public pieces and demand bit-equal
        # accuracies, pinning the seeds' streams and the example weighting.
        data = generate_blobs(20, 2, 3, 1.0, 4)
        shards = make_client_shards(data, 2, 0.3, 4)
        config = FederationConfig(model=SPEC, train=TRAIN, rounds=2, seed=11)
        reports = reports_of(config, shards)

        params = init_params(SPEC, oracles.stream_seeds(11, "init")[0])
        batches = oracles.stream_seeds(11, "batches", len(shards))
        for report in reports:
            updates = []
            local_metrics = []
            for i, shard in enumerate(shards):
                local = sgd_train([params], SPEC, [shard.train], TRAIN, [batches[i]])[0]
                local_metrics.append(
                    (len(shard.test), evaluate([local], SPEC, [shard.test])[0]["accuracy"])
                )
                updates.append(
                    ClientUpdate(
                        client_id=shard.client_id,
                        num_examples=len(shard.train),
                        params=ParamVector(local),
                    )
                )
            params = aggregate_fedavg(updates)
            expected_global = weighted_accuracy(
                [
                    (len(s.test), evaluate([params.values], SPEC, [s.test])[0]["accuracy"])
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
        avg_reports = reports_of(dataclasses.replace(base, rules=(FedAvg(),)), shards)
        opt_reports = reports_of(dataclasses.replace(base, rules=(FedAvgOpt(),)), shards)
        for avg, opt in zip(avg_reports, opt_reports):
            assert opt.aggregated_accuracy == avg.aggregated_accuracy
            assert opt.global_accuracy == avg.global_accuracy
            assert opt.alpha.objective_at_ones == 0.0
            assert opt.alpha.objective_at_alpha == 0.0

    def test_deterministic(self):
        shards = blob_shards(4, 6)
        config = FederationConfig(
            model=SPEC, train=TRAIN, rules=(FedAvgM(),), rounds=3, seed=2
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
            rules=(FedOpt(server_lr=0.1, tau=1e-9, server_optimizer="adagrad"),),
            rounds=3,
            seed=0,
        )
        with pytest.raises(NumericError, match="fedopt.*round 1"):
            run_federation(config, shards)

    def test_capped_coefficient_search_is_logged(self, caplog):
        rule = FedAvgOpt(SimplexConfig(max_iterations=1))
        config = FederationConfig(model=SPEC, train=TRAIN, rules=(rule,), rounds=2, seed=3)
        reports = reports_of(config, blob_shards(3, 3))
        assert not any(r.alpha.converged for r in reports)
        assert [(r.levelname, r.name, r.getMessage()) for r in caplog.records] == [
            (
                "WARNING",
                "fedsim.orchestrator",
                f"fedavgopt, seed 3, round {k}: "
                "coefficient search stopped unconverged at its cap of 1 iterations",
            )
            for k in (1, 2)
        ]

    def test_converged_coefficient_search_logs_nothing(self, caplog):
        config = FederationConfig(model=SPEC, train=TRAIN, rules=(FedAvgOpt(),), rounds=2, seed=3)
        reports = reports_of(config, blob_shards(3, 3))
        assert all(r.alpha.converged for r in reports)
        assert caplog.records == []

    def test_every_rule_reports_as_if_it_ran_alone(self):
        # Rules of one federation share round 1 and train side by side from
        # round 2 on; each rule's reports keep the bits of its own federation.
        shards = blob_shards(4, 2, samples_per_class=17)
        assert [len(shard.train) for shard in shards] == [6, 4, 4, 4]
        rules = (FedAvgOpt(), FedMedian(), FedAvg(), FedYogi())
        train = TrainConfig(learning_rate=0.2, batch_size=3, local_epochs=2)
        config = FederationConfig(model=SPEC, train=train, rules=rules, rounds=3, seed=2)
        runs = run_federation(config, shards)
        assert [(run.strategy, run.seed) for run in runs] == [(rule.name, 2) for rule in rules]
        for rule, run in zip(rules, runs):
            alone = dataclasses.replace(config, rules=(rule,))
            assert report_bits(run.reports) == report_bits(reports_of(alone, shards))
            assert report_bits(run.reports) == report_bits(oracles.run_federation(config, rule, shards))

    def test_repeated_rule_names_are_left_to_the_caller(self):
        # run_federation returns one run per rule, in rule order; only
        # compare_strategies, which reports runs by name, rejects a repeat.
        config = FederationConfig(
            model=SPEC, train=TRAIN, rules=(FedAvgM(), FedAvgM(server_lr=0.5)), rounds=2
        )
        first, second = run_federation(config, blob_shards(2, 0))
        assert first.strategy == second.strategy == "fedavgm"
        assert first.reports != second.reports

    def test_no_earlier_rounds_weights_survive_into_training(self, monkeypatch):
        # Each round trains beside no table, row view or ClientUpdate of an
        # earlier round's training; only weak references are kept here.
        tables: list[weakref.ref] = []
        params: list[weakref.ref] = []
        alive_at_train: list[int] = []

        def train(*args):
            alive_at_train.append(sum(ref() is not None for ref in tables + params))
            table = sgd_train(*args)
            tables.append(weakref.ref(table))
            return table

        def update(*args):
            built = ClientUpdate(*args)
            params.append(weakref.ref(built.params))
            return built

        monkeypatch.setattr(fedsim.orchestrator, "sgd_train", train)
        monkeypatch.setattr(fedsim.orchestrator, "ClientUpdate", update)
        config = FederationConfig(
            model=SPEC, train=TRAIN, rules=(FedAvgM(), FedAvgOpt()), rounds=3
        )
        run_federation(config, blob_shards(3, 0))
        assert alive_at_train == [0, 0, 0]
        assert len(tables) == 3 and len(params) == 3 + 2 * 3 + 2 * 3


class TestCompareStrategies:
    def comparison(self, rules=(FedAvg(), FedAvgM()), seeds=(0, 1)):
        base = FederationConfig(model=SPEC, train=TRAIN, rounds=2, seed=0)
        return compare_strategies(
            dataclasses.replace(base, rules=rules), seeds, lambda seed: blob_shards(4, seed)
        )

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
        w0 = init_params(SPEC, oracles.stream_seeds(3, "init")[0])
        expected = weighted_accuracy(
            [
                (len(s.test), evaluate([w0.values], SPEC, [s.test])[0]["accuracy"])
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
        compare_strategies(
            dataclasses.replace(base, rules=(FedAvg(), FedMedian())), (0, 1, 2), shards
        )
        assert alive_at_build == [0, 0, 0]
        assert len(datasets) == 12

    def test_diverged_server_step_raises_its_numeric_error(self):
        # fedavgm's round-1 server step overflows, so its error comes before
        # the one of fedavg's round-2 training, though fedavg is listed first.
        # Under the suite's warnings-as-errors a numpy overflow warning once
        # surfaced in place of such an error.
        spec = ModelSpec(input_dim=3, hidden_dims=(5,), num_classes=2)
        train = TrainConfig(learning_rate=1e300, batch_size=4)
        base = FederationConfig(model=spec, train=train, rounds=2)
        message = "fedavgm, seed 0, round 1: aggregation failed: parameter vector contains non-finite entries"
        with pytest.raises(NumericError, match=f"^{message}$"):
            compare_strategies(
                dataclasses.replace(base, rules=(FedAvg(), FedAvgM(server_lr=1e10))),
                (0,),
                lambda seed: blob_shards(2, seed, 8),
            )

    @pytest.mark.parametrize(
        "batch_size, where",
        [
            # Round 1 is trained once per seed for every rule, so its failure
            # names no strategy.  A batch of 4 is each client's whole train
            # split, and its one step from the initial model stays finite.
            (2, "seed 1, round 1, client_0"),
            (4, "fedavg, seed 1, round 2, client_0"),
        ],
    )
    def test_diverged_training_names_its_client(self, batch_size, where):
        spec = ModelSpec(input_dim=3, hidden_dims=(5,), num_classes=2)
        train = TrainConfig(learning_rate=1e300, batch_size=batch_size)
        base = FederationConfig(model=spec, train=train, rounds=2)
        message = f"{where}: training failed: parameter vector contains non-finite entries"
        with pytest.raises(NumericError, match=f"^{message}$"):
            compare_strategies(
                dataclasses.replace(base, rules=(FedAvg(), FedAvgM())),
                (1,),
                lambda seed: blob_shards(2, seed, 8),
            )

    def test_run_federation_names_no_strategy_for_a_diverged_round_one(self):
        # Round 1 trains the one shared initial model for every rule, as it
        # does under compare_strategies.
        spec = ModelSpec(input_dim=3, hidden_dims=(5,), num_classes=2)
        train = TrainConfig(learning_rate=1e300, batch_size=2)
        config = FederationConfig(model=spec, train=train, rules=(FedAvgM(),), rounds=2, seed=1)
        message = "seed 1, round 1, client_0: training failed: "
        with pytest.raises(NumericError, match=f"^{message}"):
            run_federation(config, blob_shards(2, 1, 8))

    def test_a_diverged_client_in_the_middle_of_a_stack_is_named(self):
        # The four train splits have one size, so they train as one stack;
        # only client_2's features, scaled to 1e300, overflow its weights.
        shards = blob_shards(4, 0)
        assert len({len(shard.train) for shard in shards}) == 1
        big = shards[2].train
        shards[2] = ClientShard(
            "client_2", Dataset(big.features * 1e300, big.labels, big.class_names), shards[2].test
        )
        config = FederationConfig(model=SPEC, train=TRAIN, rounds=1)
        message = "seed 0, round 1, client_2: training failed: "
        with pytest.raises(NumericError, match=f"^{message}"):
            run_federation(config, shards)

    def test_a_diverged_rule_and_client_in_the_middle_of_a_round_two_stack_are_named(
        self, monkeypatch
    ):
        # client_2's train features of 1e140 leave every round-1 model
        # finite, but fedavgm's server rate of 1e40 takes its global model to
        # about 1e178, whose logits on those features overflow in round 2.
        # fedavg's round 2 and fedavgm's other clients stay finite, so the
        # failing entry is in the middle of the (rule, client) stack.
        shards = blob_shards(4, 0)
        big = shards[2].train
        shards[2] = ClientShard(
            "client_2", Dataset(big.features * 1e140, big.labels, big.class_names), shards[2].test
        )
        train = TrainConfig(learning_rate=0.2, batch_size=16, local_epochs=1)
        trained = count_calls(monkeypatch, fedsim.orchestrator, "sgd_train")
        rules = (FedAvg(), FedAvgM(server_lr=1e40), FedMedian())
        config = FederationConfig(model=SPEC, train=train, rules=rules, rounds=2)
        message = "fedavgm, seed 0, round 2, client_2: training failed: " + NON_FINITE
        with pytest.raises(NumericError, match=f"^{message}$") as exc:
            run_federation(config, shards)
        assert_raised_by_param_vector(exc.value.__cause__)
        assert [len(starts) for starts, *_ in trained] == [1, 3]

    def test_the_first_non_finite_row_in_result_order_is_named(self, monkeypatch):
        # Round 2's table holds fedavg's two clients, then fedmedian's; its
        # last row and fedavg's client_1 are non-finite.
        def edit(table):
            table[3] = np.inf
            table[1, 0] = np.nan

        craft_round_two(monkeypatch, edit)
        config = FederationConfig(model=SPEC, train=TRAIN, rules=(FedAvg(), FedMedian()), rounds=2)
        message = "fedavg, seed 0, round 2, client_1: training failed: " + NON_FINITE
        with pytest.raises(NumericError, match=f"^{message}$") as exc:
            run_federation(config, blob_shards(2, 0))
        assert_raised_by_param_vector(exc.value.__cause__)

    def test_a_training_failure_comes_before_the_rounds_local_scores(self, monkeypatch, caplog):
        # fedavg's client_0 comes back finite but with logits that overflow
        # on its test split, which local scoring would warn of; fedmedian's
        # client_1 comes back non-finite, and its failure is raised first.
        shards = blob_shards(2, 0)

        def edit(table):
            table[0] = 1e308
            assert not math.isfinite(evaluate(table[:1], SPEC, [shards[0].test])[0]["loss"])
            table[3] = np.nan

        craft_round_two(monkeypatch, edit)
        config = FederationConfig(model=SPEC, train=TRAIN, rules=(FedAvg(), FedMedian()), rounds=2)
        message = "fedmedian, seed 0, round 2, client_1: training failed: " + NON_FINITE
        with pytest.raises(NumericError, match=f"^{message}$"):
            run_federation(config, shards)
        assert caplog.records == []

    def test_the_earliest_rounds_failure_is_reported(self, monkeypatch):
        # fedavg fails in round 3 and fedmedian in round 2; the rules advance
        # round by round, so fedmedian's failure comes first although fedavg
        # is listed first.
        def fail_on(rule_type, call):
            original, calls = rule_type.step, []

            def step(rule, updates, previous, state):
                calls.append(None)
                if len(calls) == call:
                    return ParamVector(np.full(len(previous), np.inf)), state
                return original(rule, updates, previous, state)

            monkeypatch.setattr(rule_type, "step", step)

        fail_on(FedAvg, 3)
        fail_on(FedMedian, 2)
        base = FederationConfig(model=SPEC, train=TRAIN, rounds=4)
        with pytest.raises(NumericError, match="^fedmedian, seed 0, round 2: aggregation failed: "):
            compare_strategies(
                dataclasses.replace(base, rules=(FedAvg(), FedMedian())),
                (0,),
                lambda seed: blob_shards(2, seed),
            )

    def test_non_finite_local_loss_is_logged(self, caplog):
        # Round 1's one full-batch step at this rate leaves both clients'
        # models finite, but their logits overflow on the test splits; round 2
        # fails.
        spec = ModelSpec(input_dim=3, hidden_dims=(5,), num_classes=2)
        train = TrainConfig(learning_rate=1e300, batch_size=4)
        base = FederationConfig(model=spec, train=train, rounds=2)
        with pytest.raises(NumericError, match="^fedavg, seed 1, round 2, client_0: "):
            compare_strategies(
                dataclasses.replace(base, rules=(FedAvg(), FedAvgM())),
                (1,),
                lambda seed: blob_shards(2, seed, 8),
            )
        assert [(r.levelname, r.name, r.getMessage()) for r in caplog.records] == [
            ("WARNING", "fedsim.orchestrator", f"seed 1, round 1, {client}: local test loss is nan")
            for client in ("client_0", "client_1")
        ]

    def test_runs_exactly_the_configs_rules(self):
        base = FederationConfig(model=SPEC, train=TRAIN, rules=(FedAvgOpt(),), rounds=1)
        result = compare_strategies(base, (0, 1), lambda seed: blob_shards(2, seed))
        assert [(run.strategy, run.seed) for run in result.runs] == [
            ("fedavgopt", 0),
            ("fedavgopt", 1),
        ]

    def test_repeats_in_the_config_are_rejected_before_any_shards(self):
        calls = []
        rules = (FedAvgM(), FedAvgM(server_lr=0.5))
        config = FederationConfig(model=SPEC, train=TRAIN, rules=rules, rounds=1)
        with pytest.raises(ConfigError, match="^strategy 'fedavgm' is given more than once$"):
            compare_strategies(config, (0,), calls.append)
        with pytest.raises(ConfigError, match="^seed 4 is given more than once$"):
            compare_strategies(dataclasses.replace(config, rules=rules[:1]), (4, 4), calls.append)
        assert calls == []

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
            compare_strategies(
                dataclasses.replace(base, rules=rules), seeds, lambda seed: blob_shards(2, seed)
            )

    def test_shard_factory_called_once_per_seed(self):
        calls = []

        def factory(seed):
            calls.append(seed)
            return blob_shards(4, seed)

        base = FederationConfig(model=SPEC, train=TRAIN, rounds=1, seed=0)
        compare_strategies(
            dataclasses.replace(base, rules=(FedAvg(), FedAvgM(), FedYogi())), (5, 6), factory
        )
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
            compare_strategies(dataclasses.replace(base, rules=(FedAvg(),)), seeds, calls.append)
        assert calls == []

    def test_numpy_integer_seed_runs(self):
        result = self.comparison(rules=(FedAvg(),), seeds=(np.int64(3),))
        assert result.seeds == [3]

    def test_empty_inputs_rejected(self):
        base = FederationConfig(model=SPEC, train=TRAIN, rounds=1)
        with pytest.raises(ValueError):
            compare_strategies(
                dataclasses.replace(base, rules=()), (0,), lambda s: blob_shards(4, s)
            )
        with pytest.raises(ValueError):
            compare_strategies(
                dataclasses.replace(base, rules=(FedAvg(),)), (), lambda s: blob_shards(4, s)
            )


class TestSeedStreams:
    """Each config seed draws streams of its own, so adjacent seeds are
    independent draws rather than shifted copies of one another."""

    @staticmethod
    def seeds_drawn(monkeypatch):
        """The seeds a two-seed compare hands to sgd_train, init_params and
        each client's split, in call order."""
        calls = [
            count_calls(monkeypatch, fedsim.orchestrator, "sgd_train"),
            count_calls(monkeypatch, fedsim.orchestrator, "init_params"),
            count_calls(monkeypatch, fedsim.data, "stratified_train_test_split"),
        ]
        base = FederationConfig(model=SPEC, train=TRAIN, rounds=1)
        compare_strategies(base, (0, 1), lambda seed: blob_shards(2, seed))
        return calls

    def test_neighbouring_clients_of_adjacent_seeds_shuffle_apart(self, monkeypatch):
        trained, _, _ = self.seeds_drawn(monkeypatch)
        (*_, trains_0, _, batches_0), (*_, trains_1, _, batches_1) = trained
        # Client 1 under seed 0 and client 0 under seed 1 train on 8 rows.
        assert len(trains_0[1]) == len(trains_1[0]) == 8
        orders = [np.random.default_rng(b).permutation(8) for b in (batches_0[1], batches_1[0])]
        assert not np.array_equal(*orders)

    def test_initial_weights_share_no_stream_with_a_split(self, monkeypatch):
        # Seed 1's initial weights and seed 0's client-0 split.
        _, inits, splits = self.seeds_drawn(monkeypatch)
        (_, init_1), split_0 = inits[1], splits[0][2]
        draws = [np.random.default_rng(seed).random(8) for seed in (init_1, split_0)]
        assert not np.array_equal(*draws)


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
        self.assert_outputs_match_the_oracle(tmp_path, base, lambda seed: blob_shards(4, seed))

    def test_outputs_match_with_ragged_train_sizes(self, tmp_path):
        # Train splits of 6, 4, 4 and 4 rows at seed 0 train as two stacks of
        # (rule, client) pairs, with ragged batches of 3.
        model = ModelSpec(input_dim=3, hidden_dims=(5,), num_classes=2)
        train = TrainConfig(learning_rate=0.2, batch_size=3, local_epochs=2)
        base = FederationConfig(model=model, train=train, rounds=self.ROUNDS)
        factory = lambda seed: blob_shards(4, seed, samples_per_class=17)
        assert len({len(shard.train) for shard in factory(0)}) == 2
        self.assert_outputs_match_the_oracle(tmp_path, base, factory)

    def assert_outputs_match_the_oracle(self, tmp_path, base, factory):
        rules = [rule() for rule in RULES.values()]
        shared = compare_strategies(dataclasses.replace(base, rules=rules), self.SEEDS, factory)
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
        federations = count_calls(monkeypatch, fedsim.orchestrator, "run_federation")
        trained = count_calls(monkeypatch, fedsim.orchestrator, "sgd_train")
        evaluated = count_calls(monkeypatch, fedsim.orchestrator, "evaluate")
        updates = count_calls(monkeypatch, fedsim.orchestrator, "ClientUpdate")
        records = count_calls(monkeypatch, fedsim.orchestrator, "ClientRoundMetrics")
        clients, strategies = 4, (FedAvg(), FedMedian(), FedYogi())
        base = FederationConfig(model=SPEC, train=TRAIN, rounds=self.ROUNDS)
        compare_strategies(
            dataclasses.replace(base, rules=strategies),
            self.SEEDS,
            lambda seed: blob_shards(clients, seed),
        )
        # One federation of every rule per seed, and one sgd_train call per
        # round: round 1 trains the shared initial model, each later round
        # every rule's global model, one model per (start, client).
        assert len(federations) == len(self.SEEDS)
        assert [len(starts) for starts, *_ in trained] == (
            [1] + [len(strategies)] * (self.ROUNDS - 1)
        ) * len(self.SEEDS)
        local = len(self.SEEDS) * clients * (1 + len(strategies) * (self.ROUNDS - 1))
        assert sum(len(starts) * len(datasets) for starts, _, datasets, _, _ in trained) == local
        # Each trained model gets one update and one metrics record, which
        # every rule reads in round 1.
        assert len(updates) == len(records) == local
        # Per seed and round, one evaluate call scores the round's local
        # models and one every rule's global model on every client.
        assert len(evaluated) == 2 * len(self.SEEDS) * self.ROUNDS
        assert [len(models) for models, _, _ in evaluated] == [
            size
            for starts, *_ in trained
            for size in (len(starts) * clients, len(strategies) * clients)
        ]
        assert sum(len(datasets) for _, _, datasets in evaluated) == (
            local + len(strategies) * len(self.SEEDS) * self.ROUNDS * clients
        )

    def test_run_federation_alone_trains_round_one(self, monkeypatch):
        trained = count_calls(monkeypatch, fedsim.orchestrator, "sgd_train")
        config = FederationConfig(model=SPEC, train=TRAIN, rounds=self.ROUNDS)
        run_federation(config, blob_shards(4, 0))
        assert len(trained) == self.ROUNDS
        assert sum(len(datasets) for _, _, datasets, _, _ in trained) == 4 * self.ROUNDS

    def test_invalid_shards_rejected_before_training(self, monkeypatch):
        trained = count_calls(monkeypatch, fedsim.orchestrator, "sgd_train")
        base = FederationConfig(model=SPEC, train=TRAIN, rounds=2)
        with pytest.raises(ConfigError, match="at least one client"):
            compare_strategies(
                dataclasses.replace(base, rules=(FedAvg(), FedAvgM())), (0,), lambda s: []
            )
        assert trained == []
