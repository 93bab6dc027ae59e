"""Federation round loop and cross-strategy comparison harness.

One round = broadcast the global parameters, train every client locally,
evaluate each client's freshly trained model on its own test set, then fold
the updates into the next global model with the configured strategy.  A
federation runs several strategies on the same clients side by side: each
round trains every strategy's clients in one ``sgd_train`` call.

Per-round accuracy is deliberately measured on the local models *before*
aggregation, from the per-client metrics the round loop records; the
aggregated model's own test accuracy is logged alongside for transparency.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .data import ClientShard
from .exceptions import Config, ConfigError, NumericError, bounded
from .models import ModelSpec, TrainConfig, evaluate, init_params, sgd_train
from .params import ParamVector
from .strategies import Aggregator, AlphaSolution, ClientUpdate, FedAvg, Rule

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FederationConfig(Config):
    """One federation of every rule in ``rules`` over the same clients, each
    from the same initial weights ``init_params(model, seed)``."""

    model: ModelSpec
    train: TrainConfig
    rules: tuple[Rule, ...] = (FedAvg(),)
    rounds: int = bounded(10, ge=1)
    seed: int = bounded(0, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.rules:
            raise ConfigError("need at least one strategy")

    @property
    def strategy(self) -> str:
        """The rule names joined by commas: the label of the run's log lines."""
        return ",".join(rule.name for rule in self.rules)


@dataclass(frozen=True)
class ClientRoundMetrics:
    client_id: str
    num_test_examples: int
    accuracy: float
    loss: float


@dataclass(frozen=True)
class RoundReport:
    """Outcome of one round.  ``aggregated_accuracy`` is the test-count
    weighted mean of the local models' accuracies; ``global_accuracy`` is the
    same weighting applied to the newly aggregated model."""

    round: int
    per_client: tuple[ClientRoundMetrics, ...]
    aggregated_accuracy: float
    global_accuracy: float
    alpha: AlphaSolution | None = None


@dataclass(frozen=True)
class StrategyRun:
    """All rounds of one (strategy, seed) federation."""

    strategy: str
    seed: int
    reports: tuple[RoundReport, ...]

    @property
    def round_accuracies(self) -> list[float]:
        return [r.aggregated_accuracy for r in self.reports]

    @property
    def mean_accuracy(self) -> float:
        return sum(self.round_accuracies) / len(self.reports)


def weighted_accuracy(entries: Sequence[tuple[int, float]]) -> float:
    """Count-weighted mean accuracy: sum(n_i * acc_i) / sum(n_i)."""
    if len(entries) == 0:
        raise ValueError("entries must be nonempty")
    for count, _ in entries:
        if count < 1:
            raise ValueError("counts must be >= 1")
    total = float(sum(count for count, _ in entries))
    return sum(count * acc for count, acc in entries) / total


def _check_shards(shards: Sequence[ClientShard]) -> None:
    if len(shards) == 0:
        raise ConfigError("need at least one client")
    for shard in shards:
        if len(shard.train) == 0 or len(shard.test) == 0:
            raise ConfigError(f"{shard.client_id}: empty train or test split")


def _train_round(
    config: FederationConfig,
    shards: Sequence[ClientShard],
    starts: Sequence[ParamVector],
    wheres: Sequence[str],
) -> list[tuple[list[ClientUpdate], tuple[ClientRoundMetrics, ...]]]:
    """Train every client from each of ``starts`` in one ``sgd_train`` call and
    score each local model on its own test split; client ``i`` trains with
    seed ``config.seed + i``.  Returns each start's client updates and
    metrics.  A client whose training goes non-finite is named after its
    start's entry of ``wheres``, and so is one whose local test loss is
    non-finite, in a logged warning.  ``evaluate`` scores the very list
    ``sgd_train`` returned: the benchmark's tracer tells local from global
    scoring by it."""
    count = len(shards)
    try:
        trained = sgd_train(
            starts,
            config.model,
            [shard.train for shard in shards],
            config.train,
            [config.seed + i for i in range(count)],
        )
    except NumericError as exc:
        start, client = divmod(exc.index, count)
        raise NumericError(
            f"{wheres[start]}, {shards[client].client_id}: training failed: {exc}"
        ) from exc
    metrics = evaluate(trained, config.model, [shard.test for shard in shards] * len(starts))
    outcomes = []
    for s, where in enumerate(wheres):
        updates: list[ClientUpdate] = []
        per_client: list[ClientRoundMetrics] = []
        for i, shard in enumerate(shards):
            local, scores = trained[s * count + i], metrics[s * count + i]
            if not math.isfinite(scores["loss"]):
                logger.warning("%s, %s: local test loss is %r", where, shard.client_id, scores["loss"])
            per_client.append(
                ClientRoundMetrics(
                    client_id=shard.client_id,
                    num_test_examples=len(shard.test),
                    accuracy=scores["accuracy"],
                    loss=scores["loss"],
                )
            )
            updates.append(
                ClientUpdate(client_id=shard.client_id, num_examples=len(shard.train), params=local)
            )
        outcomes.append((updates, tuple(per_client)))
    return outcomes


def run_federation(config: FederationConfig, shards: Sequence[ClientShard]) -> tuple[StrategyRun, ...]:
    """Run the configured number of rounds of every rule over the given
    clients, all rules one round at a time; one run per rule, in rule order.

    Deterministic: every rule's global model starts from
    ``init_params(model, seed)`` and client ``i`` always trains with seed
    ``config.seed + i``, so a fixed (config, shards) pair reproduces the same
    reports bit for bit, and each rule's reports have the bits of a
    federation of that rule alone.  Round 1 trains the one shared starting
    model once for every rule, so its events name no strategy; from round 2
    on, one ``sgd_train`` call trains every rule's clients from that rule's
    global model.

    A round trains, then aggregates rule by rule, so the failure reported is
    the earliest round's, a training failure before an aggregation one, and
    then the first rule's.  A round whose coefficient search stops at its
    iteration cap unconverged is logged as a warning that names the
    strategy, seed and round.
    """
    _check_shards(shards)
    tests = [shard.test for shard in shards]
    aggregators = [Aggregator(rule) for rule in config.rules]
    global_models = [init_params(config.model, config.seed)] * len(aggregators)
    reports: list[list[RoundReport]] = [[] for _ in aggregators]
    for round_idx in range(1, config.rounds + 1):
        where = f"seed {config.seed}, round {round_idx}"
        if round_idx == 1:
            outcomes = _train_round(config, shards, global_models[:1], [where])
            outcomes *= len(aggregators)
        else:
            wheres = [f"{aggregator.strategy}, {where}" for aggregator in aggregators]
            outcomes = _train_round(config, shards, global_models, wheres)
        for s, (aggregator, (updates, _)) in enumerate(zip(aggregators, outcomes)):
            try:
                global_models[s] = aggregator.aggregate(updates, global_models[s])
            except NumericError as exc:
                raise NumericError(
                    f"{aggregator.strategy}, {where}: aggregation failed: {exc}"
                ) from exc
            alpha = aggregator.last_alpha
            if alpha is not None and not alpha.converged:
                logger.warning(
                    "%s, %s: coefficient search stopped unconverged at its cap of %d iterations",
                    aggregator.strategy,
                    where,
                    alpha.iterations,
                )
        global_metrics = evaluate(
            [model for model in global_models for _ in shards], config.model, tests * len(aggregators)
        )
        for s, (aggregator, (_, per_client)) in enumerate(zip(aggregators, outcomes)):
            aggregated_accuracy = weighted_accuracy(
                [(m.num_test_examples, m.accuracy) for m in per_client]
            )
            global_accuracy = weighted_accuracy(
                [
                    (len(test), m["accuracy"])
                    for test, m in zip(tests, global_metrics[s * len(shards) :])
                ]
            )
            reports[s].append(
                RoundReport(
                    round=round_idx,
                    per_client=per_client,
                    aggregated_accuracy=aggregated_accuracy,
                    global_accuracy=global_accuracy,
                    alpha=aggregator.last_alpha,
                )
            )
            logger.debug(
                "%s round %d: aggregated_accuracy=%.4f global_accuracy=%.4f",
                aggregator.strategy,
                round_idx,
                aggregated_accuracy,
                global_accuracy,
            )
    return tuple(
        StrategyRun(strategy=aggregator.strategy, seed=config.seed, reports=tuple(rule_reports))
        for aggregator, rule_reports in zip(aggregators, reports)
    )


@dataclass(frozen=True)
class ComparisonResult:
    """Per-(strategy, seed) curves plus the summary means."""

    runs: tuple[StrategyRun, ...]

    @property
    def strategies(self) -> list[str]:
        return list(dict.fromkeys(run.strategy for run in self.runs))

    @property
    def seeds(self) -> list[int]:
        return list(dict.fromkeys(run.seed for run in self.runs))

    def runs_for(self, strategy: str) -> list[StrategyRun]:
        return [run for run in self.runs if run.strategy == strategy]

    def mean_accuracy(self, strategy: str) -> float:
        """Mean over seeds of the mean-over-rounds aggregated accuracy."""
        per_seed = [run.mean_accuracy for run in self.runs_for(strategy)]
        if not per_seed:
            raise ValueError(f"no runs recorded for strategy {strategy!r}")
        return sum(per_seed) / len(per_seed)


def compare_strategies(
    base_config: FederationConfig,
    rules: Sequence[Rule],
    seeds: Sequence[int],
    shard_factory: Callable[[int], Sequence[ClientShard]],
) -> ComparisonResult:
    """Run every rule on identical shards and identical initial weights.

    For each seed, ``shard_factory(seed)`` builds the client shards once and
    one :func:`run_federation` runs every rule on them; the shared seed also
    fixes w0, so curves differ only through the aggregation rule.

    ``base_config``'s ``rules`` and ``seed`` are replaced, and every seed's
    config is built, so checked, before any shards are.  Runs are reported
    by strategy name and seed, so each must be distinct.  Runs come seed by
    seed, each seed's in rule order.
    """
    base_config = dataclasses.replace(base_config, rules=tuple(rules))
    if len(seeds) == 0:
        raise ConfigError("need at least one seed")
    configs = [dataclasses.replace(base_config, seed=seed) for seed in seeds]
    distinct = {"seed": [config.seed for config in configs],
                "strategy": [rule.name for rule in base_config.rules]}
    for kind, values in distinct.items():
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"{kind} {value!r} is given more than once")
    runs: list[StrategyRun] = []
    for config in configs:
        logger.info("running strategy=%s seed=%d", config.strategy, config.seed)
        # Each seed's shards are released before the next seed builds its own.
        runs.extend(run_federation(config, shard_factory(config.seed)))
    return ComparisonResult(runs=tuple(runs))
