"""Federation round loop and cross-strategy comparison harness.

A federation runs several strategies on the same clients side by side, in
one round body: one ``sgd_train`` call trains every client from each
strategy's global model (from the one shared initial model in round 1),
one ``evaluate`` call scores each freshly trained model on its own client's
test set, each strategy folds its clients' models into its next global
model, and one more ``evaluate`` call scores the new global models.

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

from .data import ClientShard, stream_seed
from .exceptions import Config, ConfigError, NumericError, bounded
from .models import ModelSpec, TrainConfig, evaluate, init_params, sgd_train
from .params import ParamVector
from .strategies import Aggregator, AlphaSolution, ClientUpdate, FedAvg, Rule

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FederationConfig(Config):
    """One federation of every rule in ``rules`` over the same clients, each
    from the same initial weights ``init_params(model, stream_seed(seed, "init"))``."""

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


def run_federation(config: FederationConfig, shards: Sequence[ClientShard]) -> tuple[StrategyRun, ...]:
    """Run the configured number of rounds of every rule over the given
    clients, all rules one round at a time; one run per rule, in rule order.

    Deterministic: every rule starts from the weights of the seed's init
    stream, and client ``i`` always trains on its own batches stream, so
    visits its rows in the same batch order in every round of every rule; a fixed
    (config, shards) pair reproduces the same reports bit for bit, and each
    rule's reports have the bits of a federation of that rule alone.

    One round body runs top to bottom:

    1. one ``sgd_train`` call trains the round's starting models on every
       client: in round 1 the one shared initial model, once for every
       rule, so round 1's events name no strategy; later, each rule's
       global model, as one raw row per (start, client) pair;
    2. each row is wrapped in its ``ClientUpdate``'s ``ParamVector``, the one
       check of a trained model: the first non-finite row fails its training;
    3. ``evaluate`` scores the very table ``sgd_train`` returned (the
       benchmark's tracer tells local from global scoring by it) into each
       ``ClientRoundMetrics``, warning of a non-finite local test loss;
    4. each rule in turn aggregates its start's block of the updates, and
       the round's table and updates are released, so no weights trained in
       an earlier round survive into the next round's training;
    5. one ``evaluate`` call scores every rule's new global model.

    So the failure reported is the earliest round's, a training failure
    before an aggregation one, and then the first rule's.  A warning names
    a non-finite local test loss as a training failure of that model is
    named, and an unconverged capped coefficient search by strategy, seed
    and round.
    """
    if len(shards) == 0:
        raise ConfigError("need at least one client")
    for shard in shards:
        if len(shard.train) == 0 or len(shard.test) == 0:
            raise ConfigError(f"{shard.client_id}: empty train or test split")
    count = len(shards)
    trains, tests = [shard.train for shard in shards], [shard.test for shard in shards]
    client_seeds = [stream_seed(config.seed, "batches", i) for i in range(count)]
    aggregators = [Aggregator(rule) for rule in config.rules]
    global_models = [init_params(config.model, stream_seed(config.seed, "init"))] * len(aggregators)
    # Row s * count + i of a round's table is start s trained on client i.
    blocks = [slice(s * count, (s + 1) * count) for s in range(len(aggregators))]
    reports: list[list[RoundReport]] = [[] for _ in aggregators]
    for round_idx in range(1, config.rounds + 1):
        where = f"seed {config.seed}, round {round_idx}"
        if round_idx == 1:  # every rule reads the one shared start's block
            starts, labels, rows = global_models[:1], [where], blocks[:1] * len(aggregators)
        else:
            starts, rows = global_models, blocks
            labels = [f"{a.strategy}, {where}" for a in aggregators]
        names = [f"{label}, {shard.client_id}" for label in labels for shard in shards]
        trained = sgd_train(starts, config.model, trains, config.train, client_seeds)
        updates, records = [], []
        for name, shard, values in zip(names, shards * len(starts), trained):
            try:
                updates.append(ClientUpdate(shard.client_id, len(shard.train), ParamVector(values)))
            except NumericError as exc:
                raise NumericError(f"{name}: training failed: {exc}") from exc
        local_metrics = evaluate(trained, config.model, tests * len(starts))
        for name, shard, scores in zip(names, shards * len(starts), local_metrics):
            if not math.isfinite(scores["loss"]):
                logger.warning("%s: local test loss is %r", name, scores["loss"])
            records.append(ClientRoundMetrics(shard.client_id, len(shard.test), **scores))
        for s, aggregator in enumerate(aggregators):
            try:
                global_models[s] = aggregator.aggregate(updates[rows[s]], global_models[s])
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
        # The round's trained weights, the wrap loop's last row view of them
        # included, die here: the next round trains beside none of them.
        del trained, values, updates
        global_values = [model.values for model in global_models for _ in shards]
        global_metrics = evaluate(global_values, config.model, tests * len(aggregators))
        for s, aggregator in enumerate(aggregators):
            per_client = tuple(records[rows[s]])
            aggregated_accuracy = weighted_accuracy(
                [(m.num_test_examples, m.accuracy) for m in per_client]
            )
            global_accuracy = weighted_accuracy(
                [(len(test), m["accuracy"]) for test, m in zip(tests, global_metrics[blocks[s]])]
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
    config: FederationConfig,
    seeds: Sequence[int],
    shard_factory: Callable[[int], Sequence[ClientShard]],
) -> ComparisonResult:
    """Run every rule of ``config.rules`` on identical shards and identical
    initial weights.

    For each seed, ``shard_factory(seed)`` builds the client shards once and
    one :func:`run_federation` runs every rule on them; the shared seed also
    fixes w0, so curves differ only through the aggregation rule.

    ``config``'s ``seed`` is replaced, and every seed's config is built, so
    checked, before any shards are.  Runs are reported by strategy name and
    seed, so each must be distinct.  Runs come seed by seed, each seed's in
    rule order.
    """
    if len(seeds) == 0:
        raise ConfigError("need at least one seed")
    configs = [dataclasses.replace(config, seed=seed) for seed in seeds]
    distinct = {"seed": [seed_config.seed for seed_config in configs],
                "strategy": [rule.name for rule in config.rules]}
    for kind, values in distinct.items():
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"{kind} {value!r} is given more than once")
    runs: list[StrategyRun] = []
    for seed_config in configs:
        logger.info("running strategy=%s seed=%d", seed_config.strategy, seed_config.seed)
        # Each seed's shards are released before the next seed builds its own.
        runs.extend(run_federation(seed_config, shard_factory(seed_config.seed)))
    return ComparisonResult(runs=tuple(runs))
