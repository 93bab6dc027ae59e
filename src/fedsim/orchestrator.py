"""Federation round loop and cross-strategy comparison harness.

One round = broadcast the global parameters, train every client locally,
evaluate each client's freshly trained model on its own test set, then fold
the updates into the next global model with the configured strategy.

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
    model: ModelSpec
    train: TrainConfig
    rule: Rule = FedAvg()
    rounds: int = bounded(10, ge=1)
    seed: int = bounded(0, ge=0)

    @property
    def strategy(self) -> str:
        return self.rule.name


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
    config: FederationConfig, shards: Sequence[ClientShard], global_params: ParamVector, where: str
) -> tuple[list[ClientUpdate], list[ClientRoundMetrics]]:
    """Train every client from ``global_params`` in one ``sgd_train`` call and
    score each local model on its own test split; client ``i`` trains with
    seed ``config.seed + i``.  A client whose training goes non-finite is
    named after ``where``, and so is one whose local test loss is non-finite,
    in a logged warning.  ``evaluate`` scores the very list ``sgd_train``
    returned: the benchmark's tracer tells local from global scoring by it."""
    try:
        trained = sgd_train(
            global_params,
            config.model,
            [shard.train for shard in shards],
            config.train,
            [config.seed + i for i in range(len(shards))],
        )
    except NumericError as exc:
        client_id = shards[exc.index].client_id
        raise NumericError(f"{where}, {client_id}: training failed: {exc}") from exc
    updates: list[ClientUpdate] = []
    per_client: list[ClientRoundMetrics] = []
    for shard, local, metrics in zip(
        shards, trained, evaluate(trained, config.model, [shard.test for shard in shards])
    ):
        if not math.isfinite(metrics["loss"]):
            logger.warning("%s, %s: local test loss is %r", where, shard.client_id, metrics["loss"])
        per_client.append(
            ClientRoundMetrics(
                client_id=shard.client_id,
                num_test_examples=len(shard.test),
                accuracy=metrics["accuracy"],
                loss=metrics["loss"],
            )
        )
        updates.append(
            ClientUpdate(
                client_id=shard.client_id,
                num_examples=len(shard.train),
                params=local,
            )
        )
    return updates, per_client


def run_federation(
    config: FederationConfig,
    shards: Sequence[ClientShard],
    *,
    first_round: tuple[Sequence[ClientUpdate], Sequence[ClientRoundMetrics]] | None = None,
) -> list[RoundReport]:
    """Run the configured number of rounds over the given clients.

    Deterministic: the global model starts from ``init_params(model, seed)``
    and client ``i`` always trains with seed ``config.seed + i``, so a fixed
    (config, shards) pair reproduces the same reports bit for bit.

    ``first_round``, when given, is round 1's client updates and metrics as
    :func:`_train_round` computes them from that starting model; round 1 is
    then not trained again.  They depend only on the model, training config,
    seed and shards, never on the strategy.

    A round whose coefficient search stops at its iteration cap unconverged
    is logged as a warning that names the strategy, seed and round.
    """
    _check_shards(shards)
    global_params = init_params(config.model, config.seed)
    aggregator = Aggregator(config.rule)
    reports: list[RoundReport] = []
    for round_idx in range(1, config.rounds + 1):
        where = f"{config.strategy}, seed {config.seed}, round {round_idx}"
        if round_idx == 1 and first_round is not None:
            updates, per_client = first_round
        else:
            updates, per_client = _train_round(config, shards, global_params, where)
        aggregated_accuracy = weighted_accuracy(
            [(m.num_test_examples, m.accuracy) for m in per_client]
        )
        try:
            global_params = aggregator.aggregate(updates, global_params)
        except NumericError as exc:
            raise NumericError(f"{where}: aggregation failed: {exc}") from exc
        alpha = aggregator.last_alpha
        if alpha is not None and not alpha.converged:
            logger.warning(
                "%s: coefficient search stopped unconverged at its cap of %d iterations",
                where,
                alpha.iterations,
            )
        global_metrics = evaluate(
            [global_params] * len(shards), config.model, [s.test for s in shards]
        )
        global_accuracy = weighted_accuracy(
            [(len(s.test), m["accuracy"]) for s, m in zip(shards, global_metrics)]
        )
        reports.append(
            RoundReport(
                round=round_idx,
                per_client=tuple(per_client),
                aggregated_accuracy=aggregated_accuracy,
                global_accuracy=global_accuracy,
                alpha=alpha,
            )
        )
        logger.debug(
            "%s round %d: aggregated_accuracy=%.4f global_accuracy=%.4f",
            config.strategy,
            round_idx,
            aggregated_accuracy,
            global_accuracy,
        )
    return reports


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
    every rule reuses them; the shared seed also fixes w0, so curves differ
    only through the aggregation rule.  Round 1's client training and local
    evaluation therefore do not depend on the rule: they run once per seed
    and every rule's federation starts from them.

    ``base_config``'s ``rule`` and ``seed`` are replaced for each run, and
    every run's config is built, so checked, before any shards are.  Runs
    are reported by strategy name and seed, so each must be distinct.
    """
    if len(rules) == 0:
        raise ConfigError("need at least one strategy")
    if len(seeds) == 0:
        raise ConfigError("need at least one seed")
    per_seed = [
        [dataclasses.replace(base_config, rule=rule, seed=seed) for rule in rules] for seed in seeds
    ]
    distinct = {"seed": [configs[0].seed for configs in per_seed],
                "strategy": [config.strategy for config in per_seed[0]]}
    for kind, values in distinct.items():
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"{kind} {value!r} is given more than once")
    runs: list[StrategyRun] = []
    for seed, configs in zip(seeds, per_seed):
        shards = shard_factory(seed)
        _check_shards(shards)
        first_round = _train_round(
            configs[0], shards, init_params(base_config.model, seed), f"seed {seed}, round 1"
        )
        for config in configs:
            logger.info("running strategy=%s seed=%d", config.strategy, seed)
            reports = run_federation(config, shards, first_round=first_round)
            runs.append(
                StrategyRun(strategy=config.strategy, seed=seed, reports=tuple(reports))
            )
        # Release this seed's shards and round-1 models before the next seed
        # builds its own.
        del shards, first_round
    return ComparisonResult(runs=tuple(runs))
