"""Experiment runner CLI.

Subcommands:

* ``fedsim run <config.yaml>``     -- one strategy, as configured.
* ``fedsim compare <config.yaml>`` -- every configured strategy on identical
                                      shards and identical initial weights.

Both write ``history.csv`` (full-precision per-round, per-client rows),
``summary.txt`` (mean aggregated accuracy per strategy and seed, 6 significant
digits), and ``curves/*.dat`` (plot-ready round/accuracy columns) into the
output directory.  Outputs are byte-identical across reruns of the same
config.  Set ``FEDSIM_LOG_LEVEL=INFO`` (or ``DEBUG``) for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from .data import ClientShard, generate_blobs, load_csv, make_client_shards
from .exceptions import Config, ConfigError, FedsimError, bounded
from .models import ACTIVATIONS, ModelSpec, TrainConfig
from .nelder_mead import SimplexConfig
from .orchestrator import ComparisonResult, FederationConfig, compare_strategies
from .strategies import RULES, STRATEGIES, FedAvgOpt, Rule

logger = logging.getLogger(__name__)

HISTORY_HEADER = (
    "strategy,seed,round,aggregated_accuracy,"
    "client_id,client_test_count,client_accuracy,client_loss,alpha_json"
)

# The keys the dataset section accepts for each kind, in field order.
_DATASET_KEYS = {
    "blobs": ("kind", "samples_per_class", "num_classes", "dim", "spread"),
    "csv": ("kind", "path", "label_column"),
}

# Every curve file name emit_plot_data can write: <strategy>.dat,
# <strategy>_seed<N>.dat and <strategy>_mean.dat.
_CURVE_NAME = re.compile(rf"(?:{'|'.join(STRATEGIES)})(?:_seed[0-9]+|_mean)?\.dat")


@dataclass(frozen=True)
class DatasetConfig(Config):
    """Exactly one source: synthetic Gaussian blobs or a labeled CSV."""

    kind: str = bounded(choices=tuple(_DATASET_KEYS))
    samples_per_class: int = bounded(500, ge=1)
    num_classes: int = bounded(4, ge=2)
    dim: int = bounded(20, ge=1)
    # 1.8 puts a converged centralized logistic model at ~0.86 test accuracy
    # on the default geometry, leaving the strategies visible headroom.
    spread: float = bounded(1.8, gt=0)
    path: str | None = None
    label_column: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind == "csv" and (self.path is None or self.label_column is None):
            raise ConfigError("csv source needs string 'path' and 'label_column'")


@dataclass(frozen=True)
class ExperimentConfig(Config):
    dataset: DatasetConfig
    rules: tuple[Rule, ...]
    seeds: tuple[int, ...] = bounded((0,), ge=0)
    rounds: int = bounded(10, ge=1)
    num_clients: int = bounded(4, ge=1)
    train_fraction: float = bounded(0.2, gt=0, lt=1)
    hidden_dims: tuple[int, ...] = bounded((), ge=1)
    activation: str = bounded("relu", choices=ACTIVATIONS)
    train: TrainConfig = TrainConfig()
    output_dir: str = "results"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.output_dir:
            raise ConfigError(f"output_dir must be a nonempty string, got {self.output_dir!r}")


# parse_config's value for each unset key; dataset and rules have none.
_DEFAULTS = ExperimentConfig(dataset=DatasetConfig(kind="blobs"), rules=())


def _as_mapping(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected a mapping of keys to values")
    return value


def _check_keys(section: str, mapping: Mapping, allowed: Sequence[str]) -> None:
    for key in mapping:
        if key not in allowed:
            hint = f"allowed keys: {', '.join(allowed)}" if allowed else f"{section} takes no keys"
            raise ConfigError(f"unknown key {key!r} in {section}; {hint}")


def _as_choice(value, key: str, choices: Sequence[str]) -> str:
    if value not in choices:
        raise ConfigError(
            f"{key}: got {value!r}; accepted values: {', '.join(choices)}"
        )
    return value


def _parse_dataset(raw) -> DatasetConfig:
    kind = _as_mapping(raw, "dataset").get("kind")
    keys = _DATASET_KEYS[_as_choice(kind, "dataset.kind", tuple(_DATASET_KEYS))]
    return _parse_section(raw, "dataset", _DEFAULTS.dataset, keys)


def _one_or_list(raw: Mapping, one: str, many: str, items: str, default=None) -> tuple:
    """The value under ``one``, or the nonempty list under ``many`` (not
    both); with neither key, ``default``, or an error when there is none."""
    if one in raw and many in raw:
        raise ConfigError(f"give either '{one}' or '{many}', not both")
    if one in raw:
        return (raw[one],)
    if many not in raw:
        if default is None:
            raise ConfigError(f"config must name a {one} ('{one}' or '{many}')")
        return default
    if not isinstance(raw[many], list) or not raw[many]:
        raise ConfigError(f"{many}: expected a nonempty list of {items}")
    return tuple(raw[many])


def _parse_section(raw, section: str, defaults, keys: Sequence[str] | None = None):
    """Apply one flat config section to the ``defaults`` dataclass, which
    checks every value.

    ``keys`` are the fields of the dataclass the section accepts; by default
    every field that does not hold a config section of its own, in field
    order.  Only keys present in ``raw`` override the defaults.
    """
    mapping = _as_mapping(raw, section)
    if keys is None:
        keys = [
            f.name for f in dataclasses.fields(defaults)
            if not dataclasses.is_dataclass(getattr(defaults, f.name))
        ]
    _check_keys(section, mapping, keys)
    try:
        return dataclasses.replace(defaults, **mapping)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _parse_rules(raw: Mapping, names: tuple[str, ...]) -> tuple[Rule, ...]:
    """The rule of each listed strategy.  ``hyperparams.<name>`` accepts the
    fields of that strategy's rule type, and the ``solver`` section fills
    :attr:`FedAvgOpt.solver`; a section for an unlisted strategy is
    validated all the same."""
    mapping = _as_mapping(raw.get("hyperparams", {}), "hyperparams")
    rules = {name: rule() for name, rule in RULES.items()}
    for name, section in mapping.items():
        _as_choice(name, "hyperparams", STRATEGIES)
        rules[name] = _parse_section(section, f"hyperparams.{name}", rules[name])
    solver = _parse_section(raw.get("solver", {}), "solver", SimplexConfig())
    rules[FedAvgOpt.name] = FedAvgOpt(solver)
    return tuple(rules[name] for name in names)


_TOP_LEVEL_KEYS = (
    "dataset", "strategy", "strategies", "seed", "seeds", "rounds",
    "num_clients", "train_fraction", "model", "train", "hyperparams",
    "solver", "output_dir",
)
# The top-level keys that set an ExperimentConfig field directly, and the model keys.
_FLAT_KEYS = ("rounds", "num_clients", "train_fraction", "output_dir")
_MODEL_KEYS = ("hidden_dims", "activation")


def parse_config(path: str) -> ExperimentConfig:
    """Load and validate a YAML experiment config; unset keys get defaults."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if raw is None:
        raise ConfigError(f"{path}: config file is empty")
    mapping = _as_mapping(raw, "config")
    _check_keys("config", mapping, _TOP_LEVEL_KEYS)
    if "dataset" not in mapping:
        raise ConfigError("config must have a 'dataset' section")

    names = _one_or_list(mapping, "strategy", "strategies", "strategy names")
    for name in names:
        _as_choice(name, "strategy", STRATEGIES)
    dataset = _parse_dataset(mapping["dataset"])
    seeds = _one_or_list(mapping, "seed", "seeds", "integers", _DEFAULTS.seeds)
    flat = {key: mapping[key] for key in _FLAT_KEYS if key in mapping}
    config = _parse_section(flat, "config", _DEFAULTS, _FLAT_KEYS)
    config = _parse_section(mapping.get("model", {}), "model", config, _MODEL_KEYS)
    train = _parse_section(mapping.get("train", {}), "train", _DEFAULTS.train)
    rules = _parse_rules(mapping, names)
    try:
        config = dataclasses.replace(config, dataset=dataset, seeds=seeds, train=train, rules=rules)
    except ValueError as exc:  # the seeds
        raise ConfigError(f"config: {exc}") from exc
    return config


def run_comparison(config: ExperimentConfig) -> ComparisonResult:
    """Execute the configured runs without touching the filesystem.  A CSV
    is read once for every seed; blobs are drawn afresh for each seed."""
    ds = config.dataset
    table = load_csv(ds.path, ds.label_column) if ds.kind == "csv" else None

    def shards(seed: int) -> list[ClientShard]:
        data = table
        if data is None:
            data = generate_blobs(ds.samples_per_class, ds.num_classes, ds.dim, ds.spread, seed)
        return make_client_shards(data, config.num_clients, config.train_fraction, seed)

    model = ModelSpec(
        input_dim=ds.dim if table is None else int(table.features.shape[1]),
        hidden_dims=config.hidden_dims,
        activation=config.activation,
        num_classes=ds.num_classes if table is None else table.num_classes,
    )
    base = FederationConfig(model=model, train=config.train, rounds=config.rounds)
    return compare_strategies(base, config.rules, config.seeds, shards)


def write_history_csv(result: ComparisonResult, path: Path) -> None:
    """One row per (strategy, seed, round, client), full float precision."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(HISTORY_HEADER.split(","))
        for run in result.runs:
            for report in run.reports:
                alpha_json = ""
                if report.alpha is not None:
                    alpha_json = json.dumps([float(a) for a in report.alpha.alpha])
                for m in report.per_client:
                    writer.writerow(
                        [
                            run.strategy,
                            run.seed,
                            report.round,
                            repr(report.aggregated_accuracy),
                            m.client_id,
                            m.num_test_examples,
                            repr(m.accuracy),
                            repr(m.loss),
                            alpha_json,
                        ]
                    )


def write_summary(result: ComparisonResult, path: Path) -> None:
    """Mean-over-rounds aggregated accuracy per strategy and seed, plus the
    across-seed mean, at 6 significant digits."""
    seeds = result.seeds
    rows = [["strategy", *(f"seed={s}" for s in seeds), "mean"]]
    for strategy in result.strategies:
        by_seed = {run.seed: run.mean_accuracy for run in result.runs_for(strategy)}
        cells = [format(by_seed[s], ".6g") for s in seeds]
        cells.append(format(result.mean_accuracy(strategy), ".6g"))
        rows.append([strategy, *cells])
    # Every cell keeps at least one space before the next column.
    width = max(12, 1 + max(len(cell) for row in rows for cell in row))
    lines = ["mean aggregated accuracy over rounds (test-count weighted)", ""]
    lines.extend("".join(cell.ljust(width) for cell in row).rstrip() for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_curve(path: Path, accuracies: Sequence[float]) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("# round aggregated_accuracy\n")
        for round_idx, acc in enumerate(accuracies, start=1):
            handle.write(f"{round_idx} {acc!r}\n")
    return path


def emit_plot_data(result: ComparisonResult, directory: Path) -> list[Path]:
    """Two-column (round, accuracy) files: one per strategy for single-seed
    runs; per-seed files plus a mean curve when several seeds ran.

    Curve files an earlier run left in ``directory`` are deleted first, so
    the directory holds only this result's curves; other files are kept.
    """
    if len(result.runs) == 0:
        raise ValueError("empty history: nothing to plot")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.iterdir():
        if _CURVE_NAME.fullmatch(stale.name) and stale.is_file():
            stale.unlink()
    written: list[Path] = []
    multi_seed = len(result.seeds) > 1
    for strategy in result.strategies:
        runs = result.runs_for(strategy)
        if not multi_seed:
            written.append(
                _write_curve(directory / f"{strategy}.dat", runs[0].round_accuracies)
            )
            continue
        for run in runs:
            written.append(
                _write_curve(
                    directory / f"{strategy}_seed{run.seed}.dat", run.round_accuracies
                )
            )
        num_rounds = len(runs[0].reports)
        mean_curve = [
            sum(r.round_accuracies[k] for r in runs) / len(runs)
            for k in range(num_rounds)
        ]
        written.append(_write_curve(directory / f"{strategy}_mean.dat", mean_curve))
    return written


def run_experiment(config: ExperimentConfig) -> int:
    """Run everything the config asks for and write the three outputs."""
    result = run_comparison(config)
    # Created only now, so that a failed run leaves no empty directory behind.
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_history_csv(result, out_dir / "history.csv")
    write_summary(result, out_dir / "summary.txt")
    emit_plot_data(result, out_dir / "curves")
    print(f"wrote {out_dir / 'history.csv'}, {out_dir / 'summary.txt'}, {out_dir / 'curves'}/")
    return 0


def _init_logging() -> None:
    name = os.environ.get("FEDSIM_LOG_LEVEL", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """The flags given replace their config values; ExperimentConfig checks them."""
    seeds = None if args.seed is None else (args.seed,)
    updates = {"output_dir": args.output_dir, "seeds": seeds, "rounds": args.rounds}
    return dataclasses.replace(config, **{k: v for k, v in updates.items() if v is not None})


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Federated-learning aggregation experiments on synthetic or CSV data.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute the single configured strategy"),
        ("compare", "run every configured strategy on identical shards"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("config", help="path to the YAML experiment config")
        sub.add_argument("--output-dir", help="override the configured output directory")
        sub.add_argument("--seed", type=int, help="run only this seed")
        sub.add_argument("--rounds", type=int, help="override the number of rounds")
    args = parser.parse_args(argv)
    _init_logging()
    try:
        config = _apply_overrides(parse_config(args.config), args)
        if args.command == "run" and len(config.rules) != 1:
            raise ConfigError(
                "'run' expects exactly one strategy; use 'compare' for several"
            )
        return run_experiment(config)
    except (FedsimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
