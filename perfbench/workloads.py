"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload is one ``fedsim compare`` invocation.  The benchmark writes
the YAML config (and, for ``mlp-csv``, the CSV file) into a work directory;
fedsim receives nothing but those files.  The same workload seed always
produces byte-identical input files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

CSV_NAME = "data.csv"
CONFIG_NAME = "config.yaml"
LABEL_COLUMN = "label"


@dataclass(frozen=True)
class Workload:
    """One ``compare`` run: a config template plus the data it reads.

    ``csv_rows`` > 0 means the workload writes a CSV of that many rows and
    the config points at it; otherwise fedsim generates blobs itself.
    Workload seed ``s`` runs fedsim seeds ``s * seed_count`` up to
    ``s * seed_count + seed_count - 1``, so distinct workload seeds share no
    fedsim seed (and no generated data).
    ``expects_solver`` records whether fedavgopt (and so Nelder-Mead) runs.
    """

    name: str
    strategies: tuple[str, ...]
    seed_count: int
    rounds: int
    num_clients: int
    train_fraction: float
    batch_size: int
    hidden_dims: tuple[int, ...] = ()
    samples_per_class: int = 500
    num_classes: int = 4
    dim: int = 20
    spread: float = 1.8
    csv_rows: int = 0
    csv_separation: float = 0.0
    learning_rate: float = 0.1

    @property
    def expects_solver(self) -> bool:
        return "fedavgopt" in self.strategies

    @property
    def uses_csv(self) -> bool:
        return self.csv_rows > 0

    def history_rows(self) -> int:
        """Rows ``history.csv`` must hold, header excluded."""
        return len(self.strategies) * self.seed_count * self.rounds * self.num_clients


ALL_STRATEGIES = ("fedavg", "fedavgm", "fedmedian", "fedopt", "fedyogi", "fedavgopt")

WORKLOADS = {
    w.name: w
    for w in (
        # The ROADMAP acceptance comparison (criterion 6 at workload seed 0).
        Workload(
            name="blobs-compare",
            strategies=ALL_STRATEGIES,
            seed_count=5,
            rounds=10,
            num_clients=4,
            train_fraction=0.2,
            batch_size=32,
        ),
        # Training-bound MLP run on CSV input; no fedavgopt, so it never
        # reaches Nelder-Mead and solver changes must leave it unchanged.
        Workload(
            name="mlp-csv",
            strategies=("fedavg", "fedavgm", "fedmedian", "fedyogi"),
            seed_count=2,
            rounds=10,
            num_clients=4,
            train_fraction=0.5,
            batch_size=32,
            hidden_dims=(64,),
            dim=50,
            csv_rows=8000,
            csv_separation=2.0,
        ),
        # Sixteen clients: the fedavgopt solve is nearly the whole run.  With
        # a single fedsim seed, the default blob spread and learning rate let
        # mean_accuracy swing ~12% between workload seeds; these keep it ~3%.
        Workload(
            name="many-clients",
            strategies=("fedavg", "fedavgopt"),
            seed_count=1,
            rounds=6,
            num_clients=16,
            train_fraction=0.5,
            batch_size=32,
            hidden_dims=(64,),
            samples_per_class=400,
            spread=1.0,
            learning_rate=0.3,
        ),
    )
}


def config_dict(workload: Workload, seed: int, csv_path: str | None) -> dict:
    """The YAML mapping fedsim parses for ``workload`` at workload ``seed``."""
    if workload.uses_csv:
        dataset = {"kind": "csv", "path": csv_path, "label_column": LABEL_COLUMN}
    else:
        dataset = {
            "kind": "blobs",
            "samples_per_class": workload.samples_per_class,
            "num_classes": workload.num_classes,
            "dim": workload.dim,
            "spread": workload.spread,
        }
    config = {
        "dataset": dataset,
        "strategies": list(workload.strategies),
        "seeds": [seed * workload.seed_count + i for i in range(workload.seed_count)],
        "rounds": workload.rounds,
        "num_clients": workload.num_clients,
        "train_fraction": workload.train_fraction,
        "train": {"learning_rate": workload.learning_rate, "batch_size": workload.batch_size},
    }
    if workload.hidden_dims:
        config["model"] = {"hidden_dims": list(workload.hidden_dims)}
    return config


def csv_text(workload: Workload, seed: int) -> str:
    """Gaussian classes around mutually orthogonal centers of equal norm.

    The centers are a random orthonormal frame scaled by ``csv_separation``,
    so every seed has the same class geometry (and so nearly the same
    attainable accuracy) while the rows themselves differ.  Labels are named
    strings so the CSV loader's label mapping is exercised.
    """
    rng = np.random.default_rng(seed)
    frame, _ = np.linalg.qr(rng.normal(size=(workload.dim, workload.dim)))
    centers = workload.csv_separation * frame[:, : workload.num_classes].T
    labels = np.arange(workload.csv_rows) % workload.num_classes
    rng.shuffle(labels)
    features = centers[labels] + rng.normal(size=(workload.csv_rows, workload.dim))
    header = [LABEL_COLUMN] + [f"x{j}" for j in range(workload.dim)]
    lines = [",".join(header)]
    for label, row in zip(labels, features):
        lines.append(f"class_{label}," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the workload's input files into ``directory``; return the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = None
    if workload.uses_csv:
        csv_path = directory / CSV_NAME
        csv_path.write_text(csv_text(workload, seed), encoding="utf-8")
    config_path = directory / CONFIG_NAME
    config_path.write_text(
        yaml.safe_dump(config_dict(workload, seed, str(csv_path) if csv_path else None)),
        encoding="utf-8",
    )
    return config_path
