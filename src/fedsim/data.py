"""Dataset synthesis, CSV ingestion, and client partitioning.

Partitioning follows the two-stage methodology used throughout the
experiments: first a disjoint stratified split of the full dataset into
i.i.d. client shards, then a stratified train/test split inside each client
with a configurable (typically small) train fraction.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .exceptions import CsvParseError, checked


@dataclass(frozen=True)
class Dataset:
    """Labeled feature matrix with the label-name mapping."""

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        raw_labels = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):
            labels = raw_labels.astype(np.int64, copy=False)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise ValueError("labels must be a vector matching the feature rows")
        if raw_labels.dtype.kind in "fc":
            changed = np.flatnonzero(labels != raw_labels)
            if changed.size:
                i = int(changed[0])
                raise ValueError(f"labels must be integers; label {i} is {raw_labels[i].item()!r}")
        if labels.size and (labels.min() < 0 or labels.max() >= len(self.class_names)):
            raise ValueError("labels must index into class_names")
        finite = np.isfinite(feats)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ValueError(
                f"features must be finite; row {row}, column {col} is {float(feats[row, col])}"
            )
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.class_names)


@dataclass(frozen=True)
class ClientShard:
    """One client's disjoint train/test data."""

    client_id: str
    train: Dataset
    test: Dataset


def generate_blobs(
    samples_per_class: int,
    num_classes: int,
    dim: int,
    spread: float,
    seed: int,
) -> Dataset:
    """Gaussian clusters: seeded class centers plus per-sample noise of scale
    ``spread``.  Exactly ``samples_per_class`` rows per class."""
    samples_per_class = checked("samples_per_class", samples_per_class, int, {"ge": 1})
    num_classes = checked("num_classes", num_classes, int, {"ge": 2})
    dim = checked("dim", dim, int, {"ge": 1})
    if not 0 <= spread < math.inf:
        raise ValueError(f"spread must be finite and >= 0, got {spread!r}")
    rng = np.random.default_rng(checked("seed", seed, int, {"ge": 0}))
    centers = rng.normal(0.0, 1.0, size=(num_classes, dim))
    features = np.concatenate(
        [
            centers[c] + rng.normal(0.0, 1.0, size=(samples_per_class, dim)) * spread
            for c in range(num_classes)
        ]
    )
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    names = tuple(f"class_{c}" for c in range(num_classes))
    return Dataset(features, labels, names)


def load_csv(path: str, label_column: str) -> Dataset:
    """Parse a comma-separated file: header row, numeric feature columns, one
    label column mapped to class indices by first appearance.  A leading
    UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write, is
    dropped.  The first fault in row order is reported."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: file is empty") from None
        if label_column not in header:
            raise CsvParseError(
                f"{path}: label column {label_column!r} not found in header {header}"
            )
        label_idx = header.index(label_column)
        names = header[:label_idx] + header[label_idx + 1 :]
        if not names:
            raise CsvParseError(
                f"{path}: no feature column besides the label column {label_column!r}"
            )

        # Rows go straight into one float64 buffer, so no per-cell float
        # object or per-row list outlives its row.
        values = array("d")
        labels = array("q")
        class_index: dict[str, int] = {}
        for row_num, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise CsvParseError(
                    f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
                )
            labels.append(class_index.setdefault(row.pop(label_idx), len(class_index)))
            try:
                parsed = list(map(float, row))
            except ValueError:
                parsed = None
            # float() also accepts nan and inf, and rounds 1e400 to inf; a
            # finite row can still sum to inf, so a non-finite sum is re-checked.
            if parsed is None or not math.isfinite(sum(parsed)):
                parsed = _parse_cells(path, row_num, names, row)
            values.fromlist(parsed)

    if not labels:
        raise CsvParseError(f"{path}: no data rows")
    features = np.frombuffer(values, dtype=np.float64).reshape(len(labels), len(names))
    return Dataset(features, np.frombuffer(labels, dtype=np.int64), tuple(class_index))


def _parse_cells(path: str, row_num: int, names: list[str], cells: list[str]) -> list[float]:
    """Cell-by-cell parse of one row's feature cells, raising on the first
    cell that is not a finite number."""
    parsed = []
    for name, cell in zip(names, cells):
        try:
            value = float(cell)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value):
            raise CsvParseError(
                f"{path}: row {row_num}, column {name!r}: "
                f"{'non-numeric' if value is None else 'non-finite'} value {cell!r}"
            )
        parsed.append(value)
    return parsed


def stratified_partition(dataset: Dataset, num_clients: int, seed: int) -> list[Dataset]:
    """Disjoint cover of the dataset with i.i.d. class proportions: per class,
    shard counts differ by at most one."""
    num_clients = checked("num_clients", num_clients, int, {"ge": 1})
    rng = np.random.default_rng(checked("seed", seed, int, {"ge": 0}))
    per_client_indices: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for c in range(dataset.num_classes):
        class_idx = np.flatnonzero(dataset.labels == c)
        if class_idx.size < num_clients:
            raise ValueError(
                f"class {dataset.class_names[c]!r} has {class_idx.size} samples, "
                f"fewer than {num_clients} clients"
            )
        shuffled = rng.permutation(class_idx)
        for k, chunk in enumerate(np.array_split(shuffled, num_clients)):
            per_client_indices[k].append(chunk)
    shards = []
    for chunks in per_client_indices:
        indices = rng.permutation(np.concatenate(chunks))
        shards.append(dataset.subset(indices))
    return shards


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def stratified_train_test_split(
    dataset: Dataset, train_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Per class, ``round(train_fraction * count)`` rows (half-up, clamped so
    neither side is empty) go to train; the rest to test."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_parts = []
    test_parts = []
    for c in range(dataset.num_classes):
        class_idx = np.flatnonzero(dataset.labels == c)
        count = class_idx.size
        if count < 2:
            raise ValueError(
                f"class {dataset.class_names[c]!r} has {count} samples; "
                "need >= 2 to split"
            )
        n_train = min(max(_round_half_up(train_fraction * count), 1), count - 1)
        shuffled = rng.permutation(class_idx)
        train_parts.append(shuffled[:n_train])
        test_parts.append(shuffled[n_train:])
    train_idx = rng.permutation(np.concatenate(train_parts))
    test_idx = rng.permutation(np.concatenate(test_parts))
    return dataset.subset(train_idx), dataset.subset(test_idx)


def make_client_shards(
    dataset: Dataset, num_clients: int, train_fraction: float, seed: int
) -> list[ClientShard]:
    """Partition into i.i.d. clients, then split each client's data."""
    parts = stratified_partition(dataset, num_clients, seed)
    shards = []
    for i, part in enumerate(parts):
        # Distinct derived seed per client split; offset by one to avoid
        # reusing the partition seed itself.
        train, test = stratified_train_test_split(part, train_fraction, seed + i + 1)
        shards.append(ClientShard(client_id=f"client_{i}", train=train, test=test))
    return shards
