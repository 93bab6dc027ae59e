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
    """Labeled feature matrix with the label-name mapping, held read-only.

    The constructor copies and checks the caller's arrays.  :meth:`subset` and
    :func:`load_csv` hand over arrays they allocated and checked themselves.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=np.float64)
        raw_labels = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):
            labels = raw_labels.astype(np.int64)
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
        features, labels = self.features[indices], self.labels[indices]
        if features.ndim == 2 and features.flags.owndata and labels.flags.owndata:
            # Fancy indexing made fresh copies of rows this dataset checked.
            return _adopt(features, labels, self.class_names)
        return Dataset(features, labels, self.class_names)


def _adopt(features: np.ndarray, labels: np.ndarray, class_names: tuple[str, ...]) -> Dataset:
    """A :class:`Dataset` holding ``features`` and ``labels`` themselves, frozen in
    place with no copy and no check: only for fresh float64 and int64 arrays whose
    rows have already passed every check of the constructor."""
    features.setflags(write=False)
    labels.setflags(write=False)
    dataset = object.__new__(Dataset)
    for name, value in (("features", features), ("labels", labels), ("class_names", class_names)):
        object.__setattr__(dataset, name, value)
    return dataset


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
    spread = checked("spread", spread, float, {"ge": 0})
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
    # Every cell was checked finite and every label is a class index, so the
    # parse buffers become the dataset's arrays as they are.
    features = np.frombuffer(values, dtype=np.float64).reshape(len(labels), len(names))
    return _adopt(features, np.frombuffer(labels, dtype=np.int64), tuple(class_index))


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


def _stratified_deal(dataset: Dataset, num_parts: int, seed: int, deal) -> list[Dataset]:
    """Per class, one seeded permutation of its rows, cut into ``num_parts`` pieces by
    ``deal(class_name, rows)``; then each part's rows in one more permutation."""
    rng = np.random.default_rng(checked("seed", seed, int, {"ge": 0}))
    parts: list[list[np.ndarray]] = [[] for _ in range(num_parts)]
    for c, name in enumerate(dataset.class_names):
        rows = rng.permutation(np.flatnonzero(dataset.labels == c))
        for part, piece in zip(parts, deal(name, rows)):
            part.append(piece)
    return [dataset.subset(rng.permutation(np.concatenate(part))) for part in parts]


def stratified_partition(dataset: Dataset, num_clients: int, seed: int) -> list[Dataset]:
    """Disjoint cover of the dataset with i.i.d. class proportions: per class,
    shard counts differ by at most one."""
    num_clients = checked("num_clients", num_clients, int, {"ge": 1})

    def deal(name: str, rows: np.ndarray) -> list[np.ndarray]:
        if rows.size < num_clients:
            raise ValueError(
                f"class {name!r} has {rows.size} samples, fewer than {num_clients} clients"
            )
        return np.array_split(rows, num_clients)

    return _stratified_deal(dataset, num_clients, seed, deal)


def stratified_train_test_split(
    dataset: Dataset, train_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Per class, ``round(train_fraction * count)`` rows (half-up, clamped so
    neither side is empty) go to train; the rest to test."""
    train_fraction = checked("train_fraction", train_fraction, float, {"gt": 0, "lt": 1})

    def deal(name: str, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if rows.size < 2:
            raise ValueError(f"class {name!r} has {rows.size} samples; need >= 2 to split")
        # int() of a positive number rounds down, so + 0.5 rounds half-up.
        n_train = min(max(int(train_fraction * rows.size + 0.5), 1), rows.size - 1)
        return rows[:n_train], rows[n_train:]

    train, test = _stratified_deal(dataset, 2, seed, deal)
    return train, test


def make_client_shards(
    dataset: Dataset, num_clients: int, train_fraction: float, seed: int
) -> list[ClientShard]:
    """Partition into i.i.d. clients, then split each client's data."""
    parts = stratified_partition(dataset, num_clients, seed)
    shards = []
    for i, part in enumerate(parts):
        # The loop holds the last reference, so each part is freed once split.
        parts[i] = None
        # Distinct derived seed per client split; offset by one to avoid
        # reusing the partition seed itself.
        train, test = stratified_train_test_split(part, train_fraction, seed + i + 1)
        shards.append(ClientShard(client_id=f"client_{i}", train=train, test=test))
    return shards
