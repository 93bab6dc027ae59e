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
from itertools import chain, repeat

import numpy as np

from .exceptions import CsvParseError, checked


@dataclass(frozen=True)
class Dataset:
    """Labeled feature matrix with the label-name mapping, held read-only.

    The constructor copies and checks the caller's arrays.  :meth:`subset`,
    :func:`generate_blobs` and :func:`load_csv` hand over arrays they
    allocated and checked themselves.
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
        _check_finite(feats)
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


def _check_finite(features: np.ndarray) -> None:
    finite = np.isfinite(features)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(
            f"features must be finite; row {row}, column {col} is {float(features[row, col])}"
        )


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
    # One draw reads the stream the per-class draws did, class after class,
    # straight into the dataset's own matrix.
    features = rng.normal(0.0, 1.0, size=(num_classes * samples_per_class, dim))
    with np.errstate(over="ignore"):  # an overflow is named by _check_finite
        features *= spread
    features.reshape(num_classes, samples_per_class, dim)[...] += centers[:, None, :]
    _check_finite(features)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    return _adopt(features, labels, tuple(f"class_{c}" for c in range(num_classes)))


# The data rows are read in chunks of about this many characters.
_CHUNK_CHARS = 1 << 16

# Characters that send a chunk to the row reader: a quote, which starts csv
# quoting; NUL, which the csv module refuses before Python 3.11; and the
# separators U+001C to U+001F, which np.loadtxt strips around a number as
# whitespace but float() refuses.
_ROW_READER_CHARS = '"\0\x1c\x1d\x1e\x1f'


def load_csv(path: str, label_column: str) -> Dataset:
    """Parse a comma-separated file: header row, numeric feature columns, one
    label column mapped to class indices by first appearance.  A leading
    UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write, is
    dropped.  The first fault in row order is reported.

    Data rows are read in chunks of about 64 KB.  A chunk of plain rows is
    parsed in one ``np.loadtxt`` call; from the first chunk that is not
    plain (quoting, a fault, anything :func:`_bulk_rows` refuses), the rest
    of the file goes through the csv module row by row.  Both give the same
    bits, as ``np.loadtxt`` reads a number with the parser ``float()`` uses.
    """
    # Undecodable bytes become lone surrogates, so the row that holds one can
    # be named; _undecoded_byte finds them.
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        header = _next_row(path, csv.reader(handle), 0)
        if header is None:
            raise CsvParseError(f"{path}: file is empty")
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
        # object or per-row list outlives its chunk.
        values = array("d")
        labels = array("q")
        class_index: dict[str, int] = {}
        while lines := handle.readlines(_CHUNK_CHARS):
            chunk = _bulk_rows(lines, len(header), label_idx)
            if chunk is None:
                rows = csv.reader(chain(lines, handle))
                _read_rows(path, rows, names, label_idx, values, labels, class_index)
                break
            features, label_cells = chunk
            values.frombytes(features.tobytes())
            for name in dict.fromkeys(label_cells):
                class_index.setdefault(name, len(class_index))
            labels.extend(map(class_index.__getitem__, label_cells))

    if not labels:
        raise CsvParseError(f"{path}: no data rows")
    # Every cell was checked finite and every label is a class index, so the
    # parse buffers become the dataset's arrays as they are.
    features = np.frombuffer(values, dtype=np.float64).reshape(len(labels), len(names))
    return _adopt(features, np.frombuffer(labels, dtype=np.int64), tuple(class_index))


def _bulk_rows(
    lines: list[str], num_cells: int, label_idx: int
) -> tuple[np.ndarray, list[str]] | None:
    """The feature matrix and the label cells of ``lines``, one data row per
    line, or None if any line needs the row reader: a character of
    ``_ROW_READER_CHARS``, an undecodable byte, a line ending in a lone
    ``\\r``, a line longer than the csv module's field limit, a line
    with the wrong number of commas (so a blank, short or long row), or a
    feature cell that is not a finite number to ``np.loadtxt``."""
    text = "".join(lines)
    if (
        any(char in text for char in _ROW_READER_CHARS)
        or not (text.isascii() or _undecoded_byte(text) is None)
        or ("\r" in text and any(line.endswith("\r") for line in lines))
        or max(map(len, lines)) > csv.field_size_limit()
        or set(map(str.count, lines, repeat(","))) != {num_cells - 1}
    ):
        return None
    usecols = [i for i in range(num_cells) if i != label_idx]
    try:
        features = np.loadtxt(lines, delimiter=",", usecols=usecols, comments=None, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(features).all():
        return None
    if label_idx < num_cells - 1:
        label_cells = [line.split(",", label_idx + 1)[label_idx] for line in lines]
    else:
        # Only the last cell holds the line end, "\n" or "\r\n".
        label_cells = [line.rpartition(",")[2].rstrip("\r\n") for line in lines]
    return features, label_cells


def _read_rows(
    path: str,
    rows,
    names: list[str],
    label_idx: int,
    values: array,
    labels: array,
    class_index: dict[str, int],
) -> None:
    """Parse the rest of the file row by row from the csv reader ``rows``,
    appending to the buffers, and raise on the first faulty row."""
    row_num = len(labels)
    while (row := _next_row(path, rows, row_num + 1)) is not None:
        row_num += 1
        if len(row) != len(names) + 1:
            raise CsvParseError(
                f"{path}: row {row_num} has {len(row)} cells, expected {len(names) + 1}"
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


def _next_row(path: str, rows, row_num: int) -> list[str] | None:
    """The next row from the csv reader ``rows``, or None at the end of the
    file.  Raises :class:`CsvParseError` for a row (``row_num`` 0 is the
    header) with a cell over the csv module's field limit or with a byte
    that is not UTF-8."""
    where = f"row {row_num}" if row_num else "header"
    try:
        row = next(rows, None)
    except csv.Error as exc:
        # Under the default dialect the csv module refuses only a cell over
        # its field limit and, before Python 3.11, a NUL.
        if "field limit" not in str(exc):
            raise CsvParseError(f"{path}: {where}: {exc}") from None
        raise CsvParseError(
            f"{path}: {where} has a cell longer than {csv.field_size_limit()} characters"
        ) from None
    if row is not None:
        text = "".join(row)
        if not text.isascii() and (byte := _undecoded_byte(text)) is not None:
            raise CsvParseError(f"{path}: {where} is not UTF-8 text (byte 0x{byte:02x})")
    return row


def _undecoded_byte(text: str) -> int | None:
    """The first byte that the ``surrogateescape`` error handler kept in
    ``text`` as a lone surrogate, or None if every byte was UTF-8."""
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        return ord(text[exc.start]) - 0xDC00
    return None


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


STREAMS = ("blobs", "partition", "split", "init", "batches")


def stream_seed(seed: int, stream: str, index: int = 0) -> int:
    """The integer seed of client ``index``'s ``stream`` under config seed ``seed``: a
    64-bit word of ``SeedSequence(seed, spawn_key=(k, index))``, k the stream's position
    in :data:`STREAMS`.  That is the child numpy's own spawning gives, so no two (seed,
    stream, index) triples share a stream.  Blobs, partition and init take index 0."""
    key = STREAMS.index(checked("stream", stream, str, {"choices": STREAMS}))
    sequence = np.random.SeedSequence(checked("seed", seed, int, {"ge": 0}), spawn_key=(key, index))
    return int(sequence.generate_state(1, np.uint64)[0])


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
    """Partition into i.i.d. clients, then split each client's data, each on its own stream."""
    parts = stratified_partition(dataset, num_clients, stream_seed(seed, "partition"))
    shards = []
    for i, part in enumerate(parts):
        # The loop holds the last reference, so each part is freed once split.
        parts[i] = None
        train, test = stratified_train_test_split(part, train_fraction, stream_seed(seed, "split", i))
        shards.append(ClientShard(client_id=f"client_{i}", train=train, test=test))
    return shards
