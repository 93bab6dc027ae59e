import csv
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

import fedsim.data
from fedsim import (
    ClientShard,
    Dataset,
    generate_blobs,
    load_csv,
    make_client_shards,
    stratified_partition,
    stratified_train_test_split,
    stream_seed,
)
from fedsim.exceptions import ConfigError, CsvParseError


def row_multiset(dataset):
    """Order-independent fingerprint of (features, label) rows."""
    rows = [
        (tuple(dataset.features[i]), int(dataset.labels[i]))
        for i in range(len(dataset))
    ]
    return sorted(rows)


class TestDataset:
    def test_arrays_coerced_and_read_only(self):
        data = Dataset([[1, 2], [3, 4]], [0, 1], ("a", "b"))
        assert data.features.dtype == np.float64
        assert data.labels.dtype == np.int64
        with pytest.raises(ValueError):
            data.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            data.labels[0] = 1

    def test_callers_arrays_stay_writable(self):
        # The Dataset freezes its own copies, not the arrays it was given.
        features, labels = np.zeros((2, 2)), np.array([0, 1])
        data = Dataset(features, labels, ("a", "b"))
        assert features.flags.writeable and labels.flags.writeable
        features[0, 0], labels[0] = 9.0, 1
        assert data.features[0, 0] == 0.0 and data.labels[0] == 0

    def test_len_and_counts(self):
        data = Dataset(np.zeros((5, 2)), [0, 0, 1, 2, 1], ("a", "b", "c"))
        assert len(data) == 5
        assert data.num_classes == 3
        assert np.array_equal(data.class_counts(), [2, 2, 1])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), [0, 2], ("a", "b"))
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), [-1, 0], ("a", "b"))

    def test_non_integral_labels_rejected(self):
        with pytest.raises(ValueError, match="label 1 is 1.7"):
            Dataset(np.zeros((3, 2)), [0.0, 1.7, 0.2], ("a", "b"))
        with pytest.raises(ValueError, match="label 0 is nan"):
            Dataset(np.zeros((2, 2)), [np.nan, 1.0], ("a", "b"))
        # Integral in value, but numpy would cast them with a ComplexWarning.
        with pytest.raises(ValueError, match=re.escape("label 0 is (1+0j)")):
            Dataset(np.zeros((2, 1)), np.array([1 + 0j, 0j]), ("a", "b"))
        data = Dataset(np.zeros((3, 2)), [0.0, 1.0, 1.0], ("a", "b"))
        assert np.array_equal(data.labels, [0, 1, 1])
        assert data.labels.dtype == np.int64

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_first_cell(self, value):
        features = np.zeros((3, 2))
        features[1, 1] = value
        features[2, 0] = value
        with pytest.raises(ValueError, match=f"row 1, column 1 is {value}"):
            Dataset(features, [0, 1, 0], ("a", "b"))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(4), [0, 0, 0, 0], ("a",))
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), [0, 0], ("a",))

    def test_subset(self):
        data = Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], ("a", "b"))
        sub = data.subset(np.array([2, 0]))
        assert np.array_equal(sub.features, [[4.0, 5.0], [0.0, 1.0]])
        assert np.array_equal(sub.labels, [0, 0])
        assert sub.class_names == ("a", "b")

    @pytest.mark.parametrize(
        "indices",
        [
            np.array([3, 0, 3]),
            np.array([True, False, True, True]),
            [2, 1],
            slice(1, 3),  # a view of the source, so subset must copy it
            np.array([], dtype=np.int64),
        ],
        ids=["int-array", "bool-mask", "list", "slice", "empty"],
    )
    def test_subset_matches_oracle(self, indices):
        data = Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], ("a", "b"))
        got, expected = data.subset(indices), oracles.subset(data, indices)
        for name in ("features", "labels"):
            array, reference = getattr(got, name), getattr(expected, name)
            assert (array.shape, array.dtype) == (reference.shape, reference.dtype)
            assert array.tobytes() == reference.tobytes()
            assert not array.flags.writeable and not reference.flags.writeable
            assert not np.shares_memory(array, getattr(data, name))
        assert got.class_names == expected.class_names

    @pytest.mark.parametrize("indices", [2, np.array([[0, 1]])], ids=["scalar", "2-d"])
    def test_subset_that_is_not_a_matrix_rejected(self, indices):
        data = Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], ("a", "b"))
        with pytest.raises(ValueError, match="^features must be a 2-D matrix$"):
            data.subset(indices)

    def test_subset_out_of_range_rejected(self):
        data = Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], ("a", "b"))
        with pytest.raises(IndexError):
            data.subset(np.array([0, 4]))


class TestGenerateBlobs:
    def test_shape_and_balance(self):
        data = generate_blobs(100, 4, 20, 1.0, 7)
        assert data.features.shape == (400, 20)
        assert np.array_equal(data.class_counts(), [100, 100, 100, 100])
        assert data.class_names == ("class_0", "class_1", "class_2", "class_3")

    def test_deterministic(self):
        a = generate_blobs(30, 3, 5, 1.5, 9)
        b = generate_blobs(30, 3, 5, 1.5, 9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = generate_blobs(30, 3, 5, 1.5, 10)
        assert not np.array_equal(a.features, c.features)

    def test_zero_spread_collapses_to_centers(self):
        data = generate_blobs(10, 3, 4, 0.0, 3)
        centers = np.stack(
            [data.features[data.labels == c][0] for c in range(3)]
        )
        # Every sample sits exactly on its class center, so nearest-center
        # classification is perfect.
        dists = np.linalg.norm(data.features[:, None, :] - centers[None], axis=2)
        assert np.array_equal(np.argmin(dists, axis=1), data.labels)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 2, 3, 1.0, 0), "samples_per_class must be an integer >= 1, got 0"),
            ((5.0, 2, 3, 1.0, 0), "samples_per_class must be an integer >= 1, got 5.0"),
            ((5, 1, 3, 1.0, 0), "num_classes must be an integer >= 2, got 1"),
            ((5, True, 3, 1.0, 0), "num_classes must be an integer >= 2, got True"),
            ((5, 2, 0, 1.0, 0), "dim must be an integer >= 1, got 0"),
            ((5, 2, 2.5, 1.0, 0), "dim must be an integer >= 1, got 2.5"),
            ((5, 2, 2, 1.0, -1), "seed must be an integer >= 0, got -1"),
            ((5, 2, 2, 1.0, 0.5), "seed must be an integer >= 0, got 0.5"),
        ],
    )
    def test_bad_count_or_seed_is_named(self, args, message):
        # Numpy once refused these itself, naming no parameter, and True
        # read as a count of 1.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_blobs(*args)

    def test_numpy_integers_accepted(self):
        a = generate_blobs(np.int64(5), np.int32(2), np.int16(3), 1.0, np.uint8(4))
        b = generate_blobs(5, 2, 3, 1.0, 4)
        assert np.array_equal(a.features, b.features)

    @pytest.mark.parametrize(
        "args",
        [
            (1, 2, 1, 1.0, 0),
            (30, 3, 5, 1.5, 9),
            (7, 5, 3, 0.0, 4),
            (7, 5, 3, 1e-300, 4),
            (500, 4, 20, 1.8, 0),
        ],
    )
    def test_matches_per_class_oracle(self, args):
        # Spread 0 scales the noise to signed zeros; at 1e-300 it rounds away
        # against the centres.
        got, expected = generate_blobs(*args), oracles.generate_blobs(*args)
        assert got.features.tobytes() == expected.features.tobytes()
        assert got.labels.tobytes() == expected.labels.tobytes()
        assert got.class_names == expected.class_names

    def test_peak_memory_stays_near_the_matrix(self):
        # The noise is drawn into the dataset's own matrix; the finiteness
        # mask is the only other large allocation.  A first small call makes
        # the one-off allocations of a fresh process outside the trace.
        generate_blobs(1, 2, 1, 1.0, 0)
        tracemalloc.start()
        try:
            data = generate_blobs(2000, 4, 20, 1.8, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * data.features.nbytes
        assert not data.features.flags.writeable and not data.labels.flags.writeable

    def test_a_spread_that_overflows_names_the_feature(self):
        # The overflow is reported as the constructor reports a non-finite
        # feature, not as a numpy warning.
        with pytest.raises(ValueError, match=r"^features must be finite; row 4, column 0 is -inf$"):
            generate_blobs(5, 2, 2, 1e308, 0)

    @pytest.mark.parametrize("spread", [-0.5, float("nan"), float("inf")])
    def test_bad_spread_is_named(self, spread):
        # A non-finite spread once reached the features and was reported
        # there, as a non-finite feature naming no parameter.
        with pytest.raises(ValueError, match=f"^spread must be a finite number >= 0, got {spread!r}$"):
            generate_blobs(5, 2, 2, spread, 0)


# Feature cells that load, including ones float() reads loosely, and cells
# that do not: non-numeric, non-finite, or overflowing to inf.
GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from([" 1.5 ", "1_0", "\u0661\u0662", "1e308", "-1e308", "-0.0", "+.5e-3", "\n3"]),
)
BAD_CELLS = st.sampled_from(["nan", "-Infinity", "inf", "1e400", "abc", "", "1,5", '2"x'])
LABEL_CELLS = st.sampled_from(["a", "b", "c,d", " a", "", 'q"t'])


@st.composite
def csv_texts(draw):
    """A CSV text and the label column to load it with: label first, middle
    or last; quoted cells; CRLF or LF; optional BOM; and, unless the file is
    clean, bad cells and blank or ragged rows anywhere."""
    num_features = draw(st.integers(1, 4))
    header = [f"x{i}" for i in range(num_features)]
    header.insert(draw(st.integers(0, num_features)), "label")
    clean = draw(st.booleans())
    cells = GOOD_CELLS if clean else st.one_of(GOOD_CELLS, BAD_CELLS)
    shapes = ["ok"] if clean else ["ok", "ok", "ok", "blank", "short", "long"]
    buffer = io.StringIO()
    writer = csv.writer(
        buffer,
        lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
    )
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 5))):
        row = [draw(cells) for _ in range(num_features)]
        row.insert(header.index("label"), draw(LABEL_CELLS))
        shape = draw(st.sampled_from(shapes))
        if shape == "blank":
            row = []
        elif shape == "short":
            row.pop()
        elif shape == "long":
            row.append("1")
        writer.writerow(row)
    bom = "\ufeff" if draw(st.booleans()) else ""
    label_column = draw(st.sampled_from(["label", "label", "label", "x9"]))
    return bom + buffer.getvalue(), label_column


def load_or_message(loader, path, label_column):
    try:
        return loader(path, label_column)
    except CsvParseError as exc:
        return str(exc)


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_basic_parse_with_first_appearance_labels(self, tmp_path):
        path = self.write(tmp_path, "x1,x2,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        data = load_csv(path, "label")
        assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(data.labels, [0, 1, 0])
        assert data.class_names == ("a", "b")

    def test_label_column_position_is_free(self, tmp_path):
        path = self.write(tmp_path, "label,x1,x2\nb,1.0,2.0\na,3.0,4.0\n")
        data = load_csv(path, "label")
        assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
        assert data.class_names == ("b", "a")
        assert np.array_equal(data.labels, [0, 1])

    @pytest.mark.parametrize(
        "text",
        ["label,x1,x2\nb,1.0,2.0\na,3.0,4.0\n", "x1,x2,label\n1.0,2.0,b\n3.0,4.0,a\n"],
        ids=["label-first", "label-last"],
    )
    def test_utf8_byte_order_mark_is_dropped(self, tmp_path, text):
        # Spreadsheet "CSV UTF-8" exports start the file with U+FEFF.
        path = self.write(tmp_path, "\ufeff" + text)
        data = load_csv(path, "label")
        assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(data.labels, [0, 1])
        assert data.class_names == ("b", "a")

    def test_header_only_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "x1,x2,label\n")
        with pytest.raises(CsvParseError):
            load_csv(path, "label")

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(CsvParseError):
            load_csv(path, "label")

    def test_missing_label_column(self, tmp_path):
        path = self.write(tmp_path, "x1,x2\n1.0,2.0\n")
        with pytest.raises(CsvParseError, match="label"):
            load_csv(path, "label")

    def test_non_numeric_cell_cites_row(self, tmp_path):
        rows = "\n".join(f"{i}.0,{i}.0,a" for i in range(1, 5))
        path = self.write(tmp_path, f"x1,x2,label\n{rows}\n1.0,oops,a\n")
        with pytest.raises(CsvParseError, match="row 5, column 'x2': non-numeric value 'oops'"):
            load_csv(path, "label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_cites_row_and_column(self, tmp_path, cell):
        path = self.write(tmp_path, f"x1,label,x2\n1.0,a,2.0\n3.0,b,{cell}\n")
        with pytest.raises(CsvParseError, match=f"row 2, column 'x2': non-finite value '{cell}'"):
            load_csv(path, "label")

    def test_finite_cells_with_an_infinite_sum_load(self, tmp_path):
        # The quoted label sends the chunk to the row reader, whose fast
        # parse re-checks a row whose sum overflows cell by cell.
        path = self.write(tmp_path, 'x1,x2,label\n1e308,1e308,"a"\n-1e308,-1e308,b\n')
        data = load_csv(path, "label")
        assert data.features.tobytes() == np.array([[1e308, 1e308], [-1e308, -1e308]]).tobytes()
        assert np.array_equal(data.labels, [0, 1])
        assert data.class_names == ("a", "b")

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "x1,x2,label\n1.0,2.0,a\n1.0,a\n")
        with pytest.raises(CsvParseError, match="row 2"):
            load_csv(path, "label")

    def test_label_only_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "label\na\nb\n")
        with pytest.raises(CsvParseError) as info:
            load_csv(path, "label")
        assert str(info.value) == f"{path}: no feature column besides the label column 'label'"

    @pytest.mark.parametrize(
        "data, fault",
        [
            ("x1,label\n1.0,a\n2.0,\xff\n".encode("latin-1"), "row 2 is not UTF-8 text (byte 0xff)"),
            ("x1,lab\xe9l\n1.0,a\n".encode("latin-1"), "header is not UTF-8 text (byte 0xe9)"),
            (b"x1,label\n1.0,a\n" + b"2" * 131_073 + b",b\n", "row 2 has a cell longer than 131072 characters"),
        ],
        ids=["latin-1-row", "latin-1-header", "long-cell"],
    )
    def test_unreadable_row_names_file_and_row(self, tmp_path, data, fault):
        # Both once escaped without a row: a bare codec error and a csv
        # module error.
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(CsvParseError) as info:
            load_csv(str(path), "label")
        assert str(info.value) == f"{path}: {fault}"

    @settings(max_examples=300)
    @given(text_and_label=csv_texts())
    @example(text_and_label=("x1,label,x2\n1,a,2\n1,a\n3,b,oops\n", "label"))
    @example(text_and_label=("x1,label,x2\n1,a,oops\n1,a\n", "label"))
    @example(text_and_label=("x1,x2,label\r\n1e308,1e308,a\r\n-1e308,1e308,b\r\n", "label"))
    @example(text_and_label=('\ufefflabel,x1\r\n"c,d", 1.5 \r\nb,1_0\r\n', "label"))
    def test_matches_oracle(self, tmp_path_factory, text_and_label):
        text, label_column = text_and_label
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = load_or_message(oracles.load_csv, str(path), label_column)
        got = load_or_message(load_csv, str(path), label_column)
        if isinstance(expected, str):
            assert got == expected
            return
        assert not isinstance(got, str), got
        assert got.features.shape == expected.features.shape
        assert got.features.tobytes() == expected.features.tobytes()
        assert np.array_equal(got.labels, expected.labels)
        assert got.class_names == expected.class_names

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted-labels"])
    def test_peak_memory_stays_near_the_matrix(self, tmp_path, monkeypatch, quoted):
        # Quoted labels, as R's write.csv writes them, send every row to the
        # row reader; plain rows take the bulk path.
        rng = np.random.default_rng(0)
        features = rng.normal(size=(4000, 20))
        label = '"c{}"' if quoted else "c{}"
        lines = ["label," + ",".join(f"x{j}" for j in range(20))]
        lines += [
            label.format(i % 3) + "," + ",".join(map(repr, row))
            for i, row in enumerate(features.tolist())
        ]
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        starts = row_reader_starts(monkeypatch)
        tracemalloc.start()
        try:
            data = load_csv(path, "label")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.features.tobytes() == features.tobytes()
        assert starts == ([0] if quoted else [])
        # The parse buffers become the dataset's arrays, with no second copy.
        assert peak < 1.5 * features.nbytes

    def test_arrays_are_read_only(self, tmp_path):
        data = load_csv(self.write(tmp_path, "x1,label\n1.5,a\n2.5,b\n"), "label")
        assert not data.features.flags.writeable and not data.labels.flags.writeable
        with pytest.raises(ValueError):
            data.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            data.labels[0] = 1


def plain_csv_lines(label_idx, newline="\n", rows=3000):
    """The lines of a plain CSV, header first, that spans several of
    load_csv's 64 KB chunks: six features, labels in three classes at
    column ``label_idx``, and every cell a number that loads."""
    rng = np.random.default_rng(label_idx)
    features = rng.normal(size=(rows, 6)) * 10.0 ** rng.integers(-5, 6, size=(rows, 6))
    header = [f"x{j}" for j in range(6)]
    header.insert(label_idx, "label")
    lines = [",".join(header) + newline]
    for i, row in enumerate(features.tolist()):
        cells = list(map(repr, row))
        cells.insert(label_idx, f"class {i % 3}")
        lines.append(",".join(cells) + newline)
    return lines


def row_reader_starts(monkeypatch):
    """Record, for each time load_csv hands the rest of a file to its row
    reader, how many rows the bulk path had already parsed."""
    starts = []
    read_rows = fedsim.data._read_rows

    def recorded(path, rows, names, label_idx, values, labels, class_index):
        starts.append(len(labels))
        return read_rows(path, rows, names, label_idx, values, labels, class_index)

    monkeypatch.setattr(fedsim.data, "_read_rows", recorded)
    return starts


def loaded_like_the_oracle(path):
    """load_csv's result or message, after asserting it is the oracle's."""
    expected = load_or_message(oracles.load_csv, path, "label")
    got = load_or_message(load_csv, path, "label")
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert got.features.shape == expected.features.shape
        assert got.features.tobytes() == expected.features.tobytes()
        assert got.labels.tobytes() == expected.labels.tobytes()
        assert got.class_names == expected.class_names
    return got


class TestBulkParse:
    """Plain chunks of rows are parsed in one np.loadtxt call each; anything
    else reaches the csv module row by row.  Both must give the oracle's
    result, and the row reader must run only where a chunk needs it."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("label_idx", [0, 3, 6], ids=["label-first", "label-middle", "label-last"])
    def test_plain_file_never_reaches_the_row_reader(self, tmp_path, monkeypatch, newline, label_idx):
        path = tmp_path / "plain.csv"
        path.write_text("".join(plain_csv_lines(label_idx, newline)), encoding="utf-8", newline="")
        assert path.stat().st_size > 4 * fedsim.data._CHUNK_CHARS
        starts = row_reader_starts(monkeypatch)
        data = loaded_like_the_oracle(str(path))
        assert len(data) == 3000 and data.class_names == ("class 0", "class 1", "class 2")
        assert starts == []

    @pytest.mark.parametrize(
        "line, falls_back",
        [
            ('"1.5",2,3,"a",4,5,6\n', True),
            ("1.5,2,3,a,4,5,6\r", True),
            ("1.5,2\x00,3,a,4,5,6\n", True),
            ("\n", True),
            ("1.5,2,3,a,4,5\n", True),
            ("1.5,2,3,a,4,5,6,7\n", True),
            ("1.5,2,3," + "a" * 131_073 + ",4,5,6\n", True),
            ("1.5,2,3,\udcff,4,5,6\n", True),
            ("1.5,abc,3,a,4,5,6\n", True),
            ("1.5,\x1c2,3,a,4,5,6\n", True),
            ("1.5,1_0,3,a,4,5,6\n", True),
            ("1.5,\u0661\u0662,3,a,4,5,6\n", True),
            ("1.5,2,nan,a,4,5,6\n", True),
            ("1.5,2,3,a,4,5,1e400\n", True),
            ("1e308,1e308,3,a,4,5,6\n", False),
            ("1.5,\u20002,3,caf\u00e9,4,5,6\n", False),
        ],
        ids=[
            "quote", "lone-CR", "NUL", "blank", "short", "long", "over-field-limit",
            "not-UTF-8", "non-numeric", "U+001C", "underscore", "Arabic-Indic",
            "nan", "1e400", "sum-overflows", "non-ASCII",
        ],
    )
    def test_one_line_in_the_last_chunk(self, tmp_path, monkeypatch, line, falls_back):
        lines = plain_csv_lines(3)
        lines[-2] = line
        path = tmp_path / "last.csv"
        path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
        starts = row_reader_starts(monkeypatch)
        got = loaded_like_the_oracle(str(path))
        # Only the last chunk goes to the row reader, which counts on from
        # the rows the bulk path parsed.
        assert len(starts) == falls_back and all(start > 2000 for start in starts)
        if isinstance(got, str):
            # The fault is in the file's next-to-last row, past several chunks.
            assert f"{path}: row {len(lines) - 2}" in got

    def test_lower_field_limit_sends_long_lines_to_the_row_reader(self, tmp_path, monkeypatch):
        # The row reader then refuses only a cell over the limit, not a row.
        lines = plain_csv_lines(0)
        path = tmp_path / "limit.csv"
        path.write_text("".join(lines), encoding="utf-8")
        limit = csv.field_size_limit(min(map(len, lines[1:])) - 1)
        try:
            starts = row_reader_starts(monkeypatch)
            loaded_like_the_oracle(str(path))
            assert starts == [0]
        finally:
            csv.field_size_limit(limit)


def loadtxt_cell(cell):
    """np.loadtxt's reading of ``cell`` as the first cell of a row, as
    load_csv calls it, or None if it refuses the cell."""
    try:
        return np.loadtxt([f"{cell},a\n"], delimiter=",", usecols=[0], comments=None, ndmin=2)[0, 0]
    except ValueError:
        return None


FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
NUMERALS = st.one_of(
    GOOD_CELLS.filter(lambda cell: "_" not in cell and cell.isascii() and "\n" not in cell),
    st.tuples(FLOATS, st.sampled_from(["{:.17e}", "{:.3g}", "{:f}", "{:.25g}", "{:+.1E}"])).map(
        lambda pair: pair[1].format(pair[0])
    ),
    st.tuples(st.integers(-(10**25), 10**25), st.integers(-400, 400)).map(lambda p: "%de%d" % p),
    st.sampled_from(["1e400", "-1e400", "2.4703282292062327e-324", "2.4703282292062328e-324"]),
)


class TestLoadtxtReadsLikeFloat:
    """load_csv's bulk path trusts np.loadtxt to read a number to the bits
    float() gives, and to refuse what float() refuses; these check that under
    the numpy that runs them."""

    @settings(max_examples=500)
    @given(cell=NUMERALS)
    def test_numerals(self, cell):
        got = loadtxt_cell(cell)
        assert got is not None
        assert np.float64(got).tobytes() == np.float64(float(cell)).tobytes()

    def test_no_character_is_read_more_loosely(self):
        # Each ASCII character, and some Unicode spaces, around and inside a
        # number; characters the bulk path never hands to np.loadtxt aside.
        chars = [chr(c) for c in range(128)] + ["\x85", "\xa0", "\u2000", "\u3000", "\u0661"]
        chars = [c for c in chars if c not in fedsim.data._ROW_READER_CHARS + ',\r\n']
        for char in chars:
            for cell in (char, char + "1.5", "1.5" + char, "1" + char + "5", char + "1.5" + char):
                got = loadtxt_cell(cell)
                if got is not None:
                    assert np.float64(got).tobytes() == np.float64(float(cell)).tobytes(), repr(cell)


class TestStratifiedPartition:
    def test_divisible_classes_give_equal_shards(self):
        data = generate_blobs(48, 2, 3, 1.0, 1)
        shards = stratified_partition(data, 4, 0)
        assert len(shards) == 4
        for shard in shards:
            assert np.array_equal(shard.class_counts(), [12, 12])

    def test_uneven_classes_differ_by_at_most_one(self):
        data = generate_blobs(50, 2, 3, 1.0, 1)
        shards = stratified_partition(data, 4, 0)
        per_class = np.stack([s.class_counts() for s in shards])
        assert np.array_equal(per_class.sum(axis=0), [50, 50])
        assert per_class.max() - per_class.min() <= 1

    def test_single_client_is_a_permutation(self):
        data = generate_blobs(20, 3, 4, 1.0, 2)
        (shard,) = stratified_partition(data, 1, 5)
        assert row_multiset(shard) == row_multiset(data)

    def test_disjoint_cover(self):
        data = generate_blobs(25, 4, 3, 1.0, 3)
        shards = stratified_partition(data, 5, 7)
        combined = []
        for shard in shards:
            combined.extend(row_multiset(shard))
        assert sorted(combined) == row_multiset(data)

    def test_class_smaller_than_client_count_rejected(self):
        data = Dataset(np.zeros((5, 2)), [0, 0, 0, 0, 1], ("a", "b"))
        with pytest.raises(ValueError, match="'b'"):
            stratified_partition(data, 2, 0)

    def test_zero_clients_rejected(self):
        with pytest.raises(ValueError, match="^num_clients must be an integer >= 1, got 0$"):
            stratified_partition(generate_blobs(4, 2, 3, 1.0, 0), 0, 0)

    def test_deterministic(self):
        data = generate_blobs(30, 3, 4, 1.0, 4)
        a = stratified_partition(data, 3, 11)
        b = stratified_partition(data, 3, 11)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.features, sb.features)
            assert np.array_equal(sa.labels, sb.labels)


class TestStratifiedTrainTestSplit:
    def test_balanced_fraction(self):
        data = generate_blobs(20, 2, 3, 1.0, 5)
        train, test = stratified_train_test_split(data, 0.2, 0)
        assert len(train) == 8 and len(test) == 32
        assert np.array_equal(train.class_counts(), [4, 4])
        assert np.array_equal(test.class_counts(), [16, 16])

    def test_per_class_rounding_half_up(self):
        # 10 samples at 0.25 rounds half-up to 3 train rows per class.
        data = generate_blobs(10, 2, 2, 1.0, 6)
        train, test = stratified_train_test_split(data, 0.25, 1)
        assert np.array_equal(train.class_counts(), [3, 3])
        assert np.array_equal(test.class_counts(), [7, 7])

    def test_tiny_class_keeps_both_sides_nonempty(self):
        data = Dataset(np.arange(12.0).reshape(6, 2), [0, 0, 0, 1, 1, 1], ("a", "b"))
        train, test = stratified_train_test_split(data, 0.1, 2)
        assert np.array_equal(train.class_counts(), [1, 1])
        assert np.array_equal(test.class_counts(), [2, 2])

    def test_disjoint_and_complete(self):
        data = generate_blobs(15, 3, 4, 1.0, 7)
        train, test = stratified_train_test_split(data, 0.4, 3)
        assert sorted(row_multiset(train) + row_multiset(test)) == row_multiset(data)

    def test_class_below_two_rejected(self):
        data = Dataset(np.zeros((3, 2)), [0, 0, 1], ("a", "b"))
        with pytest.raises(ValueError):
            stratified_train_test_split(data, 0.5, 0)

    @pytest.mark.parametrize(
        "fraction, seed, message",
        [
            (0.0, 0, "train_fraction must be a finite number > 0 and < 1, got 0.0"),
            (1.0, 0, "train_fraction must be a finite number > 0 and < 1, got 1.0"),
            (-0.2, 0, "train_fraction must be a finite number > 0 and < 1, got -0.2"),
            (1.5, 0, "train_fraction must be a finite number > 0 and < 1, got 1.5"),
            (float("nan"), 0, "train_fraction must be a finite number > 0 and < 1, got nan"),
            ("0.5", 0, "train_fraction must be a finite number > 0 and < 1, got '0.5'"),
            (0.5, -1, "seed must be an integer >= 0, got -1"),
            (0.5, 1.5, "seed must be an integer >= 0, got 1.5"),
            (0.5, True, "seed must be an integer >= 0, got True"),
        ],
    )
    def test_bad_fraction_or_seed_is_named(self, fraction, seed, message):
        # A bad seed was once refused only inside numpy, naming no parameter,
        # and True ran as seed 1.
        data = generate_blobs(10, 2, 2, 1.0, 8)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stratified_train_test_split(data, fraction, seed)


@st.composite
def labelled_rows(draw):
    """A dataset of 0 to 4 classes, each of 0 to 7 rows, with its labels in
    any order and every feature row distinct."""
    counts = draw(st.lists(st.integers(0, 7), max_size=4))
    labels = draw(st.permutations(np.repeat(np.arange(len(counts)), counts).tolist()))
    dim = draw(st.integers(1, 2))
    features = np.arange(len(labels) * dim, dtype=np.float64).reshape(len(labels), dim)
    names = tuple(f"c{i}" for i in range(len(counts)))
    return Dataset(features, np.array(labels, dtype=np.int64), names)


def parts_or_error(split, *args):
    """The bytes of each part's rows in order, or the error's type and message."""
    try:
        parts = split(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(p.features.shape, p.features.tobytes(), p.labels.tobytes()) for p in parts]


class TestSplitsMatchOracles:
    """Both splits deal through one routine; the per-function loops they
    replaced must give the same rows in the same order, or the same error."""

    @settings(max_examples=300)
    @given(data=labelled_rows(), num_clients=st.integers(1, 4), seed=st.integers(0, 2**32))
    @example(data=Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), ()), num_clients=2, seed=0)
    def test_partition(self, data, num_clients, seed):
        expected = parts_or_error(oracles.stratified_partition, data, num_clients, seed)
        assert parts_or_error(stratified_partition, data, num_clients, seed) == expected

    @settings(max_examples=300)
    @given(
        data=labelled_rows(),
        fraction=st.floats(0, 1, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32),
    )
    @example(data=Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), ()), fraction=0.5, seed=0)
    def test_train_test_split(self, data, fraction, seed):
        expected = parts_or_error(oracles.stratified_train_test_split, data, fraction, seed)
        assert parts_or_error(stratified_train_test_split, data, fraction, seed) == expected


class TestStreamSeed:
    # Config seeds 0-63, every stream, clients 0-63.
    GRID = range(64)

    def test_every_seed_stream_and_client_gets_its_own_seed(self):
        seeds = [stream_seed(s, k, i) for s in self.GRID for k in oracles.STREAMS for i in self.GRID]
        assert len(set(seeds)) == len(seeds) == 64 * 5 * 64

    def test_matches_the_spawned_children(self):
        for s in self.GRID:
            for stream in oracles.STREAMS:
                got = [stream_seed(s, stream, i) for i in self.GRID]
                assert got == oracles.stream_seeds(s, stream, len(self.GRID))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((-1, "init"), "seed must be an integer >= 0, got -1"),
            ((True, "init"), "seed must be an integer >= 0, got True"),
            ((0, "labels"), "stream must be one of"),
            # True once read as client 1; -1 once raised numpy's bare ValueError.
            ((0, "split", True), "index must be an integer >= 0, got True"),
            ((0, "split", -1), "index must be an integer >= 0, got -1"),
        ],
    )
    def test_rejects_a_bad_argument(self, args, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            stream_seed(*args)


class TestMakeClientShards:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_the_oracle(self, seed):
        data = generate_blobs(20, 3, 2, 1.0, 4)
        got = make_client_shards(data, 4, 0.3, seed)
        expected = oracles.make_client_shards(data, 4, 0.3, seed)
        assert [s.client_id for s in got] == [s.client_id for s in expected]
        for shard, oracle in zip(got, expected):
            for part in ("train", "test"):
                mine, theirs = getattr(shard, part), getattr(oracle, part)
                assert mine.features.tobytes() == theirs.features.tobytes()
                assert mine.labels.tobytes() == theirs.labels.tobytes()

    def test_ids_and_shapes(self):
        data = generate_blobs(60, 4, 6, 1.0, 9)
        shards = make_client_shards(data, 4, 0.2, 0)
        assert [s.client_id for s in shards] == [f"client_{i}" for i in range(4)]
        assert all(isinstance(s, ClientShard) for s in shards)
        for shard in shards:
            assert len(shard.train) == 12
            assert len(shard.test) == 48

    def test_shards_cover_dataset_disjointly(self):
        data = generate_blobs(24, 3, 4, 1.0, 10)
        shards = make_client_shards(data, 3, 0.25, 1)
        combined = []
        for shard in shards:
            combined.extend(row_multiset(shard.train))
            combined.extend(row_multiset(shard.test))
        assert sorted(combined) == row_multiset(data)

    def test_deterministic(self):
        data = generate_blobs(30, 2, 3, 1.0, 11)
        a = make_client_shards(data, 3, 0.3, 4)
        b = make_client_shards(data, 3, 0.3, 4)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.train.features, sb.train.features)
            assert np.array_equal(sa.test.features, sb.test.features)

    def test_peak_memory_stays_near_the_matrix(self):
        # The parts together are one copy of the matrix, and so are the
        # shards; each part is freed once it is split, so the two copies
        # never coexist in full.
        data = generate_blobs(1000, 4, 20, 1.0, 0)
        tracemalloc.start()
        try:
            shards = make_client_shards(data, 4, 0.5, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(s.train) + len(s.test) for s in shards) == len(data)
        assert peak < 1.6 * data.features.nbytes

    @settings(max_examples=200)
    @given(
        num_clients=st.integers(1, 6),
        extra=st.lists(st.integers(0, 30), min_size=1, max_size=4),
        fraction=st.floats(0, 1, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32),
    )
    def test_train_sizes_never_increase_with_client_index(self, num_clients, extra, fraction, seed):
        # np.array_split gives a class's extra rows to the lowest-numbered
        # clients, and the half-up train count is monotone in the class
        # count; sgd_train relies on it to train each size as one run of
        # adjacent clients.
        counts = [2 * num_clients + e for e in extra]
        labels = np.repeat(np.arange(len(counts)), counts)
        data = Dataset(np.zeros((len(labels), 1)), labels, tuple(f"c{i}" for i in range(len(counts))))
        sizes = [len(s.train) for s in make_client_shards(data, num_clients, fraction, seed)]
        assert sizes == sorted(sizes, reverse=True)

    def test_clients_get_distinct_split_shuffles(self):
        # All shards share the partition seed but split with derived seeds,
        # so two clients with identical data would still shuffle differently.
        data = generate_blobs(40, 2, 3, 1.0, 12)
        shards = make_client_shards(data, 2, 0.5, 13)
        assert row_multiset(shards[0].train) != row_multiset(shards[1].train)

    @pytest.mark.parametrize(
        "num_clients, seed, message",
        [
            (2.0, 0, "num_clients must be an integer >= 1, got 2.0"),
            (True, 0, "num_clients must be an integer >= 1, got True"),
            (2, -1, "seed must be an integer >= 0, got -1"),
            (2, 1.5, "seed must be an integer >= 0, got 1.5"),
        ],
    )
    def test_bad_count_or_seed_is_named(self, num_clients, seed, message):
        data = generate_blobs(20, 2, 3, 1.0, 0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_client_shards(data, num_clients, 0.5, seed)
