import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tdntc import datapipe
from tdntc.datapipe import (
    DataError,
    Dataset,
    ScalerState,
    StratificationError,
    choose_factor_pair,
    encode_labels,
    frames_from_flows,
    generate_synthetic,
    load_csv_dataset,
    minmax_apply,
    minmax_fit,
    stratified_split,
)


class TestChooseFactorPair:
    def test_48_gives_8x6(self):
        assert choose_factor_pair(48) == (8, 6)

    def test_degenerate_one(self):
        assert choose_factor_pair(1) == (1, 1)

    def test_12_gives_4x3(self):
        assert choose_factor_pair(12) == (4, 3)

    def test_prime_degenerates(self):
        assert choose_factor_pair(13) == (13, 1)
        # found by scanning sqrt(n) candidates, not n
        assert choose_factor_pair(2_147_483_647) == (2_147_483_647, 1)
        assert choose_factor_pair(1_000_003 * 999_983) == (1_000_003, 999_983)

    def test_divisor_properties(self):
        for n in range(1, 400):
            rows, cols = choose_factor_pair(n)
            assert rows * cols == n
            assert rows >= cols
            # rows is the smallest divisor at or above sqrt(n)
            for d in range(cols + 1, rows):
                if n % d == 0:
                    assert d * d < n


class TestFrames:
    def test_direct_slicing_law(self):
        vec = np.array([[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]])
        fs = frames_from_flows(vec, factor_pair=(3, 2))
        assert fs.frames[0].tolist() == [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]

    def test_48_feature_round_trip(self):
        rng = np.random.default_rng(0)
        flows = rng.uniform(0, 1, size=(10, 48))
        fs = frames_from_flows(flows)
        assert (fs.rows, fs.cols) == (8, 6)
        assert fs.frames.reshape(10, 48).tobytes() == flows.tobytes()

    def test_identical_flows_identical_frames(self):
        row = np.linspace(0, 1, 12)
        fs = frames_from_flows(np.stack([row, row]))
        assert (fs.frames[0] == fs.frames[1]).all()

    def test_unscaled_input_rejected(self):
        with pytest.raises(DataError):
            frames_from_flows(np.array([[0.5, 1.5, 0.0, 0.2]]))
        with pytest.raises(DataError):
            frames_from_flows(np.array([[-0.1, 0.5, 0.0, 0.2]]))

    def test_no_rows_give_no_frames(self):
        # `train` frames each split on its own, and a split of classes
        # below 10 rows has no validation rows.
        fs = frames_from_flows(np.empty((0, 48)))
        assert fs.frames.shape == (0, 8, 6)

    def test_lossless_across_widths(self):
        rng = np.random.default_rng(3)
        for n in (12, 48, 60):
            flows = rng.uniform(0, 1, size=(50, n))
            fs = frames_from_flows(flows)
            assert fs.rows * fs.cols == n
            assert fs.frames.reshape(50, n).tobytes() == flows.tobytes()


class TestEncodeLabels:
    def test_two_classes(self):
        idx, names = encode_labels(["chat", "video", "chat"])
        assert idx.tolist() == [0, 1, 0]
        assert names == ["chat", "video"]

    def test_single_class(self):
        idx, names = encode_labels(["x", "x", "x"])
        assert idx.tolist() == [0, 0, 0]
        assert names == ["x"]

    def test_lexicographic_order(self):
        idx, names = encode_labels(["b", "a", "c"])
        assert idx.tolist() == [1, 0, 2]
        assert names == ["a", "b", "c"]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            encode_labels([])


def minmax_fit_apply(train):
    state = minmax_fit(train)
    return state, minmax_apply(state, train)


class TestMinMax:
    def test_linear_map_endpoints(self):
        state, scaled = minmax_fit_apply(np.array([[2.0], [4.0], [6.0]]))
        assert scaled[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_feature_maps_to_zero(self):
        state, scaled = minmax_fit_apply(np.array([[5.0], [5.0]]))
        assert scaled[:, 0].tolist() == [0.0, 0.0]

    def test_apply_clamps_out_of_range(self):
        state = minmax_fit(np.array([[0.0], [10.0]]))
        out = minmax_apply(state, np.array([[12.0], [-3.0]]))
        assert out[:, 0].tolist() == [1.0, 0.0]

    def test_training_split_spans_unit_interval(self):
        rng = np.random.default_rng(1)
        train = rng.normal(size=(40, 5)) * 7 + 3
        state, scaled = minmax_fit_apply(train)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        assert np.allclose(scaled.min(axis=0), 0.0)
        assert np.allclose(scaled.max(axis=0), 1.0)

    def test_output_is_the_formula_bit_for_bit(self):
        # One output array written in place gives the bits of the
        # four-temporary expression, constant columns and clamps included.
        rng = np.random.default_rng(2)
        train = rng.normal(size=(30, 6)) * 1e3
        train[:, 2] = 7.0
        state = minmax_fit(train)
        x = rng.normal(size=(50, 6)) * 2e3
        span = state.feature_max - state.feature_min
        want = (x - state.feature_min) / np.where(span == 0.0, 1.0, span)
        want = np.clip(np.where(span == 0.0, 0.0, want), 0.0, 1.0)
        got = minmax_apply(state, x)
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, x)

    def test_distance_past_float_range_still_clamps(self):
        # x - min overflows to +-inf here; it clamps without a RuntimeWarning.
        state = ScalerState(np.array([-1e308, 1e308]), np.array([0.0, 1.7e308]))
        out = minmax_apply(state, np.array([[1.7e308, -1.7e308], [-1e308, 1.7e308]]))
        assert out.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("low, high, feature", [
        ([0.0, -1e308], [1.0, 1e308], 1),
        ([-1.7e308, -1e308], [1e308, 1e308], 0),
        ([0.0, -1e308], [1.0, 0.0], None),
    ])
    def test_overflowing_feature(self, low, high, feature):
        state = ScalerState(np.array(low), np.array(high))
        assert state.overflowing_feature() == feature


def _toy_dataset(per_class, n_classes=2, n_features=4, seed=0):
    rng = np.random.default_rng(seed)
    m = per_class * n_classes
    return Dataset(rng.normal(size=(m, n_features)),
                   np.repeat(np.arange(n_classes), per_class),
                   [f"c{i}" for i in range(n_classes)])


class TestStratifiedSplit:
    def test_single_class_70_10_20(self):
        ds = _toy_dataset(100, n_classes=1)
        split = stratified_split(ds, seed=0)
        assert (split.train.size, split.val.size, split.test.size) == (70, 10, 20)

    def test_exact_ratios_per_class(self):
        ds = _toy_dataset(10, n_classes=2)
        split = stratified_split(ds, seed=1)
        for c in range(2):
            labels = ds.labels
            assert (labels[split.train] == c).sum() == 7
            assert (labels[split.val] == c).sum() == 1
            assert (labels[split.test] == c).sum() == 2

    def test_deterministic_under_seed(self):
        ds = _toy_dataset(25)
        a = stratified_split(ds, seed=9)
        b = stratified_split(ds, seed=9)
        assert (a.train == b.train).all()
        assert (a.val == b.val).all()
        assert (a.test == b.test).all()

    def test_partitions_all_indices(self):
        ds = _toy_dataset(17, n_classes=3)
        split = stratified_split(ds, seed=3)
        merged = np.concatenate([split.train, split.val, split.test])
        assert np.array_equal(np.sort(merged), np.arange(ds.n_flows))
        for c in range(3):
            n = (ds.labels == c).sum()
            # val/test floor their shares; train absorbs both remainders
            assert abs((ds.labels[split.val] == c).sum() - 0.1 * n) <= 1
            assert abs((ds.labels[split.test] == c).sum() - 0.2 * n) <= 1
            assert abs((ds.labels[split.train] == c).sum() - 0.7 * n) < 2

    def test_tiny_class_rejected(self):
        ds = Dataset(np.zeros((4, 2)), np.array([0, 0, 0, 1]), ["a", "b"])
        with pytest.raises(StratificationError):
            stratified_split(ds, seed=0)


class TestLoadCsv:
    def test_shape(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("f0,f1,label\n1,2,chat\n3,4,video\n5,6,chat\n")
        ds = load_csv_dataset(path)
        assert ds.n_flows == 3
        assert ds.n_features == 2
        assert ds.class_names == ["chat", "video"]
        assert ds.labels.tolist() == [0, 1, 0]

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(DataError):
            load_csv_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv_dataset(path)

    def test_string_column_encoded(self, tmp_path):
        path = tmp_path / "mix.csv"
        path.write_text("proto,f1,label\nudp,1,a\ntcp,2,b\nudp,3,a\n")
        ds = load_csv_dataset(path)
        # lexicographic per-column encoding: tcp -> 0, udp -> 1
        assert ds.features[:, 0].tolist() == [1.0, 0.0, 1.0]

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f0,f1,label\n1,2,a\n3,b\n")
        with pytest.raises(DataError):
            load_csv_dataset(path)

    def test_missing_label_column_rejected(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("f0,f1\n1,2\n")
        with pytest.raises(DataError):
            load_csv_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"f0,f1,label\n1,2,a\n3,{cell},b\n5,6,a\n")
        with pytest.raises(DataError) as err:
            load_csv_dataset(path)
        assert f"{path}:3:" in str(err.value)
        assert "'f1'" in str(err.value)

    def test_first_column_with_a_non_finite_cell_is_named(self, tmp_path):
        # Columns are checked left to right, each from its first row.
        path = tmp_path / "nonfinite.csv"
        path.write_text("f0,f1,label\n1,inf,a\nnan,2,b\n")
        with pytest.raises(DataError) as err:
            load_csv_dataset(path)
        assert str(err.value) == f"{path}:3: non-finite value 'nan' in column 'f0'"

    # A quoted cell that spans two lines pushes every later row down a line.
    @pytest.mark.parametrize("text, where", [
        ('a,b,label\n1,"x\ny",s1\n2,3,s2\n4,5\n', ":5: expected 3 cells, found 2"),
        ('a,b,label\n"x\ny",1,s1\nz,inf,s2\n', ":4: non-finite value 'inf' in column 'b'"),
    ], ids=["ragged", "non-finite"])
    def test_error_line_counts_a_multiline_cell(self, tmp_path, text, where):
        path = tmp_path / "multiline.csv"
        path.write_text(text)
        with pytest.raises(DataError) as err:
            load_csv_dataset(path)
        assert str(err.value) == f"{path}{where}"

    @pytest.mark.parametrize("header, name", [
        ("label,x,label", "label"), ("f0,f1,f0,label", "f0"), ("a,b,label,b,a", "b"),
    ])
    def test_repeated_column_name_rejected(self, tmp_path, header, name):
        path = tmp_path / "repeat.csv"
        width = header.count(",") + 1
        path.write_text(header + "\n" + ",".join(["1"] * width) + "\n")
        with pytest.raises(DataError) as err:
            load_csv_dataset(path)
        assert str(err.value) == f"{path}: column {name!r} repeats in the header"

    def test_float_semantics_of_cells(self, tmp_path):
        # A cell is read by float(): digit groups and padding are numbers.
        path = tmp_path / "under.csv"
        path.write_text("f0,f1,label\n1_0, 2 ,a\n-0,1e-320,b\n")
        ds = load_csv_dataset(path)
        assert ds.features.tobytes() == np.array([[10.0, 2.0], [-0.0, 1e-320]]).tobytes()
        assert ds.encoded_columns == {}

    def test_text_columns_are_recorded_with_their_category_counts(self, tmp_path):
        path = tmp_path / "mix.csv"
        path.write_text("src,f1,label,proto\nb,1,x,udp\na,1.0x,y,tcp\nc,3,x,udp\n")
        ds = load_csv_dataset(path)
        assert ds.feature_names == ["src", "f1", "proto"]
        assert list(ds.encoded_columns.items()) == [("src", 3), ("f1", 3), ("proto", 2)]
        assert ds.features.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [2.0, 2.0, 1.0]]

    def test_file_that_changes_between_passes_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "mix.csv"
        path.write_text("proto,f1,label\nudp,1,a\ntcp,2,b\n")
        rewind = datapipe._rewind

        def grow_then_rewind(f, *args):
            with open(path, "a") as out:
                out.write("udp,3,a\n")
            rewind(f, *args)

        monkeypatch.setattr(datapipe, "_rewind", grow_then_rewind)
        with pytest.raises(DataError) as err:
            load_csv_dataset(path)
        assert str(err.value) == f"{path}: changed while it was read"

    @pytest.mark.parametrize("content, words", [
        (b"f0,label\n1,a\n\xff,b\n", "not UTF-8 text at byte 13"),
        (b"label\na\nb\n", "no feature column"),
        (b"f0,label\n" + b"1" * 200_000 + b",a\n", "unreadable CSV"),
        # A byte that is not UTF-8 is named before a fault earlier in the file.
        (b"f0,label\n" + b"1" * 200_000 + b",a\n" + b"2,b\n" * 5000 + b"\xff,b\n",
         "not UTF-8 text at byte 220012"),
        (b"f0,label\n1,a\n3\n\xff,b\n", "not UTF-8 text at byte 15"),
    ], ids=["non-utf8", "label-only", "oversized-field", "non-utf8-after-oversized-field",
            "non-utf8-after-ragged-row"])
    def test_unreadable_file_names_the_file(self, tmp_path, content, words):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(DataError) as err:
            load_csv_dataset(path)
        assert str(err.value).startswith(f"{path}: ")
        assert words in str(err.value)


def _load_through_stdin(data: bytes) -> str:
    """Load `data` piped to a child's /dev/stdin; the digest of what it got, or its error."""
    code = ("import hashlib, sys\n"
            "from tdntc.datapipe import DataError, load_csv_dataset\n"
            "try:\n"
            "    ds = load_csv_dataset('/dev/stdin')\n"
            "except DataError as exc:\n"
            "    sys.exit(f'error: {exc}')\n"
            "print(hashlib.sha256(ds.features.tobytes() + ds.labels.tobytes()"
            " + repr(ds.class_names).encode()).hexdigest())\n")
    src = str(Path(datapipe.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", code], input=data, capture_output=True,
                         env=dict(os.environ, PYTHONPATH=src))
    return run.stdout.decode().strip() or run.stderr.decode().strip()


class TestStreamedLoad:
    def test_numeric_csv_through_a_pipe_loads_bit_equal(self, tmp_path):
        path = tmp_path / "flows.csv"
        rows = [f"{i * 0.1!r},{-i}.5,{'ab'[i % 2]}" for i in range(3000)]
        path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
        ds = load_csv_dataset(path)
        digest = hashlib.sha256(ds.features.tobytes() + ds.labels.tobytes()
                                + repr(ds.class_names).encode()).hexdigest()
        assert _load_through_stdin(path.read_bytes()) == digest

    def test_text_column_through_a_pipe_names_the_input(self):
        # Label-encoding takes a second pass, which a pipe cannot give.
        assert _load_through_stdin(b"f0,proto,label\n1,udp,a\n2,tcp,b\n") == (
            "error: /dev/stdin: column 'proto' is not numeric; label-encoding it needs "
            "a second read, and the input cannot be read twice")

    def test_load_and_scale_hold_about_two_copies_of_the_matrix(self, tmp_path):
        rows, cols = 20_000, 48
        values = np.random.default_rng(0).normal(size=(rows, cols))
        path = tmp_path / "wide.csv"
        with open(path, "w") as out:
            out.write(",".join(f"f{j}" for j in range(cols)) + ",label\n")
            for i, row in enumerate(values.tolist()):
                out.write(",".join(map(repr, row)) + f",c{i % 3}\n")
        tracemalloc.start()
        try:
            ds = load_csv_dataset(path)
            minmax_apply(minmax_fit(ds.features), ds.features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.tobytes() == values.tobytes()
        assert peak < 3 * values.nbytes, f"peak {peak / values.nbytes:.2f}x the matrix"


def _stump_accuracy(ds):
    """Best depth-1 threshold classifier over all features (median split)."""
    best = 0.0
    for j in range(ds.n_features):
        col = ds.features[:, j]
        threshold = np.median(col)
        left = ds.labels[col <= threshold]
        right = ds.labels[col > threshold]
        correct = 0
        for side in (left, right):
            if side.size:
                correct += np.bincount(side).max()
        best = max(best, correct / ds.n_flows)
    return best


class TestGenerateSynthetic:
    def test_counts_balanced(self):
        ds = generate_synthetic(3, 100, 48, seed=0)
        assert ds.n_flows == 300
        assert np.bincount(ds.labels).tolist() == [100, 100, 100]
        assert ds.class_names == ["svc-0", "svc-1", "svc-2"]

    def test_deterministic(self):
        a = generate_synthetic(3, 50, 12, seed=4)
        b = generate_synthetic(3, 50, 12, seed=4)
        assert a.features.tobytes() == b.features.tobytes()
        assert (a.labels == b.labels).all()

    def test_stump_beats_chance(self):
        ds = generate_synthetic(3, 200, 12, seed=7)
        assert _stump_accuracy(ds) > 0.5

    def test_parameter_validation(self):
        with pytest.raises(DataError):
            generate_synthetic(1, 10, 8)
        with pytest.raises(DataError):
            generate_synthetic(2, 10, 3)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_seed_must_be_an_integer_at_least_zero(self, seed):
        with pytest.raises(DataError, match="integer seed >= 0"):
            generate_synthetic(2, 10, 8, seed=seed)
