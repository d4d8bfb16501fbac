import numpy as np
import pytest

from tdntc.datapipe import (
    DataError,
    Dataset,
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
