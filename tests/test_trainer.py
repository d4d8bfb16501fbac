import json
import struct

import numpy as np
import pytest

from gradcheck_lib import graph_grads
from tdntc import datapipe, models, trainer
from tdntc.layers import softmax_cross_entropy_batch
from tdntc.trainer import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    DivergenceError,
    TrainConfig,
    TrialTable,
    evaluate,
    format_trial_table,
    history_csv,
    load_checkpoint,
    run_trials,
    save_checkpoint,
    train,
)

# N=12 folds to 4x3 frames; kernel (3,2) keeps the pooled geometry valid.
TINY_KERNEL = (3, 2)


def tiny_splits(variant, per_class=12, n_features=12, n_classes=3, seed=0):
    """Small prepared (train, val, test) arrays for a variant."""
    ds = datapipe.generate_synthetic(n_classes, per_class, n_features, seed=seed)
    split = datapipe.stratified_split(ds, seed=seed)
    scaler = datapipe.minmax_fit(ds.features[split.train])
    scaled = datapipe.minmax_apply(scaler, ds.features)
    cfg = models.ModelConfig(variant, n_features, n_classes, units=4,
                             kernel=TINY_KERNEL, td_units=4, seed=seed)
    if cfg.frame_input:
        inputs = datapipe.frames_from_flows(scaled).frames
    else:
        inputs = scaled
    data = {name: (inputs[idx], ds.labels[idx])
            for name, idx in (("train", split.train), ("val", split.val),
                              ("test", split.test))}
    return cfg, data


class PerTensorAdam:
    """Adam stepped one tensor at a time: the reference for the flat step."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self._m, self._v = {}, {}

    def step(self, params, grads):
        self.step_count += 1
        t = self.step_count
        for name, p in params.items():
            g = grads[name]
            m = self._m.setdefault(name, np.zeros_like(p))
            v = self._v.setdefault(name, np.zeros_like(p))
            m += (1 - self.beta1) * (g - m)
            v += (1 - self.beta2) * (g * g - v)
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def assert_tiles_flat_vectors(graph):
    """Every parameter and gradient is the next slice of the graph's flat vectors."""
    for tensors, flat in ((graph.params(), graph.flat_params),
                          (graph_grads(graph), graph.flat_grads)):
        offset = 0
        for name, arr in tensors.items():
            assert np.shares_memory(arr, flat), name
            assert arr.flags.c_contiguous, name
            assert arr.ctypes.data == flat.ctypes.data + offset * flat.itemsize, name
            offset += arr.size
        assert offset == flat.size


@pytest.mark.parametrize("variant", models.VARIANTS)
def test_tensors_stay_views_of_the_flat_vectors(variant, tmp_path):
    cfg, data = tiny_splits(variant)
    graph = models.build_model(cfg)
    assert_tiles_flat_vectors(graph)
    train(graph, data["train"], data["val"], TrainConfig(epochs=1, batch_size=8, seed=0))
    assert_tiles_flat_vectors(graph)
    assert np.abs(graph.flat_grads).max() > 0.0
    graph.set_state(graph.get_state())
    assert_tiles_flat_vectors(graph)
    path = tmp_path / "model.ckpt"
    save_checkpoint(graph, path)
    loaded, _, _ = load_checkpoint(path)
    assert_tiles_flat_vectors(loaded)
    assert loaded.flat_params.tobytes() == graph.flat_params.tobytes()


class TestTrainLoop:
    def test_bookkeeping_one_epoch(self):
        cfg, data = tiny_splits("m1-van")
        graph = models.build_model(cfg)
        x, y = data["train"][0][:8], data["train"][1][:8]
        result = train(graph, (x, y), data["val"],
                       TrainConfig(epochs=1, batch_size=4, seed=0))
        assert len(result.history) == 1
        assert result.optimizer_steps == 2

    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_training_rows_rejected(self, rows):
        # Train-mode batchnorm needs two samples in a batch; an empty split
        # must not end in a division by its zero row count either.
        cfg, data = tiny_splits("m1-van")
        graph = models.build_model(cfg)
        x, y = data["train"][0][:rows], data["train"][1][:rows]
        with pytest.raises(ValueError, match="cannot train on"):
            train(graph, (x, y), data["val"], TrainConfig(epochs=1, batch_size=4, seed=0))

    def test_zero_learning_rate_changes_nothing(self):
        cfg, data = tiny_splits("m2-van")
        graph = models.build_model(cfg)
        before = {k: v.copy() for k, v in graph.params().items()}
        train(graph, data["train"], data["val"],
              TrainConfig(epochs=2, batch_size=8, learning_rate=0.0, seed=1))
        for name, arr in graph.params().items():
            assert (arr == before[name]).all(), name

    def test_seeded_run_reproduces_final_loss(self):
        losses = []
        for _ in range(2):
            cfg, data = tiny_splits("m3-td")
            graph = models.build_model(cfg)
            result = train(graph, data["train"], data["val"],
                           TrainConfig(epochs=3, batch_size=8, seed=5))
            losses.append(result.history[-1].train_loss)
        assert abs(losses[0] - losses[1]) <= 1e-12

    def test_early_stop_restores_best_validation_state(self):
        cfg, data = tiny_splits("m1-td", per_class=20)
        graph = models.build_model(cfg)
        result = train(graph, data["train"], data["val"],
                       TrainConfig(epochs=30, batch_size=8, seed=2, patience=3,
                                   learning_rate=5e-2))
        recorded = [h.val_loss for h in result.history]
        assert result.best_val_loss == min(recorded)
        # the restored parameters reproduce the recorded best loss
        x_val, y_val = data["val"]
        logits = graph.forward_logits(x_val, train=False)
        from tdntc.layers import softmax_cross_entropy_batch
        _, val_losses, _ = softmax_cross_entropy_batch(logits, y_val)
        assert abs(float(val_losses.mean()) - result.best_val_loss) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_reported_with_location(self):
        cfg, data = tiny_splits("m1-van")
        graph = models.build_model(cfg)
        next(iter(graph.params().values()))[...] = np.inf
        with pytest.raises(DivergenceError) as err:
            train(graph, data["train"], data["val"],
                  TrainConfig(epochs=1, batch_size=8, seed=0))
        assert "epoch 1" in str(err.value)

    def test_loss_decreases_within_five_epochs_for_every_variant(self):
        ds = datapipe.generate_synthetic(3, 1000, 48, seed=42)
        split = datapipe.stratified_split(ds, seed=42)
        scaler = datapipe.minmax_fit(ds.features[split.train])
        scaled = datapipe.minmax_apply(scaler, ds.features)
        frames = datapipe.frames_from_flows(scaled).frames
        for variant in models.VARIANTS:
            cfg = models.ModelConfig(variant, 48, 3, seed=42)
            inputs = frames if cfg.frame_input else scaled
            graph = models.build_model(cfg)
            result = train(graph, (inputs[split.train], ds.labels[split.train]),
                           (inputs[split.val], ds.labels[split.val]),
                           TrainConfig(epochs=5, batch_size=128, seed=42))
            assert result.history[-1].train_loss < result.initial_train_loss, variant

    @pytest.mark.parametrize("variant", ["m1-td", "m2-td"])
    def test_initial_loss_is_the_first_batch_train_mode_loss(self, variant):
        cfg, data = tiny_splits(variant)
        tcfg = TrainConfig(epochs=2, batch_size=8, seed=3)
        result = train(models.build_model(cfg), data["train"], data["val"], tcfg)
        x, y = data["train"]
        idx = np.random.default_rng(tcfg.seed).permutation(x.shape[0])[:tcfg.batch_size]
        fresh = models.build_model(cfg)
        _, losses, _ = softmax_cross_entropy_batch(
            fresh.forward_logits(x[idx], train=True), y[idx])
        assert result.initial_train_loss == float(losses.mean())
        if variant == "m1-td":
            # batchnorm makes the inference-mode loss a different number
            _, infer, _ = softmax_cross_entropy_batch(fresh.forward_logits(x[idx]), y[idx])
            assert float(infer.mean()) != result.initial_train_loss

    def test_inference_loss_pass_runs_once_per_epoch(self, monkeypatch):
        calls = []
        real = trainer._dataset_loss_acc

        def counted(*args, **kwargs):
            calls.append(args[1].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "_dataset_loss_acc", counted)
        cfg, data = tiny_splits("m1-td")
        result = train(models.build_model(cfg), data["train"], data["val"],
                       TrainConfig(epochs=3, batch_size=8, seed=0, patience=3))
        assert len(result.history) == 3
        assert calls == [data["val"][0].shape[0]] * len(result.history)

    def test_empty_validation_split_trains_without_early_stop(self):
        # floor-rule splits can leave tiny classes with no validation rows
        cfg, data = tiny_splits("m1-van")
        graph = models.build_model(cfg)
        x, y = data["train"]
        empty = (x[:0], y[:0])
        result = train(graph, (x, y), empty,
                       TrainConfig(epochs=3, batch_size=8, seed=0, patience=1))
        assert len(result.history) == 3
        assert result.best_epoch == 3
        assert all(np.isnan(h.val_loss) for h in result.history)

    def test_history_csv_layout(self):
        cfg, data = tiny_splits("m2-van")
        graph = models.build_model(cfg)
        result = train(graph, data["train"], data["val"],
                       TrainConfig(epochs=2, batch_size=8, seed=0))
        text = history_csv(result.history)
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 3
        assert lines[1].startswith("1,")

    def test_sgd_step_is_plain_gradient_descent(self):
        graph = models.build_model(models.ModelConfig(
            "m3-td", 12, 3, units=4, kernel=TINY_KERNEL, td_units=4, seed=1))
        rng = np.random.default_rng(3)
        graph.flat_grads[...] = rng.standard_normal(graph.flat_grads.size)
        grads = graph_grads(graph)
        expected = {name: p - 0.05 * grads[name] for name, p in graph.params().items()}
        trainer._SGD(0.05).step(graph.flat_params, graph.flat_grads)
        for name, p in graph.params().items():
            assert p.tobytes() == expected[name].tobytes(), name

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_flat_adam_matches_the_per_tensor_loop(self, variant):
        graph = models.build_model(models.ModelConfig(
            variant, 12, 3, units=4, kernel=TINY_KERNEL, td_units=4, seed=4))
        expected = {name: p.copy() for name, p in graph.params().items()}
        flat, reference = trainer._Adam(1e-2), PerTensorAdam(1e-2)
        rng = np.random.default_rng(5)
        for step in range(50):
            scale = 10.0 ** rng.uniform(-6, 2)
            grads = {name: scale * rng.standard_normal(p.shape)
                     for name, p in expected.items()}
            for name, g in graph_grads(graph).items():
                g[...] = grads[name]
            flat.step(graph.flat_params, graph.flat_grads)
            reference.step(expected, grads)
        for name, p in graph.params().items():
            assert p.tobytes() == expected[name].tobytes(), name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lbfgs")


class TestEvaluate:
    def test_memorized_toy_set(self):
        ds = datapipe.generate_synthetic(3, 20, 12, seed=0)
        split = datapipe.stratified_split(ds, seed=0)
        scaler = datapipe.minmax_fit(ds.features[split.train])
        frames = datapipe.frames_from_flows(
            datapipe.minmax_apply(scaler, ds.features)).frames
        cfg = models.ModelConfig("m1-van", 12, 3, units=8, kernel=TINY_KERNEL,
                                 td_units=8, seed=3)
        graph = models.build_model(cfg)
        x, y = frames[split.train], ds.labels[split.train]
        train(graph, (x, y), (x, y),
              TrainConfig(epochs=40, batch_size=8, seed=3, patience=40,
                          learning_rate=5e-2))
        report = evaluate(graph, x, y)
        assert report.accuracy == 1.0

    def test_single_class_test_set(self):
        cfg, data = tiny_splits("m1-van")
        graph = models.build_model(cfg)
        x, y = data["test"]
        mask = y == 0
        report = evaluate(graph, x[mask], y[mask])
        assert report.accuracy == report.recall[0]

    def test_evaluation_is_deterministic(self):
        cfg, data = tiny_splits("m3-van")
        graph = models.build_model(cfg)
        a = evaluate(graph, *data["test"])
        b = evaluate(graph, *data["test"])
        assert a.accuracy == b.accuracy
        assert (a.precision == b.precision).all()
        assert (a.recall == b.recall).all()
        assert (a.f1 == b.f1).all()


class TestTrials:
    def test_five_rows_plus_average(self):
        cfg, data = tiny_splits("m1-van", per_class=10)
        table = run_trials(cfg, TrainConfig(epochs=1, batch_size=8, seed=0, trials=5),
                           data["train"], data["val"], data["test"])
        text = format_trial_table(table)
        lines = text.splitlines()
        assert lines[0].split() == ["Trial", "Accuracy", "Precision", "Recall",
                                    "F1", "Time", "(min)"]
        assert len(lines) == 7
        assert lines[-1].startswith("Avg.")
        for i in range(1, 6):
            assert lines[i].startswith(str(i))
        # The table keeps the first trial with the highest test accuracy.
        best = max(table.rows, key=lambda r: r.accuracy)
        assert table.result.wall_seconds / 60.0 == best.minutes
        assert table.report.accuracy == best.accuracy

    def test_single_trial_average_equals_row(self):
        cfg, data = tiny_splits("m2-van", per_class=10)
        table = run_trials(cfg, TrainConfig(epochs=1, batch_size=8, seed=0, trials=1),
                           data["train"], data["val"], data["test"])
        avg = table.averages()
        row = table.rows[0]
        assert (avg.accuracy, avg.precision, avg.recall, avg.f1) == (
            row.accuracy, row.precision, row.recall, row.f1)

    def test_averages_are_column_means(self):
        cfg, data = tiny_splits("m1-van", per_class=10)
        table = run_trials(cfg, TrainConfig(epochs=1, batch_size=8, seed=0, trials=3),
                           data["train"], data["val"], data["test"])
        avg = table.averages()
        assert abs(avg.accuracy - np.mean([r.accuracy for r in table.rows])) <= 1e-12
        assert abs(avg.f1 - np.mean([r.f1 for r in table.rows])) <= 1e-12

    def test_trial_count_validated(self):
        cfg, data = tiny_splits("m1-van")
        with pytest.raises(ValueError):
            run_trials(cfg, TrainConfig(trials=0),
                       data["train"], data["val"], data["test"])


def rewrite_checkpoint(path, edit):
    """Apply `edit(meta, payload) -> payload` to a checkpoint file in place."""
    raw = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))
    start = len(CHECKPOINT_MAGIC) + 4
    meta = json.loads(raw[start:start + meta_len])
    payload = edit(meta, raw[start + meta_len:])
    new_meta = json.dumps(meta, sort_keys=True).encode()
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(new_meta))
                     + new_meta + payload)


def reverse_directory(meta, payload):
    """Reverse the tensor directory and permute the payload to match."""
    chunks, offset = [], 0
    for entry in meta["tensors"]:
        nbytes = int(np.prod(entry["shape"])) * 8
        chunks.append(payload[offset:offset + nbytes])
        offset += nbytes
    meta["tensors"].reverse()
    return b"".join(reversed(chunks))


def add_entry_key(meta, payload):
    meta["tensors"][0]["dtype"] = "<f8"
    return payload


BAD_METADATA = {
    "not-an-object": lambda meta: [meta],
    "tensors-not-a-list": lambda meta: {
        **meta, "tensors": {t["name"]: t["shape"] for t in meta["tensors"]}},
    "entry-without-shape": lambda meta: {
        **meta, "tensors": [{"name": t["name"]} for t in meta["tensors"]]},
    "n_features-text": lambda meta: {
        **meta, "model_config": {**meta["model_config"], "n_features": "twelve"}},
    "n_features-fraction": lambda meta: {
        **meta, "model_config": {**meta["model_config"], "n_features": 12.5}},
    "scalar-kernel": lambda meta: {
        **meta, "model_config": {**meta["model_config"], "kernel": 3}},
    "scaler-without-max": lambda meta: {
        **meta, "scaler": {"min": meta["scaler"]["min"]}},
}


class TestCheckpoints:
    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_round_trip_is_bit_identical(self, variant, tmp_path):
        cfg, data = tiny_splits(variant)
        graph = models.build_model(cfg)
        train(graph, data["train"], data["val"],
              TrainConfig(epochs=1, batch_size=8, seed=0))
        probe = data["test"][0][:4]
        before, _ = graph.predict(probe)
        path = tmp_path / "model.ckpt"
        save_checkpoint(graph, path,
                        scaler=datapipe.ScalerState(np.zeros(12), np.ones(12)),
                        class_names=["a", "b", "c"])
        loaded, scaler, class_names = load_checkpoint(path)
        after, _ = loaded.predict(probe)
        assert np.abs(after - before).max() == 0.0
        assert class_names == ["a", "b", "c"]
        assert scaler.feature_min.tolist() == [0.0] * 12

    def test_truncated_payload_rejected(self, tmp_path):
        cfg, _ = tiny_splits("m1-van")
        graph = models.build_model(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(graph, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "payload" in str(err.value) or "truncated" in str(err.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTCKP" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        cfg, _ = tiny_splits("m1-van")
        graph = models.build_model(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(graph, path)
        raw = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))
        start = len(CHECKPOINT_MAGIC) + 4
        meta = json.loads(raw[start:start + meta_len])
        meta["format_version"] = 2
        new_meta = json.dumps(meta, sort_keys=True).encode()
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(new_meta))
                         + new_meta + raw[start + meta_len:])
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "version" in str(err.value)

    def test_shape_disagreement_rejected(self, tmp_path):
        cfg, _ = tiny_splits("m1-van")
        graph = models.build_model(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(graph, path)
        raw = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))
        start = len(CHECKPOINT_MAGIC) + 4
        meta = json.loads(raw[start:start + meta_len])
        meta["model_config"]["n_classes"] = 7  # payload no longer matches
        new_meta = json.dumps(meta, sort_keys=True).encode()
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(new_meta))
                         + new_meta + raw[start + meta_len:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_directory_missing_a_tensor_rejected(self, tmp_path):
        cfg, _ = tiny_splits("m3-td")
        path = tmp_path / "model.ckpt"
        save_checkpoint(models.build_model(cfg), path)

        def drop_w_x(meta, payload):
            offset = 0
            for i, entry in enumerate(meta["tensors"]):
                nbytes = int(np.prod(entry["shape"])) * 8
                if entry["name"] == "LSTM/w_x":
                    del meta["tensors"][i]
                    return payload[:offset] + payload[offset + nbytes:]
                offset += nbytes

        rewrite_checkpoint(path, drop_w_x)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
        assert "'LSTM/w_x'" in str(err.value)

    def test_huge_model_config_rejected_before_allocation(self, tmp_path, monkeypatch):
        # units = td_units = 20000 would fill about 3 GB in an m1-van model
        cfg, _ = tiny_splits("m1-van")
        path = tmp_path / "model.ckpt"
        save_checkpoint(models.build_model(cfg), path)

        def widen(meta, payload):
            meta["model_config"].update(units=20000, td_units=20000)
            return payload

        def no_build(cfg):
            raise AssertionError("build_model ran before the shapes were checked")

        rewrite_checkpoint(path, widen)
        monkeypatch.setattr(trainer, "build_model", no_build)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == (
            f"{path}: tensor entry 0 holds {{'name': 'CNN_2D/kernels', 'shape': [4, 3, 2]}}, "
            "model expects {'name': 'CNN_2D/kernels', 'shape': [20000, 3, 2]}")

    @pytest.mark.parametrize("case", sorted(BAD_METADATA))
    def test_malformed_metadata_names_the_file(self, tmp_path, case):
        cfg, _ = tiny_splits("m1-van")
        path = tmp_path / "model.ckpt"
        save_checkpoint(models.build_model(cfg), path,
                        scaler=datapipe.ScalerState(np.zeros(12), np.ones(12)),
                        class_names=["a", "b", "c"])
        raw = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))
        start = len(CHECKPOINT_MAGIC) + 4
        meta = BAD_METADATA[case](json.loads(raw[start:start + meta_len]))
        new_meta = json.dumps(meta).encode()
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(new_meta))
                         + new_meta + raw[start + meta_len:])
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("variant", ["m2-td", "m2-van"])
    def test_factor_pair_that_misses_the_features_names_the_file(self, tmp_path, variant):
        cfg, _ = tiny_splits(variant)
        path = tmp_path / "model.ckpt"
        save_checkpoint(models.build_model(cfg), path)

        def cover_49(meta, payload):
            meta["model_config"]["factor_pair"] = [7, 7]
            return payload

        rewrite_checkpoint(path, cover_49)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: factor pair 7x7 does not cover 12 features"

    @pytest.mark.parametrize("text", [b"[" * 100_000, b"1" * 5000, b"\xff"],
                             ids=["deep-nesting", "long-integer", "non-utf8"])
    def test_unparseable_metadata_names_the_file(self, tmp_path, text):
        path = tmp_path / "model.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: unreadable metadata")

    @pytest.mark.parametrize("value, names", [
        (np.nan, ["CNN_2D/kernels"]),
        (np.inf, ["LSTM/bias", "FFNN_1/weights"]),
        (-np.inf, ["BN/running_var"]),
    ], ids=["nan-first-float", "inf-two-tensors", "minus-inf-buffer"])
    def test_non_finite_tensor_rejected(self, tmp_path, value, names):
        cfg, _ = tiny_splits("m3-td")
        path = tmp_path / "model.ckpt"
        save_checkpoint(models.build_model(cfg), path)

        def poison(meta, payload):
            floats = np.frombuffer(payload, dtype="<f8").copy()
            offset = 0
            for entry in meta["tensors"]:
                if entry["name"] in names:
                    floats[offset] = value
                offset += int(np.prod(entry["shape"]))
            return floats.tobytes()

        rewrite_checkpoint(path, poison)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: tensor {names[0]!r} holds NaN or inf"

    @staticmethod
    def _set_running_var(path, index, value):
        def poison(meta, payload):
            floats = np.frombuffer(payload, dtype="<f8").copy()
            offset = 0
            for entry in meta["tensors"]:
                size = int(np.prod(entry["shape"]))
                if entry["name"] == "BN/running_var":
                    floats[offset:offset + size][index] = value
                offset += size
            return floats.tobytes()

        rewrite_checkpoint(path, poison)

    @pytest.mark.parametrize("variant, index, value", [
        ("m1-td", 0, -1.0), ("m3-van", -1, -1e-300),
    ], ids=["m1-td-first", "m3-van-last-tiny"])
    def test_negative_running_var_rejected(self, tmp_path, variant, index, value):
        # inference would take the square root of var + EPSILON: a negative
        # variance gives NaN or a huge scale, not a load error
        cfg, _ = tiny_splits(variant)
        path = tmp_path / "model.ckpt"
        save_checkpoint(models.build_model(cfg), path)
        self._set_running_var(path, index, value)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: tensor 'BN/running_var' holds a negative variance"

    def test_zero_running_var_loads(self, tmp_path):
        # a channel that was constant over training has variance 0, which is legal
        cfg, _ = tiny_splits("m1-td")
        path = tmp_path / "model.ckpt"
        save_checkpoint(models.build_model(cfg), path)
        self._set_running_var(path, 0, 0.0)
        graph, _, _ = load_checkpoint(path)
        assert graph.state_arrays()["BN/running_var"][0] == 0.0

    @pytest.mark.parametrize("feature", [0, 7], ids=["first", "middle"])
    def test_scaler_min_above_max_rejected(self, tmp_path, feature):
        # a swapped range scales every value outside [0, 1]: inference would
        # run on clamped frames and score wrong without an error
        cfg, _ = tiny_splits("m1-td")
        path = tmp_path / "model.ckpt"
        low, high = np.zeros(12), np.ones(12)
        high[feature:] = -1.0
        save_checkpoint(models.build_model(cfg), path,
                        scaler=datapipe.ScalerState(low, high))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: scaler min exceeds max for feature {feature}"

    def test_scaler_min_equal_to_max_loads(self, tmp_path):
        # a feature that was constant over training has min == max, which is legal
        cfg, _ = tiny_splits("m1-td")
        path = tmp_path / "model.ckpt"
        low, high = np.zeros(12), np.ones(12)
        low[3] = high[3] = 2.5
        save_checkpoint(models.build_model(cfg), path,
                        scaler=datapipe.ScalerState(low, high))
        _, scaler, _ = load_checkpoint(path)
        assert scaler.feature_min[3] == scaler.feature_max[3] == 2.5

    def test_directory_repeating_a_tensor_rejected(self, tmp_path):
        cfg, _ = tiny_splits("m1-van")
        path = tmp_path / "model.ckpt"
        save_checkpoint(models.build_model(cfg), path)

        def repeat_last(meta, payload):
            last = meta["tensors"][-1]
            meta["tensors"].append(last)
            return payload + payload[-int(np.prod(last["shape"])) * 8:]

        rewrite_checkpoint(path, repeat_last)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"{path}: tensor entry 10 holds "
                                  "{'name': 'FFNN_1/bias', 'shape': [3]}, model expects nothing")

    @pytest.mark.parametrize("edit", [reverse_directory, add_entry_key],
                             ids=["reordered", "extra-key"])
    def test_directory_not_as_saved_rejected(self, tmp_path, edit):
        # A reordered directory with its payload permuted alike describes
        # the same tensors, but only the directory save_checkpoint writes
        # is read.
        cfg, _ = tiny_splits("m3-td")
        path = tmp_path / "model.ckpt"
        save_checkpoint(models.build_model(cfg), path)
        rewrite_checkpoint(path, edit)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: tensor entry 0 holds ")
        assert str(err.value).endswith(
            "model expects {'name': 'CNN_2D/kernels', 'shape': [4, 3, 2]}")

    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["huge", "minus-huge"])
    def test_scaler_number_beyond_float_range_rejected(self, tmp_path, value):
        cfg, _ = tiny_splits("m3-van")
        path = tmp_path / "model.ckpt"
        save_checkpoint(models.build_model(cfg), path,
                        scaler=datapipe.ScalerState(np.zeros(12), np.ones(12)))

        def overflow(meta, payload):
            meta["scaler"]["min" if value < 0 else "max"][0] = value
            return payload

        rewrite_checkpoint(path, overflow)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == (
            f"{path}: scaler needs 'min' and 'max' lists of 12 finite numbers")

    def test_repeated_class_name_rejected(self, tmp_path):
        # cmd_evaluate maps each name to one class index: a repeated name
        # would score the other class's rows against the wrong column
        cfg, _ = tiny_splits("m3-van")
        path = tmp_path / "model.ckpt"
        save_checkpoint(models.build_model(cfg), path,
                        class_names=["svc-0", "svc-0", "svc-2"])
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: class_names repeats 'svc-0'"
