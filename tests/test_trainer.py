import json
import struct

import numpy as np
import pytest

from tdntc import datapipe, models, trainer
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


class TestTrainLoop:
    def test_bookkeeping_one_epoch(self):
        cfg, data = tiny_splits("m1-van")
        graph = models.build_model(cfg)
        x, y = data["train"][0][:8], data["train"][1][:8]
        result = train(graph, (x, y), data["val"],
                       TrainConfig(epochs=1, batch_size=4, seed=0))
        assert len(result.history) == 1
        assert result.optimizer_steps == 2

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
        assert "repeats" in str(err.value)
