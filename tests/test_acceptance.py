"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them live).

Criteria covered:
  1  parameter-audit golden totals + per-tensor enumeration over the grid
  2  finite-difference gradient checks for every layer kind
  3  lossless flow->frame representation and the 48 -> 8x6 factor pair
  4  convolution geometry/values against a brute-force oracle
  5  metrics equivalence against a pair-scan oracle
  6  desk-scale learning targets for m3-td / m3-van plus the trial table
  7  time-distributed vs vanilla parameter delta
  8  flowcap determinism and hand-computed statistics
  9  checkpoint round-trip bit-exactness
"""

import functools
import json
import time

import numpy as np
import pytest

import pcap_builder as pb
from gradcheck_lib import run_layer_checks
from tdntc import datapipe, flowcap, models, trainer
from tdntc.cli import main
from tdntc.layers import Conv2DLayer, conv2d_output_dims
from tdntc.metrics import classification_metrics, confusion_matrix
from test_layers import brute_force_conv2d
from test_metrics import brute_force_metrics
from test_models import enumerate_stage_counts, make_config

SYNTH_SEED = 42


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({name}): PASS")
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def synth_pipeline():
    """The fixed-seed desk-scale dataset, split, scaler, scaled, and framed."""
    ds = datapipe.generate_synthetic(3, 1000, 48, seed=SYNTH_SEED)
    split = datapipe.stratified_split(ds, seed=SYNTH_SEED)
    scaler = datapipe.minmax_fit(ds.features[split.train])
    scaled = datapipe.minmax_apply(scaler, ds.features)
    frames = datapipe.frames_from_flows(scaled).frames
    return ds, split, scaler, scaled, frames


@criterion(1, "parameter audit golden values")
def test_criterion_1_parameter_audit(capsys):
    started = time.perf_counter()
    assert main(["audit-params", "m3-td", "48", "141"]) == 0
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    for value in ("1280", "256", "131584", "16512", "108429", "258,061"):
        assert value in out
    assert elapsed < 1.0, f"audit took {elapsed:.3f}s"

    assert main(["audit-params", "m3-van", "48", "141"]) == 0
    assert "167,821" in capsys.readouterr().out

    rows, total = models.count_parameters(
        models.build_model(models.ModelConfig("m3-td", 48, 141)))
    assert [r.count for r in rows if r.count] == [1280, 256, 131584, 16512, 108429]
    assert total == 258061

    for variant in models.VARIANTS:
        for n_features in (12, 48):
            for n_classes in (2, 24, 141):
                graph = models.build_model(make_config(variant, n_features, n_classes))
                audit_rows, audit_total = models.count_parameters(graph)
                live_rows, live_total = enumerate_stage_counts(graph)
                assert [r.count for r in audit_rows] == live_rows, (
                    variant, n_features, n_classes)
                assert audit_total == live_total


@criterion(2, "gradient correctness for every layer")
def test_criterion_2_gradient_checks():
    started = time.perf_counter()
    worst = run_layer_checks(instances_per_layer=20)
    elapsed = time.perf_counter() - started
    assert set(worst) == {"dense", "conv2d", "maxpool", "batchnorm", "lstm",
                          "time_distributed", "softmax_cross_entropy"}
    for layer_name, err in sorted(worst.items()):
        print(f"  {layer_name}: worst relative error {err:.3e}")
        assert err < 1e-4, f"{layer_name}: {err:.3e}"
    assert elapsed < 30.0, f"gradient sweep took {elapsed:.1f}s"


@criterion(3, "lossless grayscale-frame representation")
def test_criterion_3_representation_round_trip():
    assert datapipe.choose_factor_pair(48) == (8, 6)
    rng = np.random.default_rng(33)
    for n_features in (12, 48, 60):
        flows = rng.uniform(0.0, 1.0, size=(1000, n_features))
        stream = datapipe.frames_from_flows(flows)
        assert stream.rows * stream.cols == n_features
        flattened = stream.frames.reshape(1000, n_features)
        assert flattened.tobytes() == flows.tobytes()


@criterion(4, "convolution matches the brute-force oracle")
def test_criterion_4_convolution_oracle():
    rng = np.random.default_rng(44)
    for _ in range(60):
        rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        p, q = int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1))
        layer = Conv2DLayer(int(rng.integers(1, 5)), kernel=(p, q), rng=rng)
        x = rng.normal(size=(rows, cols))
        got = layer.forward(x[None])[0]
        expected_dims = (rows - p + 1, cols - q + 1)
        assert conv2d_output_dims(rows, cols, p, q) == expected_dims
        assert got.shape[:2] == expected_dims
        want = brute_force_conv2d(x, layer.kernels, layer.biases)
        assert np.abs(got - want).max() <= 1e-12


@criterion(5, "metrics equal the pair-scan oracle")
def test_criterion_5_metrics_oracle():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n_classes = int(rng.integers(2, 11))
        n = int(rng.integers(1, 1001))
        y_true = rng.integers(0, n_classes, size=n)
        y_pred = rng.integers(0, n_classes, size=n)
        report = classification_metrics(confusion_matrix(y_true, y_pred, n_classes))
        per_class, accuracy, macro, weighted = brute_force_metrics(
            y_true, y_pred, n_classes)
        for c, (precision, recall, f1, support) in enumerate(per_class):
            assert report.precision[c] == precision
            assert report.recall[c] == recall
            assert abs(report.f1[c] - f1) <= 1e-15
            assert report.support[c] == support
        assert report.accuracy == accuracy
        assert abs(report.macro_precision - macro[0]) <= 1e-12
        assert abs(report.macro_recall - macro[1]) <= 1e-12
        assert abs(report.weighted_precision - weighted[0]) <= 1e-12
        assert abs(report.weighted_f1 - weighted[2]) <= 1e-12
        assert abs(report.weighted_recall - report.accuracy) <= 1e-12


@criterion(6, "desk-scale learning targets")
def test_criterion_6_desk_scale_learning(synth_pipeline, tmp_path):
    ds, split, _, scaled, frames = synth_pipeline
    targets = {"m3-td": 0.95, "m3-van": 0.90}
    cfg = trainer.TrainConfig(epochs=50, batch_size=32, learning_rate=1e-3,
                              optimizer="adam", seed=SYNTH_SEED, patience=5)
    for variant, floor in targets.items():
        graph = models.build_model(
            models.ModelConfig(variant, 48, 3, seed=SYNTH_SEED))
        started = time.perf_counter()
        result = trainer.train(
            graph, (frames[split.train], ds.labels[split.train]),
            (frames[split.val], ds.labels[split.val]), cfg)
        elapsed = time.perf_counter() - started
        report = trainer.evaluate(graph, frames[split.test], ds.labels[split.test])
        print(f"  {variant}: accuracy {report.accuracy:.3f} after "
              f"{len(result.history)} epochs in {elapsed:.0f}s")
        assert len(result.history) <= 50
        assert elapsed < 300.0, f"{variant} took {elapsed:.0f}s"
        assert report.accuracy >= floor, (variant, report.accuracy)

    # five-trial protocol prints in the Trial/.../Time (min) layout
    small = datapipe.generate_synthetic(3, 40, 12, seed=7)
    small_split = datapipe.stratified_split(small, seed=7)
    small_scaler = datapipe.minmax_fit(small.features[small_split.train])
    small_scaled = datapipe.minmax_apply(small_scaler, small.features)
    small_frames = datapipe.frames_from_flows(small_scaled).frames
    table = trainer.run_trials(
        models.ModelConfig("m1-van", 12, 3, units=4, kernel=(3, 2), td_units=4),
        trainer.TrainConfig(epochs=1, batch_size=8, seed=0, trials=5),
        (small_frames[small_split.train], small.labels[small_split.train]),
        (small_frames[small_split.val], small.labels[small_split.val]),
        (small_frames[small_split.test], small.labels[small_split.test]))
    lines = trainer.format_trial_table(table).splitlines()
    assert lines[0].split() == ["Trial", "Accuracy", "Precision", "Recall", "F1",
                                "Time", "(min)"]
    assert [line.split()[0] for line in lines[1:]] == ["1", "2", "3", "4", "5", "Avg."]

    # a 48-feature CSV in the published datasets' shape (string columns and
    # all) must run the full train pipeline unmodified
    csv_path = tmp_path / "dataset1-sample.csv"
    _write_dataset1_style_csv(csv_path)
    out_dir = tmp_path / "dataset1-run"
    rc = main(["train", str(csv_path), "--variant", "m3-td", "--epochs", "1",
               "--batch", "4", "--units", "4", "--td-units", "4",
               "--label-column", "label", "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "model.ckpt").exists()
    assert (out_dir / "report.json").exists()


def _write_dataset1_style_csv(path, flows_per_class=8):
    """48 feature columns echoing the flow-meter schema: ports, IPs as
    strings, protocol names, and statistical numerics, plus a label."""
    rng = np.random.default_rng(3)
    stat_names = [f"stat_{i:02d}" for i in range(43)]
    header = ["src_ip", "dst_ip", "src_port", "dst_port", "protocol_name",
              *stat_names, "label"]
    rows = []
    for label in ("GOOGLE", "HTTP", "YOUTUBE"):
        for _ in range(flows_per_class):
            row = [
                f"10.130.{rng.integers(0, 8)}.{rng.integers(1, 255)}",
                f"172.217.{rng.integers(0, 8)}.{rng.integers(1, 255)}",
                str(rng.integers(1024, 65535)),
                str(rng.integers(1, 1024)),
                rng.choice(["TCP", "UDP"]),
                *(repr(float(v)) for v in rng.normal(size=43) * 100),
                label,
            ]
            rows.append(",".join(row))
    path.write_text(",".join(header) + "\n" + "\n".join(rows) + "\n")


@criterion(7, "time-distributed vs vanilla parameter delta")
def test_criterion_7_td_vanilla_delta():
    td_rows, td_total = models.count_parameters(
        models.build_model(models.ModelConfig("m3-td", 48, 141)))
    van_rows, van_total = models.count_parameters(
        models.build_model(models.ModelConfig("m3-van", 48, 141)))
    assert td_total - van_total == 258061 - 167821 == 90240
    assert len(td_rows) == len(van_rows)
    for td_row, van_row in zip(td_rows[:-1], van_rows[:-1]):
        assert td_row.count == van_row.count
    assert td_rows[-1].name == van_rows[-1].name == "FFNN_1"
    assert td_rows[-1].count - van_rows[-1].count == 90240


@criterion(8, "flow featurization determinism and statistics")
def test_criterion_8_flowcap(tmp_path):
    # crafted fixture: byte-identical CSV across two full runs
    frame_a = pb.udp("10.0.0.1", 1000, "10.0.0.2", 53, payload_len=16)
    frame_b = pb.tcp("10.0.0.3", 2000, "10.0.0.4", 443, payload_len=100)
    pcap_path = tmp_path / "fixture.pcap"
    pcap_path.write_bytes(pb.capture([
        (0, 125000, frame_a), (0, 250000, frame_a), (0, 500000, frame_a),
        (1, 0, frame_b), (3, 0, frame_b),
    ]))
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}.csv"
        assert main(["featurize", str(pcap_path), "--out", str(out),
                     "--label", "fixture"]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    # hand-computed oracle on the first flow (exact binary fractions)
    parsed = flowcap.parse_pcap(pcap_path)
    stats = flowcap.featurize_flows(flowcap.assemble_flows(parsed.packets))
    first, second = stats
    assert (first.iat_min, first.iat_mean, first.iat_max) == (0.125, 0.1875, 0.25)
    assert first.duration == 0.375
    assert first.pkt_len_min == first.pkt_len_max == 8 + 16
    assert (second.iat_min, second.iat_mean, second.iat_max) == (2.0, 2.0, 2.0)
    assert second.pkt_len_min == 20 + 100

    # ordering invariant over randomized synthetic captures
    rng = np.random.default_rng(88)
    for _ in range(1000):
        packets = []
        t = 0
        for _ in range(int(rng.integers(1, 12))):
            t += int(rng.integers(0, 3_000_000))
            make = pb.udp if rng.integers(2) else pb.tcp
            packets.append((t // 1_000_000, t % 1_000_000,
                            make(f"10.1.0.{rng.integers(1, 5)}",
                                 int(rng.integers(1, 4)) * 1000,
                                 f"10.2.0.{rng.integers(1, 5)}", 80,
                                 payload_len=int(rng.integers(0, 200)))))
        parsed = flowcap.parse_pcap_bytes(pb.capture(packets))
        for s in flowcap.featurize_flows(flowcap.assemble_flows(parsed.packets)):
            assert s.iat_min <= s.iat_mean <= s.iat_max
            assert s.fwd_iat_min <= s.fwd_iat_mean <= s.fwd_iat_max
            assert s.rev_iat_min <= s.rev_iat_mean <= s.rev_iat_max
            assert s.pkt_len_min <= s.pkt_len_mean <= s.pkt_len_max


@criterion(9, "checkpoint round-trip bit-exactness")
def test_criterion_9_checkpoint_round_trip(synth_pipeline, tmp_path):
    ds, split, scaler, scaled, frames = synth_pipeline
    probe_idx = split.test[:16]
    for variant in models.VARIANTS:
        cfg = models.ModelConfig(variant, 48, 3, seed=9)
        graph = models.build_model(cfg)
        inputs = frames if cfg.frame_input else scaled
        # a short training pass makes batchnorm running stats non-trivial
        trainer.train(graph, (inputs[split.train][:64], ds.labels[split.train][:64]),
                      (inputs[split.val][:32], ds.labels[split.val][:32]),
                      trainer.TrainConfig(epochs=1, batch_size=16, seed=9))
        probe = inputs[probe_idx]
        before, classes_before = graph.predict(probe)
        path = tmp_path / f"{variant}.ckpt"
        trainer.save_checkpoint(graph, path, scaler, ds.class_names)
        loaded, _, _ = trainer.load_checkpoint(path)
        after, classes_after = loaded.predict(probe)
        assert np.abs(after - before).max() == 0.0, variant
        assert (classes_before == classes_after).all()
