import json

import numpy as np
import pytest

import pcap_builder as pb
from tdntc.cli import main
from tdntc.flowcap import FEATURE_COLUMNS
from test_trainer import rewrite_checkpoint


@pytest.fixture
def synth_csv(tmp_path):
    path = tmp_path / "flows.csv"
    rc = main(["synth", "--classes", "3", "--per-class", "12", "--features", "12",
               "--seed", "0", "--out", str(path)])
    assert rc == 0
    return path


def train_args(csv_path, out_dir, **overrides):
    flags = {
        "--variant": "m1-van", "--epochs": "2", "--batch": "8",
        "--kernel": "3,2", "--units": "4", "--td-units": "4",
        "--seed": "0", "--out": str(out_dir),
    }
    flags.update(overrides)
    args = ["train", str(csv_path)]
    for key, value in flags.items():
        args += [key, value]
    return args


class TestAuditParams:
    def test_m3_td_reference_totals(self, capsys):
        assert main(["audit-params", "m3-td", "48", "141"]) == 0
        out = capsys.readouterr().out
        for value in ("1280", "256", "131584", "16512", "108429", "258,061"):
            assert value in out
        assert "resolved-config" in out

    def test_m3_van_reference_total(self, capsys):
        assert main(["audit-params", "m3-van", "48", "141"]) == 0
        assert "167,821" in capsys.readouterr().out

    def test_cos_decision_width(self, capsys):
        assert main(["audit-params", "m3-td", "48", "24"]) == 0
        assert "18456" in capsys.readouterr().out

    @pytest.mark.parametrize("variant, table", [
        ("m3-td", [
            "Network     Calculation            Trainable parameters",
            "CNN_2D      (3x3x1+1)x128          1280",
            "MP_2D       -                      0",
            "BN          2x128                  256",
            "Reshape     -                      0",
            "LSTM        4x[(128+1)x128+128^2]  131584",
            "TD(FFNN_0)  128x128+128            16512",
            "Flatten     -                      0",
            "FFNN_1      6x128x141+141          108429",
            "Total                              258,061",
        ]),
        ("m3-van", [
            "Network  Calculation            Trainable parameters",
            "CNN_2D   (3x3x1+1)x128          1280",
            "MP_2D    -                      0",
            "BN       2x128                  256",
            "Reshape  -                      0",
            "LSTM     4x[(128+1)x128+128^2]  131584",
            "FFNN_0   128x128+128            16512",
            "Flatten  -                      0",
            "FFNN_1   128x141+141            18189",
            "Total                           167,821",
        ]),
    ])
    def test_full_table_text(self, capsys, variant, table):
        assert main(["audit-params", variant, "48", "141"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("resolved-config ")
        assert lines[1:] == table

    def test_geometry_error_exits_nonzero(self, capsys):
        assert main(["audit-params", "m3-td", "12", "3"]) == 1
        assert "MP_2D" in capsys.readouterr().err

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["audit-params", "m3-td", "48", "141", "--bogus"])
        assert err.value.code == 2


class TestFeaturize:
    def test_fixture_to_csv(self, tmp_path, capsys):
        pcap = tmp_path / "chat.pcap"
        frame = pb.udp("10.0.0.1", 1000, "10.0.0.2", 53, payload_len=4)
        pcap.write_bytes(pb.capture([(0, 0, frame), (0, 500000, frame)]))
        out = tmp_path / "chat.csv"
        assert main(["featurize", str(pcap), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(FEATURE_COLUMNS + ["label"])
        assert len(lines) == 2
        # label defaults to the capture's filename stem
        assert lines[1].endswith(",chat")
        printed = capsys.readouterr().out
        assert "packets parsed: 2" in printed
        assert "flows written: 1" in printed

    def test_empty_capture_gives_header_only(self, tmp_path):
        pcap = tmp_path / "empty.pcap"
        pcap.write_bytes(pb.capture([]))
        out = tmp_path / "empty.csv"
        assert main(["featurize", str(pcap), "--out", str(out),
                     "--label", "none"]) == 0
        assert out.read_text().strip().splitlines() == [
            ",".join(FEATURE_COLUMNS + ["label"])]

    def test_bad_magic_names_file(self, tmp_path, capsys):
        pcap = tmp_path / "bogus.pcap"
        pcap.write_bytes(b"\x00" * 64)
        assert main(["featurize", str(pcap), "--out", str(tmp_path / "x.csv")]) == 1
        assert "magic" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["featurize", str(tmp_path / "nope.pcap"),
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_pad_to_width(self, tmp_path):
        pcap = tmp_path / "p.pcap"
        pcap.write_bytes(pb.capture([(0, 0, pb.udp("1.1.1.1", 1, "2.2.2.2", 2))]))
        out = tmp_path / "p.csv"
        assert main(["featurize", str(pcap), "--out", str(out),
                     "--pad-to", "48", "--label", "x"]) == 0
        assert len(out.read_text().splitlines()[0].split(",")) == 49


class TestTrainEvaluate:
    def test_train_writes_artifacts(self, synth_csv, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(train_args(synth_csv, out_dir)) == 0
        for name in ("model.ckpt", "history.csv", "report.txt", "report.json"):
            assert (out_dir / name).exists(), name
        doc = json.loads((out_dir / "report.json").read_text())
        assert "accuracy" in doc
        assert doc["config"]["model"]["variant"] == "m1-van"
        printed = capsys.readouterr().out
        assert "resolved-config" in printed
        assert "weighted avg" in printed

    def test_train_then_evaluate_round_trip(self, synth_csv, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(train_args(synth_csv, out_dir)) == 0
        capsys.readouterr()
        assert main(["evaluate", str(out_dir / "model.ckpt"), str(synth_csv)]) == 0
        assert "weighted avg" in capsys.readouterr().out

    def test_evaluate_rejects_feature_mismatch(self, synth_csv, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(train_args(synth_csv, out_dir)) == 0
        capsys.readouterr()
        bad_csv = tmp_path / "bad.csv"
        assert main(["synth", "--classes", "3", "--per-class", "4",
                     "--features", "8", "--out", str(bad_csv)]) == 0
        capsys.readouterr()
        assert main(["evaluate", str(out_dir / "model.ckpt"), str(bad_csv)]) == 1
        err = capsys.readouterr().err
        assert "N=12" in err and "N=8" in err

    def test_evaluate_reports_missing_model_config_key(self, synth_csv, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(train_args(synth_csv, out_dir)) == 0
        ckpt = out_dir / "model.ckpt"

        def drop_key(meta, payload):
            del meta["model_config"]["td_units"]
            return payload

        rewrite_checkpoint(ckpt, drop_key)
        capsys.readouterr()
        assert main(["evaluate", str(ckpt), str(synth_csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(ckpt) in err and "'td_units'" in err

    def test_same_seed_runs_are_byte_identical(self, synth_csv, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(train_args(synth_csv, d)) == 0
        for name in ("model.ckpt", "history.csv", "report.json"):
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, name

    def test_trials_table_artifact(self, synth_csv, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(train_args(synth_csv, out_dir, **{"--trials": "3",
                                                      "--epochs": "1"})) == 0
        table = (out_dir / "trials.txt").read_text().splitlines()
        assert table[0].startswith("Trial")
        assert len(table) == 5
        assert table[-1].startswith("Avg.")

    def test_m3_variant_smoke(self, tmp_path):
        csv_path = tmp_path / "wide.csv"
        assert main(["synth", "--classes", "2", "--per-class", "10",
                     "--features", "48", "--out", str(csv_path)]) == 0
        out_dir = tmp_path / "m3"
        assert main(["train", str(csv_path), "--variant", "m3-td",
                     "--epochs", "1", "--batch", "4", "--units", "4",
                     "--td-units", "4", "--out", str(out_dir)]) == 0
        assert (out_dir / "model.ckpt").exists()


class TestThreadCap:
    def test_env_var_caps_blas_threads(self, monkeypatch):
        from tdntc.cli import _apply_thread_cap

        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("TDNTC_THREADS", "2")
        _apply_thread_cap()
        import os

        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_existing_settings_win(self, monkeypatch):
        from tdntc.cli import _apply_thread_cap

        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        monkeypatch.setenv("TDNTC_THREADS", "2")
        _apply_thread_cap()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "8"


class TestSynth:
    def test_csv_loads_back(self, synth_csv):
        from tdntc.datapipe import load_csv_dataset

        ds = load_csv_dataset(synth_csv)
        assert ds.n_flows == 36
        assert ds.n_features == 12
        assert ds.class_names == ["svc-0", "svc-1", "svc-2"]

    def test_deterministic_output(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["synth", "--classes", "2", "--per-class", "5",
                         "--features", "6", "--seed", "3", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
