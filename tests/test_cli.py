import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

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


def one_class_csv(synth_csv, path, name="svc-1", rows=5):
    """The first `rows` rows of class `name` in synth_csv, written under its header to path."""
    header, *lines = synth_csv.read_text().splitlines()
    kept = [line for line in lines if line.endswith("," + name)][:rows]
    path.write_text("\n".join([header] + kept) + "\n")
    return path


def overflow_csv(synth_csv, path):
    """synth_csv with its first column alternating 1e308 and -1e308: finite
    cells whose range is beyond float64."""
    header, *lines = synth_csv.read_text().splitlines()
    rows = [("-1e308" if i % 2 else "1e308") + line[line.index(","):]
            for i, line in enumerate(lines)]
    path.write_text("\n".join([header] + rows) + "\n")
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

    # `table` maps each argument tail to the table `tdntc audit-params`
    # printed for it, so every Calculation cell of every variant is pinned at
    # the paper's 48x141 and at a small frame.
    @pytest.mark.parametrize("variant, table", [
        ("m3-td", {
            "48 141": [
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
            ],
            "12 3 --kernel 3,2": [
                "Network     Calculation            Trainable parameters",
                "CNN_2D      (3x2x1+1)x128          896",
                "MP_2D       -                      0",
                "BN          2x128                  256",
                "Reshape     -                      0",
                "LSTM        4x[(128+1)x128+128^2]  131584",
                "TD(FFNN_0)  128x128+128            16512",
                "Flatten     -                      0",
                "FFNN_1      1x128x3+3              387",
                "Total                              149,635",
            ],
        }),
        ("m3-van", {
            "48 141": [
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
            ],
            "12 3 --kernel 3,2": [
                "Network  Calculation            Trainable parameters",
                "CNN_2D   (3x2x1+1)x128          896",
                "MP_2D    -                      0",
                "BN       2x128                  256",
                "Reshape  -                      0",
                "LSTM     4x[(128+1)x128+128^2]  131584",
                "FFNN_0   128x128+128            16512",
                "Flatten  -                      0",
                "FFNN_1   128x3+3                387",
                "Total                           149,635",
            ],
        }),
        ("m1-td", {
            "48 141": [
                "Network     Calculation    Trainable parameters",
                "CNN_2D      (3x3x1+1)x128  1280",
                "MP_2D       -              0",
                "BN          2x128          256",
                "Reshape     -              0",
                "TD(FFNN_0)  256x128+128    32896",
                "Flatten     -              0",
                "FFNN_1      3x128x141+141  54285",
                "Total                      88,717",
            ],
            "12 3 --kernel 3,2": [
                "Network     Calculation    Trainable parameters",
                "CNN_2D      (3x2x1+1)x128  896",
                "MP_2D       -              0",
                "BN          2x128          256",
                "Reshape     -              0",
                "TD(FFNN_0)  128x128+128    16512",
                "Flatten     -              0",
                "FFNN_1      1x128x3+3      387",
                "Total                      18,051",
            ],
        }),
        ("m1-van", {
            "48 141": [
                "Network  Calculation    Trainable parameters",
                "CNN_2D   (3x3x1+1)x128  1280",
                "MP_2D    -              0",
                "BN       2x128          256",
                "Flatten  -              0",
                "FFNN_0   768x128+128    98432",
                "FFNN_1   128x141+141    18189",
                "Total                   118,157",
            ],
            "12 3 --kernel 3,2": [
                "Network  Calculation    Trainable parameters",
                "CNN_2D   (3x2x1+1)x128  896",
                "MP_2D    -              0",
                "BN       2x128          256",
                "Flatten  -              0",
                "FFNN_0   128x128+128    16512",
                "FFNN_1   128x3+3        387",
                "Total                   18,051",
            ],
        }),
        ("m2-td", {
            "48 141": [
                "Network     Calculation          Trainable parameters",
                "LSTM        4x[(1+1)x128+128^2]  66560",
                "TD(FFNN_0)  128x128+128          16512",
                "Flatten     -                    0",
                "FFNN_1      48x128x141+141       866445",
                "Total                            949,517",
            ],
            "12 3 --kernel 3,2": [
                "Network     Calculation          Trainable parameters",
                "LSTM        4x[(1+1)x128+128^2]  66560",
                "TD(FFNN_0)  128x128+128          16512",
                "Flatten     -                    0",
                "FFNN_1      12x128x3+3           4611",
                "Total                            87,683",
            ],
        }),
        ("m2-van", {
            "48 141": [
                "Network  Calculation          Trainable parameters",
                "LSTM     4x[(1+1)x128+128^2]  66560",
                "FFNN_0   128x128+128          16512",
                "FFNN_1   128x141+141          18189",
                "Total                         101,261",
            ],
            "12 3 --kernel 3,2": [
                "Network  Calculation          Trainable parameters",
                "LSTM     4x[(1+1)x128+128^2]  66560",
                "FFNN_0   128x128+128          16512",
                "FFNN_1   128x3+3              387",
                "Total                         83,459",
            ],
        }),
    ])
    def test_full_table_text(self, capsys, variant, table):
        for tail, lines in table.items():
            assert main(["audit-params", variant, *tail.split()]) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[0].startswith("resolved-config ")
            assert out[1:] == lines, tail

    def test_geometry_error_exits_nonzero(self, capsys):
        assert main(["audit-params", "m3-td", "12", "3"]) == 1
        assert "MP_2D" in capsys.readouterr().err

    def test_factor_pair_error_exits_nonzero_for_m2(self, capsys):
        assert main(["audit-params", "m2-td", "48", "3", "--factor-pair", "7,7"]) == 1
        assert capsys.readouterr().err == "error: factor pair 7x7 does not cover 48 features\n"

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

    def test_summary_counts_records_skips_and_flows(self, tmp_path, capsys):
        pcap = tmp_path / "mixed.pcap"
        fwd = pb.udp("10.0.0.1", 1000, "10.0.0.2", 53, payload_len=4)
        rev = pb.udp("10.0.0.2", 53, "10.0.0.1", 1000, payload_len=4)
        pcap.write_bytes(pb.capture([
            (0, 0, fwd), (0, 10, rev), (1, 0, pb.tcp("10.0.0.3", 9, "10.0.0.4", 80)),
            (2, 0, pb.raw_ethernet(0x0806, b"\x00" * 28)),
            (3, 0, pb.raw_ethernet(0x86DD, b"\x60" + b"\x00" * 39)),
            (4, 0, pb.ethernet_ipv4("10.0.0.1", "10.0.0.2", 1, 0, 0, b"\x08" * 8)),
            (5, 0, fwd[:30]),
        ]))
        out = tmp_path / "mixed.csv"
        assert main(["featurize", str(pcap), "--out", str(out)]) == 0
        summary_path = tmp_path / "mixed.csv.summary.json"
        assert json.loads(summary_path.read_text()) == {
            "records": 7, "packets_parsed": 3, "flows": 2,
            "skipped": {"fragmented": 0, "ipv6": 1, "non_ip": 1, "non_tcp_udp": 1,
                        "truncated": 1},
        }
        text = summary_path.read_text()
        assert text.index('"flows"') < text.index('"packets_parsed"') < text.index('"records"')
        assert str(summary_path) in capsys.readouterr().out

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

    def test_capture_read_from_a_pipe(self, tmp_path):
        # A pipe cannot seek or report its size; its reads come in pieces
        # smaller than the 200 kB capture.
        frames = [pb.udp("10.0.0.1", 1000 + i % 7, "10.0.0.2", 53, payload_len=900)
                  for i in range(200)]
        data = pb.capture([(i, 0, frame) for i, frame in enumerate(frames)])
        pcap = tmp_path / "piped.pcap"
        pcap.write_bytes(data)
        assert main(["featurize", str(pcap), "--out", str(tmp_path / "file.csv"),
                     "--label", "x"]) == 0
        env = dict(os.environ, PYTHONPATH="src")
        subprocess.run([sys.executable, "-m", "tdntc.cli", "featurize", "/dev/stdin",
                        "--out", str(tmp_path / "pipe.csv"), "--label", "x"],
                       input=data, check=True, env=env, capture_output=True,
                       cwd=Path(__file__).resolve().parent.parent)
        assert (tmp_path / "pipe.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()

    def test_reordered_capture_writes_the_same_bytes(self, tmp_path):
        # `python tests/pcap_builder.py reorder`, which CI runs on a perfbench
        # capture, needs only the standard library.  Its copy holds the same
        # records out of time order, and featurize reads both alike at every
        # idle timeout.
        fwd = pb.udp("10.0.0.1", 1000, "10.0.0.2", 53, payload_len=4)
        rev = pb.udp("10.0.0.2", 53, "10.0.0.1", 1000, payload_len=40)
        data = pb.capture([(sec, 250 * k, (fwd, rev)[(sec + k) % 2])
                           for sec in range(0, 40, 3) for k in range(2)])
        pcap, reordered = tmp_path / "in-order.pcap", tmp_path / "reordered.pcap"
        pcap.write_bytes(data)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        subprocess.run([sys.executable, pb.__file__, "reorder", str(pcap), str(reordered)],
                       check=True, env=env, cwd=tmp_path)
        assert reordered.read_bytes() != data
        assert sorted(reordered.read_bytes()) == sorted(data)
        for timeout in ("0", "1", "60"):
            written = []
            for source in (pcap, reordered):
                out = tmp_path / f"{source.stem}-{timeout}.csv"
                assert main(["featurize", str(source), "--out", str(out), "--label", "x",
                             "--idle-timeout", timeout]) == 0
                written.append((out.read_bytes(), Path(f"{out}.summary.json").read_bytes()))
            assert written[0] == written[1], timeout

    def test_reorder_refuses_to_leave_a_capture_in_time_order(self):
        frame = pb.udp("10.0.0.1", 1000, "10.0.0.2", 53)
        with pytest.raises(ValueError, match="still in time order"):
            pb.reorder(pb.capture([(0, 0, frame), (7, 0, frame)]))

    def test_pad_to_width(self, tmp_path):
        pcap = tmp_path / "p.pcap"
        pcap.write_bytes(pb.capture([(0, 0, pb.udp("1.1.1.1", 1, "2.2.2.2", 2))]))
        out = tmp_path / "p.csv"
        assert main(["featurize", str(pcap), "--out", str(out),
                     "--pad-to", "48", "--label", "x"]) == 0
        assert len(out.read_text().splitlines()[0].split(",")) == 49


def test_variant_choices_are_the_model_variants():
    # cli spells the names out so that its parser loads no numpy.
    from tdntc import cli, models

    assert cli.VARIANTS == models.VARIANTS


def test_featurize_imports_no_numpy():
    # `tdntc featurize` imports only these two modules before it parses, so
    # numpy here would add its import time to every featurize run.
    code = "import tdntc.cli, tdntc.flowcap, sys; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH="src")
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   cwd=Path(__file__).resolve().parent.parent)


def test_prepare_inputs_scales_the_matrix_in_place():
    # `train` and `evaluate` read their matrix no more after scaling it, so
    # it is scaled where it lies; the allocating scale held 1.13 times it.
    from tdntc import cli, datapipe

    values = np.random.default_rng(0).normal(size=(20_000, 48))
    scaler = datapipe.minmax_fit(values[:14_000])  # the rest clamps in places
    want = datapipe.frames_from_flows(datapipe.minmax_apply(scaler, values.copy())).frames
    features = values.copy()
    tracemalloc.start()
    try:
        got = cli._prepare_inputs(features, True, scaler, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    # frames_from_flows' isfinite mask alone is 0.125 times the matrix
    assert peak < 0.2 * values.nbytes, f"peak {peak / values.nbytes:.2f}x the matrix"


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

    def test_train_refuses_a_one_class_csv(self, synth_csv, tmp_path, capsys):
        one = one_class_csv(synth_csv, tmp_path / "one.csv")
        out_dir = tmp_path / "run"
        capsys.readouterr()
        assert main(train_args(one, out_dir)) == 1
        assert capsys.readouterr().err == (
            f"error: {one}: one class ('svc-1'); training needs at least two\n")
        assert not out_dir.exists()

    # Without the check, m1-td stopped at a non-finite frame and m2-van at a
    # non-finite loss, neither naming the file or the column.
    @pytest.mark.parametrize("variant", ["m1-td", "m2-van"])
    def test_train_refuses_a_column_whose_range_overflows(self, synth_csv, tmp_path, capsys,
                                                          variant):
        wide = overflow_csv(synth_csv, tmp_path / "wide.csv")
        out_dir = tmp_path / "run"
        capsys.readouterr()
        assert main(train_args(wide, out_dir, **{"--variant": variant})) == 1
        assert capsys.readouterr().err == (
            f"error: {wide}: column 'f00' spans more than float64 can hold\n")
        assert not out_dir.exists()

    def test_evaluate_refuses_a_scaler_range_that_overflows(self, synth_csv, tmp_path, capsys):
        # Such a scaler maps every value of the feature to nan, and the model
        # then predicts one class for every row with exit status 0.
        out_dir = tmp_path / "run"
        assert main(train_args(synth_csv, out_dir)) == 0
        ckpt = out_dir / "model.ckpt"

        def widen(meta, payload):
            meta["scaler"]["min"][0], meta["scaler"]["max"][0] = -1e308, 1e308
            return payload

        rewrite_checkpoint(ckpt, widen)
        capsys.readouterr()
        assert main(["evaluate", str(ckpt), str(synth_csv)]) == 1
        assert capsys.readouterr().err == f"error: {ckpt}: scaler range of feature 0 overflows\n"

    def test_train_and_evaluate_name_each_label_encoded_column(self, synth_csv, tmp_path,
                                                               capsys):
        # One typo turns a numeric column into ranks of its distinct cells.
        typo = tmp_path / "typo.csv"
        header, first, *rest = synth_csv.read_text().splitlines()
        typo.write_text("\n".join([header, first.replace(",", "x,", 1), *rest]) + "\n")
        out_dir = tmp_path / "run"
        line = "label-encoded column 'f00': 36 categories"
        capsys.readouterr()
        assert main(train_args(typo, out_dir)) == 0
        assert line in capsys.readouterr().out.splitlines()
        assert main(["evaluate", str(out_dir / "model.ckpt"), str(typo)]) == 0
        assert line in capsys.readouterr().out.splitlines()
        assert main(["evaluate", str(out_dir / "model.ckpt"), str(synth_csv)]) == 0
        assert "label-encoded" not in capsys.readouterr().out

    def test_evaluate_scores_a_one_class_csv(self, synth_csv, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(train_args(synth_csv, out_dir)) == 0
        one = one_class_csv(synth_csv, tmp_path / "one.csv")
        capsys.readouterr()
        assert main(["evaluate", str(out_dir / "model.ckpt"), str(one)]) == 0
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

    def test_evaluate_unknown_label_names_file_and_label(self, synth_csv, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(train_args(synth_csv, out_dir)) == 0
        other = tmp_path / "other.csv"
        other.write_text(synth_csv.read_text().replace("svc-2", "svc-9"))
        capsys.readouterr()
        assert main(["evaluate", str(out_dir / "model.ckpt"), str(other)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {other}: ") and err.count("\n") == 1
        assert "'svc-9'" in err

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

    def test_seeded_trial_runs_write_identical_trials_files(self, synth_csv, tmp_path,
                                                            capsys, monkeypatch):
        # Wall times go to the printed table only, never to trials.txt.
        from tdntc import trainer

        real_train = trainer.train
        files = []
        for minutes in (0.25, 7.0):
            def timed(*args, minutes=minutes, **kwargs):
                return replace(real_train(*args, **kwargs), wall_seconds=60.0 * minutes)

            monkeypatch.setattr(trainer, "train", timed)
            out_dir = tmp_path / str(minutes)
            assert main(train_args(synth_csv, out_dir, **{"--trials": "2",
                                                          "--epochs": "1"})) == 0
            assert f"{minutes:>12.2f}" in capsys.readouterr().out
            files.append((out_dir / "trials.txt").read_bytes())
        assert files[0] == files[1]
        assert b"Time" not in files[0]

    def test_trials_table_artifact(self, synth_csv, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(train_args(synth_csv, out_dir, **{"--trials": "3",
                                                      "--epochs": "1"})) == 0
        table = (out_dir / "trials.txt").read_text().splitlines()
        assert table[0].startswith("Trial")
        assert len(table) == 5
        assert table[-1].startswith("Avg.")

    def test_single_run_is_trial_one_of_the_protocol(self, synth_csv, tmp_path):
        # A single run honours --lr-jitter: its checkpoint is trial 1's.
        from tdntc import datapipe, models, trainer

        out_dir = tmp_path / "run"
        assert main(train_args(synth_csv, out_dir, **{"--variant": "m2-van",
                                                      "--lr-jitter": "0.5"})) == 0
        ds = datapipe.load_csv_dataset(synth_csv)
        split = datapipe.stratified_split(ds, seed=0)
        scaler = datapipe.minmax_fit(ds.features[split.train])
        x, y = datapipe.minmax_apply(scaler, ds.features), ds.labels
        table = trainer.run_trials(
            models.ModelConfig("m2-van", 12, 3, units=4, kernel=(3, 2), td_units=4),
            trainer.TrainConfig(epochs=2, batch_size=8, trials=1, lr_jitter=0.5),
            *((x[idx], y[idx]) for idx in (split.train, split.val, split.test)))
        trainer.save_checkpoint(table.graph, tmp_path / "trial1.ckpt", scaler=scaler,
                                class_names=ds.class_names)
        assert ((out_dir / "model.ckpt").read_bytes()
                == (tmp_path / "trial1.ckpt").read_bytes())

    @pytest.mark.parametrize("variant, per_class", [
        ("m1-td", 12), ("m2-van", 12), ("m3-td", 5)],
        ids=["frames", "flat", "frames-no-val"])
    def test_each_split_is_the_whole_matrix_scaled_then_indexed(self, tmp_path, monkeypatch,
                                                                variant, per_class):
        # train scales and frames each split from its own rows; run_trials
        # must get the bits of scaling and framing every row, then indexing.
        # Five rows a class leave the validation split empty.
        from tdntc import datapipe, trainer

        class Captured(Exception):
            pass

        def captured(cfg, train_cfg, *splits):
            raise Captured(splits)

        csv_path = tmp_path / "flows.csv"
        assert main(["synth", "--classes", "3", "--per-class", str(per_class),
                     "--features", "12", "--seed", "4", "--out", str(csv_path)]) == 0
        monkeypatch.setattr(trainer, "run_trials", captured)
        with pytest.raises(Captured) as got:
            main(train_args(csv_path, tmp_path / "run", **{"--variant": variant,
                                                           "--seed": "2"}))
        ds = datapipe.load_csv_dataset(csv_path)
        split = datapipe.stratified_split(ds, seed=2)
        scaled = datapipe.minmax_apply(datapipe.minmax_fit(ds.features[split.train]),
                                       ds.features)
        if variant != "m2-van":
            scaled = datapipe.frames_from_flows(scaled).frames
        want = [(scaled[idx], ds.labels[idx]) for idx in (split.train, split.val, split.test)]
        assert split.val.size == (0 if per_class == 5 else 3)
        for (x, y), (want_x, want_y) in zip(got.value.args[0], want, strict=True):
            assert x.shape == want_x.shape and x.dtype == want_x.dtype
            assert x.tobytes() == want_x.tobytes()
            assert y.tobytes() == want_y.tobytes()

    def test_sgd_run_writes_artifacts_and_lowers_the_loss(self, synth_csv, tmp_path,
                                                          monkeypatch):
        from tdntc import trainer

        results = []

        def recorded(*args, **kwargs):
            results.append(real_train(*args, **kwargs))
            return results[-1]

        real_train = trainer.train
        monkeypatch.setattr(trainer, "train", recorded)
        out_dir = tmp_path / "run"
        assert main(train_args(synth_csv, out_dir, **{
            "--variant": "m1-td", "--optimizer": "sgd", "--lr": "0.1",
            "--epochs": "3"})) == 0
        for name in ("model.ckpt", "history.csv", "report.txt", "report.json"):
            assert (out_dir / name).exists(), name
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["config"]["training"]["optimizer"] == "sgd"
        (result,) = results
        last = (out_dir / "history.csv").read_text().splitlines()[-1].split(",")
        assert last[0] == "3"
        assert float(last[1]) == result.history[-1].train_loss < result.initial_train_loss

    def test_m3_variant_smoke(self, tmp_path):
        csv_path = tmp_path / "wide.csv"
        assert main(["synth", "--classes", "2", "--per-class", "10",
                     "--features", "48", "--out", str(csv_path)]) == 0
        out_dir = tmp_path / "m3"
        assert main(["train", str(csv_path), "--variant", "m3-td",
                     "--epochs", "1", "--batch", "4", "--units", "4",
                     "--td-units", "4", "--out", str(out_dir)]) == 0
        assert (out_dir / "model.ckpt").exists()


class TestBadOptionValues:
    @pytest.mark.parametrize("flag, value, words", [
        ("--units", "0", "units must be"),
        ("--td-units", "0", "td_units must be"),
        ("--kernel", "0,3", "kernel must be"),
        ("--kernel", "3", "--kernel expects"),
        ("--factor-pair", "8", "--factor-pair expects"),
        ("--epochs", "0", "epochs must be"),
        ("--batch", "1", "batch size must be"),
        ("--trials", "0", "trials must be"),
        ("--lr", "-1", "learning rate must be"),
        ("--lr-jitter", "1", "lr jitter must be"),
        ("--seed", "-1", "seed must be"),
        ("--patience", "0", "patience must be"),
        ("--patience", "-5", "patience must be"),
    ])
    def test_train_flag(self, synth_csv, tmp_path, capsys, flag, value, words):
        out_dir = tmp_path / "run"
        capsys.readouterr()
        assert main(train_args(synth_csv, out_dir, **{flag: value})) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert words in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["train", "audit-params"])
    def test_m2_refuses_a_factor_pair_that_covers_the_features(self, tmp_path, capsys, command):
        # m2 reads flow vectors, not frames, so even a 12x4 pair of 48 features is refused.
        out_dir = tmp_path / "run"
        if command == "train":
            csv_path = tmp_path / "wide.csv"
            assert main(["synth", "--classes", "3", "--per-class", "12", "--features", "48",
                         "--out", str(csv_path)]) == 0
            args = train_args(csv_path, out_dir, **{"--variant": "m2-td", "--factor-pair": "12,4"})
        else:
            args = ["audit-params", "m2-td", "48", "3", "--factor-pair", "12,4"]
        capsys.readouterr()
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "error: m2-td reads flow vectors, not frames; give no factor pair\n")
        assert not out_dir.exists()

    def test_train_rejects_an_empty_test_split_before_training(self, tmp_path, capsys):
        # 4 rows per class give floor(0.2 * 4) = 0 test rows.
        csv_path = tmp_path / "tiny.csv"
        assert main(["synth", "--classes", "2", "--per-class", "4", "--features", "12",
                     "--out", str(csv_path)]) == 0
        out_dir = tmp_path / "run"
        capsys.readouterr()
        assert main(train_args(csv_path, out_dir)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(csv_path) in captured.err and "train=8 val=0 test=0" in captured.err
        assert "trained" not in captured.out
        assert not (out_dir / "model.ckpt").exists()

    @pytest.mark.parametrize("flag, value", [("--pad-to", "19"),
                                             ("--idle-timeout", "-1")])
    def test_featurize_flag_rejected_before_parsing(self, tmp_path, capsys, flag, value):
        # the capture does not exist: the option is rejected before it is read
        out = tmp_path / "x.csv"
        assert main(["featurize", str(tmp_path / "nope.pcap"), "--out", str(out),
                     flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1
        assert not out.exists()


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

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_value_is_a_usage_error(self, monkeypatch, capsys, value):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("TDNTC_THREADS", value)
        assert main(["audit-params", "m1-td", "48", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: TDNTC_THREADS must be an integer >= 1, got {value!r}\n")
        import os

        assert "OPENBLAS_NUM_THREADS" not in os.environ


class TestSynth:
    def test_csv_loads_back(self, synth_csv):
        from tdntc.datapipe import load_csv_dataset

        ds = load_csv_dataset(synth_csv)
        assert ds.n_flows == 36
        assert ds.n_features == 12
        assert ds.class_names == ["svc-0", "svc-1", "svc-2"]

    def test_cells_load_as_the_generated_values(self, tmp_path):
        # Each cell must read back as the generated float, bit for bit, not
        # as a string that load_csv_dataset would label-encode.
        from tdntc.datapipe import generate_synthetic, load_csv_dataset

        path = tmp_path / "flows.csv"
        assert main(["synth", "--classes", "4", "--per-class", "60", "--features", "48",
                     "--seed", "2", "--out", str(path)]) == 0
        want = generate_synthetic(4, 60, 48, seed=2)
        got = load_csv_dataset(path)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tolist() == want.labels.tolist()

    def test_deterministic_output(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["synth", "--classes", "2", "--per-class", "5",
                         "--features", "6", "--seed", "3", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bytes_equal_the_joined_text(self, tmp_path):
        # The formatter that joined every line into one string before
        # writing; twelve classes give zero-padded class names.
        from tdntc.datapipe import generate_synthetic

        path = tmp_path / "flows.csv"
        assert main(["synth", "--classes", "12", "--per-class", "20", "--features", "7",
                     "--seed", "9", "--out", str(path)]) == 0
        ds = generate_synthetic(12, 20, 7, seed=9)
        lines = [",".join(ds.feature_names + ["label"])]
        for i in range(ds.n_flows):
            cells = [repr(v) for v in ds.features[i].tolist()]
            cells.append(ds.class_names[ds.labels[i]])
            lines.append(",".join(cells))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_peak_memory_stays_under_the_file_size(self, tmp_path):
        # Rows are written as they are formatted, so the text is never held
        # whole; the joined text peaked at about 3.5 times the file.
        import tdntc.datapipe  # noqa: F401  numpy's import is not the command's

        path = tmp_path / "flows.csv"
        tracemalloc.start()
        try:
            assert main(["synth", "--classes", "3", "--per-class", "2000",
                         "--features", "48", "--out", str(path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

    def test_negative_seed_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "flows.csv"
        assert main(["synth", "--classes", "2", "--per-class", "5", "--features", "6",
                     "--seed", "-1", "--out", str(path)]) == 1
        assert capsys.readouterr().err == "error: need an integer seed >= 0, got -1\n"
        assert not path.exists()
