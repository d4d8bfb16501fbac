"""Tests of the benchmark itself.

    python -m pytest perfbench

The tests that start run.py in a subprocess take about 40 seconds
together.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import workloads
from spans import Span, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_flow_csv_is_deterministic(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    inputs.write_flow_csv(5, a)
    inputs.write_flow_csv(5, b)
    inputs.write_flow_csv(6, c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == inputs.CSV_CLASSES * inputs.CSV_PER_CLASS + 1
    assert lines[0].split(",")[-1] == "label"


def test_capture_is_deterministic_and_matches_its_truth(tmp_path):
    a, b = tmp_path / "a.pcap", tmp_path / "b.pcap"
    truth_a = inputs.write_capture(5, a)
    truth_b = inputs.write_capture(5, b)
    assert a.read_bytes() == b.read_bytes()
    assert truth_a == truth_b
    assert inputs.write_capture(6, b) != truth_a
    assert truth_a.records == truth_a.packets + sum(truth_a.skipped.values())
    assert sum(truth_a.flow_counts.values()) == truth_a.flows
    assert inputs.CaptureTruth.from_json(truth_a.to_json()) == truth_a

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from tdntc import flowcap
    finally:
        sys.path.remove(str(ROOT / "src"))
    capture = flowcap.parse_pcap(a)
    assert len(capture.packets) == truth_a.packets
    assert capture.skipped == truth_a.skipped
    assert len(flowcap.assemble_flows(capture.packets)) == truth_a.flows


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 3.0, 0),
        Span(2, "a.child", 1.5, 2.5, 1),
        Span(3, "b", 4.0, 7.0, 0),
        Span(4, "b.child", 4.0, 4.5, 3),
        Span(5, "b.child", 6.0, 7.0, 3),
        Span(6, "leaf", 11.0, 12.0, None),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 3.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0 - 0.5 - 1.0)
    assert selfs[4] == pytest.approx(0.5)
    assert selfs[5] == pytest.approx(1.0)
    assert selfs[6] == pytest.approx(1.0)


def test_patched_calls_record_mode_step_and_batch():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Stage:
        def forward(self, x, train=False):
            return x

    def enter(x, train=False):
        tracer.mode = "train" if train else "infer"
        tracer.step += train

    stage = Stage()
    tracer.patch(stage, "forward", lambda x, train=False: "layers.s." + ("fwd" if train else "infer"),
                 before=enter)
    batch = np.zeros((4, 3))
    assert stage.forward(batch, train=True) is batch
    stage.forward(batch)
    assert [(s.name, s.attrs) for s in tracer.spans] == [
        ("layers.s.fwd", {"mode": "train", "step": 1, "batch": 4}),
        ("layers.s.infer", {"mode": "infer", "step": 1, "batch": 4}),
    ]
    assert all(s.duration > 0 for s in tracer.spans)


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_the_catalogue():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} \
        == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == workloads.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(workload, trace):
    doc = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    assert printed == declared


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "featurize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
