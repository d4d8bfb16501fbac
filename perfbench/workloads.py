"""The benchmark's workloads: seeded inputs, timed rounds, checks, metrics.

Each workload mirrors one user command and calls the program's public
functions in the order the command handler does, bypassing the argument
parsing:

- train-cnn / train-rnn (`tdntc train` then `tdntc evaluate`):
  datapipe load/split/scale/frame, models.build_model, trainer.train,
  trainer.evaluate, metrics.per_class_report, checkpoint save/load.
- featurize (`tdntc featurize`): flowcap parse/assemble/featurize/write.

One process, one closed-loop caller: a round starts when the previous one
ends, and rounds repeat until the time budget is spent.  A round is one
command's worth of work from a fresh import of tdntc, set-up included, on
the same inputs every time, so rounds can be compared bit for bit.
`setup_s` is the median of COLD_SETUPS cold starts (coldstart.py), each a
new interpreter running the command's imports and set-up; they are spread
over the run, so one slow stretch of the host cannot decide it.
End-to-end rates come from the fastest round.  On a shared 2-vCPU Xeon VM,
other tenants slowed the machine by up to half for stretches of tens of
seconds to minutes, CPU time included, so the fastest round is the
steadiest estimate of what the code itself costs.
The log line `rounds ...` also gives the median round.  Per-layer times are
medians over steps or calls.

The traced run alternates plain rounds with traced rounds.  In a traced
round every entry of `graph.stages`, the decision layer, the graph passes
and the loss function are wrapped from outside, which gives per-layer self
times; comparing the two kinds of round gives the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Tuple

import numpy as np

import inputs
from coldstart import FEATURIZE_MODULES, PROGRAM_SEED, fresh_import, train_setup
from spans import Span, Tracer, self_times

HERE = Path(__file__).resolve().parent

TRAIN_VARIANTS = {"train-cnn": "m1-td", "train-rnn": "m2-td"}
WORKLOADS = tuple(TRAIN_VARIANTS) + ("featurize",)

# The recipe a user gets from `tdntc train --epochs 2` with the program's
# defaults (batch 32, Adam, lr 1e-3, --seed 0).  Patience equal to the epoch
# count can never trigger, so early stopping is off and every round runs
# the same number of steps.
EPOCHS = 2
BATCH = 32
INFER_BATCH = 256            # trainer.evaluate's batch size
CKPT_REPEATS = 5
COLD_SETUPS = 11             # cold starts per run; setup_s is their median
FEATURIZE_LABEL = "bench"
FEATURIZE_PAD_TO = 48
IDLE_TIMEOUT = 60.0

# Span names of the layer wrappers, keyed by the stage names ModelGraph uses.
STAGE_KINDS = {
    "CNN_2D": "conv2d", "MP_2D": "maxpool", "BN": "batchnorm", "LSTM": "lstm",
    "TD(FFNN_0)": "td_dense", "Reshape": "fold", "Flatten": "fold",
}
LAYER_KINDS = ("conv2d", "maxpool", "batchnorm", "lstm", "td_dense", "decision")
SKIP_KINDS = ("non_ip", "ipv6", "fragmented", "non_tcp_udp", "truncated")


# Every metric the benchmark prints: name -> (unit, better).  An untraced
# run prints END_TO_END, a traced run PER_LAYER.  Each workload prints all
# of them; a layer that the workload does not run reads 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "flows_out_per_s": ("1/s", "higher"),
    "accuracy": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {}
for _kind in LAYER_KINDS:
    for _phase in ("fwd", "bwd", "infer"):
        PER_LAYER[f"layers.{_kind}.{_phase}_ms"] = ("ms", "lower")
PER_LAYER.update({
    "layers.loss_ms": ("ms", "lower"),
    "models.fold_ms": ("ms", "lower"),
    "trainer.self_ms_per_step": ("ms", "lower"),
    "trainer.val_pass_s": ("s", "lower"),
    "trainer.evaluate_s": ("s", "lower"),
    "metrics.report_ms": ("ms", "lower"),
    "datapipe.load_csv_s": ("s", "lower"),
    "datapipe.split_ms": ("ms", "lower"),
    "datapipe.scale_ms": ("ms", "lower"),
    "datapipe.frames_ms": ("ms", "lower"),
    "models.build_ms": ("ms", "lower"),
    "flowcap.parse_s": ("s", "lower"),
    "flowcap.assemble_s": ("s", "lower"),
    "flowcap.featurize_s": ("s", "lower"),
    "flowcap.write_csv_s": ("s", "lower"),
    "trainer.steps": ("count", "lower"),
    "models.param_count": ("count", "lower"),
    "datapipe.rows": ("count", "higher"),
    "flowcap.records": ("count", "higher"),
    "flowcap.packets_parsed": ("count", "higher"),
    **{f"flowcap.skipped.{k}": ("count", "lower") for k in SKIP_KINDS},
    "flowcap.flows": ("count", "higher"),
    "flowcap.csv_bytes": ("bytes", "lower"),
    "flowcap.useful_ratio": ("ratio", "higher"),
    "layers.conv2d.flops_per_step": ("computed_flop", "lower"),
    "layers.lstm.flops_per_step": ("computed_flop", "lower"),
    "layers.td_dense.flops_per_step": ("computed_flop", "lower"),
    "trainer.ckpt_save_ms": ("ms", "lower"),
    "trainer.ckpt_load_ms": ("ms", "lower"),
    "trainer.ckpt_bytes": ("bytes", "lower"),
    "trace.overhead_pct": ("%", "lower"),
})

# The four flowcap calls of `tdntc featurize` and their per-layer metrics.
FLOWCAP_OPS = {
    "flowcap.parse_pcap": "flowcap.parse_s",
    "flowcap.assemble_flows": "flowcap.assemble_s",
    "flowcap.featurize_flows": "flowcap.featurize_s",
    "flowcap.write_flow_csv": "flowcap.write_csv_s",
}


@dataclass
class Result:
    metrics: Dict[str, float]
    # The workload's own names for the generic end-to-end metrics, for the log.
    aliases: Dict[str, str] = field(default_factory=dict)


class Ledger:
    """Counts operations and output checks for error_rate."""

    def __init__(self):
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0

    def op(self, name: str, fn, *args, **kwargs):
        """Call one public function of the program inside a span."""
        self.attempted += 1
        with self.tracer.span(name):
            return fn(*args, **kwargs)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}: {detail}", file=sys.stderr)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _generate(kind: str, seed: int, out: Path) -> None:
    """Make an input file in a child process, so that the generator's memory
    stays out of this process's peak."""
    subprocess.run([sys.executable, str(HERE / "inputs.py"), kind, str(seed), str(out)],
                   check=True)


class ColdStarts:
    """Times `count` cold starts of one command, spread over a run.

    `due(fraction)` runs the cold starts that are due once `fraction` of
    the run's time is spent; `due(1)` runs all that are left.
    """

    def __init__(self, ledger: "Ledger", args: List[str], count: int = COLD_SETUPS):
        self.ledger = ledger
        self.cmd = [sys.executable, str(HERE / "coldstart.py"), *args]
        self.count = count
        self.durations: List[float] = []

    def due(self, fraction: float) -> None:
        while len(self.durations) < min(1.0, fraction) * self.count:
            self.ledger.attempted += 1
            with self.ledger.tracer.span("coldstart") as s:
                proc = subprocess.run(self.cmd, capture_output=True, text=True)
            self.durations.append(s.duration)
            self.ledger.check("cold start", proc.returncode == 0, proc.stderr[-2000:])


def _fraction(start: float, seconds: float) -> float:
    return (time.perf_counter() - start) / seconds if seconds > 0 else 1.0


def program_digest() -> str:
    """Digest of the program's sources; it keys results that only the same
    code must reproduce."""
    h = hashlib.sha256()
    for path in sorted((HERE.parent / "src" / "tdntc").rglob("*.py")):
        h.update(path.relative_to(HERE.parent).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far.

    The workloads read it after their first round: every round does the
    same work, and later rounds only add allocator fragmentation that grows
    with the number of rounds, which depends on how fast the host is.
    The inputs are made in a child process and do not count.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Machine and versions, recorded next to every result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
    }


def _spans_under(spans: List[Span], roots: List[Span]) -> List[Span]:
    """The spans that descend from any of `roots`."""
    inside = {r.id for r in roots}
    out = []
    for s in spans:          # a parent is always recorded before its children
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out


def _per_parent(spans: List[Span], names) -> List[float]:
    """Total duration of the spans named `names`, one sum per parent span."""
    sums: Dict[int, float] = {}
    for s in spans:
        if s.name in names:
            sums[s.parent] = sums.get(s.parent, 0.0) + s.duration
    return list(sums.values())


@dataclass
class Rates:
    """Work per second of each timed call: the fastest call and the median."""

    best: float
    median: float
    calls: int

    def __str__(self) -> str:
        return f"best {self.best:.6g} median {self.median:.6g} over {self.calls} calls"


def _rates(work: float, durations: List[float]) -> Rates:
    rates = [work / d for d in durations]
    return Rates(max(rates), statistics.median(rates), len(rates))


def _overhead_pct(rounds: List[Span]) -> float:
    """Fastest traced round against the fastest plain round."""
    plain = min(r.duration for r in rounds if not r.attrs["traced"])
    traced = min(r.duration for r in rounds if r.attrs["traced"])
    return (traced / plain - 1.0) * 100.0


# ---------------------------------------------------------------------------
# train-cnn / train-rnn


def _instrument(tracer: Tracer, graph, trainer_mod) -> None:
    """Wrap the graph's passes, the stages, the decision layer and the loss."""

    def enter_forward(x, train=False):
        tracer.mode = "train" if train else "infer"
        if train:
            tracer.step += 1

    tracer.patch(graph, "forward_logits", lambda *a, **k: "models.forward",
                 before=enter_forward)
    tracer.patch(graph, "backward", lambda *a, **k: "models.backward")

    def phase(x, train=False):
        return "fwd" if train else "infer"

    for stage in graph.stages[:-1]:
        name = getattr(stage, "name", type(stage).__name__)
        kind = STAGE_KINDS.get(name, name)
        tracer.patch(stage, "forward",
                     lambda *a, kind=kind, **k: f"layers.{kind}.{phase(*a, **k)}")
        tracer.patch(stage, "backward", lambda *a, kind=kind, **k: f"layers.{kind}.bwd")
    # ModelGraph calls the decision layer's logits pass directly; it has no
    # train flag, so the mode comes from the enclosing graph pass.
    decision = graph.stages[-1].layer
    tracer.patch(decision, "forward_logits", lambda *a, **k: "layers.decision." + (
        "fwd" if tracer.mode == "train" else "infer"))
    tracer.patch(decision, "backward", lambda *a, **k: "layers.decision.bwd")
    tracer.patch(trainer_mod, "softmax_cross_entropy_batch", lambda *a, **k: "layers.loss")


def _computed_flops(graph, variant: str, n_features: int) -> Dict[str, int]:
    """Multiply-add flops of one training step (forward + 2x backward), from shapes."""
    shapes = {name: arr.shape for name, arr in graph.params().items()}
    out = {"conv2d": 0, "lstm": 0}
    td_in, td_out = shapes["TD(FFNN_0)/weights"]
    if variant == "m1-td":
        units, p, q = shapes["CNN_2D/kernels"]
        rows, cols = graph.frame_dims
        conv_r, conv_c = rows - p + 1, cols - q + 1
        out["conv2d"] = 3 * 2 * BATCH * conv_r * conv_c * p * q * units
        td_steps = conv_r // 2
    else:
        s, four_k = shapes["LSTM/w_x"]
        out["lstm"] = 3 * 2 * BATCH * n_features * (s + four_k // 4) * four_k
        td_steps = n_features
    out["td_dense"] = 3 * 2 * BATCH * td_steps * td_in * td_out
    return {f"layers.{k}.flops_per_step": v for k, v in out.items()}


def _layer_metrics(spans: List[Span], selfs: Dict[int, float]) -> Dict[str, float]:
    """Per-layer self ms: median over training steps, or over full inference batches."""
    per_step: Dict[tuple, float] = {}
    infer: Dict[str, List[float]] = {}
    loss: List[float] = []
    for s in spans:
        if s.name == "layers.loss":
            if s.attrs["mode"] == "train":
                loss.append(selfs[s.id])
        elif s.name.startswith("layers."):
            _, kind, phase = s.name.split(".")
            if phase == "infer":
                if s.attrs["batch"] == INFER_BATCH:
                    infer.setdefault(kind, []).append(selfs[s.id])
            else:
                key = (kind, phase, s.attrs["step"])
                per_step[key] = per_step.get(key, 0.0) + selfs[s.id]
    by_layer: Dict[tuple, List[float]] = {}
    fold: Dict[int, float] = {}
    for (kind, phase, step), v in per_step.items():
        by_layer.setdefault((kind, phase), []).append(v)
        if kind == "fold":
            fold[step] = fold.get(step, 0.0) + v
    out = {}
    for kind in LAYER_KINDS:
        out[f"layers.{kind}.fwd_ms"] = _median(by_layer.get((kind, "fwd"), ())) * 1e3
        out[f"layers.{kind}.bwd_ms"] = _median(by_layer.get((kind, "bwd"), ())) * 1e3
        out[f"layers.{kind}.infer_ms"] = _median(infer.get(kind, ())) * 1e3
    out["layers.loss_ms"] = _median(loss) * 1e3
    out["models.fold_ms"] = _median(fold.values()) * 1e3
    return out


def _train_round(s: SimpleNamespace, ledger: Ledger, traced: bool):
    """Train the set-up's graph, evaluate it on the test split, then score all flows."""
    op, trainer = ledger.op, s.trainer
    y = s.ds.labels
    train, val, test = ((s.x[idx], y[idx]) for idx in (s.split.train, s.split.val, s.split.test))
    cfg = trainer.TrainConfig(epochs=EPOCHS, batch_size=BATCH, learning_rate=1e-3,
                              optimizer="adam", seed=PROGRAM_SEED, patience=EPOCHS, trials=1)
    loss_fn = trainer.softmax_cross_entropy_batch
    try:
        if traced:
            _instrument(ledger.tracer, s.graph, trainer)
        result = op("trainer.train", trainer.train, s.graph, train, val, cfg)
        test_report = op("trainer.evaluate", trainer.evaluate, s.graph, *test)
        with ledger.tracer.span("infer"):
            full_report = op("trainer.evaluate", trainer.evaluate, s.graph, s.x, y)
            op("metrics.per_class_report", s.metrics.per_class_report,
               full_report, s.ds.class_names)
    finally:
        trainer.softmax_cross_entropy_batch = loss_fn
    return result, test_report, full_report


def run_train(workload: str, seed: int, seconds: float, trace: bool, work: Path,
              ledger: Ledger) -> Result:
    variant = TRAIN_VARIANTS[workload]
    csv_path = work / f"flows-{seed}.csv"
    _generate("flows", seed, csv_path)
    ckpt_path = work / f"model-{workload}-{seed}.ckpt"
    tracer = ledger.tracer
    cold = ColdStarts(ledger, ["train", str(csv_path), variant])

    start = time.perf_counter()
    rounds: List[Span] = []
    setups: List[Span] = []
    first_history = first_accuracy = None
    while len(rounds) < 1 + trace or time.perf_counter() < start + seconds:
        cold.due(_fraction(start, seconds))
        gc.collect()
        with tracer.span("round", traced=trace and len(rounds) % 2 == 1) as rnd:
            with tracer.span("setup") as setup:
                s = train_setup(csv_path, variant, ledger.op)
            result, test_report, full_report = _train_round(s, ledger, rnd.attrs["traced"])
        rounds.append(rnd)
        setups.append(setup)
        if len(rounds) == 1:
            first_round_rss = peak_rss_mb()

        history = result.history
        losses = [v for h in history for v in (h.train_loss, h.val_loss)]
        ledger.check("losses finite", bool(np.isfinite(losses).all()), repr(losses))
        ledger.check("final loss below initial",
                     history[-1].train_loss < result.initial_train_loss,
                     f"{history[-1].train_loss!r} vs {result.initial_train_loss!r}")
        expected_steps = EPOCHS * (len(s.split.train) // BATCH)
        ledger.check("fixed step count", result.optimizer_steps == expected_steps,
                     f"{result.optimizer_steps} steps, expected {expected_steps}")
        ledger.check("whole-set report size", full_report.n_samples == s.ds.n_flows,
                     f"{full_report.n_samples} vs {s.ds.n_flows}")
        ledger.check("test accuracy above chance",
                     test_report.accuracy > 1.0 / s.ds.n_classes, repr(test_report.accuracy))
        history_text = s.trainer.history_csv(history)
        if first_history is None:
            first_history, first_accuracy = history_text, test_report.accuracy
            (work / f"history-{workload}-{seed}.csv").write_text(history_text, encoding="utf-8")
            for h in history:
                print(f"history epoch={h.epoch} train_loss={h.train_loss!r} "
                      f"train_acc={h.train_acc!r} val_loss={h.val_loss!r} "
                      f"val_acc={h.val_acc!r}")
        ledger.check("rounds repeat bit for bit",
                     history_text == first_history and test_report.accuracy == first_accuracy,
                     "a round's loss history or accuracy differs from the first round's")
    cold.due(1.0)

    # Checkpoint I/O is off the timed path: a few round trips of the last model.
    test_x = s.x[s.split.test]
    with tracer.span("checkpoint") as ckpt:
        for _ in range(CKPT_REPEATS):
            ledger.op("trainer.save_checkpoint", s.trainer.save_checkpoint, s.graph,
                      ckpt_path, scaler=s.scaler, class_names=s.ds.class_names)
            loaded, _, _ = ledger.op("trainer.load_checkpoint", s.trainer.load_checkpoint,
                                     ckpt_path)
        before = ledger.op("models.predict", s.graph.predict, test_x)
        after = ledger.op("models.predict", loaded.predict, test_x)
    ledger.check("checkpoint round trip",
                 np.array_equal(before[0], after[0]) and np.array_equal(before[1], after[1]),
                 "test predictions differ after save/load")
    _, audit_total = s.models.count_parameters(s.graph)
    param_count = sum(a.size for a in s.graph.params().values())
    ledger.check("parameter count", param_count == audit_total,
                 f"{param_count} allocated vs {audit_total} audited")

    plain_spans = _spans_under(tracer.spans, [r for r in rounds if not r.attrs["traced"]])
    train_rate = _rates(len(s.split.train) * EPOCHS,
                        [t.duration for t in plain_spans if t.name == "trainer.train"])
    infer_rate = _rates(s.ds.n_flows, [t.duration for t in plain_spans if t.name == "infer"])
    print(f"rounds {len(rounds)}: train_samples_per_s {train_rate}, "
          f"infer_flows_per_s {infer_rate}")
    print(f"setup: cold start median {_median(cold.durations):.6g} s over "
          f"{len(cold.durations)}, in-process median {_median(t.duration for t in setups):.6g} s")
    aliases = {"items_per_s": "train_samples_per_s", "flows_out_per_s": "infer_flows_per_s",
               "accuracy": "test_accuracy"}
    if not trace:
        return Result({
            "setup_s": _median(cold.durations),
            "items_per_s": train_rate.best,
            "flows_out_per_s": infer_rate.best,
            "accuracy": first_accuracy,
            "peak_rss_mb": first_round_rss,
        }, aliases)

    spans = _spans_under(tracer.spans, [r for r in rounds if r.attrs["traced"]])
    selfs = self_times(tracer.spans)
    out = _layer_metrics(spans, selfs)
    steps = result.optimizer_steps
    train_ids = {t.id for t in spans if t.name == "trainer.train"}
    infer_ids = {t.id for t in spans if t.name == "infer"}
    out["trainer.self_ms_per_step"] = _median(selfs[i] for i in train_ids) / steps * 1e3
    out["trainer.val_pass_s"] = _median(_per_parent(
        [t for t in spans if t.parent in train_ids and t.attrs.get("mode") == "infer"],
        ("models.forward",)))
    out["trainer.evaluate_s"] = _median(
        t.duration for t in spans if t.name == "trainer.evaluate" and t.parent in infer_ids)
    out["metrics.report_ms"] = _median(
        t.duration for t in spans if t.name == "metrics.per_class_report") * 1e3
    ckpt_spans = _spans_under(tracer.spans, [ckpt])
    out["trainer.ckpt_save_ms"] = _median(
        t.duration for t in ckpt_spans if t.name == "trainer.save_checkpoint") * 1e3
    out["trainer.ckpt_load_ms"] = _median(
        t.duration for t in ckpt_spans if t.name == "trainer.load_checkpoint") * 1e3
    setup_spans = _spans_under(tracer.spans, setups)
    out["datapipe.load_csv_s"] = _median(_per_parent(setup_spans, ("datapipe.load_csv_dataset",)))
    for names, metric in ((("datapipe.stratified_split",), "datapipe.split_ms"),
                          (("datapipe.minmax_fit", "datapipe.minmax_apply"), "datapipe.scale_ms"),
                          (("datapipe.frames_from_flows",), "datapipe.frames_ms"),
                          (("models.build_model",), "models.build_ms")):
        out[metric] = _median(_per_parent(setup_spans, names)) * 1e3
    out["trainer.ckpt_bytes"] = ckpt_path.stat().st_size
    out["trainer.steps"] = steps
    out["models.param_count"] = param_count
    out["datapipe.rows"] = s.ds.n_flows
    out.update(_computed_flops(s.graph, variant, s.ds.n_features))
    out["trace.overhead_pct"] = _overhead_pct(rounds)
    return Result(out, aliases)


# ---------------------------------------------------------------------------
# featurize


def _featurize_round(ledger: Ledger, pcap_path: Path, out_csv: Path) -> Tuple[Span, tuple]:
    """`tdntc featurize` from a fresh import; returns the set-up span and the counts."""
    op = ledger.op
    # `tdntc featurize` does nothing before parsing but import its modules.
    with ledger.tracer.span("setup") as setup:
        _, flowcap = fresh_import(FEATURIZE_MODULES)
    capture = op("flowcap.parse_pcap", flowcap.parse_pcap, pcap_path)
    flows = op("flowcap.assemble_flows", flowcap.assemble_flows,
               capture.packets, idle_timeout=IDLE_TIMEOUT)
    stats = op("flowcap.featurize_flows", flowcap.featurize_flows, flows)
    op("flowcap.write_flow_csv", flowcap.write_flow_csv, stats, out_csv,
       FEATURIZE_LABEL, pad_to=FEATURIZE_PAD_TO)
    per_flow = Counter((s.fwd_packets, s.rev_packets, s.fwd_bytes, s.rev_bytes) for s in stats)
    return setup, (len(capture.packets), dict(capture.skipped), len(stats), per_flow)


def run_featurize(seed: int, seconds: float, trace: bool, work: Path, ledger: Ledger) -> Result:
    # One name for every seed: the capture is about 48 MB, and each run
    # makes it anew.
    pcap_path = work / "capture.pcap"
    _generate("capture", seed, pcap_path)
    truth = inputs.CaptureTruth.from_json(
        pcap_path.with_name(pcap_path.name + ".truth.json").read_text(encoding="utf-8"))
    out_csv = work / f"featurized-{seed}.csv"
    # Earlier runs of the same code with the same seed must write the same CSV.
    digest_path = work / f"featurized-{seed}-{program_digest()}.sha256"
    tracer = ledger.tracer
    cold = ColdStarts(ledger, ["featurize"])

    start = time.perf_counter()
    rounds: List[Span] = []
    setups: List[Span] = []
    first_digest = None
    while len(rounds) < 1 + trace or time.perf_counter() < start + seconds:
        cold.due(_fraction(start, seconds))
        gc.collect()
        with tracer.span("round", traced=trace and len(rounds) % 2 == 1) as rnd:
            setup, (packets, skipped, flows, per_flow) = _featurize_round(
                ledger, pcap_path, out_csv)
        rounds.append(rnd)
        setups.append(setup)
        if len(rounds) == 1:
            first_round_rss = peak_rss_mb()

        records = packets + sum(skipped.values())
        ledger.check("records", records == truth.records, f"{records} vs {truth.records}")
        ledger.check("packets parsed", packets == truth.packets,
                     f"{packets} vs {truth.packets}")
        ledger.check("skip counters", skipped == truth.skipped, f"{skipped} vs {truth.skipped}")
        ledger.check("flows", flows == truth.flows, f"{flows} vs {truth.flows}")
        matched = sum((per_flow & truth.flow_counts).values())
        ledger.check("per-flow packet and byte counts", matched == truth.flows,
                     f"{matched} of {truth.flows} flows match")
        data = out_csv.read_bytes()
        lines = data.count(b"\n")
        ledger.check("csv lines", lines == truth.flows + 1, f"{lines} vs {truth.flows + 1}")
        digest = hashlib.sha256(data).hexdigest()
        if first_digest is None:
            first_digest = digest
            if digest_path.exists():
                ledger.check("csv identical to earlier runs of this code",
                             digest_path.read_text(encoding="utf-8") == digest, digest)
            else:
                digest_path.write_text(digest, encoding="utf-8")
        ledger.check("csv identical across rounds", digest == first_digest, digest)
    cold.due(1.0)

    plain_spans = _spans_under(tracer.spans, [r for r in rounds if not r.attrs["traced"]])
    command_s = _per_parent(plain_spans, FLOWCAP_OPS)
    packet_rate = _rates(truth.records, command_s)
    flow_rate = _rates(truth.flows, command_s)
    print(f"rounds {len(rounds)}: featurize_packets_per_s {packet_rate}, "
          f"featurize_flows_per_s {flow_rate}")
    print(f"setup: cold start median {_median(cold.durations):.6g} s over "
          f"{len(cold.durations)}, in-process median {_median(t.duration for t in setups):.6g} s")
    aliases = {"items_per_s": "featurize_packets_per_s",
               "flows_out_per_s": "featurize_flows_per_s", "accuracy": "flow_match_ratio"}
    if not trace:
        return Result({
            "setup_s": _median(cold.durations),
            "items_per_s": packet_rate.best,
            "flows_out_per_s": flow_rate.best,
            "accuracy": matched / truth.flows,
            "peak_rss_mb": first_round_rss,
        }, aliases)

    spans = _spans_under(tracer.spans, [r for r in rounds if r.attrs["traced"]])
    out = {metric: _median(t.duration for t in spans if t.name == name)
           for name, metric in FLOWCAP_OPS.items()}
    out["flowcap.records"] = records
    out["flowcap.packets_parsed"] = packets
    for kind in SKIP_KINDS:
        out[f"flowcap.skipped.{kind}"] = skipped.get(kind, 0)
    out["flowcap.flows"] = flows
    out["flowcap.csv_bytes"] = len(data)
    out["flowcap.useful_ratio"] = packets / records
    out["trace.overhead_pct"] = _overhead_pct(rounds)
    return Result(out, aliases)


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    """Run one workload; returns its Result (None if a call raised) and Ledger."""
    ledger = Ledger()
    try:
        if workload == "featurize":
            result = run_featurize(seed, seconds, trace, work, ledger)
        else:
            result = run_train(workload, seed, seconds, trace, work, ledger)
    except Exception:  # the harness reports a failing program call; it does not crash
        ledger.failed += 1
        traceback.print_exc()
        result = None
    if trace:
        ledger.tracer.write_jsonl(work / f"spans-{workload}-{seed}.jsonl")
    return result, ledger


def result_line(result, ledger: Ledger, trace: bool) -> str:
    """The final stdout line: every declared metric of this run's kind."""
    catalogue = PER_LAYER if trace else END_TO_END
    values = result.metrics if result is not None else {}
    metrics = {}
    if result is not None:
        for name, (unit, _) in catalogue.items():
            metrics[name] = {"value": values.get(name, 0), "unit": unit}
    return json.dumps({
        "correct": result is not None and ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": metrics,
    })
