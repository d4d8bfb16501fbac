"""Mini-batch training loop, evaluation, trial protocol, and checkpoints.

Training is plain seeded SGD/Adam over shuffled mini-batches with softmax
cross-entropy, early stopping on validation loss, and restoration of the
best-validation parameters.  The five-trial protocol re-trains a fresh
graph per trial (varying the seed, optionally jittering the learning rate)
and reports the per-trial metrics plus their averages.

Checkpoints are a self-describing binary container: magic b"TDNTC1", a
length-prefixed UTF-8 JSON metadata document (format version, model config,
tensor directory, scaler state, encoder table), then the raw little-endian
float64 tensor payloads in directory order.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .datapipe import ScalerState
from .layers import softmax_cross_entropy_batch
from .metrics import ClassReport, classification_metrics, confusion_matrix
from .models import ModelConfig, ModelGraph, build_model

CHECKPOINT_MAGIC = b"TDNTC1"
CHECKPOINT_VERSION = 1


class DivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss."""


class CheckpointError(ValueError):
    """Raised for unreadable, truncated, or incompatible checkpoint files."""


@dataclass
class TrainConfig:
    """Knobs of one training run; none of them are dataset-dependent."""

    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    patience: int = 5
    trials: int = 5
    lr_jitter: float = 0.0   # +/- fraction applied per trial when > 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 2:
            raise ValueError(f"batch size must be >= 2 (batchnorm), got {self.batch_size}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs, "batch_size": self.batch_size,
            "learning_rate": self.learning_rate, "optimizer": self.optimizer,
            "seed": self.seed, "patience": self.patience, "trials": self.trials,
            "lr_jitter": self.lr_jitter,
        }


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class TrainResult:
    history: List[EpochStats]
    initial_train_loss: float
    best_epoch: int
    best_val_loss: float
    wall_seconds: float
    optimizer_steps: int


class _Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
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


class _SGD:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            p -= self.lr * grads[name]


def _make_optimizer(cfg: TrainConfig, lr: float):
    return _Adam(lr) if cfg.optimizer == "adam" else _SGD(lr)


def _batch_indices(n: int, batch_size: int, rng: np.random.Generator) -> List[np.ndarray]:
    order = rng.permutation(n)
    batches = [order[i:i + batch_size] for i in range(0, n, batch_size)]
    # A trailing batch of one sample cannot feed train-mode batchnorm; fold
    # it into its predecessor (or drop it when it is the only batch).
    if len(batches) > 1 and batches[-1].size == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    elif len(batches) == 1 and batches[0].size == 1:
        raise ValueError("cannot train on a single sample")
    return batches


def _dataset_loss_acc(graph: ModelGraph, x: np.ndarray, y: np.ndarray,
                      batch_size: int = 256) -> Tuple[float, float]:
    if x.shape[0] == 0:
        return float("nan"), float("nan")
    total_loss = 0.0
    correct = 0
    for start in range(0, x.shape[0], batch_size):
        xb = x[start:start + batch_size]
        yb = y[start:start + batch_size]
        logits = graph.forward_logits(xb, train=False)
        _, losses, _ = softmax_cross_entropy_batch(logits, yb)
        total_loss += float(losses.sum())
        correct += int((logits.argmax(axis=1) == yb).sum())
    return total_loss / x.shape[0], correct / x.shape[0]


def train(graph: ModelGraph, train_data: Tuple[np.ndarray, np.ndarray],
          val_data: Tuple[np.ndarray, np.ndarray], cfg: TrainConfig,
          learning_rate: Optional[float] = None) -> TrainResult:
    """Train `graph` in place; returns the per-epoch history.

    Mini-batch order is drawn from a generator seeded with cfg.seed, so a
    repeated run over the same graph initialization is bit-reproducible.
    Early stopping restores the parameters (and batchnorm running stats) of
    the best-validation epoch.
    """
    x_train, y_train = train_data
    x_val, y_val = val_data
    # An empty validation split (legal for tiny classes under the floor
    # split rule) disables early stopping; every epoch counts as the best.
    has_val = x_val.shape[0] > 0
    lr = cfg.learning_rate if learning_rate is None else learning_rate
    optimizer = _make_optimizer(cfg, lr)
    rng = np.random.default_rng(cfg.seed)
    started = time.perf_counter()

    # Baseline loss before any update: the reference point for "training
    # actually reduced the loss" checks.
    initial_loss, _ = _dataset_loss_acc(graph, x_train, y_train)

    history: List[EpochStats] = []
    best_val = np.inf
    best_epoch = 0
    best_state = graph.get_state()
    stale = 0
    steps = 0
    for epoch in range(1, cfg.epochs + 1):
        epoch_loss = 0.0
        epoch_correct = 0
        for batch_no, idx in enumerate(_batch_indices(x_train.shape[0],
                                                      cfg.batch_size, rng)):
            xb, yb = x_train[idx], y_train[idx]
            logits = graph.forward_logits(xb, train=True)
            _, losses, dlogits = softmax_cross_entropy_batch(logits, yb)
            batch_loss = float(losses.mean())
            if not np.isfinite(batch_loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            graph.backward(dlogits / idx.size)
            optimizer.step(graph.params(), graph.grads())
            steps += 1
            epoch_loss += float(losses.sum())
            epoch_correct += int((logits.argmax(axis=1) == yb).sum())
        val_loss, val_acc = _dataset_loss_acc(graph, x_val, y_val)
        history.append(EpochStats(
            epoch=epoch,
            train_loss=epoch_loss / x_train.shape[0],
            train_acc=epoch_correct / x_train.shape[0],
            val_loss=val_loss,
            val_acc=val_acc,
        ))
        if not has_val:
            best_epoch = epoch
            best_state = graph.get_state()
        elif val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_state = graph.get_state()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    graph.set_state(best_state)
    return TrainResult(
        history=history,
        initial_train_loss=initial_loss,
        best_epoch=best_epoch,
        best_val_loss=float(best_val),
        wall_seconds=time.perf_counter() - started,
        optimizer_steps=steps,
    )


def evaluate(graph: ModelGraph, x: np.ndarray, y: np.ndarray) -> ClassReport:
    """Inference-mode predictions scored against ground truth."""
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty split")
    preds = []
    for start in range(0, x.shape[0], 256):
        _, classes = graph.predict(x[start:start + 256])
        preds.append(classes)
    y_pred = np.concatenate(preds)
    cm = confusion_matrix(y, y_pred, graph.config.n_classes)
    return classification_metrics(cm)


def history_csv(history: List[EpochStats]) -> str:
    lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
    for h in history:
        lines.append(f"{h.epoch},{h.train_loss!r},{h.train_acc!r},"
                     f"{h.val_loss!r},{h.val_acc!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trial protocol


@dataclass
class TrialRow:
    trial: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    minutes: float


@dataclass
class TrialTable:
    rows: List[TrialRow]
    graphs: List[ModelGraph] = field(default_factory=list)

    def averages(self) -> TrialRow:
        n = len(self.rows)
        return TrialRow(
            trial=0,
            accuracy=sum(r.accuracy for r in self.rows) / n,
            precision=sum(r.precision for r in self.rows) / n,
            recall=sum(r.recall for r in self.rows) / n,
            f1=sum(r.f1 for r in self.rows) / n,
            minutes=sum(r.minutes for r in self.rows) / n,
        )

    def best_graph(self) -> ModelGraph:
        best = max(range(len(self.rows)), key=lambda i: self.rows[i].accuracy)
        return self.graphs[best]


def format_trial_table(table: TrialTable) -> str:
    """Text table in the Trial / Accuracy / Precision / Recall / F1 / Time layout."""
    header = (f"{'Trial':<6}{'Accuracy':>10}{'Precision':>11}{'Recall':>8}"
              f"{'F1':>7}{'Time (min)':>12}")
    lines = [header]
    for r in table.rows:
        lines.append(f"{r.trial:<6}{r.accuracy:>10.3f}{r.precision:>11.3f}"
                     f"{r.recall:>8.3f}{r.f1:>7.3f}{r.minutes:>12.2f}")
    avg = table.averages()
    lines.append(f"{'Avg.':<6}{avg.accuracy:>10.3f}{avg.precision:>11.3f}"
                 f"{avg.recall:>8.3f}{avg.f1:>7.3f}{avg.minutes:>12.2f}")
    return "\n".join(lines)


def run_trials(model_cfg: ModelConfig, cfg: TrainConfig,
               train_data: Tuple[np.ndarray, np.ndarray],
               val_data: Tuple[np.ndarray, np.ndarray],
               test_data: Tuple[np.ndarray, np.ndarray]) -> TrialTable:
    """Train cfg.trials fresh graphs on the same splits, varying the seed.

    Per-trial randomness covers the initialization and the batch shuffling;
    lr_jitter > 0 additionally scales the learning rate by a seeded factor
    in [1-jitter, 1+jitter].
    """
    if cfg.trials < 1:
        raise ValueError(f"trials must be >= 1, got {cfg.trials}")
    rows: List[TrialRow] = []
    graphs: List[ModelGraph] = []
    for trial in range(1, cfg.trials + 1):
        trial_seed = cfg.seed + trial - 1
        graph = build_model(replace(model_cfg, seed=trial_seed))
        trial_cfg = replace(cfg, seed=trial_seed)
        lr = cfg.learning_rate
        if cfg.lr_jitter > 0:
            jrng = np.random.default_rng(trial_seed)
            lr *= 1.0 + cfg.lr_jitter * jrng.uniform(-1.0, 1.0)
        result = train(graph, train_data, val_data, trial_cfg, learning_rate=lr)
        report = evaluate(graph, *test_data)
        rows.append(TrialRow(
            trial=trial,
            accuracy=report.accuracy,
            precision=report.weighted_precision,
            recall=report.weighted_recall,
            f1=report.weighted_f1,
            minutes=result.wall_seconds / 60.0,
        ))
        graphs.append(graph)
    return TrialTable(rows=rows, graphs=graphs)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(graph: ModelGraph, path, scaler: Optional[ScalerState] = None,
                    class_names: Optional[List[str]] = None) -> None:
    """Serialize the graph (parameters + running stats) and pipeline state."""
    tensors = graph.state_arrays()
    directory = [{"name": name, "shape": list(arr.shape)}
                 for name, arr in tensors.items()]
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": graph.config.to_dict(),
        "tensors": directory,
        "scaler": scaler.to_dict() if scaler is not None else None,
        "class_names": list(class_names) if class_names is not None else None,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with Path(path).open("wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<I", len(meta_bytes)))
        handle.write(meta_bytes)
        for name, arr in tensors.items():
            handle.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> Tuple[ModelGraph, Optional[ScalerState], Optional[List[str]]]:
    """Rebuild a graph from a checkpoint; inference is bit-identical to save time."""
    data = Path(path).read_bytes()
    if len(data) < len(CHECKPOINT_MAGIC) + 4 or not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: not a {CHECKPOINT_MAGIC.decode()} checkpoint")
    offset = len(CHECKPOINT_MAGIC)
    (meta_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if offset + meta_len > len(data):
        raise CheckpointError(f"{path}: truncated metadata")
    try:
        meta = json.loads(data[offset: offset + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable metadata: {exc}") from exc
    offset += meta_len
    version = meta.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    try:
        cfg = ModelConfig.from_dict(meta.get("model_config") or {})
    except KeyError as exc:
        raise CheckpointError(f"{path}: model_config lacks key {exc.args[0]!r}") from None
    graph = build_model(cfg)
    live = graph.state_arrays()
    names = [entry["name"] for entry in meta["tensors"]]
    missing = [name for name in live if name not in names]
    if missing:
        raise CheckpointError(f"{path}: tensor directory lacks {missing[0]!r}")
    if len(set(names)) != len(names):
        raise CheckpointError(f"{path}: tensor directory repeats a tensor name")
    payload = len(data) - offset
    expected = sum(int(np.prod(t["shape"])) * 8 for t in meta["tensors"])
    if payload != expected:
        raise CheckpointError(
            f"{path}: payload is {payload} bytes, directory promises {expected}"
        )
    for entry in meta["tensors"]:
        name, shape = entry["name"], tuple(entry["shape"])
        if name not in live:
            raise CheckpointError(f"{path}: unknown tensor {name!r} for this model")
        if live[name].shape != shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {shape}, model expects {live[name].shape}"
            )
        nbytes = int(np.prod(shape)) * 8
        arr = np.frombuffer(data[offset: offset + nbytes], dtype="<f8").reshape(shape)
        live[name][...] = arr
        offset += nbytes
    scaler = ScalerState.from_dict(meta["scaler"]) if meta.get("scaler") else None
    class_names = meta.get("class_names")
    return graph, scaler, class_names
