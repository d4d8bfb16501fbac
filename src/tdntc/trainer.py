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
import math
import struct
import sys
import time
from dataclasses import asdict, dataclass, replace
from functools import reduce
from operator import add
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .datapipe import ScalerState
from .layers import softmax_cross_entropy_batch
from .metrics import ClassReport, classification_metrics, confusion_matrix
from .models import BuildError, ModelConfig, ModelGraph, build_model, state_shapes

CHECKPOINT_MAGIC = b"TDNTC1"
CHECKPOINT_VERSION = 1


class DivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss."""


class CheckpointError(ValueError):
    """Raised for unreadable, truncated, or incompatible checkpoint files."""


class ConfigError(ValueError):
    """Raised for a training setting outside its valid range."""


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
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 2:
            raise ConfigError(f"batch size must be >= 2 (batchnorm), got {self.batch_size}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 <= self.lr_jitter < 1.0:
            raise ConfigError(f"lr jitter must be in [0, 1), got {self.lr_jitter}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class TrainResult:
    """What `train` measured.

    `initial_train_loss` is the train-mode mean loss of the first mini-batch,
    taken before the first update. Each `history[i].train_loss` averages
    the same train-mode batch losses over epoch i as the weights move, so
    the two are one measurement at different points of training.
    """

    history: List[EpochStats]
    initial_train_loss: float
    best_epoch: int
    best_val_loss: float
    wall_seconds: float
    optimizer_steps: int


class _Adam:
    """Adam over a graph's flat parameter and gradient vectors.

    A step runs m += (1 - BETA1) (g - m), v += (1 - BETA2) (g g - v), then
    p -= lr m_hat / (sqrt(v_hat) + EPS), elementwise and in that order,
    through two scratch vectors, so it allocates nothing after the first.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.step_count = 0
        self._buffers: Tuple[np.ndarray, ...] = ()

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        if not self._buffers:
            self._buffers = tuple(np.zeros_like(params) for _ in range(4))
        m, v, a, b = self._buffers
        self.step_count += 1
        t = self.step_count
        np.subtract(grads, m, out=a)
        a *= 1 - self.BETA1
        m += a
        np.multiply(grads, grads, out=a)
        a -= v
        a *= 1 - self.BETA2
        v += a
        np.divide(m, 1 - self.BETA1 ** t, out=a)
        a *= self.lr
        np.divide(v, 1 - self.BETA2 ** t, out=b)
        np.sqrt(b, out=b)
        b += self.EPS
        a /= b
        params -= a


class _SGD:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        params -= self.lr * grads


def _make_optimizer(cfg: TrainConfig):
    return (_Adam if cfg.optimizer == "adam" else _SGD)(cfg.learning_rate)


def _batch_indices(n: int, batch_size: int, rng: np.random.Generator) -> List[np.ndarray]:
    if n == 0:
        raise ValueError("cannot train on an empty training split")
    if n == 1:
        raise ValueError("cannot train on a single sample")
    order = rng.permutation(n)
    batches = [order[i:i + batch_size] for i in range(0, n, batch_size)]
    # A trailing batch of one sample cannot feed train-mode batchnorm; fold
    # it into its predecessor, which exists because n >= 2.
    if batches[-1].size == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
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
          val_data: Tuple[np.ndarray, np.ndarray], cfg: TrainConfig) -> TrainResult:
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
    optimizer = _make_optimizer(cfg)
    rng = np.random.default_rng(cfg.seed)
    started = time.perf_counter()
    initial_loss = float("nan")
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
            if steps == 0:
                initial_loss = batch_loss
            graph.backward(dlogits / idx.size)
            optimizer.step(graph.flat_params, graph.flat_grads)
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
    return classification_metrics(confusion_matrix(y, y_pred, graph.config.n_classes))


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
    """Every trial's row, plus the graph, result and test report of the best trial.

    The best trial is the first one with the highest test accuracy.
    """

    rows: List[TrialRow]
    graph: ModelGraph
    result: TrainResult
    report: ClassReport

    def averages(self) -> TrialRow:
        # Left to right from 0.0: float sum() is compensated from CPython
        # 3.12 on, which would change the bits of trials.txt.
        n = len(self.rows)
        means = {col: reduce(add, (getattr(r, col) for r in self.rows), 0.0) / n
                 for col in ("accuracy", "precision", "recall", "f1", "minutes")}
        return TrialRow(trial=0, **means)


def trial_metrics_table(table: TrialTable) -> str:
    """The trial table without its wall-clock column, as `trials.txt` holds it.

    Wall times differ between seeded reruns, so the file keeps only the
    Trial / Accuracy / Precision / Recall / F1 columns.
    """
    rows = [(str(r.trial), r) for r in table.rows] + [("Avg.", table.averages())]
    return "\n".join(
        [f"{'Trial':<6}{'Accuracy':>10}{'Precision':>11}{'Recall':>8}{'F1':>7}"]
        + [f"{label:<6}{r.accuracy:>10.3f}{r.precision:>11.3f}{r.recall:>8.3f}{r.f1:>7.3f}"
           for label, r in rows])


def format_trial_table(table: TrialTable) -> str:
    """Text table in the Trial / Accuracy / Precision / Recall / F1 / Time layout."""
    times = [f"{'Time (min)':>12}"] + [f"{r.minutes:>12.2f}"
                                      for r in (*table.rows, table.averages())]
    return "\n".join(line + time_cell for line, time_cell
                     in zip(trial_metrics_table(table).splitlines(), times))


def run_trials(model_cfg: ModelConfig, cfg: TrainConfig,
               train_data: Tuple[np.ndarray, np.ndarray],
               val_data: Tuple[np.ndarray, np.ndarray],
               test_data: Tuple[np.ndarray, np.ndarray]) -> TrialTable:
    """Train cfg.trials fresh graphs on the same splits, varying the seed.

    Per-trial randomness covers the initialization and the batch shuffling;
    lr_jitter > 0 additionally scales the learning rate by a seeded factor
    in [1-jitter, 1+jitter].
    """
    rows: List[TrialRow] = []
    best = None
    for trial in range(1, cfg.trials + 1):
        trial_seed = cfg.seed + trial - 1
        graph = build_model(replace(model_cfg, seed=trial_seed))
        lr = cfg.learning_rate
        if cfg.lr_jitter > 0:
            jrng = np.random.default_rng(trial_seed)
            lr *= 1.0 + cfg.lr_jitter * jrng.uniform(-1.0, 1.0)
        trial_cfg = replace(cfg, seed=trial_seed, learning_rate=lr)
        result = train(graph, train_data, val_data, trial_cfg)
        report = evaluate(graph, *test_data)
        rows.append(TrialRow(
            trial=trial,
            accuracy=report.accuracy,
            precision=report.weighted_precision,
            recall=report.weighted_recall,
            f1=report.weighted_f1,
            minutes=result.wall_seconds / 60.0,
        ))
        if best is None or report.accuracy > best[2].accuracy:
            best = graph, result, report
    return TrialTable(rows, *best)


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


def _scaler_state(path, doc, n_features: int) -> Optional[ScalerState]:
    if doc is None:
        return None
    # The bound also rejects an int too large for a float, on which
    # math.isfinite would raise OverflowError.
    if not (isinstance(doc, dict) and all(
            isinstance(doc.get(key), list) and len(doc[key]) == n_features
            and all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                    for v in doc[key])
            for key in ("min", "max"))):
        raise CheckpointError(
            f"{path}: scaler needs 'min' and 'max' lists of {n_features} finite numbers")
    for j, (lo, hi) in enumerate(zip(doc["min"], doc["max"])):
        if lo > hi:
            raise CheckpointError(f"{path}: scaler min exceeds max for feature {j}")
    state = ScalerState.from_dict(doc)
    j = state.overflowing_feature()
    if j is not None:
        raise CheckpointError(f"{path}: scaler range of feature {j} overflows")
    return state


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
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: unreadable metadata: {exc}") from exc
    offset += meta_len
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    version = meta.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    model_config = meta.get("model_config")
    if not isinstance(model_config, dict):
        raise CheckpointError(f"{path}: model_config is not a JSON object")
    try:
        cfg = ModelConfig.from_dict(model_config)
        shapes = state_shapes(cfg)
    except KeyError as exc:
        raise CheckpointError(f"{path}: model_config lacks key {exc.args[0]!r}") from None
    except BuildError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    # The directory must be the one save_checkpoint writes for this config.
    # It is checked before the model is allocated, so a config that asks for
    # huge layers fails here rather than in build_model.
    directory = [{"name": name, "shape": list(shape)} for name, shape in shapes.items()]
    listed = meta.get("tensors")
    if listed != directory:
        if not isinstance(listed, list):
            raise CheckpointError(f"{path}: 'tensors' is not a list")
        i = next((i for i, (a, b) in enumerate(zip(listed, directory)) if a != b),
                 min(len(listed), len(directory)))
        holds = repr(listed[i]) if i < len(listed) else "nothing"
        expects = repr(directory[i]) if i < len(directory) else "nothing"
        raise CheckpointError(
            f"{path}: tensor entry {i} holds {holds}, model expects {expects}")
    payload = len(data) - offset
    expected = sum(math.prod(shape) * 8 for shape in shapes.values())
    if payload != expected:
        raise CheckpointError(f"{path}: payload is {payload} bytes, model expects {expected}")
    graph = build_model(cfg)
    values = np.frombuffer(data, dtype="<f8", offset=offset)
    for name, arr in graph.state_arrays().items():
        saved = values[:arr.size].reshape(arr.shape)
        if not np.isfinite(saved).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds NaN or inf")
        if name.endswith("/running_var") and (saved < 0).any():
            raise CheckpointError(f"{path}: tensor {name!r} holds a negative variance")
        arr[...] = saved
        values = values[arr.size:]
    scaler = _scaler_state(path, meta.get("scaler"), cfg.n_features)
    class_names = meta.get("class_names")
    if class_names is not None and not (
            isinstance(class_names, list) and len(class_names) == cfg.n_classes
            and all(isinstance(c, str) for c in class_names)):
        raise CheckpointError(
            f"{path}: class_names must be a list of {cfg.n_classes} strings")
    for i, name in enumerate(class_names or ()):
        if name in class_names[:i]:
            raise CheckpointError(f"{path}: class_names repeats {name!r}")
    return graph, scaler, class_names
