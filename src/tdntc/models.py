"""The six classifier variants and their exact trainable-parameter audit.

Three architectures, each in a time-distributed (td) and a vanilla (van)
flavor:

  m1: conv2d -> maxpool -> batchnorm -> (td: per-row sequence + shared dense
      per step | van: flatten + plain dense) -> decision layer
  m2: the raw feature vector as a sequence of N scalar steps -> LSTM ->
      (td: shared dense per step over all states | van: last state + plain
      dense) -> decision layer
  m3: conv2d -> maxpool -> batchnorm -> pooled positions as LSTM steps with
      the channel width as step features -> (td / van as in m2) -> decision

The decision layer is a dense layer over the class count whose softmax is
applied only by `predict` and the fused training loss.  Vanilla and
time-distributed twins share every stage except the ones named above, so
their parameter tables differ only where the architecture differs.

Every stage is a `layers.Layer`; its name and "Calculation" string mirror
the audit table the CLI prints (`tdntc audit-params`): Network /
Calculation / Trainable parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .datapipe import choose_factor_pair
from .layers import (
    BatchNormLayer,
    Conv2DLayer,
    DenseLayer,
    Layer,
    LSTMLayer,
    MaxPool2x2,
    TimeDistributed,
    softmax,
)
from .tensor import ShapeError

VARIANTS = ("m1-td", "m1-van", "m2-td", "m2-van", "m3-td", "m3-van")


class BuildError(ValueError):
    """Raised when a model cannot be assembled; names the failing stage."""


@dataclass
class ModelConfig:
    """Architecture settings for one classifier variant."""

    variant: str
    n_features: int
    n_classes: int
    units: int = 128
    kernel: Tuple[int, int] = (3, 3)
    td_units: int = 128
    factor_pair: Optional[Tuple[int, int]] = None
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise BuildError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        if self.n_classes < 2:
            raise BuildError(f"need >= 2 classes, got {self.n_classes}")
        if self.n_features < 1:
            raise BuildError(f"need >= 1 features, got {self.n_features}")
        self.kernel = tuple(int(k) for k in self.kernel)
        if self.factor_pair is not None:
            self.factor_pair = tuple(int(v) for v in self.factor_pair)

    @property
    def model_number(self) -> int:
        return int(self.variant[1])

    @property
    def frame_input(self) -> bool:
        return self.model_number in (1, 3)

    def frame_dims(self) -> Tuple[int, int]:
        if self.factor_pair is not None:
            rows, cols = self.factor_pair
            if rows * cols != self.n_features:
                raise BuildError(
                    f"factor pair {rows}x{cols} does not cover {self.n_features} features"
                )
            return rows, cols
        return choose_factor_pair(self.n_features)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "units": self.units,
            "kernel": list(self.kernel),
            "td_units": self.td_units,
            "factor_pair": list(self.factor_pair) if self.factor_pair else None,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(
            variant=d["variant"],
            n_features=int(d["n_features"]),
            n_classes=int(d["n_classes"]),
            units=int(d["units"]),
            kernel=tuple(d["kernel"]),
            td_units=int(d["td_units"]),
            factor_pair=tuple(d["factor_pair"]) if d.get("factor_pair") else None,
            seed=int(d["seed"]),
        )


# ---------------------------------------------------------------------------
# stages


class SequenceFold(Layer):
    """Reinterpret the (batch, units, rows, cols) map as a step sequence.

    mode "positions": every pooled spatial position is one step carrying the
    channel width as features (the conv->LSTM pipeline reshape).
    mode "rows": every pooled row is one step carrying cols*units features
    (the per-row sequence the conv->time-distributed pipeline uses).
    """

    name = "Reshape"

    def __init__(self, mode: str):
        if mode not in ("positions", "rows"):
            raise ValueError(f"unknown fold mode {mode!r}")
        self.mode = mode
        self._in_shape = None

    def forward(self, x, train=False):
        b, u, h, w = x.shape
        self._in_shape = x.shape
        spatial_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
        if self.mode == "positions":
            return spatial_last.reshape(b, h * w, u)
        return spatial_last.reshape(b, h, w * u)

    def backward(self, dout):
        b, u, h, w = self._in_shape
        return np.ascontiguousarray(
            dout.reshape(b, h, w, u).transpose(0, 3, 1, 2)
        )


class Flatten(Layer):
    """Collapse every axis after the batch axis into one feature axis."""

    name = "Flatten"

    def __init__(self):
        self._in_shape = None

    def forward(self, x, train=False):
        self._in_shape = x.shape
        if x.ndim == 2:
            return x
        return np.ascontiguousarray(x).reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._in_shape)


class DecisionStage:
    """The last stage: holds the FFNN_1 dense layer as `layer`.

    ModelGraph calls `layer.forward_logits` and `layer.backward` itself, so
    the stage has no pass of its own, only the audit and state view.  The
    benchmark's tracer (perfbench) times the decision layer by wrapping
    `graph.stages[-1].layer`, so the graph must keep reaching it that way.
    """

    def __init__(self, layer: DenseLayer):
        self.layer = layer
        self.name = layer.name

    def params(self) -> Dict[str, np.ndarray]:
        return self.layer.params()

    def grads(self) -> Dict[str, np.ndarray]:
        return self.layer.grads()

    def state(self) -> Dict[str, np.ndarray]:
        return self.layer.state()

    def param_count(self) -> int:
        return self.layer.param_count()

    def calc_string(self) -> str:
        return self.layer.calc_string()


# ---------------------------------------------------------------------------
# graph


@dataclass
class StageCount:
    """One audit-table row: stage name, formula text, parameter count."""

    name: str
    calculation: str
    count: int


class ModelGraph:
    """An ordered stage pipeline for one classifier variant.

    The final stage holds the decision layer; `forward_logits` returns its
    logits so training can use the fused cross-entropy gradient, while
    `predict` returns the softmax probabilities and argmax classes.
    """

    def __init__(self, config: ModelConfig, layers: List[Layer], decision: DenseLayer,
                 frame_dims: Optional[Tuple[int, int]]):
        self.config = config
        self.stages = [*layers, DecisionStage(decision)]
        self.frame_dims = frame_dims
        self._holistic = None

    # -- shape handling

    def _sample_rank(self) -> int:
        return 2 if self.config.frame_input else 1

    def _check_batch(self, x: np.ndarray) -> np.ndarray:
        cfg = self.config
        if cfg.frame_input:
            rows, cols = self.frame_dims
            if x.ndim != 3 or x.shape[1:] != (rows, cols):
                raise ShapeError(
                    f"{cfg.variant} expects frames (batch, {rows}, {cols}), got {x.shape}"
                )
            return x
        if x.ndim != 2 or x.shape[1] != cfg.n_features:
            raise ShapeError(
                f"{cfg.variant} expects vectors (batch, {cfg.n_features}), got {x.shape}"
            )
        # One scalar feature per sequence step for the recurrent pipeline.
        return x.reshape(x.shape[0], cfg.n_features, 1)

    # -- passes

    def forward_logits(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        out = self._check_batch(np.asarray(x, dtype=np.float64))
        for stage in self.stages[:-1]:
            out = stage.forward(out, train)
        self._holistic = out
        return self.stages[-1].layer.forward_logits(out)

    def backward(self, dlogits: np.ndarray) -> None:
        dout = self.stages[-1].layer.backward(dlogits)
        for stage in reversed(self.stages[:-1]):
            dout = stage.backward(dout)

    def predict(self, x: np.ndarray):
        """Probabilities and argmax class for one sample or a batch.

        Ties break toward the lowest class index.  Inference mode: batch
        normalization uses its running statistics.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == self._sample_rank()
        batch = x[None] if single else x
        probs = softmax(self.forward_logits(batch, train=False), axis=1)
        classes = probs.argmax(axis=1)
        if single:
            return probs[0], int(classes[0])
        return probs, classes

    def extract_holistic_features(self, x: np.ndarray) -> np.ndarray:
        """Activations entering the decision layer (the learned feature vector)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == self._sample_rank()
        batch = x[None] if single else x
        self.forward_logits(batch, train=False)
        feats = self._holistic
        return feats[0] if single else feats

    # -- parameter plumbing

    def params(self) -> Dict[str, np.ndarray]:
        out = {}
        for stage in self.stages:
            for pname, arr in stage.params().items():
                out[f"{stage.name}/{pname}"] = arr
        return out

    def grads(self) -> Dict[str, np.ndarray]:
        out = {}
        for stage in self.stages:
            for pname, arr in stage.grads().items():
                out[f"{stage.name}/{pname}"] = arr
        return out

    def state_arrays(self) -> Dict[str, np.ndarray]:
        out = {}
        for stage in self.stages:
            for pname, arr in stage.state().items():
                out[f"{stage.name}/{pname}"] = arr
        return out

    def get_state(self) -> Dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.state_arrays().items()}

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        live = self.state_arrays()
        if set(state) != set(live):
            raise ShapeError("state tensor names do not match this graph")
        for name, arr in state.items():
            if live[name].shape != arr.shape:
                raise ShapeError(
                    f"state tensor {name} has shape {arr.shape}, expected {live[name].shape}"
                )
            live[name][...] = arr


# ---------------------------------------------------------------------------
# assembly


def _conv_front(cfg: ModelConfig, rng: np.random.Generator
                ) -> Tuple[List[Layer], int, int]:
    """conv -> pool -> batchnorm prefix; returns the layers and the pooled grid."""
    rows, cols = cfg.frame_dims()
    conv = Conv2DLayer(cfg.units, kernel=cfg.kernel, rng=rng)
    try:
        out_r, out_c = conv.output_dims(rows, cols)
    except ValueError as exc:
        raise BuildError(f"CNN_2D: {exc}") from exc
    if out_r % 2 or out_c % 2:
        raise BuildError(
            f"MP_2D: conv output {out_r}x{out_c} is not 2x2-poolable for frame "
            f"{rows}x{cols} and kernel {cfg.kernel[0]}x{cfg.kernel[1]}"
        )
    return [conv, MaxPool2x2(), BatchNormLayer(cfg.units)], out_r // 2, out_c // 2


def build_model(cfg: ModelConfig) -> ModelGraph:
    """Assemble the layer pipeline for `cfg`, seeded and geometry-checked."""
    rng = np.random.default_rng(cfg.seed)
    u, td_u, classes = cfg.units, cfg.td_units, cfg.n_classes
    stages: List[Layer] = []
    frame_dims = None

    if cfg.model_number in (1, 3):
        frame_dims = cfg.frame_dims()
        front, pooled_r, pooled_c = _conv_front(cfg, rng)
        stages.extend(front)

    def dense(in_size: int) -> DenseLayer:
        return DenseLayer(in_size, td_u, activation="relu", rng=rng)

    if cfg.variant == "m1-td":
        stages += [SequenceFold("rows"), TimeDistributed(dense(pooled_c * u)),
                   Flatten()]
        width_desc = f"{pooled_r}x{td_u}"
        decision_in = pooled_r * td_u
    elif cfg.variant == "m1-van":
        stages += [Flatten(), dense(u * pooled_r * pooled_c)]
        width_desc, decision_in = str(td_u), td_u
    elif cfg.variant == "m2-td":
        stages += [LSTMLayer(1, u, output_activation="relu", rng=rng),
                   TimeDistributed(dense(u)), Flatten()]
        width_desc = f"{cfg.n_features}x{td_u}"
        decision_in = cfg.n_features * td_u
    elif cfg.variant == "m2-van":
        stages += [LSTMLayer(1, u, output_activation="relu", rng=rng,
                             return_sequences=False),
                   dense(u)]
        width_desc, decision_in = str(td_u), td_u
    elif cfg.variant == "m3-td":
        steps = pooled_r * pooled_c
        stages += [SequenceFold("positions"), LSTMLayer(u, u, rng=rng),
                   TimeDistributed(dense(u)), Flatten()]
        width_desc = f"{steps}x{td_u}"
        decision_in = steps * td_u
    else:  # m3-van
        stages += [SequenceFold("positions"),
                   LSTMLayer(u, u, rng=rng, return_sequences=False),
                   dense(u), Flatten()]
        width_desc, decision_in = str(td_u), td_u

    decision = DenseLayer(decision_in, classes, rng=rng, name="FFNN_1",
                          width_desc=width_desc)
    return ModelGraph(cfg, stages, decision, frame_dims)


# ---------------------------------------------------------------------------
# audit


def count_parameters(graph: ModelGraph) -> Tuple[List[StageCount], int]:
    """Per-stage trainable-parameter table and its total.

    Counts come from the closed-form stage formulas (conv (PxQxS+1)xU,
    batchnorm 2U, LSTM 4[(S+1)U+U^2], dense SxU+U), not from enumerating
    the allocated arrays, so tests can cross-check one against the other.
    """
    rows = [StageCount(s.name, s.calc_string(), s.param_count()) for s in graph.stages]
    return rows, sum(r.count for r in rows)


def format_stage_table(graph: ModelGraph) -> str:
    rows, total = count_parameters(graph)
    name_w = max(len("Network"), max(len(r.name) for r in rows)) + 2
    calc_w = max(len("Calculation"), max(len(r.calculation) for r in rows)) + 2
    lines = [f"{'Network':<{name_w}}{'Calculation':<{calc_w}}Trainable parameters"]
    for r in rows:
        lines.append(f"{r.name:<{name_w}}{r.calculation:<{calc_w}}{r.count}")
    lines.append(f"{'Total':<{name_w}}{'':<{calc_w}}{total:,}")
    return "\n".join(lines)

