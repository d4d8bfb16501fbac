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

Every stage is a `layers.Layer` whose name is its row in the audit table
the CLI prints (`tdntc audit-params`): Network / Calculation / Trainable
parameters.  This module is the one home of the closed forms behind that
table: `state_shapes` gives every tensor's shape and `_calculations` the
Calculation text, so `count_parameters` never reads an allocated array.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from .datapipe import choose_factor_pair
from .layers import (
    BatchNormLayer,
    Conv2DLayer,
    DenseLayer,
    GeometryError,
    Layer,
    LSTMLayer,
    MaxPool2x2,
    ShapeError,
    bind_flat,
    conv2d_output_dims,
    softmax,
)

VARIANTS = ("m1-td", "m1-van", "m2-td", "m2-van", "m3-td", "m3-van")


class BuildError(ValueError):
    """Raised when a model cannot be assembled; names the failing stage."""


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _int_pair(name: str, value) -> Tuple[int, int]:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is_int(v) and v >= 1 for v in value)):
        raise BuildError(f"{name} must be two integers >= 1, got {value!r}")
    return int(value[0]), int(value[1])


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
        for name, low in (("n_features", 1), ("n_classes", 2), ("units", 1),
                          ("td_units", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise BuildError(f"{name} must be an integer >= {low}, got {value!r}")
            setattr(self, name, int(value))
        self.kernel = _int_pair("kernel", self.kernel)
        if self.factor_pair is not None:
            rows, cols = self.factor_pair = _int_pair("factor_pair", self.factor_pair)
            if rows * cols != self.n_features:
                raise BuildError(
                    f"factor pair {rows}x{cols} does not cover {self.n_features} features")
            if not self.frame_input:
                raise BuildError(f"{self.variant} reads flow vectors, not frames; give no factor pair")

    @property
    def model_number(self) -> int:
        return int(self.variant[1])

    @property
    def frame_input(self) -> bool:
        return self.model_number in (1, 3)

    @property
    def time_distributed(self) -> bool:
        return self.variant.endswith("-td")

    def frame_dims(self) -> Tuple[int, int]:
        return self.factor_pair or choose_factor_pair(self.n_features)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Rebuild a config from `to_dict` output; values are checked, not coerced.

        Every field but the optional `factor_pair` is required: a missing one
        raises KeyError naming it.
        """
        return cls(**{f.name: d.get(f.name) if f.name == "factor_pair" else d[f.name]
                      for f in fields(cls)})


# ---------------------------------------------------------------------------
# stages


class SequenceFold(Layer):
    """Reinterpret the (batch, units, rows, cols) map as a step sequence.

    mode "positions": every pooled spatial position is one step carrying the
    channel width as features (the conv->LSTM pipeline reshape).
    mode "rows": every pooled row is one step carrying cols*units features
    (the per-row sequence the conv->time-distributed pipeline uses).

    The conv front hands over channel-last memory, so the forward fold is a
    free reshape, and the backward pass returns a channel-last view.
    """

    name = "Reshape"

    def __init__(self, mode: str):
        if mode not in ("positions", "rows"):
            raise ValueError(f"unknown fold mode {mode!r}")
        self.mode = mode

    def forward(self, x, train=False):
        b, u, h, w = x.shape
        self._keep(train, *x.shape)
        spatial_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
        if self.mode == "positions":
            return spatial_last.reshape(b, h * w, u)
        return spatial_last.reshape(b, h, w * u)

    def backward(self, dout):
        b, u, h, w = self._kept()
        return dout.reshape(b, h, w, u).transpose(0, 3, 1, 2)


class Flatten(Layer):
    """Collapse every axis after the batch axis into one feature axis."""

    name = "Flatten"

    def forward(self, x, train=False):
        self._keep(train, x.shape)
        return np.ascontiguousarray(x).reshape(x.shape[0], -1)

    def backward(self, dout):
        (shape,) = self._kept()
        return dout.reshape(shape)


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

    `stages` is one list of layers, and the flat vectors, the `stage/name`
    walk and the audit all read it.  The last stage is the decision layer:
    `forward_logits` returns its logits so training can use the fused
    cross-entropy gradient, while `predict` returns the softmax
    probabilities and argmax classes.  `flat_params` and `flat_grads` hold
    every trainable tensor and its gradient in walk order, and the tensors
    are views of them, so the optimizer steps them in one pass.
    """

    def __init__(self, config: ModelConfig, stages: List[Layer]):
        self.config = config
        self.stages = stages
        self.frame_dims = config.frame_dims() if config.frame_input else None
        # perfbench's `_instrument` reads the decision layer as
        # `graph.stages[-1].layer`; this alias goes once that tracer falls
        # back to the stage itself when it has no `layer` attribute.
        stages[-1].layer = stages[-1]
        self.flat_params, self.flat_grads = bind_flat(stages)

    # -- shape handling

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
        # Drop the last pass's kept state first, so no stage allocates its
        # new state while the stages after it still hold the old one.
        for stage in self.stages:
            stage._keep(False)
        for stage in self.stages[:-1]:
            out = stage.forward(out, train)
        return self.stages[-1].forward_logits(out, train)

    def backward(self, dout: np.ndarray) -> None:
        """Fill `flat_grads` from the logits' gradient; the first stage makes no dx."""
        for stage in reversed(self.stages[1:]):
            dout = stage.backward(dout)
        self.stages[0].backward(dout, input_grad=False)

    def predict(self, x: np.ndarray):
        """Probabilities and argmax classes of a batch.

        Ties break toward the lowest class index.  Inference mode: batch
        normalization uses its running statistics.
        """
        probs = softmax(self.forward_logits(x, train=False), axis=1)
        return probs, probs.argmax(axis=1)

    # -- parameter plumbing

    def _walk(self, *groups: str) -> Dict[str, np.ndarray]:
        """`stage/name` -> array of each stage's tensors in `groups`, in stage order."""
        return {f"{stage.name}/{name}": getattr(stage, name) for stage in self.stages
                for group in groups for name in getattr(stage, group)}

    def params(self) -> Dict[str, np.ndarray]:
        return self._walk("PARAMS")

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays a checkpoint persists: each stage's parameters, then its buffers."""
        return self._walk("PARAMS", "BUFFERS")

    def get_state(self) -> Dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.state_arrays().items()}

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        """Copy a `get_state` snapshot of this graph back into its arrays."""
        for name, arr in self.state_arrays().items():
            arr[...] = state[name]


# ---------------------------------------------------------------------------
# assembly


def _pooled_dims(cfg: ModelConfig) -> Tuple[int, int]:
    """The grid after conv and 2x2 pooling; BuildError if the geometry does not fit."""
    rows, cols = cfg.frame_dims()
    try:
        out_r, out_c = conv2d_output_dims(rows, cols, *cfg.kernel)
    except GeometryError as exc:
        raise BuildError(f"CNN_2D: {exc}") from exc
    if out_r % 2 or out_c % 2:
        raise BuildError(
            f"MP_2D: conv output {out_r}x{out_c} is not 2x2-poolable for frame "
            f"{rows}x{cols} and kernel {cfg.kernel[0]}x{cfg.kernel[1]}"
        )
    return out_r // 2, out_c // 2


def _widths(cfg: ModelConfig) -> Tuple[int, int]:
    """(FFNN_0 input width, steps the decision layer reads: 1 for a vanilla variant).

    BuildError if a frame variant's geometry does not fit.
    """
    u, td = cfg.units, cfg.time_distributed
    if cfg.model_number == 2:
        return u, cfg.n_features if td else 1
    pooled_r, pooled_c = _pooled_dims(cfg)
    if cfg.model_number == 1:
        return (pooled_c * u, pooled_r) if td else (u * pooled_r * pooled_c, 1)
    return u, pooled_r * pooled_c if td else 1


def build_model(cfg: ModelConfig) -> ModelGraph:
    """Assemble the layer pipeline for `cfg`, seeded and geometry-checked."""
    rng = np.random.default_rng(cfg.seed)
    u, td_u, classes = cfg.units, cfg.td_units, cfg.n_classes
    dense_in, steps = _widths(cfg)
    stages: List[Layer] = []
    if cfg.frame_input:
        stages += [Conv2DLayer(u, kernel=cfg.kernel, rng=rng), MaxPool2x2(),
                   BatchNormLayer(u)]

    def dense() -> DenseLayer:
        name = "TD(FFNN_0)" if cfg.time_distributed else "FFNN_0"
        return DenseLayer(dense_in, td_u, activation="relu", rng=rng, name=name)

    if cfg.variant == "m1-td":
        stages += [SequenceFold("rows"), dense(), Flatten()]
    elif cfg.variant == "m1-van":
        stages += [Flatten(), dense()]
    elif cfg.variant == "m2-td":
        stages += [LSTMLayer(1, u, output_activation="relu", rng=rng), dense(), Flatten()]
    elif cfg.variant == "m2-van":
        stages += [LSTMLayer(1, u, output_activation="relu", rng=rng,
                             return_sequences=False),
                   dense()]
    elif cfg.variant == "m3-td":
        stages += [SequenceFold("positions"), LSTMLayer(u, u, rng=rng), dense(), Flatten()]
    else:  # m3-van
        stages += [SequenceFold("positions"),
                   LSTMLayer(u, u, rng=rng, return_sequences=False),
                   dense(), Flatten()]

    stages.append(DenseLayer(steps * td_u, classes, rng=rng, name="FFNN_1"))
    return ModelGraph(cfg, stages)


def state_shapes(cfg: ModelConfig) -> Dict[str, Tuple[int, ...]]:
    """Name -> shape of every tensor `build_model(cfg)` holds, allocating none.

    These are the closed forms behind the audit (conv UxPxQ plus U biases,
    batchnorm 2U parameters plus 2U running statistics, LSTM Sx4U + Ux4U +
    4U, dense SxU + U): `count_parameters` sums them.  A checkpoint's
    tensor directory must list them in this order, the order of
    `ModelGraph.state_arrays`; the loader checks it before it allocates the
    model.
    """
    u, td_u = cfg.units, cfg.td_units
    dense_in, steps = _widths(cfg)
    shapes: Dict[str, Tuple[int, ...]] = {}
    if cfg.frame_input:
        shapes["CNN_2D/kernels"] = (u, *cfg.kernel)
        shapes["CNN_2D/biases"] = (u,)
        for name in ("gamma", "beta", "running_mean", "running_var"):
            shapes[f"BN/{name}"] = (u,)
    if cfg.model_number != 1:
        lstm_in = 1 if cfg.model_number == 2 else u
        shapes.update({"LSTM/w_x": (lstm_in, 4 * u), "LSTM/w_h": (u, 4 * u),
                       "LSTM/bias": (4 * u,)})
    dense = "TD(FFNN_0)" if cfg.time_distributed else "FFNN_0"
    shapes.update({f"{dense}/weights": (dense_in, td_u), f"{dense}/bias": (td_u,),
                   "FFNN_1/weights": (steps * td_u, cfg.n_classes),
                   "FFNN_1/bias": (cfg.n_classes,)})
    return shapes


# ---------------------------------------------------------------------------
# audit


def _calculations(cfg: ModelConfig) -> Dict[str, str]:
    """Stage name -> Calculation cell of every stage that holds parameters."""
    u, td_u, classes = cfg.units, cfg.td_units, cfg.n_classes
    dense_in, steps = _widths(cfg)
    lstm_in = 1 if cfg.model_number == 2 else u
    dense = f"{dense_in}x{td_u}+{td_u}"
    decision_in = f"{steps}x{td_u}" if cfg.time_distributed else str(td_u)
    return {
        "CNN_2D": f"({cfg.kernel[0]}x{cfg.kernel[1]}x1+1)x{u}",
        "BN": f"2x{u}",
        "LSTM": f"4x[({lstm_in}+1)x{u}+{u}^2]",
        "FFNN_0": dense,
        "TD(FFNN_0)": dense,
        "FFNN_1": f"{decision_in}x{classes}+{classes}",
    }


def count_parameters(graph: ModelGraph) -> Tuple[List[StageCount], int]:
    """Per-stage trainable-parameter table and its total.

    Each stage's count sums the shapes `state_shapes` gives its trainable
    tensors (conv (PxQxS+1)xU, batchnorm 2U, LSTM 4[(S+1)U+U^2], dense
    SxU+U); only the tensor names come from the stage itself.  No
    allocated array is read, so tests can cross-check the audit against the
    built graph.
    """
    shapes = state_shapes(graph.config)
    calcs = _calculations(graph.config)
    rows = [StageCount(stage.name, calcs.get(stage.name, "-"),
                       sum(math.prod(shapes[f"{stage.name}/{name}"]) for name in stage.PARAMS))
            for stage in graph.stages]
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

