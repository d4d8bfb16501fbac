"""The six classifier variants and their exact trainable-parameter audit.

Three architectures, each in a time-distributed (td) and a vanilla (van)
flavor:

  m1: conv2d -> maxpool -> batchnorm -> (td: per-row sequence + shared dense
      per step | van: units-first flatten + plain dense) -> decision layer
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
table: `_plan` lists each variant's stages in order, with every tensor's
shape and the Calculation text beside the maker of the layer, so
`build_model`, `state_shapes` and `count_parameters` read one list and the
audit never reads an allocated array.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import VARIANTS, Error
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

INFER_BATCH = 256  # rows per decision-layer pass in inference
INFER_BLOCK = 32  # rows per feature-stage pass in inference: the default --batch


class BuildError(Error, ValueError):
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


class Reshape(Layer):
    """Reshape each sample to `tail`: a fold between two stages' layouts.

    It reads the (batch, rows, cols, units) conv map as pooled rows (m1-td)
    or pooled positions (m3), or joins a sequence's steps after the dense
    stage.  `units_first` reads each sample in (units, rows, cols) order,
    the order m1-van's FFNN_0 weights and saved checkpoints were trained on.
    """

    def __init__(self, name: str, tail: Tuple[int, ...], units_first: bool = False):
        self.name, self.tail, self.units_first = name, tuple(tail), units_first

    def forward(self, x, train=False):
        self._keep(train, x.shape)
        if self.units_first:
            x = x.transpose(0, 3, 1, 2)
        return x.reshape(x.shape[0], *self.tail)

    def backward(self, dout):
        (shape,) = self._kept()
        if self.units_first:
            b, h, w, u = shape
            return dout.reshape(b, u, h, w).transpose(0, 2, 3, 1)
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

    An inference pass takes any number of rows, in chunks of `INFER_BATCH`.
    The feature stages (all but the decision layer) fill one chunk-sized
    buffer in blocks of `INFER_BLOCK` rows, then the decision layer runs
    once over the chunk, so no pass holds more than a chunk's features or
    a block's conv map.  Every row keeps the bits of one pass over its
    chunk: the feature stages' GEMMs give the same rows for any block of
    two or more, while the n_classes-wide decision GEMM does not.  A train
    pass runs whole, since batchnorm normalizes by the batch's statistics.
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

    def _features(self, x: np.ndarray, train: bool) -> np.ndarray:
        """What every stage before the decision layer makes of `x`."""
        for stage in self.stages[:-1]:
            x = stage.forward(x, train)
        return x

    def forward_logits(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        x = self._check_batch(np.asarray(x, dtype=np.float64))
        # Drop the last pass's kept state first, so no stage allocates its
        # new state while the stages after it still hold the old one.
        for stage in self.stages:
            stage._keep(False)
        decision = self.stages[-1]
        if train:
            return decision.forward_logits(self._features(x, True), True)
        # Inference: each chunk's features fill one buffer, block by block.
        # A 1-row tail joins the block before it: numpy multiplies a single
        # row by GEMV, whose bits differ from GEMM's.
        n = x.shape[0]
        features = np.empty((min(n, INFER_BATCH), decision.in_size))
        logits = np.empty((n, decision.out_size))
        for lo in range(0, n, INFER_BATCH):
            m, a = min(n - lo, INFER_BATCH), 0
            while a < m:
                b = m if m - a <= INFER_BLOCK + 1 else a + INFER_BLOCK
                features[a:b] = self._features(x[lo + a:lo + b], False)
                a = b
            logits[lo:lo + m] = decision.forward_logits(features[:m], False)
        return logits

    def backward(self, dout: np.ndarray) -> None:
        """Fill `flat_grads` from the logits' gradient, last stage first: each
        stage passes its input gradient back, and a conv first stage makes none."""
        for stage in reversed(self.stages):
            dout = stage.backward(dout)

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


class _Stage(NamedTuple):
    """A plan entry: audit name, maker (seeded rng -> layer), Calculation cell,
    and the closed-form shapes of its trainable tensors, then of its other
    checkpointed buffers, in checkpoint order."""

    name: str
    make: Callable[[np.random.Generator], Layer]
    calculation: str = "-"
    params: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    buffers: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()


def _fold(name: str, tail: Tuple[int, ...], units_first: bool = False) -> _Stage:
    return _Stage(name, lambda rng: Reshape(name, tail, units_first))


def _dense(name: str, size_in: int, size_out: int, activation: str, in_text: object) -> _Stage:
    return _Stage(name, lambda rng: DenseLayer(size_in, size_out, activation, rng=rng, name=name),
                  f"{in_text}x{size_out}+{size_out}",
                  (("weights", (size_in, size_out)), ("bias", (size_out,))))


def _plan(cfg: ModelConfig) -> List[_Stage]:
    """`cfg`'s stages in pipeline order, building no layer; BuildError if a
    frame variant's geometry does not fit.  A maker reads nothing the plan
    rebinds after it, so `build_model` can call the makers later, in order."""
    u, td_u, td = cfg.units, cfg.td_units, cfg.time_distributed
    plan: List[_Stage] = []
    if cfg.frame_input:
        (p, q), (rows, cols) = cfg.kernel, _pooled_dims(cfg)
        plan += [
            _Stage("CNN_2D", lambda rng: Conv2DLayer(u, kernel=(p, q), rng=rng),
                   f"({p}x{q}x1+1)x{u}", (("kernels", (u, p, q)), ("biases", (u,)))),
            _Stage("MP_2D", lambda rng: MaxPool2x2()),
            _Stage("BN", lambda rng: BatchNormLayer(u), f"2x{u}", (("gamma", (u,)), ("beta", (u,))),
                   (("running_mean", (u,)), ("running_var", (u,)))),
        ]
    if cfg.model_number == 1:
        # m1-td: every pooled row is one step; m1-van: each sample one units-first vector
        steps, dense_in = (rows, cols * u) if td else (1, u * rows * cols)
        plan.append(_fold("Reshape", (rows, dense_in)) if td
                    else _fold("Flatten", (dense_in,), units_first=True))
    else:
        # m2: the features as one-wide steps; m3: every pooled position as one
        # step carrying the units
        width, steps = (1, cfg.n_features) if cfg.model_number == 2 else (u, rows * cols)
        if cfg.model_number == 3:
            plan.append(_fold("Reshape", (steps, u)))
        act = "relu" if cfg.model_number == 2 else "identity"
        plan.append(_Stage(
            "LSTM", lambda rng: LSTMLayer(width, u, act, rng=rng, return_sequences=td),
            f"4x[({width}+1)x{u}+{u}^2]",
            (("w_x", (width, 4 * u)), ("w_h", (u, 4 * u)), ("bias", (4 * u,)))))
        steps, dense_in = steps if td else 1, u
    plan.append(_dense("TD(FFNN_0)" if td else "FFNN_0", dense_in, td_u, "relu", dense_in))
    if td or cfg.model_number == 3:
        plan.append(_fold("Flatten", (steps * td_u,)))
    plan.append(_dense("FFNN_1", steps * td_u, cfg.n_classes, "identity",
                       f"{steps}x{td_u}" if td else td_u))
    return plan


def build_model(cfg: ModelConfig) -> ModelGraph:
    """Assemble the layer pipeline for `cfg`, seeded and geometry-checked."""
    rng = np.random.default_rng(cfg.seed)
    return ModelGraph(cfg, [stage.make(rng) for stage in _plan(cfg)])


def state_shapes(cfg: ModelConfig) -> Dict[str, Tuple[int, ...]]:
    """Name -> shape of every tensor `build_model(cfg)` holds, building no layer.

    A checkpoint's tensor directory must list them in this order, the order
    of `ModelGraph.state_arrays`; the loader checks it before it allocates
    the model.
    """
    return {f"{stage.name}/{name}": shape for stage in _plan(cfg)
            for name, shape in stage.params + stage.buffers}


# ---------------------------------------------------------------------------
# audit


def _audit(cfg: ModelConfig) -> Tuple[List[StageCount], int]:
    """Per-stage trainable-parameter rows and their total, from the plan's closed
    forms (conv (PxQxS+1)xU, batchnorm 2U, LSTM 4[(S+1)U+U^2], dense SxU+U)."""
    rows = [StageCount(stage.name, stage.calculation,
                       sum(math.prod(shape) for _, shape in stage.params))
            for stage in _plan(cfg)]
    return rows, sum(r.count for r in rows)


def count_parameters(graph: ModelGraph) -> Tuple[List[StageCount], int]:
    """`graph`'s audit, read from its config: tests cross-check it against the graph."""
    return _audit(graph.config)


def format_stage_table(cfg: ModelConfig) -> str:
    """The `audit-params` table of `cfg`, building no model."""
    rows, total = _audit(cfg)
    name_w = max(len("Network"), max(len(r.name) for r in rows)) + 2
    calc_w = max(len("Calculation"), max(len(r.calculation) for r in rows)) + 2
    lines = [f"{'Network':<{name_w}}{'Calculation':<{calc_w}}Trainable parameters"]
    for r in rows:
        lines.append(f"{r.name:<{name_w}}{r.calculation:<{calc_w}}{r.count}")
    lines.append(f"{'Total':<{name_w}}{'':<{calc_w}}{total:,}")
    return "\n".join(lines)

