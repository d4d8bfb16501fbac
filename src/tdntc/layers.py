"""Layer zoo for the traffic classifiers: forward and backward rules.

Every layer implements the `Layer` interface: an audit `name`,
`forward(x, train=False)`, `backward(dout)`, `params()` / `grads()` /
`state()` as name->array dicts, `param_count()` and the audit table's
`calc_string()`.  Layers run batch-first on float64 numpy arrays and keep
whatever the backward pass needs from the most recent forward call, so the
model graph, the optimizer, the parameter audit and the checkpoint writer
address all of them the same way.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .tensor import ShapeError


class GeometryError(ValueError):
    """Raised when convolution/pooling geometry does not divide evenly."""


class StatisticsError(ValueError):
    """Raised when batch statistics are requested from a degenerate batch."""


class Layer:
    """One pipeline stage; the defaults suit a parameter-free stage."""

    name = ""

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> Dict[str, np.ndarray]:
        return {}

    def grads(self) -> Dict[str, np.ndarray]:
        return {}

    def state(self) -> Dict[str, np.ndarray]:
        """Arrays a checkpoint must persist (parameters plus any running stats)."""
        return self.params()

    def param_count(self) -> int:
        return 0

    def calc_string(self) -> str:
        return "-"


# ---------------------------------------------------------------------------
# activations


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def sigmoid(z: np.ndarray) -> np.ndarray:
    # Split by sign to avoid overflow in exp for large |z|.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=axis, keepdims=True)


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


# ---------------------------------------------------------------------------
# dense / time-distributed


class DenseLayer(Layer):
    """Fully connected layer y = act(x W + b), weights shaped (in, out).

    `name` is the audit name (FFNN_0 hidden, FFNN_1 decision) and
    `width_desc` the input-width text of its Calculation cell.
    """

    ACTIVATIONS = ("identity", "relu")

    def __init__(self, in_size: int, out_size: int, activation: str = "identity",
                 rng: np.random.Generator | None = None, name: str = "FFNN_0",
                 width_desc: str | None = None):
        if activation not in self.ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_size = int(in_size)
        self.out_size = int(out_size)
        self.activation = activation
        self.name = name
        self.width_desc = width_desc or str(self.in_size)
        if rng is None:
            self.weights = np.zeros((self.in_size, self.out_size))
        else:
            self.weights = glorot_uniform(rng, (self.in_size, self.out_size),
                                          self.in_size, self.out_size)
        self.bias = np.zeros(self.out_size)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._x = None
        self._z = None

    def param_count(self) -> int:
        return self.in_size * self.out_size + self.out_size

    def calc_string(self) -> str:
        return f"{self.width_desc}x{self.out_size}+{self.out_size}"

    def params(self) -> Dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def grads(self) -> Dict[str, np.ndarray]:
        return {"weights": self.grad_weights, "bias": self.grad_bias}

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.in_size:
            raise ShapeError(
                f"dense expects (batch, {self.in_size}), got {x.shape}"
            )

    def forward_logits(self, x: np.ndarray) -> np.ndarray:
        """x W + b; the decision layer pairs it with the fused softmax loss."""
        self._check_input(x)
        self._x = x
        self._z = x @ self.weights + self.bias
        return self._z

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        z = self.forward_logits(x)
        return relu(z) if self.activation == "relu" else z

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward before forward")
        dz = dout * (self._z > 0) if self.activation == "relu" else dout
        self.grad_weights = self._x.T @ dz
        self.grad_bias = dz.sum(axis=0)
        return dz @ self.weights.T


class TimeDistributed(Layer):
    """Shared dense layer applied at every step of the leading sequence axis.

    Parameter gradients accumulate over all steps, which is exactly the
    outer per-step summation of the architecture: one inner layer, one set
    of weights, reused across the sequence.
    """

    name = "TD(FFNN_0)"

    def __init__(self, inner: DenseLayer):
        self.inner = inner

    def param_count(self) -> int:
        return self.inner.param_count()

    def params(self) -> Dict[str, np.ndarray]:
        return self.inner.params()

    def grads(self) -> Dict[str, np.ndarray]:
        return self.inner.grads()

    def calc_string(self) -> str:
        inner = self.inner
        return f"{inner.in_size}x{inner.out_size}+{inner.out_size}"

    def forward(self, seq: np.ndarray, train: bool = False) -> np.ndarray:
        if seq.ndim != 3:
            raise ShapeError(f"time_distributed expects (batch, steps, feat), got {seq.shape}")
        b, t, f = seq.shape
        out = self.inner.forward(seq.reshape(b * t, f))
        return out.reshape(b, t, self.inner.out_size)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        b, t, u = dout.shape
        dx = self.inner.backward(dout.reshape(b * t, u))
        return dx.reshape(b, t, self.inner.in_size)


# ---------------------------------------------------------------------------
# convolution


def conv2d_output_dims(rows: int, cols: int, kernel_rows: int, kernel_cols: int,
                       padding: int = 0, stride_x: int = 1, stride_y: int = 1
                       ) -> Tuple[int, int]:
    """Output geometry of a 2-D convolution; rejects non-integral strides.

    out_rows = (rows - kernel_rows + 2*padding) / stride_x + 1 and likewise
    for columns.  A quotient that does not divide evenly is undefined and
    raises GeometryError rather than silently truncating.
    """
    if min(rows, cols, kernel_rows, kernel_cols, stride_x, stride_y) < 1 or padding < 0:
        raise GeometryError(
            "conv geometry requires positive extents/strides and padding >= 0"
        )
    num_r = rows - kernel_rows + 2 * padding
    num_c = cols - kernel_cols + 2 * padding
    if num_r < 0 or num_c < 0:
        raise GeometryError(
            f"kernel {kernel_rows}x{kernel_cols} exceeds padded input {rows}x{cols}+2*{padding}"
        )
    if num_r % stride_x or num_c % stride_y:
        raise GeometryError(
            f"stride ({stride_x},{stride_y}) does not divide ({num_r},{num_c}) evenly"
        )
    return num_r // stride_x + 1, num_c // stride_y + 1


class Conv2DLayer(Layer):
    """2-D cross-correlation over a single-channel input.

    kernels: (units, kernel_rows, kernel_cols); biases: (units,).
    Input (batch, rows, cols) -> output (batch, units, out_rows, out_cols).
    """

    name = "CNN_2D"

    def __init__(self, units: int, kernel: Tuple[int, int] = (3, 3),
                 stride: Tuple[int, int] = (1, 1), padding: int = 0,
                 rng: np.random.Generator | None = None):
        self.units = int(units)
        self.kernel_rows, self.kernel_cols = (int(k) for k in kernel)
        self.stride_x, self.stride_y = (int(s) for s in stride)
        self.padding = int(padding)
        shape = (self.units, self.kernel_rows, self.kernel_cols)
        if rng is None:
            self.kernels = np.zeros(shape)
        else:
            fan = self.kernel_rows * self.kernel_cols
            self.kernels = glorot_uniform(rng, shape, fan, fan * self.units)
        self.biases = np.zeros(self.units)
        self.grad_kernels = np.zeros_like(self.kernels)
        self.grad_biases = np.zeros_like(self.biases)
        self._x_padded = None
        self._in_shape = None
        self._out_dims = None

    def param_count(self) -> int:
        return (self.kernel_rows * self.kernel_cols * 1 + 1) * self.units

    def params(self) -> Dict[str, np.ndarray]:
        return {"kernels": self.kernels, "biases": self.biases}

    def grads(self) -> Dict[str, np.ndarray]:
        return {"kernels": self.grad_kernels, "biases": self.grad_biases}

    def calc_string(self) -> str:
        return f"({self.kernel_rows}x{self.kernel_cols}x1+1)x{self.units}"

    def output_dims(self, rows: int, cols: int) -> Tuple[int, int]:
        return conv2d_output_dims(rows, cols, self.kernel_rows, self.kernel_cols,
                                  self.padding, self.stride_x, self.stride_y)

    def _window(self, arr: np.ndarray, p: int, q: int, out_r: int, out_c: int) -> np.ndarray:
        return arr[:, p: p + self.stride_x * (out_r - 1) + 1: self.stride_x,
                   q: q + self.stride_y * (out_c - 1) + 1: self.stride_y]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 3:
            raise ShapeError(f"conv2d expects (batch, rows, cols), got {x.shape}")
        _, rows, cols = x.shape
        out_r, out_c = self.output_dims(rows, cols)
        g = self.padding
        xp = np.pad(x, ((0, 0), (g, g), (g, g))) if g else x
        y = np.zeros((x.shape[0], self.units, out_r, out_c))
        for p in range(self.kernel_rows):
            for q in range(self.kernel_cols):
                win = self._window(xp, p, q, out_r, out_c)
                y += self.kernels[:, p, q][None, :, None, None] * win[:, None, :, :]
        y += self.biases[None, :, None, None]
        self._x_padded = xp
        self._in_shape = x.shape
        self._out_dims = (out_r, out_c)
        return y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x_padded is None:
            raise RuntimeError("backward before forward")
        out_r, out_c = self._out_dims
        xp = self._x_padded
        self.grad_biases = dout.sum(axis=(0, 2, 3))
        self.grad_kernels = np.zeros_like(self.kernels)
        dxp = np.zeros_like(xp)
        for p in range(self.kernel_rows):
            for q in range(self.kernel_cols):
                win = self._window(xp, p, q, out_r, out_c)
                self.grad_kernels[:, p, q] = np.einsum("buij,bij->u", dout, win)
                dwin = self._window(dxp, p, q, out_r, out_c)
                dwin += np.einsum("buij,u->bij", dout, self.kernels[:, p, q])
        g = self.padding
        if g:
            _, rows, cols = self._in_shape
            return dxp[:, g: g + rows, g: g + cols]
        return dxp


class MaxPool2x2(Layer):
    """2x2 max pooling with stride 2; requires even spatial extents.

    The backward pass routes each output gradient to the first maximal cell
    of its window in row-major order, so tie-breaking is deterministic.
    """

    name = "MP_2D"

    def __init__(self):
        self._argmax = None
        self._in_shape = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"maxpool expects (batch, units, rows, cols), got {x.shape}")
        b, u, h, w = x.shape
        if h % 2 or w % 2:
            raise GeometryError(f"maxpool 2x2 needs even spatial extents, got {h}x{w}")
        windows = (x.reshape(b, u, h // 2, 2, w // 2, 2)
                   .transpose(0, 1, 2, 4, 3, 5)
                   .reshape(b, u, h // 2, w // 2, 4))
        self._argmax = windows.argmax(axis=-1)
        self._in_shape = x.shape
        return np.take_along_axis(windows, self._argmax[..., None], axis=-1)[..., 0]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        b, u, h, w = self._in_shape
        buf = np.zeros((b, u, h // 2, w // 2, 4))
        np.put_along_axis(buf, self._argmax[..., None], dout[..., None], axis=-1)
        return (buf.reshape(b, u, h // 2, w // 2, 2, 2)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(b, u, h, w))


class BatchNormLayer(Layer):
    """Per-channel batch normalization (channel axis 1).

    Train mode normalizes by batch statistics taken over the batch and any
    spatial axes, then folds them into the running estimates:
    running = momentum * running + (1 - momentum) * batch.  Inference mode
    normalizes by the running estimates alone.
    """

    name = "BN"

    def __init__(self, channels: int, epsilon: float = 1e-5, momentum: float = 0.9):
        if not 0.0 < momentum < 1.0:
            raise ValueError(f"momentum must be in (0,1), got {momentum}")
        self.channels = int(channels)
        self.epsilon = float(epsilon)
        self.momentum = float(momentum)
        self.gamma = np.ones(self.channels)
        self.beta = np.zeros(self.channels)
        self.running_mean = np.zeros(self.channels)
        self.running_var = np.ones(self.channels)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)
        self._cache = None

    def param_count(self) -> int:
        return 2 * self.channels

    def params(self) -> Dict[str, np.ndarray]:
        return {"gamma": self.gamma, "beta": self.beta}

    def grads(self) -> Dict[str, np.ndarray]:
        return {"gamma": self.grad_gamma, "beta": self.grad_beta}

    def state(self) -> Dict[str, np.ndarray]:
        return {**self.params(), "running_mean": self.running_mean,
                "running_var": self.running_var}

    def calc_string(self) -> str:
        return f"2x{self.channels}"

    def _broadcast_shape(self, ndim: int):
        return (1, self.channels) + (1,) * (ndim - 2)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim < 2 or x.shape[1] != self.channels:
            raise ShapeError(
                f"batchnorm expects channel axis 1 of width {self.channels}, got {x.shape}"
            )
        axes = (0,) + tuple(range(2, x.ndim))
        bshape = self._broadcast_shape(x.ndim)
        if train:
            if x.shape[0] < 2:
                raise StatisticsError("batchnorm needs batch size >= 2 in train mode")
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        centered = x - mean.reshape(bshape)
        x_hat = centered * inv_std.reshape(bshape)
        if train:
            n = x.size // self.channels
            self._cache = (x_hat, centered, inv_std, axes, bshape, n)
        return self.gamma.reshape(bshape) * x_hat + self.beta.reshape(bshape)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward requires a train-mode forward")
        x_hat, centered, inv_std, axes, bshape, n = self._cache
        self.grad_gamma = (dout * x_hat).sum(axis=axes)
        self.grad_beta = dout.sum(axis=axes)
        dxhat = dout * self.gamma.reshape(bshape)
        inv = inv_std.reshape(bshape)
        dvar = (dxhat * centered).sum(axis=axes) * (-0.5) * inv_std ** 3
        dmean = (-(dxhat.sum(axis=axes)) * inv_std
                 + dvar * (-2.0 / n) * centered.sum(axis=axes))
        return (dxhat * inv
                + dvar.reshape(bshape) * 2.0 * centered / n
                + dmean.reshape(bshape) / n)


# ---------------------------------------------------------------------------
# recurrence


class LSTMLayer(Layer):
    """Standard four-gate LSTM over (batch, steps, features) sequences.

    Gate order within the fused weight matrices is input, forget, candidate,
    output.  Hidden and cell states start at zero.  The recurrence always
    advances on the raw hidden state; `output_activation` only shapes the
    states the layer emits, so a rectified output does not corrupt the gates.
    The layer emits every step's state, or only the last one when
    `return_sequences` is false.
    """

    name = "LSTM"

    def __init__(self, input_size: int, units: int, output_activation: str = "identity",
                 rng: np.random.Generator | None = None, return_sequences: bool = True):
        if output_activation not in ("identity", "relu"):
            raise ValueError(f"unknown output activation {output_activation!r}")
        self.input_size = int(input_size)
        self.units = int(units)
        self.output_activation = output_activation
        self.return_sequences = bool(return_sequences)
        s, k = self.input_size, self.units
        if rng is None:
            self.w_x = np.zeros((s, 4 * k))
            self.w_h = np.zeros((k, 4 * k))
        else:
            self.w_x = glorot_uniform(rng, (s, 4 * k), s, 4 * k)
            self.w_h = glorot_uniform(rng, (k, 4 * k), k, 4 * k)
        self.bias = np.zeros(4 * k)
        self.grad_w_x = np.zeros_like(self.w_x)
        self.grad_w_h = np.zeros_like(self.w_h)
        self.grad_bias = np.zeros_like(self.bias)
        self._cache = None
        self.last_hidden_states = None

    def param_count(self) -> int:
        # 4 * [(S + 1) * U + U^2]
        return 4 * ((self.input_size + 1) * self.units + self.units ** 2)

    def params(self) -> Dict[str, np.ndarray]:
        return {"w_x": self.w_x, "w_h": self.w_h, "bias": self.bias}

    def grads(self) -> Dict[str, np.ndarray]:
        return {"w_x": self.grad_w_x, "w_h": self.grad_w_h, "bias": self.grad_bias}

    def calc_string(self) -> str:
        s, k = self.input_size, self.units
        return f"4x[({s}+1)x{k}+{k}^2]"

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeError(
                f"lstm expects (batch, steps, {self.input_size}), got {x.shape}"
            )
        b, t, s = x.shape
        k = self.units
        # Input projection for all steps at once; only the recurrent matmul
        # has to run step by step.
        zx = (x.reshape(b * t, s) @ self.w_x).reshape(b, t, 4 * k) + self.bias
        i_arr = np.empty((b, t, k))
        f_arr = np.empty((b, t, k))
        g_arr = np.empty((b, t, k))
        o_arr = np.empty((b, t, k))
        tanh_c = np.empty((b, t, k))
        c_prev_arr = np.empty((b, t, k))
        h_arr = np.empty((b, t, k))
        h = np.zeros((b, k))
        c = np.zeros((b, k))
        for step in range(t):
            z = zx[:, step] + h @ self.w_h
            i = sigmoid(z[:, :k])
            f = sigmoid(z[:, k:2 * k])
            g = np.tanh(z[:, 2 * k:3 * k])
            o = sigmoid(z[:, 3 * k:])
            c_prev_arr[:, step] = c
            c = f * c + i * g
            tc = np.tanh(c)
            h = o * tc
            i_arr[:, step], f_arr[:, step] = i, f
            g_arr[:, step], o_arr[:, step] = g, o
            tanh_c[:, step] = tc
            h_arr[:, step] = h
        self._cache = (x, i_arr, f_arr, g_arr, o_arr, tanh_c, c_prev_arr, h_arr)
        self.last_hidden_states = h_arr
        emitted = relu(h_arr) if self.output_activation == "relu" else h_arr
        return emitted if self.return_sequences else emitted[:, -1]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward")
        x, i_arr, f_arr, g_arr, o_arr, tanh_c, c_prev_arr, h_arr = self._cache
        b, t, s = x.shape
        k = self.units
        d_emit = np.zeros((b, t, k))
        if self.return_sequences:
            d_emit[:] = dout
        else:
            d_emit[:, -1] = dout
        if self.output_activation == "relu":
            d_emit = d_emit * (h_arr > 0)
        dz_all = np.empty((b, t, 4 * k))
        dh_next = np.zeros((b, k))
        dc_next = np.zeros((b, k))
        for step in range(t - 1, -1, -1):
            i = i_arr[:, step]
            f = f_arr[:, step]
            g = g_arr[:, step]
            o = o_arr[:, step]
            tc = tanh_c[:, step]
            dh = d_emit[:, step] + dh_next
            do = dh * tc * o * (1 - o)
            dc = dh * o * (1 - tc * tc) + dc_next
            df = dc * c_prev_arr[:, step] * f * (1 - f)
            di = dc * g * i * (1 - i)
            dg = dc * i * (1 - g * g)
            dz = np.concatenate([di, df, dg, do], axis=1)
            dz_all[:, step] = dz
            dh_next = dz @ self.w_h.T
            dc_next = dc * f
        flat_dz = dz_all.reshape(b * t, 4 * k)
        self.grad_w_x = x.reshape(b * t, s).T @ flat_dz
        self.grad_bias = flat_dz.sum(axis=0)
        h_prev = np.concatenate([np.zeros((b, 1, k)), h_arr[:, :-1]], axis=1)
        self.grad_w_h = h_prev.reshape(b * t, k).T @ flat_dz
        return (flat_dz @ self.w_x.T).reshape(b, t, s)


# ---------------------------------------------------------------------------
# loss


def softmax_cross_entropy_batch(logits: np.ndarray, labels: np.ndarray
                                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stabilized softmax + cross-entropy over a batch of logit rows.

    Returns (probs, per-sample losses, per-sample dlogits) where dlogits is
    probs - one_hot(labels); callers averaging the loss scale it by 1/batch.
    """
    if logits.ndim != 2:
        raise ShapeError(f"expected (batch, classes) logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise IndexError(f"class index out of range for {c} classes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    losses = log_norm - shifted[np.arange(n), labels]
    probs = np.exp(shifted) / np.exp(log_norm)[:, None]
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return probs, losses, dlogits

