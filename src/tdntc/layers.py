"""Layer zoo for the traffic classifiers: forward and backward rules.

Every layer implements the `Layer` interface: an audit `name`,
`forward(x, train=False)` and `backward(dout)`.  Layers run batch-first on
float64 numpy arrays.  A layer keeps only its math: the audit's
closed-form counts and Calculation text live in `models`.

A layer names its tensors once.  `PARAMS` lists its trainable attributes
in checkpoint order; the gradient of attribute `x` lives in `grad_x`.
`BUFFERS` lists the further attributes a checkpoint persists (batchnorm's
running statistics).  Constructors allocate only the parameters;
`bind_flat` copies them into one flat vector, rebinds each as a view of
its slice and gives it a `grad_` view of one zeroed flat gradient vector,
so the optimizer updates every tensor in one pass.

A backward pass writes its parameter gradients into the `grad_*` views
(`out=` or `[...] =`) and never rebinds them, and returns the gradient of
its input.  `Conv2DLayer.backward` returns None: a conv is always a graph's
first stage, so nothing reads its input gradient.

Only a train-mode forward (`train=True`) keeps what `backward` needs, and
it keeps it through `Layer._keep`; an inference forward drops whatever an
earlier call kept.  `backward` takes that state through `Layer._kept`, so
the layer holds none once its backward returns and a backward may write
over what it reads.  `backward` after an inference forward, or a second
`backward` after one forward, raises RuntimeError naming the layer.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import Error


class ShapeError(Error, ValueError):
    """Raised when an array shape violates an operation's contract."""


class GeometryError(Error, ValueError):
    """Raised when convolution or pooling geometry does not fit the input."""


class StatisticsError(Error, ValueError):
    """Raised when batch statistics are requested from a degenerate batch."""


class Layer:
    """One pipeline stage; the defaults suit a parameter-free stage."""

    name = ""
    PARAMS: Tuple[str, ...] = ()
    BUFFERS: Tuple[str, ...] = ()
    _saved = None

    def _keep(self, train: bool, *state) -> None:
        """Save `state` for backward on a train-mode forward; drop it otherwise."""
        self._saved = state if train else None

    def _kept(self) -> tuple:
        """Take what the last train-mode forward saved: one backward per forward."""
        saved, self._saved = self._saved, None
        if saved is None:
            raise RuntimeError(f"{self.name}: backward requires a train-mode forward")
        return saved

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def bind_flat(layers) -> Tuple[np.ndarray, np.ndarray]:
    """(flat_params, flat_grads) holding the `PARAMS` tensors of `layers` in order.

    Each parameter is copied into its slice of flat_params and rebound as a
    view of it; its `grad_` attribute becomes the same slice of the zeroed
    flat_grads.
    """
    tensors = [(layer, name) for layer in layers for name in layer.PARAMS]
    size = sum(getattr(layer, name).size for layer, name in tensors)
    params, grads = np.empty(size), np.zeros(size)
    offset = 0
    for layer, name in tensors:
        arr = getattr(layer, name)
        end = offset + arr.size
        view = params[offset:end].reshape(arr.shape)
        view[...] = arr
        setattr(layer, name, view)
        setattr(layer, "grad_" + name, grads[offset:end].reshape(arr.shape))
        offset = end
    return params, grads


# ---------------------------------------------------------------------------
# activations


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=axis, keepdims=True)


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# dense


class DenseLayer(Layer):
    """Fully connected layer y = act(x W + b) over the last axis, weights (in, out).

    The input is (batch, ..., in) and every leading position shares the one
    set of weights, so on a (batch, steps, in) sequence this is the
    time-distributed dense layer: its parameter gradients sum over all
    steps.  Both passes multiply the 2-D view x.reshape(-1, in) and return
    their result in the input's leading shape.

    `name` is the audit name: FFNN_0 hidden, TD(FFNN_0) per step, FFNN_1
    decision.
    """

    ACTIVATIONS = ("identity", "relu")
    PARAMS = ("weights", "bias")

    def __init__(self, in_size: int, out_size: int, activation: str = "identity", *,
                 rng: np.random.Generator, name: str = "FFNN_0"):
        if activation not in self.ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_size = int(in_size)
        self.out_size = int(out_size)
        self.activation = activation
        self.name = name
        self.weights = glorot_uniform(rng, (self.in_size, self.out_size),
                                      self.in_size, self.out_size)
        self.bias = np.zeros(self.out_size)

    def forward_logits(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """x W + b; the decision layer pairs it with the fused softmax loss."""
        if x.ndim < 2 or x.shape[-1] != self.in_size:
            raise ShapeError(
                f"dense expects (batch, ..., {self.in_size}), got {x.shape}"
            )
        lead = x.shape[:-1]
        x = x.reshape(-1, self.in_size)
        z = x @ self.weights
        z += self.bias
        self._keep(train, x, z, lead)
        return z.reshape(*lead, self.out_size)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        z = self.forward_logits(x, train)
        if self.activation == "relu":
            # In place: the kept z becomes relu(z), whose > 0 mask is z's.
            np.maximum(z, 0.0, out=z)
        return z

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, z, lead = self._kept()
        dout = dout.reshape(-1, self.out_size)
        dz = dout * (z > 0) if self.activation == "relu" else dout
        np.matmul(x.T, dz, out=self.grad_weights)
        dz.sum(axis=0, out=self.grad_bias)
        return (dz @ self.weights.T).reshape(*lead, self.in_size)


# ---------------------------------------------------------------------------
# convolution


def conv2d_output_dims(rows: int, cols: int, kernel_rows: int, kernel_cols: int
                       ) -> Tuple[int, int]:
    """Output geometry of a stride-1, unpadded 2-D convolution.

    (rows - kernel_rows + 1, cols - kernel_cols + 1); a kernel larger than
    the input raises GeometryError.
    """
    if min(rows, cols, kernel_rows, kernel_cols) < 1:
        raise GeometryError("conv geometry requires positive extents")
    if kernel_rows > rows or kernel_cols > cols:
        raise GeometryError(
            f"kernel {kernel_rows}x{kernel_cols} exceeds input {rows}x{cols}"
        )
    return rows - kernel_rows + 1, cols - kernel_cols + 1


class Conv2DLayer(Layer):
    """2-D cross-correlation over a single-channel input, stride 1, no padding.

    kernels: (units, kernel_rows, kernel_cols); biases: (units,).
    Input (batch, rows, cols) -> output (batch, out_rows, out_cols, units).

    The forward pass is one GEMM (im2col): every kernel_rows x kernel_cols
    window becomes a row of a (batch*out_rows*out_cols, taps + 1) patch
    matrix whose last column is 1, which multiplies the C-contiguous
    (taps + 1, units) stack [kernels^T; biases], so the product already
    holds the bias (Chellapilla, Puri and Simard 2006).  The product is
    (position, unit), so the output is that product reshaped.  The backward
    pass reuses the patch matrix's tap columns for the kernel gradient and
    returns None: a conv only ever starts a graph, so it builds no input
    gradient.
    """

    name = "CNN_2D"
    PARAMS = ("kernels", "biases")

    def __init__(self, units: int, kernel: Tuple[int, int] = (3, 3), *,
                 rng: np.random.Generator):
        self.units = int(units)
        self.kernel_rows, self.kernel_cols = (int(k) for k in kernel)
        shape = (self.units, self.kernel_rows, self.kernel_cols)
        fan = self.kernel_rows * self.kernel_cols
        self.kernels = glorot_uniform(rng, shape, fan, fan * self.units)
        self.biases = np.zeros(self.units)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 3:
            raise ShapeError(f"conv2d expects (batch, rows, cols), got {x.shape}")
        b, rows, cols = x.shape
        out_r, out_c = conv2d_output_dims(rows, cols, self.kernel_rows, self.kernel_cols)
        taps = self.kernel_rows * self.kernel_cols
        windows = sliding_window_view(x, (self.kernel_rows, self.kernel_cols), axis=(1, 2))
        # Splitting the unit-stride tap columns into (rows, cols) is a view.
        patches = np.empty((b * out_r * out_c, taps + 1))
        patches[:, :taps].reshape(windows.shape)[...] = windows
        patches[:, taps] = 1.0
        # Made on every call: the optimizer updates the parameters in place.
        stack = np.concatenate((self.kernels.reshape(self.units, taps).T, self.biases[None]))
        y = patches @ stack
        self._keep(train, patches)
        return y.reshape(b, out_r, out_c, self.units)

    def backward(self, dout: np.ndarray) -> None:
        (patches,) = self._kept()
        d = dout.reshape(-1, self.units)
        d.sum(axis=0, out=self.grad_biases)
        np.matmul(d.T, patches[:, :-1], out=self.grad_kernels.reshape(self.units, -1))


class MaxPool2x2(Layer):
    """2x2 max pooling with stride 2 over (batch, rows, cols, units) maps.

    Requires even rows and cols.  The output is the elementwise maximum of
    the four strided cells x[:, i::2, j::2], taken in place into one array,
    cell after cell.  A train-mode forward keeps one mask per cell that
    marks the first maximal cell of each window in row-major order, so
    tie-breaking is deterministic.  The backward pass writes dout * mask
    into each cell of the gradient.
    """

    name = "MP_2D"
    CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"maxpool expects (batch, rows, cols, units), got {x.shape}")
        h, w = x.shape[1:3]
        if h % 2 or w % 2:
            raise GeometryError(f"maxpool 2x2 needs even spatial extents, got {h}x{w}")
        cells = [x[:, i::2, j::2] for i, j in self.CELLS]
        out = np.maximum(cells[0], cells[1])
        np.maximum(out, cells[2], out=out)
        np.maximum(out, cells[3], out=out)
        masks = None
        if train:
            masks, free = [], np.ones_like(out, dtype=bool)
            for cell in cells[:-1]:
                first = (cell == out) & free
                free &= ~first
                masks.append(first)
            masks.append(free)
        self._keep(train, masks)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        (masks,) = self._kept()
        b, h2, w2, u = dout.shape
        dx = np.empty((b, 2 * h2, 2 * w2, u))
        for (i, j), mask in zip(self.CELLS, masks):
            np.multiply(dout, mask, out=dx[:, i::2, j::2])
        return dx


class BatchNormLayer(Layer):
    """Per-channel batch normalization over the last axis.

    Train mode normalizes by the batch's statistics over every other axis
    and folds them into the running estimates, running = MOMENTUM *
    running + (1 - MOMENTUM) * batch; inference mode uses those alone.
    Both passes work on the (positions, channels) matrix
    x.reshape(-1, channels), so reductions sum in one order.  The forward
    centers once, scaling that copy in place into the x_hat it keeps with
    inv_std; the backward is Ioffe and Szegedy's closed form
    (arXiv:1502.03167) over n positions:
    dx = gamma * inv_std * (d - grad_beta/n - x_hat*grad_gamma/n).
    """

    name = "BN"
    PARAMS = ("gamma", "beta")
    BUFFERS = ("running_mean", "running_var")
    EPSILON = 1e-5
    MOMENTUM = 0.9

    def __init__(self, channels: int):
        self.channels = int(channels)
        self.gamma = np.ones(self.channels)
        self.beta = np.zeros(self.channels)
        self.running_mean = np.zeros(self.channels)
        self.running_var = np.ones(self.channels)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim < 2 or x.shape[-1] != self.channels:
            raise ShapeError(
                f"batchnorm expects a last axis of width {self.channels}, got {x.shape}"
            )
        flat = x.reshape(-1, self.channels)
        if train:
            if x.shape[0] < 2:
                raise StatisticsError("batchnorm needs batch size >= 2 in train mode")
            mean = flat.mean(axis=0)
            centered = flat - mean
            var = (centered * centered).sum(axis=0) / len(flat)
            self.running_mean = self.MOMENTUM * self.running_mean + (1 - self.MOMENTUM) * mean
            self.running_var = self.MOMENTUM * self.running_var + (1 - self.MOMENTUM) * var
        else:
            centered = flat - self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.EPSILON)
        x_hat = np.multiply(centered, inv_std, out=centered)
        self._keep(train, x_hat, inv_std, x.shape)
        y = self.gamma * x_hat
        y += self.beta
        return y.reshape(x.shape)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x_hat, inv_std, shape = self._kept()
        d = dout.reshape(-1, self.channels)
        n = len(d)
        prod = d * x_hat
        prod.sum(axis=0, out=self.grad_gamma)
        d.sum(axis=0, out=self.grad_beta)
        dx = d - self.grad_beta / n
        dx -= np.multiply(x_hat, self.grad_gamma / n, out=prod)
        dx *= self.gamma * inv_std
        return dx.reshape(shape)


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

    Each step is one GEMM: the (batch, U + S + 1) operand [h_{t-1} | x_t | 1]
    times the stacked weight [w_h; w_x; bias], so the recurrent, input and
    bias terms arrive together.  The state comes first so that step 0,
    whose state is zero, multiplies only the [x_0 | 1] tail; likewise
    `backward` sends no gradient into the zero initial state.  The step
    then activates its whole gate block with one tanh, using
    sigmoid(v) = 0.5 * (1 + tanh(v / 2)): the v / 2 is folded into halved
    copies of the i, f and o columns of the stacked weight, and the
    0.5 * (1 + .) is applied in place afterwards.

    The operand, gate, cell and tanh(c) buffers are time-major, (slots,
    batch, .), and `train` sets only how many slots they have.  A train-mode
    forward keeps one slot per step, which `backward` reads.  An inference
    forward reuses a single slot, so it allocates no per-step cache.  The
    emitted states are written batch-major as each step ends, so a following
    dense layer views them as (batch * steps, units) for free; the output
    activation is applied to them once after the loop.

    The kept gates and the gate gradient are batch-major rows, as the GEMMs
    read them, and a gate's block there is `batch` strided rows that numpy
    walks one row at a time.  So each backward step copies its gates into
    gate-major scratch, does the per-gate arithmetic on contiguous (batch,
    units) slabs and copies the gate gradient back: the same operations in
    the same order, so the same bits.  The gradient goes back into the
    step's own slot of the kept gates, which nothing reads after that first
    copy, so the backward allocates no (steps, batch, 4 * units) slab of its
    own; this is why backward takes the kept state.
    """

    name = "LSTM"
    PARAMS = ("w_x", "w_h", "bias")

    def __init__(self, input_size: int, units: int, output_activation: str = "identity", *,
                 rng: np.random.Generator, return_sequences: bool = True):
        if output_activation not in ("identity", "relu"):
            raise ValueError(f"unknown output activation {output_activation!r}")
        self.input_size = int(input_size)
        self.units = int(units)
        self.output_activation = output_activation
        self.return_sequences = bool(return_sequences)
        s, k = self.input_size, self.units
        self.w_x = glorot_uniform(rng, (s, 4 * k), s, 4 * k)
        self.w_h = glorot_uniform(rng, (k, 4 * k), k, 4 * k)
        self.bias = np.zeros(4 * k)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeError(
                f"lstm expects (batch, steps, {self.input_size}), got {x.shape}"
            )
        b, t, s = x.shape
        k = self.units
        # 0.5 on the sigmoid gates (i, f, o), 1 on the candidate g.  Halving
        # is exact in binary, so the scaled weights give the same
        # pre-activation bits as halving it afterwards.  The stacked copy is
        # made on every call because the optimizer updates the parameters in
        # place.
        scale = np.full(4 * k, 0.5)
        scale[2 * k:3 * k] = 1.0
        shift = scale.copy()
        shift[2 * k:3 * k] = 0.0
        w = np.concatenate((self.w_h, self.w_x, self.bias[None]))
        w *= scale
        # Step i reads operand slot i and writes h_i into the h columns of
        # slot i + 1; c_i goes to cell slot i + 1 over c_{i-1} in slot i.
        # Train mode keeps a slot per step for backward; inference wraps
        # every index onto slot 0, which is safe because each step's GEMM
        # has read h_{i-1} before h_i is written.  Step 0 multiplies only
        # the [x_0 | 1] tail; the zero state in slot 0 is there for the
        # weight-gradient GEMM in backward.
        n = t + 1 if train else 1
        m = t if train else 1
        ops = np.empty((n, b, k + s + 1))
        ops[..., k + s] = 1.0
        ops[0, :, :k] = 0.0
        cs = np.empty((n, b, k))
        cs[0] = 0.0
        gates = np.empty((m, b, 4 * k))
        tanh_c = np.empty((m, b, k))
        ig = np.empty((b, k))
        out = np.empty((b, t, k) if self.return_sequences else (b, k))
        for step in range(t):
            op = ops[step % n]
            nxt = ops[(step + 1) % n]
            z = gates[step % m]
            tc = tanh_c[step % m]
            op[:, k:k + s] = x[:, step]
            lo = k if step == 0 else 0
            np.matmul(op[:, lo:], w[lo:], out=z)
            np.tanh(z, out=z)
            z *= scale
            z += shift
            c = cs[(step + 1) % n]
            np.multiply(z[:, k:2 * k], cs[step % n], out=c)
            np.multiply(z[:, :k], z[:, 2 * k:3 * k], out=ig)
            c += ig
            np.tanh(c, out=tc)
            h = nxt[:, :k]
            np.multiply(z[:, 3 * k:], tc, out=h)
            if self.return_sequences:
                out[:, step] = h
        if not self.return_sequences:
            out[:] = ops[t % n, :, :k]
        if self.output_activation == "relu":
            np.maximum(out, 0.0, out=out)
        self._keep(train, ops, gates, cs, tanh_c)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        ops, gates, cs, tanh_c = self._kept()
        t, b = gates.shape[:2]
        s, k = self.input_size, self.units
        hs = ops[1:, :, :k]
        if self.output_activation == "relu":
            dout = dout * (hs.transpose(1, 0, 2) > 0 if self.return_sequences
                           else hs[-1] > 0)
        # dh carries d(loss)/dh_step: the emitted gradient, read batch-major,
        # plus what the recurrence sends back from step + 1.
        dh = np.zeros((b, k))
        if not self.return_sequences:
            dh += dout
        # Gate-major scratch: a[0..3] are the step's activated i, f, g, o and
        # dz[0..3] their gradients.  dz_all keeps every step's dz batch-major
        # in the slot its gates came from, once they are copied into a.
        dz_all = gates.reshape(t, b, 4, k)
        a = np.empty((4, b, k))
        dz = np.empty((4, b, k))
        w_h_t = self.w_h.T
        dc = np.empty((b, k))
        dc_next = np.zeros((b, k))
        for step in range(t - 1, -1, -1):
            np.copyto(a, dz_all[step].transpose(1, 0, 2))
            tc = tanh_c[step]
            if self.return_sequences:
                dh += dout[:, step]
            # activation slopes: a * (1 - a) for the sigmoid gates, 1 - g^2
            np.subtract(1.0, a, out=dz)
            dz *= a
            np.multiply(a[2], a[2], out=dz[2])
            np.subtract(1.0, dz[2], out=dz[2])
            # dc = dh * o * (1 - tanh(c)^2) + dc_next
            np.multiply(tc, tc, out=dc)
            np.subtract(1.0, dc, out=dc)
            dc *= a[3]
            dc *= dh
            dc += dc_next
            # di = dc * g, df = dc * c_prev, dg = dc * i, do = dh * tanh(c),
            # each times its slope
            dz[3] *= tc
            dz[3] *= dh
            dz[:3] *= dc
            dz[0] *= a[2]
            dz[1] *= cs[step]
            dz[2] *= a[0]
            np.copyto(dz_all[step], dz.transpose(1, 0, 2))
            # the scale lives in the activation, so the recurrence runs
            # through the unscaled w_h; nothing reads the gradient of the
            # zero initial state
            if step:
                np.matmul(dz_all[step].reshape(b, 4 * k), w_h_t, out=dh)
                np.multiply(dc, a[1], out=dc_next)
        flat_dz = dz_all.reshape(t * b, 4 * k)
        # one GEMM over the kept [h_{t-1} | x_t | 1] operands gives all three
        grad_w = ops[:t].reshape(t * b, k + s + 1).T @ flat_dz
        self.grad_w_h[...] = grad_w[:k]
        self.grad_w_x[...] = grad_w[k:k + s]
        self.grad_bias[...] = grad_w[k + s]
        return (flat_dz @ self.w_x.T).reshape(t, b, s).transpose(1, 0, 2)


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
    ez = np.exp(shifted)
    log_norm = np.log(ez.sum(axis=1))
    losses = log_norm - shifted[np.arange(n), labels]
    probs = ez / np.exp(log_norm)[:, None]
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return probs, losses, dlogits

