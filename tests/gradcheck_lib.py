"""The finite-difference gradient oracle and its checks for every layer kind.

`finite_diff_grad` is the independent oracle every analytic backward pass
is checked against; it shares no code with the layers.  Each check builds
one random small instance (at most 64 parameters early in the pipeline,
per the contract for these checks), runs the analytic backward pass, and
measures the worst relative deviation from the central difference oracle
over every parameter tensor and the input.

Instances are generated to stay away from activation kinks and pooling
ties: pre-activations and window gaps far larger than the 1e-5 probe step,
so the piecewise-linear corners cannot flip under perturbation.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tdntc import layers
from tdntc.layers import ShapeError


class NumericError(ArithmeticError):
    """Raised when an evaluation produces a non-finite value."""


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function, element by element."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    # index x itself, not a flat reshape: that would be a copy for a non-contiguous view
    for i, idx in enumerate(np.ndindex(x.shape)):
        orig = x[idx]
        x[idx] = orig + step
        f_plus = float(f(x))
        x[idx] = orig - step
        f_minus = float(f(x))
        x[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"non-finite evaluation at element {i}")
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
    return grad


def relative_grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Infinity-norm relative deviation between two gradients.

    Returns 0 for a pair of all-zero gradients so that constant functions
    check out cleanly.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.shape != numeric.shape:
        raise ShapeError(
            f"gradient shapes disagree: {analytic.shape} vs {numeric.shape}"
        )
    denom = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0))
    if denom == 0.0:
        return 0.0
    return float(np.abs(analytic - numeric).max() / denom)


def bound(layer):
    """`layer`, built outside a graph, with flat vectors laid out as a graph's are."""
    layers.bind_flat([layer])
    return layer


def params(layer) -> Dict[str, np.ndarray]:
    """name -> every trainable tensor of a layer, in PARAMS order."""
    return {name: getattr(layer, name) for name in layer.PARAMS}


def grads(layer) -> Dict[str, np.ndarray]:
    """name -> the `grad_<name>` view of every trainable tensor of a layer."""
    return {name: getattr(layer, "grad_" + name) for name in layer.PARAMS}


def graph_grads(graph) -> Dict[str, np.ndarray]:
    """`stage/name` -> gradient view, in the order of `graph.params()`."""
    return {f"{stage.name}/{name}": g for stage in graph.stages
            for name, g in grads(stage).items()}


def lstm_hidden_states(layer) -> np.ndarray:
    """(batch, steps, units) raw hidden states of an LSTM's last train-mode forward.

    They are the state part of the kept `[h | x | 1]` operands, one slot per
    step after the zero initial state.
    """
    return layer._kept()[0][1:, :, :layer.units].transpose(1, 0, 2)


def _worst_param_and_input_error(layer, x, forward, projection) -> float:
    def scalar(_ignored=None):
        return float((forward() * projection).sum())

    forward()  # a train-mode forward keeps what backward needs
    dx = layer.backward(projection)
    analytic = grads(layer)
    worst = 0.0
    for name, arr in params(layer).items():
        numeric = finite_diff_grad(scalar, arr)
        worst = max(worst, relative_grad_error(analytic[name], numeric))
    numeric = finite_diff_grad(scalar, x)
    worst = max(worst, relative_grad_error(dx, numeric))
    return worst


def _sample_clear_of_kink(rng, layer, batch):
    # resample until every pre-activation sits far from the relu corner
    for _ in range(100):
        x = rng.normal(size=(batch, layer.in_size))
        z = x @ layer.weights + layer.bias
        if np.abs(z).min() > 1e-3:
            return x
    raise AssertionError("could not sample inputs away from the relu kink")


def check_dense(rng: np.random.Generator) -> float:
    in_size = int(rng.integers(2, 6))
    out_size = int(rng.integers(2, 5))
    activation = ("identity", "relu")[int(rng.integers(2))]
    layer = bound(layers.DenseLayer(in_size, out_size, activation, rng=rng))
    batch = int(rng.integers(1, 4))
    if activation == "relu":
        x = _sample_clear_of_kink(rng, layer, batch)
    else:
        x = rng.normal(size=(batch, in_size))
    proj = rng.normal(size=layer.forward(x).shape)
    return _worst_param_and_input_error(layer, x, lambda: layer.forward(x, train=True),
                                        proj)


def check_conv2d(rng: np.random.Generator) -> float:
    units = int(rng.integers(1, 5))
    p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    rows = p + int(rng.integers(1, 4))
    cols = q + int(rng.integers(1, 4))
    layer = bound(layers.Conv2DLayer(units, kernel=(p, q), rng=rng))
    x = rng.normal(size=(int(rng.integers(1, 3)), rows, cols))
    proj = rng.normal(size=layer.forward(x).shape)
    return _worst_param_and_input_error(layer, x, lambda: layer.forward(x, train=True),
                                        proj)


def check_maxpool(rng: np.random.Generator) -> float:
    b, u = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    h, w = 2 * int(rng.integers(1, 4)), 2 * int(rng.integers(1, 4))
    layer = layers.MaxPool2x2()
    # distinct, well-separated values: no ties, no argmax flips under 1e-5
    x = rng.permutation(b * h * w * u).astype(np.float64).reshape(b, h, w, u)
    proj = rng.normal(size=layer.forward(x).shape)

    def scalar(_ignored=None):
        return float((layer.forward(x) * proj).sum())

    layer.forward(x, train=True)
    dx = layer.backward(proj)
    numeric = finite_diff_grad(scalar, x)
    return relative_grad_error(dx, numeric)


def check_batchnorm(rng: np.random.Generator) -> float:
    channels = int(rng.integers(1, 5))
    shape = (int(rng.integers(2, 5)), int(rng.integers(1, 3)), int(rng.integers(1, 3)),
             channels)
    layer = bound(layers.BatchNormLayer(channels))
    layer.gamma[:] = rng.normal(1.0, 0.2, size=channels)
    layer.beta[:] = rng.normal(0.0, 0.2, size=channels)
    x = rng.normal(size=shape)
    proj = rng.normal(size=shape)

    def forward():
        # freeze running stats so repeated oracle evaluations see one function
        keep = (layer.running_mean.copy(), layer.running_var.copy())
        out = layer.forward(x, train=True)
        layer.running_mean[...], layer.running_var[...] = keep
        return out

    return _worst_param_and_input_error(layer, x, forward, proj)


def reference_batchnorm_forward(x, gamma, beta, running_mean, running_var, train,
                                eps=layers.BatchNormLayer.EPSILON,
                                momentum=layers.BatchNormLayer.MOMENTUM):
    """The three-term batchnorm forward, statistics from `np.var`.

    Returns (y, running_mean, running_var, cache); `cache` feeds
    `reference_batchnorm_backward`.  The layer computes the same forward with
    one centering and must match it bit for bit.
    """
    flat = x.reshape(-1, x.shape[-1])
    if train:
        mean = flat.mean(axis=0)
        var = flat.var(axis=0)
        running_mean = momentum * running_mean + (1 - momentum) * mean
        running_var = momentum * running_var + (1 - momentum) * var
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    centered = flat - mean
    x_hat = centered * inv_std
    y = gamma * x_hat + beta
    cache = (x_hat, centered, inv_std, x.shape)
    return y.reshape(x.shape), running_mean, running_var, cache


def reference_batchnorm_backward(cache, gamma, dout):
    """(dx, grad_gamma, grad_beta) by the three-term chain rule through mean and var."""
    x_hat, centered, inv_std, shape = cache
    d = dout.reshape(-1, shape[-1])
    n = len(d)
    grad_gamma = (d * x_hat).sum(axis=0)
    grad_beta = d.sum(axis=0)
    dxhat = d * gamma
    dvar = (dxhat * centered).sum(axis=0) * (-0.5) * inv_std ** 3
    dmean = (-(dxhat.sum(axis=0)) * inv_std
             + dvar * (-2.0 / n) * centered.sum(axis=0))
    dx = dxhat * inv_std + dvar * 2.0 * centered / n + dmean / n
    return dx.reshape(shape), grad_gamma, grad_beta


def reference_conv2d(x, kernels, biases, dout):
    """(y, grad_kernels, grad_biases) of the im2col conv with a separate bias pass.

    The (positions, taps) patch matrix multiplies the kernels' transposed
    view, then `+= biases` runs over the whole output; the kernel gradient
    is dout's (position, unit) matrix transposed times the patches.  The
    layer folds the bias into its GEMM through a ones column, which BLAS may
    round differently in the last bit for some shapes.
    """
    units, kernel_rows, kernel_cols = kernels.shape
    b, rows, cols = x.shape
    windows = sliding_window_view(x, (kernel_rows, kernel_cols), axis=(1, 2))
    patches = windows.reshape(-1, kernel_rows * kernel_cols)
    y = patches @ kernels.reshape(units, -1).T
    y += biases
    d = dout.reshape(-1, units)
    y = y.reshape(b, rows - kernel_rows + 1, cols - kernel_cols + 1, units)
    return y, (d.T @ patches).reshape(kernels.shape), d.sum(axis=0)


def reference_lstm_backward(layer, dout, input_grad=True):
    """(dx, grad_w_x, grad_w_h, grad_bias) by the batch-major step loop.

    Reads the state a train-mode forward of `layer` kept and writes nothing
    into the layer.  Each step's gate arithmetic runs on the (batch, units)
    blocks `a[:, g]` of the batch-major gate rows; the layer runs the same
    operations in the same order on gate-major copies and must match it bit
    for bit.  `dx` is None when `input_grad` is false.
    """
    ops, gates, cs, tanh_c = layer._kept()
    t, b = gates.shape[:2]
    s, k = layer.input_size, layer.units
    hs = ops[1:, :, :k]
    if layer.output_activation == "relu":
        dout = dout * (hs.transpose(1, 0, 2) > 0 if layer.return_sequences
                       else hs[-1] > 0)
    # dh carries d(loss)/dh_step: the emitted gradient, read batch-major,
    # plus what the recurrence sends back from step + 1.
    dh = np.zeros((b, k))
    if not layer.return_sequences:
        dh += dout
    # Gate axis split out: [:, :, 0..3] are the activated i, f, g, o.
    gate4 = gates.reshape(t, b, 4, k)
    dz_all = np.empty((t, b, 4, k))
    w_h_t = layer.w_h.T
    dc = np.empty((b, k))
    dc_next = np.zeros((b, k))
    for step in range(t - 1, -1, -1):
        a = gate4[step]
        dz = dz_all[step]
        tc = tanh_c[step]
        if layer.return_sequences:
            dh += dout[:, step]
        # activation slopes: a * (1 - a) for the sigmoid gates, 1 - g^2
        np.subtract(1.0, a, out=dz)
        dz *= a
        np.multiply(a[:, 2], a[:, 2], out=dz[:, 2])
        np.subtract(1.0, dz[:, 2], out=dz[:, 2])
        # dc = dh * o * (1 - tanh(c)^2) + dc_next
        np.multiply(tc, tc, out=dc)
        np.subtract(1.0, dc, out=dc)
        dc *= a[:, 3]
        dc *= dh
        dc += dc_next
        # di = dc * g, df = dc * c_prev, dg = dc * i, do = dh * tanh(c),
        # each times its slope
        dz[:, 3] *= tc
        dz[:, 3] *= dh
        dz[:, :3] *= dc[:, None]
        dz[:, 0] *= a[:, 2]
        dz[:, 1] *= cs[step]
        dz[:, 2] *= a[:, 0]
        # the scale lives in the activation, so the recurrence runs
        # through the unscaled w_h; nothing reads the gradient of the
        # zero initial state
        if step:
            np.matmul(dz.reshape(b, 4 * k), w_h_t, out=dh)
            np.multiply(dc, a[:, 1], out=dc_next)
    flat_dz = dz_all.reshape(t * b, 4 * k)
    # one GEMM over the kept [h_{t-1} | x_t | 1] operands gives all three
    grad_w = ops[:t].reshape(t * b, k + s + 1).T @ flat_dz
    dx = None
    if input_grad:
        dx = (flat_dz @ layer.w_x.T).reshape(t, b, s).transpose(1, 0, 2)
    return dx, grad_w[k:k + s], grad_w[:k], grad_w[k + s]


def check_lstm(rng: np.random.Generator) -> float:
    # (input size, units) pairs whose 4[(S+1)U+U^2] stays at or under 64
    s, k = [(1, 2), (2, 2), (3, 2), (1, 3)][int(rng.integers(4))]
    activation = ("identity", "relu")[int(rng.integers(2))]
    return_sequences = bool(rng.integers(2))
    layer = bound(layers.LSTMLayer(s, k, output_activation=activation, rng=rng,
                                   return_sequences=return_sequences))
    shape = (int(rng.integers(1, 3)), int(rng.integers(1, 5)), s)
    x = rng.normal(scale=2.0, size=shape)
    if activation == "relu":
        # hidden states must sit away from the relu corner for the oracle
        for _ in range(100):
            layer.forward(x, train=True)
            if np.abs(lstm_hidden_states(layer)).min() > 1e-3:
                break
            x = rng.normal(scale=2.0, size=shape)
        else:
            raise AssertionError("could not sample hidden states away from the kink")
    proj = rng.normal(size=layer.forward(x).shape)
    return _worst_param_and_input_error(layer, x, lambda: layer.forward(x, train=True),
                                        proj)


def check_time_distributed(rng: np.random.Generator) -> float:
    """A relu dense layer over the last axis of a (batch, steps, features) sequence."""
    in_size = int(rng.integers(2, 5))
    out_size = int(rng.integers(2, 5))
    layer = bound(layers.DenseLayer(in_size, out_size, "relu", rng=rng, name="TD(FFNN_0)"))
    b, t = int(rng.integers(1, 3)), int(rng.integers(1, 5))
    flat = _sample_clear_of_kink(rng, layer, b * t)
    x = flat.reshape(b, t, in_size)
    proj = rng.normal(size=layer.forward(x).shape)
    return _worst_param_and_input_error(layer, x, lambda: layer.forward(x, train=True),
                                        proj)


def check_softmax_cross_entropy(rng: np.random.Generator) -> float:
    n = int(rng.integers(1, 5))
    c = int(rng.integers(2, 6))
    logits = rng.normal(scale=2.0, size=(n, c))
    labels = rng.integers(0, c, size=n)
    _, _, dlogits = layers.softmax_cross_entropy_batch(logits, labels)
    numeric = finite_diff_grad(
        lambda _: float(layers.softmax_cross_entropy_batch(logits, labels)[1].sum()),
        logits)
    return relative_grad_error(dlogits, numeric)


LAYER_CHECKS = {
    "dense": check_dense,
    "conv2d": check_conv2d,
    "maxpool": check_maxpool,
    "batchnorm": check_batchnorm,
    "lstm": check_lstm,
    "time_distributed": check_time_distributed,
    "softmax_cross_entropy": check_softmax_cross_entropy,
}


def run_layer_checks(instances_per_layer: int, base_seed: int = 1234) -> dict:
    """Worst relative error per layer kind over the requested instance count."""
    worst = {}
    for offset, (name, check) in enumerate(sorted(LAYER_CHECKS.items())):
        errors = []
        for i in range(instances_per_layer):
            rng = np.random.default_rng(base_seed + 1000 * offset + i)
            errors.append(check(rng))
        worst[name] = max(errors)
    return worst
