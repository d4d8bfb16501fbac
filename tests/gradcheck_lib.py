"""Shared finite-difference gradient checks for every layer kind.

Each check builds one random small instance (at most 64 parameters early
in the pipeline, per the contract for these checks), runs the analytic
backward pass, and measures the worst relative deviation from the central
difference oracle over every parameter tensor and the input.

Instances are generated to stay away from activation kinks and pooling
ties: pre-activations and window gaps far larger than the 1e-5 probe step,
so the piecewise-linear corners cannot flip under perturbation.
"""

from __future__ import annotations

import numpy as np

from tdntc import layers
from tdntc.tensor import finite_diff_grad, relative_grad_error


def _worst_param_and_input_error(layer, x, forward, projection) -> float:
    def scalar(_ignored=None):
        return float((forward() * projection).sum())

    forward()  # populate caches
    dx = layer.backward(projection)
    grads = dict(layer.grads())
    worst = 0.0
    for name, arr in layer.params().items():
        numeric = finite_diff_grad(scalar, arr)
        worst = max(worst, relative_grad_error(grads[name], numeric))
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
    layer = layers.DenseLayer(in_size, out_size, activation, rng=rng)
    batch = int(rng.integers(1, 4))
    if activation == "relu":
        x = _sample_clear_of_kink(rng, layer, batch)
    else:
        x = rng.normal(size=(batch, in_size))
    proj = rng.normal(size=layer.forward(x).shape)
    return _worst_param_and_input_error(layer, x, lambda: layer.forward(x), proj)


def check_conv2d(rng: np.random.Generator) -> float:
    units = int(rng.integers(1, 5))
    p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    pad = int(rng.integers(0, 2))
    rows = p + int(rng.integers(1, 4))
    cols = q + int(rng.integers(1, 4))
    # pick strides that divide the geometry evenly
    sx = next(s for s in (2, 1) if (rows - p + 2 * pad) % s == 0)
    sy = next(s for s in (2, 1) if (cols - q + 2 * pad) % s == 0)
    layer = layers.Conv2DLayer(units, kernel=(p, q), stride=(sx, sy),
                               padding=pad, rng=rng)
    x = rng.normal(size=(int(rng.integers(1, 3)), rows, cols))
    proj = rng.normal(size=layer.forward(x).shape)
    return _worst_param_and_input_error(layer, x, lambda: layer.forward(x), proj)


def check_maxpool(rng: np.random.Generator) -> float:
    b, u = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    h, w = 2 * int(rng.integers(1, 4)), 2 * int(rng.integers(1, 4))
    layer = layers.MaxPool2x2()
    # distinct, well-separated values: no ties, no argmax flips under 1e-5
    x = rng.permutation(b * u * h * w).astype(np.float64).reshape(b, u, h, w)
    proj = rng.normal(size=layer.forward(x).shape)

    def scalar(_ignored=None):
        return float((layer.forward(x) * proj).sum())

    layer.forward(x)
    dx = layer.backward(proj)
    numeric = finite_diff_grad(scalar, x)
    return relative_grad_error(dx, numeric)


def check_batchnorm(rng: np.random.Generator) -> float:
    channels = int(rng.integers(1, 5))
    shape = (int(rng.integers(2, 5)), channels, int(rng.integers(1, 3)),
             int(rng.integers(1, 3)))
    layer = layers.BatchNormLayer(channels)
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


def check_lstm(rng: np.random.Generator) -> float:
    # (input size, units) pairs whose 4[(S+1)U+U^2] stays at or under 64
    s, k = [(1, 2), (2, 2), (3, 2), (1, 3)][int(rng.integers(4))]
    activation = ("identity", "relu")[int(rng.integers(2))]
    return_sequences = bool(rng.integers(2))
    layer = layers.LSTMLayer(s, k, output_activation=activation, rng=rng,
                             return_sequences=return_sequences)
    shape = (int(rng.integers(1, 3)), int(rng.integers(1, 5)), s)
    x = rng.normal(scale=2.0, size=shape)
    if activation == "relu":
        # hidden states must sit away from the relu corner for the oracle
        for _ in range(100):
            layer.forward(x)
            if np.abs(layer.last_hidden_states).min() > 1e-3:
                break
            x = rng.normal(scale=2.0, size=shape)
        else:
            raise AssertionError("could not sample hidden states away from the kink")
    proj = rng.normal(size=layer.forward(x).shape)
    return _worst_param_and_input_error(layer, x, lambda: layer.forward(x), proj)


def check_time_distributed(rng: np.random.Generator) -> float:
    in_size = int(rng.integers(2, 5))
    out_size = int(rng.integers(2, 5))
    inner = layers.DenseLayer(in_size, out_size, "relu", rng=rng)
    layer = layers.TimeDistributed(inner)
    b, t = int(rng.integers(1, 3)), int(rng.integers(1, 5))
    flat = _sample_clear_of_kink(rng, inner, b * t)
    x = flat.reshape(b, t, in_size)
    proj = rng.normal(size=layer.forward(x).shape)
    return _worst_param_and_input_error(layer, x, lambda: layer.forward(x), proj)


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
