"""Finite-difference checks for every analytic backward pass.

The exhaustive twenty-instance sweep runs in the acceptance suite; this
module keeps a lighter per-layer sweep for quick iteration plus the
full-graph sanity pass.
"""

import numpy as np
import pytest

from gradcheck_lib import LAYER_CHECKS, finite_diff_grad, graph_grads, relative_grad_error
from tdntc import models
from tdntc.layers import softmax_cross_entropy_batch

TOLERANCE = 1e-4


@pytest.mark.parametrize("layer_name", sorted(LAYER_CHECKS))
def test_layer_backward_matches_finite_differences(layer_name):
    check = LAYER_CHECKS[layer_name]
    for i in range(6):
        rng = np.random.default_rng(7000 + 13 * i)
        err = check(rng)
        assert err < TOLERANCE, f"{layer_name} instance {i}: rel err {err:.3e}"


@pytest.mark.parametrize("variant", models.VARIANTS)
def test_full_graph_backward_produces_gradients_for_every_parameter(variant):
    cfg = models.ModelConfig(variant, 12, 3, units=4, kernel=(3, 2), td_units=4, seed=5)
    graph = models.build_model(cfg)
    rng = np.random.default_rng(1)
    if cfg.frame_input:
        x = rng.uniform(0, 1, size=(4, *graph.frame_dims))
    else:
        x = rng.uniform(0, 1, size=(4, 12))
    y = np.array([0, 1, 2, 0])
    logits = graph.forward_logits(x, train=True)
    _, _, dlogits = softmax_cross_entropy_batch(logits, y)
    graph.backward(dlogits / 4)
    params = graph.params()
    grads = graph_grads(graph)
    assert set(params) == set(grads)
    for name, arr in params.items():
        assert grads[name].shape == arr.shape
        assert np.isfinite(grads[name]).all(), name


def _sampled_numeric_grad(loss, arr, idx):
    """Central differences of `loss()` in the flat entries `idx` of `arr`."""
    flat = arr.reshape(-1)
    assert np.shares_memory(flat, arr)
    saved = flat[idx].copy()

    def at(values):
        flat[idx] = values
        return loss()

    try:
        return finite_diff_grad(at, saved.copy())
    finally:
        flat[idx] = saved


# Tiny configs with a 1x1 kernel.  12 features on a 6x2 frame pool to a 3x1
# grid, so m1-td folds three pooled rows and m3's LSTM runs over three pooled
# positions.  24 features on a 6x4 frame pool to 3x2, where a swap of the
# pooled rows and columns changes the result.
@pytest.mark.parametrize("variant, factor_pair", [
    *(pytest.param(variant, (6, 2), id=variant) for variant in models.VARIANTS),
    *(pytest.param(variant, (6, 4), id=f"{variant}-6x4") for variant in models.VARIANTS),
])
def test_whole_graph_backward_matches_finite_differences(variant, factor_pair):
    features = factor_pair[0] * factor_pair[1]
    units = 3 if variant.endswith("-td") else 4
    cfg = models.ModelConfig(variant, features, 3, units=units, kernel=(1, 1), td_units=units,
                             factor_pair=None if variant.startswith("m2") else factor_pair,
                             seed=21)
    graph = models.build_model(cfg)
    rng = np.random.default_rng(22)
    batch = 5
    shape = (batch, *graph.frame_dims) if cfg.frame_input else (batch, features)
    x = rng.normal(size=shape)
    y = np.array([0, 1, 2, 0, 1])

    def loss():
        logits = graph.forward_logits(x, train=True)
        return float(softmax_cross_entropy_batch(logits, y)[1].mean())

    logits = graph.forward_logits(x, train=True)
    _, _, dlogits = softmax_cross_entropy_batch(logits, y)
    graph.backward(dlogits / batch)
    grads = {name: g.copy() for name, g in graph_grads(graph).items()}
    # ModelGraph.backward asks the first stage for no input gradient
    # (`input_grad=False`), so the input check walks the stage chain itself
    # and takes the first stage's full backward.
    dout = graph.stages[-1].backward(dlogits / batch)
    for stage in reversed(graph.stages[:-1]):
        dout = stage.backward(dout)
    dx = dout.reshape(shape)

    checked = dict(graph.params(), input=x)
    analytic = dict(grads, input=dx)
    for name, arr in checked.items():
        idx = rng.choice(arr.size, size=min(arr.size, 12), replace=False)
        numeric = _sampled_numeric_grad(loss, arr, idx)
        want = analytic[name].reshape(-1)[idx]
        if name == "CNN_2D/biases":
            # Pooling commutes with a per-unit constant and train-mode BN
            # subtracts the batch mean, so the loss ignores the conv bias.
            assert np.abs(want).max() < 1e-12 and np.abs(numeric).max() < 1e-8
            continue
        assert np.abs(numeric).max() > 1e-6, f"{variant} {name}: no signal sampled"
        err = relative_grad_error(want, numeric)
        assert err < TOLERANCE, f"{variant} {name}: rel err {err:.3e}"
