import math
import tracemalloc

import numpy as np
import pytest

from gradcheck_lib import (
    bound,
    grads,
    lstm_hidden_states,
    params,
    reference_batchnorm_backward,
    reference_batchnorm_forward,
    reference_conv2d,
    reference_lstm_backward,
    relative_grad_error,
)
from tdntc.layers import (
    BatchNormLayer,
    Conv2DLayer,
    DenseLayer,
    GeometryError,
    LSTMLayer,
    MaxPool2x2,
    ShapeError,
    StatisticsError,
    conv2d_output_dims,
    softmax,
    softmax_cross_entropy_batch,
)
from tdntc.models import Reshape


def one(layer, x):
    """Run a batched layer's forward pass on a batch of one sample."""
    return layer.forward(x[None])[0]


def maxpool_map(x):
    """Pool a single (rows, cols) map."""
    return MaxPool2x2().forward(x[None, :, :, None])[0, :, :, 0]


def cross_entropy(logits, true_class):
    """(probabilities, loss) of one logit vector through the batched loss."""
    probs, losses, _ = softmax_cross_entropy_batch(
        np.asarray(logits, dtype=np.float64)[None], np.array([true_class]))
    return probs[0], float(losses[0])


def brute_force_conv2d(x, kernels, biases):
    """Direct-sum convolution oracle, (out_rows, out_cols, units): nothing
    shared with the layer code."""
    rows, cols = x.shape
    units, p, q = kernels.shape
    out_r, out_c = rows - p + 1, cols - q + 1
    out = np.zeros((out_r, out_c, units))
    for u in range(units):
        for i in range(out_r):
            for j in range(out_c):
                acc = 0.0
                for a in range(p):
                    for b in range(q):
                        acc += kernels[u, a, b] * x[i + a, j + b]
                out[i, j, u] = acc + biases[u]
    return out


def brute_force_conv2d_backward(x, kernels, dout):
    """Direct-sum gradients of a batched convolution: (d kernels, d biases, dx)."""
    units, p, q = kernels.shape
    dx = np.zeros_like(x)
    d_kernels = np.zeros_like(kernels)
    d_biases = np.zeros(units)
    for n in range(x.shape[0]):
        for u in range(units):
            for i in range(dout.shape[1]):
                for j in range(dout.shape[2]):
                    g = dout[n, i, j, u]
                    d_biases[u] += g
                    for a in range(p):
                        for b in range(q):
                            d_kernels[u, a, b] += g * x[n, i + a, j + b]
                            dx[n, i + a, j + b] += g * kernels[u, a, b]
    return d_kernels, d_biases, dx


class TestConvGeometry:
    def test_8x6_frame_with_3x3_kernel(self):
        assert conv2d_output_dims(8, 6, 3, 3) == (6, 4)

    def test_1x1_kernel_identity_geometry(self):
        assert conv2d_output_dims(7, 5, 1, 1) == (7, 5)

    def test_oversized_kernel_rejected(self):
        with pytest.raises(GeometryError):
            conv2d_output_dims(3, 3, 5, 5)

    def test_bad_arguments_rejected(self):
        with pytest.raises(GeometryError):
            conv2d_output_dims(4, 4, 0, 2)


class TestConv2D:
    def test_scaling_kernel(self):
        layer = Conv2DLayer(1, kernel=(1, 1), rng=np.random.default_rng(0))
        layer.kernels[...] = 2.0
        out = one(layer, np.ones((2, 2)))
        assert out.shape == (2, 2, 1)
        assert (out == 2.0).all()

    def test_window_sums(self):
        layer = Conv2DLayer(1, kernel=(2, 2), rng=np.random.default_rng(0))
        layer.kernels[:] = 1.0
        x = np.arange(1.0, 10.0).reshape(3, 3)
        out = one(layer, x)
        assert out[..., 0].tolist() == [[12.0, 16.0], [24.0, 28.0]]

    def test_bias_only(self):
        layer = Conv2DLayer(2, kernel=(2, 2), rng=np.random.default_rng(0))
        layer.kernels[...] = 0.0
        layer.biases[:] = 5.0
        out = one(layer, np.arange(16.0).reshape(4, 4))
        assert (out == 5.0).all()

    def test_matches_brute_force_on_random_grid(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            p = int(rng.integers(1, rows + 1))
            q = int(rng.integers(1, cols + 1))
            layer = Conv2DLayer(int(rng.integers(1, 4)), kernel=(p, q), rng=rng)
            x = rng.normal(size=(rows, cols))
            got = one(layer, x)
            want = brute_force_conv2d(x, layer.kernels, layer.biases)
            assert got.shape == want.shape
            assert got.shape[:2] == conv2d_output_dims(rows, cols, p, q)
            assert np.abs(got - want).max() <= 1e-12

    def test_batched_passes_match_direct_sums(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            p = int(rng.integers(1, rows + 1))
            q = int(rng.integers(1, cols + 1))
            layer = bound(Conv2DLayer(int(rng.integers(1, 4)), kernel=(p, q), rng=rng))
            layer.biases[:] = rng.normal(size=layer.units)
            x = rng.normal(size=(3, rows, cols))
            got = layer.forward(x, train=True)
            for n in range(3):
                want = brute_force_conv2d(x[n], layer.kernels, layer.biases)
                assert np.abs(got[n] - want).max() <= 1e-12
            dout = rng.normal(size=got.shape)
            dx = layer.backward(dout)
            d_kernels, d_biases, want_dx = brute_force_conv2d_backward(
                x, layer.kernels, dout)
            assert np.abs(layer.grad_kernels - d_kernels).max() <= 1e-12
            assert np.abs(layer.grad_biases - d_biases).max() <= 1e-12
            assert dx.shape == x.shape
            assert np.abs(dx - want_dx).max() <= 1e-12

    def test_geometry_error_propagates(self):
        layer = Conv2DLayer(1, kernel=(3, 3), rng=np.random.default_rng(0))
        with pytest.raises(GeometryError):
            layer.forward(np.zeros((1, 2, 2)))


@pytest.mark.parametrize("make, x_shape", [
    (lambda rng: Conv2DLayer(3, kernel=(3, 2), rng=rng), (4, 6, 5)),
    (lambda rng: Conv2DLayer(2, kernel=(1, 1), rng=rng), (3, 4, 3)),
    (lambda rng: LSTMLayer(2, 3, output_activation="relu", rng=rng), (4, 5, 2)),
    (lambda rng: LSTMLayer(3, 2, rng=rng, return_sequences=False), (4, 6, 3)),
], ids=["conv-3x2", "conv-1x1", "lstm-relu-sequences", "lstm-last-state"])
def test_backward_without_input_gradient_keeps_parameter_gradients(make, x_shape):
    # The graph's first stage skips its input gradient; the parameter
    # gradients must come out byte-equal to those of the full backward.
    # Backward takes the kept state, so each backward runs after its own
    # forward of the same input.
    rng = np.random.default_rng(31)
    layer = bound(make(rng))
    for arr in params(layer).values():
        arr[...] = rng.normal(size=arr.shape)
    x = rng.normal(size=x_shape)
    out = layer.forward(x, train=True)
    dout = rng.normal(size=out.shape)
    assert layer.backward(dout).shape == x_shape
    full = {name: g.copy() for name, g in grads(layer).items()}
    for g in grads(layer).values():
        g[...] = np.nan
    layer.forward(x, train=True)
    assert layer.backward(dout, input_grad=False) is None
    for name, g in grads(layer).items():
        assert g.tobytes() == full[name].tobytes(), name


class TestMaxPool:
    def test_single_window(self):
        out = maxpool_map(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out.tolist() == [[4.0]]

    def test_window_maxima(self):
        x = np.arange(1.0, 17.0).reshape(4, 4)
        assert maxpool_map(x).tolist() == [[6.0, 8.0], [14.0, 16.0]]

    def test_ties_collapse(self):
        out = maxpool_map(np.full((4, 4), 3.5))
        assert (out == 3.5).all()

    def test_odd_extent_rejected(self):
        with pytest.raises(GeometryError):
            maxpool_map(np.zeros((3, 4)))

    def test_gradient_mass_is_conserved(self):
        rng = np.random.default_rng(4)
        pool = MaxPool2x2()
        x = rng.normal(size=(2, 4, 6, 3))
        out = pool.forward(x, train=True)
        dout = rng.normal(size=out.shape)
        dx = pool.backward(dout)
        assert abs(dx.sum() - dout.sum()) <= 1e-12

    def test_tie_routes_to_first_in_row_major(self):
        pool = MaxPool2x2()
        x = np.zeros((1, 2, 2, 1))
        pool.forward(x, train=True)
        dx = pool.backward(np.array([[[[1.0]]]]))
        assert dx[0, :, :, 0].tolist() == [[1.0, 0.0], [0.0, 0.0]]
        # Batch 2 of 2x2 windows on a 4x4 grid x 3 channels.  The window
        # maximum fills cells first..3 in row-major order, so the gradient
        # belongs to cell `first` alone.  Axes: (batch, window row, window
        # col, unit, cell) <-> (batch, window row, cell row, window col,
        # cell col, unit).
        rng = np.random.default_rng(9)
        for first in range(4):
            cells = np.where(np.arange(4) >= first, 5.0,
                             rng.uniform(-1.0, 1.0, size=(2, 2, 2, 3, 4)))
            x = cells.reshape(2, 2, 2, 3, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(2, 4, 4, 3)
            assert (pool.forward(x, train=True) == 5.0).all()
            dout = rng.normal(size=(2, 2, 2, 3))
            dx = pool.backward(dout)
            got = dx.reshape(2, 2, 2, 2, 2, 3).transpose(0, 1, 3, 5, 2, 4).reshape(2, 2, 2, 3, 4)
            want = np.zeros((2, 2, 2, 3, 4))
            want[..., first] = dout
            assert np.array_equal(got, want), first


class TestConv2DAgainstSeparateBiasReference:
    """The ones column and stacked kernels against a GEMM plus a bias pass."""

    @staticmethod
    def cases(count, seed):
        rng = np.random.default_rng(seed)
        shapes = [(32, 8, 6, 128, 3, 3), (256, 8, 6, 128, 3, 3), (32, 16, 3, 8, 3, 2)]
        for _ in range(count - len(shapes)):
            rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            shapes.append((int(rng.integers(1, 65)), rows, cols, int(rng.integers(1, 160)),
                           int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1))))
        for b, rows, cols, units, p, q in shapes:
            layer = bound(Conv2DLayer(units, kernel=(p, q), rng=rng))
            layer.biases[:] = rng.normal(size=units)
            yield layer, rng.normal(size=(b, rows, cols))

    def test_matches_reference(self):
        # BLAS picks its kernel by shape, so the last bit may differ: the
        # forward and the kernel gradient are compared to the largest
        # magnitude, and only the bias gradient, a plain sum, to the bit.
        rng = np.random.default_rng(19)
        for layer, x in self.cases(150, seed=19):
            shape = (x.shape, layer.kernels.shape)
            dout = rng.normal(size=layer.forward(x).shape)
            want, want_kernels, want_biases = reference_conv2d(
                x, layer.kernels, layer.biases, dout)
            for train in (False, True):
                got = layer.forward(x, train=train)
                assert got.shape == want.shape, shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), shape
            assert layer.backward(dout, input_grad=False) is None
            assert (np.abs(layer.grad_kernels - want_kernels).max()
                    <= 1e-13 * np.abs(want_kernels).max()), shape
            assert layer.grad_biases.tobytes() == want_biases.tobytes(), shape


def tree_maxpool(x):
    """The 2x2 pool as a tree of three maxima, with first-maximum masks."""
    cells = [x[:, i::2, j::2] for i, j in MaxPool2x2.CELLS]
    out = np.maximum(np.maximum(cells[0], cells[1]), np.maximum(cells[2], cells[3]))
    masks, free = [], np.ones(out.shape, dtype=bool)
    for cell in cells:
        masks.append((cell == out) & free)
        free &= ~masks[-1]
    return out, masks


def test_maxpool_in_place_maxima_match_the_tree():
    # Small integers make ties common; max is exact, so every bit must agree.
    rng = np.random.default_rng(7)
    for _ in range(40):
        shape = tuple(int(rng.integers(1, 5)) * m for m in (1, 2, 2, 1))
        x = rng.integers(-2, 3, size=shape).astype(np.float64)
        pool = MaxPool2x2()
        want, want_masks = tree_maxpool(x)
        assert pool.forward(x).tobytes() == want.tobytes()
        got = pool.forward(x, train=True)
        # same memory layout: the strides agree on every axis longer than one
        assert [st for st, n in zip(got.strides, got.shape) if n > 1] == \
            [st for st, n in zip(want.strides, want.shape) if n > 1]
        assert got.tobytes() == want.tobytes()
        (masks,) = pool._saved
        for mask, want_mask in zip(masks, want_masks):
            assert np.array_equal(mask, want_mask)


class TestConvFrontLayout:
    """Every stage from the pool to the fold reads and writes units last."""

    @pytest.mark.parametrize("make", [
        MaxPool2x2, lambda: bound(BatchNormLayer(3)), lambda: Reshape("Reshape", (4, 18)),
        lambda: Reshape("Reshape", (24, 3)), lambda: Reshape("Flatten", (72,)),
        lambda: Reshape("Flatten", (72,), units_first=True),
    ], ids=["maxpool", "batchnorm", "fold-rows", "fold-positions", "fold-join", "flatten"])
    def test_stage_keeps_units_on_the_last_axis(self, make):
        rng = np.random.default_rng(12)
        b, h, w, u = x_shape = (4, 4, 6, 3)
        x = rng.normal(size=x_shape)
        layer = make()
        out = layer.forward(x, train=True)
        dout = rng.normal(size=out.shape)
        dx = layer.backward(dout)
        assert dx.shape == x_shape
        if isinstance(layer, MaxPool2x2):
            # window (i, j) of unit k is x[:, 2i:2i+2, 2j:2j+2, k]; its
            # gradient goes to its maximum alone
            windows = x.reshape(b, h // 2, 2, w // 2, 2, u)
            want = windows.max(axis=(2, 4))
            assert out.tobytes() == want.tobytes()
            dx_windows = dx.reshape(windows.shape)
            assert np.array_equal(dx_windows != 0, windows == want[:, :, None, :, None])
            assert np.array_equal(dx_windows.sum(axis=(2, 4)), dout)
        elif isinstance(layer, BatchNormLayer):
            # unit k is normalized over every batch row and position
            flat = x.reshape(-1, u)
            want = (flat - flat.mean(axis=0)) / np.sqrt(flat.var(axis=0) + layer.EPSILON)
            assert np.abs(out.reshape(-1, u) - want).max() <= 1e-12
            assert np.abs(layer.grad_beta - dout.reshape(-1, u).sum(axis=0)).max() <= 1e-12
        elif not layer.units_first:
            # a fold is a reshape both ways: no copy, no reorder
            assert np.shares_memory(out, x) and np.shares_memory(dx, dout)
            assert out.tobytes() == x.tobytes() and dx.tobytes() == dout.tobytes()
        else:
            # m1-van's flatten reads each sample units first, (units, rows, cols)
            assert layer.name == "Flatten"
            for n, k, i, j in np.ndindex(b, u, h, w):
                assert out[n, (k * h + i) * w + j] == x[n, i, j, k]
                assert dx[n, i, j, k] == dout[n, (k * h + i) * w + j]


class TestBatchNorm:
    def test_constant_channel_normalizes_to_zero(self):
        layer = BatchNormLayer(1)
        x = np.full((4, 1), 9.0)
        out = layer.forward(x, train=True)
        assert np.abs(out).max() <= 1e-3

    def test_gamma_zero_emits_beta(self):
        layer = BatchNormLayer(2)
        layer.gamma[:] = 0.0
        layer.beta[:] = 1.75
        out = layer.forward(np.random.default_rng(0).normal(size=(3, 2)), train=True)
        assert (out == 1.75).all()

    def test_unit_variance_pair(self):
        layer = BatchNormLayer(1)
        x = np.array([[-1.0], [1.0]])
        out = layer.forward(x, train=True)
        assert np.abs(out - x).max() <= 1e-4

    def test_batch_of_one_rejected(self):
        layer = BatchNormLayer(2)
        with pytest.raises(StatisticsError):
            layer.forward(np.zeros((1, 2)), train=True)

    def test_running_stats_drive_inference(self):
        layer = BatchNormLayer(1)
        rng = np.random.default_rng(2)
        x = rng.normal(loc=4.0, scale=2.0, size=(64, 1))
        for _ in range(200):
            layer.forward(x, train=True)
        out = layer.forward(x, train=False)
        assert abs(out.mean()) < 0.05
        assert abs(out.std() - 1.0) < 0.05

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            BatchNormLayer(3).forward(np.zeros((4, 2)), train=True)


def same_bits(a, b):
    return a.shape == b.shape and (np.ascontiguousarray(a).tobytes()
                                   == np.ascontiguousarray(b).tobytes())


def batchnorm_cases(count, seed):
    """(layer, x, dout) on random (batch, rows, cols, channels) shapes; gamma,
    beta and the running statistics are random."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        shape = tuple(int(rng.integers(lo, hi)) for lo, hi in ((2, 41), (1, 5), (1, 5), (1, 17)))
        if i == 0:
            shape = (32, 3, 2, 128)  # train-cnn's m1-td shape behind the pool
        c = shape[-1]
        layer = bound(BatchNormLayer(c))
        layer.gamma[:] = rng.normal(1.0, 0.3, size=c)
        layer.beta[:] = rng.normal(0.0, 0.3, size=c)
        layer.running_mean = rng.normal(size=c)
        layer.running_var = rng.uniform(0.1, 3.0, size=c)
        x = rng.normal(loc=rng.normal(size=c), size=shape)
        yield layer, x, rng.normal(size=shape)


class TestBatchNormAgainstThreeTermReference:
    """One centering and the closed-form backward against the old formula."""

    def test_matches_reference(self):
        for layer, x, dout in batchnorm_cases(200, seed=18):
            stats = (layer.running_mean.copy(), layer.running_var.copy())
            want_inf, _, _, _ = reference_batchnorm_forward(
                x, layer.gamma, layer.beta, *stats, train=False)
            assert same_bits(layer.forward(x), want_inf), x.shape
            want, want_mean, want_var, cache = reference_batchnorm_forward(
                x, layer.gamma, layer.beta, *stats, train=True)
            assert same_bits(layer.forward(x, train=True), want), x.shape
            assert same_bits(layer.running_mean, want_mean), x.shape
            assert same_bits(layer.running_var, want_var), x.shape
            want_dx, want_gamma, want_beta = reference_batchnorm_backward(
                cache, layer.gamma, dout)
            dx = layer.backward(dout)
            assert same_bits(layer.grad_gamma, want_gamma), x.shape
            assert same_bits(layer.grad_beta, want_beta), x.shape
            assert dx.shape == x.shape
            assert relative_grad_error(dx, want_dx) <= 1e-13, x.shape

    def test_input_gradient_is_orthogonal_to_ones_and_x_hat(self):
        # dx is gamma * inv_std times d with its projections on 1 and on x_hat
        # removed.  So dx sums to 0 over a channel's positions, and dx * x_hat
        # to 0 but for EPSILON's share of the variance: mean(x_hat ** 2) is
        # 1 - EPSILON * inv_std ** 2, not 1.  Rounding is bounded by the size
        # of gamma * inv_std * d, not of dx, which vanishes for two positions.
        for layer, x, dout in batchnorm_cases(60, seed=19):
            layer.forward(x, train=True)
            x_hat, inv_std, _ = layer._saved
            d = dout.reshape(x_hat.shape)
            dx = layer.backward(dout).reshape(x_hat.shape)
            scale = (np.abs(layer.gamma * inv_std * d) * (1 + x_hat ** 2)).sum(axis=0)
            eps_share = layer.gamma * inv_std ** 3 * layer.EPSILON * layer.grad_gamma
            for terms, want in ((dx, 0.0), (dx * x_hat, eps_share)):
                assert (np.abs(terms.sum(axis=0) - want) <= 1e-12 * scale).all(), x.shape


class TestLSTM:
    def test_zero_weights_give_zero_states(self):
        layer = LSTMLayer(2, 3, rng=np.random.default_rng(0))
        layer.w_x[...] = 0.0
        layer.w_h[...] = 0.0
        out = one(layer, np.random.default_rng(0).normal(size=(5, 2)))
        assert (out == 0).all()

    def test_single_step_shapes_agree(self):
        full_layer = LSTMLayer(2, 4, rng=np.random.default_rng(1))
        last_layer = LSTMLayer(2, 4, rng=np.random.default_rng(1),
                               return_sequences=False)
        seq = np.random.default_rng(2).normal(size=(1, 2))
        full = one(full_layer, seq)
        last = one(last_layer, seq)
        assert full.shape == (1, 4)
        assert last.shape == (4,)
        assert (full[0] == last).all()

    def test_two_step_hand_unrolled_recurrence(self):
        # One unit, scalar input; the oracle below re-derives the gate math
        # with plain floats, independent of the layer implementation.
        layer = LSTMLayer(1, 1, rng=np.random.default_rng(0))
        wx = [0.5, -0.3, 0.8, 0.2]      # input, forget, candidate, output
        wh = [0.1, 0.4, -0.2, 0.3]
        b = [0.05, -0.05, 0.1, 0.0]
        layer.w_x[0, :] = wx
        layer.w_h[0, :] = wh
        layer.bias[:] = b
        xs = [0.7, -0.4]

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h = c = 0.0
        states = []
        for x in xs:
            zi = wx[0] * x + wh[0] * h + b[0]
            zf = wx[1] * x + wh[1] * h + b[1]
            zg = wx[2] * x + wh[2] * h + b[2]
            zo = wx[3] * x + wh[3] * h + b[3]
            c = sig(zf) * c + sig(zi) * math.tanh(zg)
            h = sig(zo) * math.tanh(c)
            states.append(h)

        out = one(layer, np.array([[0.7], [-0.4]]))
        assert np.abs(out[:, 0] - np.array(states)).max() <= 1e-12

    @pytest.mark.parametrize("s,k", [(1, 4), (3, 4)])
    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("return_sequences,train", [
        (True, True), (False, True), (True, False), (False, False)],
        ids=["True", "False", "True-inference", "False-inference"])
    def test_forward_matches_per_step_reference(self, s, k, activation,
                                                return_sequences, train):
        rng = np.random.default_rng(11)
        layer = bound(LSTMLayer(s, k, output_activation=activation, rng=rng,
                                return_sequences=return_sequences))
        layer.bias[:] = rng.normal(scale=0.5, size=4 * k)
        x = rng.normal(size=(3, 5, s))

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        h = np.zeros((3, k))
        c = np.zeros((3, k))
        states = []
        for step in range(5):
            z = x[:, step] @ layer.w_x + h @ layer.w_h + layer.bias
            i = sig(z[:, :k])
            f = sig(z[:, k:2 * k])
            g = np.tanh(z[:, 2 * k:3 * k])
            o = sig(z[:, 3 * k:])
            c = f * c + i * g
            h = o * np.tanh(c)
            states.append(h)
        want_states = np.stack(states, axis=1)
        want = np.maximum(want_states, 0.0) if activation == "relu" else want_states
        if not return_sequences:
            want = want[:, -1]

        before = {name: p.copy() for name, p in params(layer).items()}
        out = layer.forward(x, train=train)
        assert out.shape == want.shape
        assert out.flags.c_contiguous
        assert np.abs(out - want).max() <= 1e-12
        if train:
            assert np.abs(lstm_hidden_states(layer) - want_states).max() <= 1e-12
            layer.backward(rng.normal(size=out.shape))
            for name, p in params(layer).items():
                assert p.tobytes() == before[name].tobytes(), name
        else:
            # the inference forward keeps nothing for backward and runs the
            # same arithmetic as a train-mode forward
            with pytest.raises(RuntimeError, match="train-mode forward"):
                layer.backward(np.ones(out.shape))
            assert out.tobytes() == layer.forward(x, train=True).tobytes()

    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_inference_forward_allocates_no_per_step_cache(self, return_sequences):
        # One (steps, batch, 4 * units) float64 buffer, the size of the gate
        # cache a train-mode forward keeps: m2's 48 scalar steps, batch 64.
        batch, steps, units = 64, 48, 32
        gate_cache_bytes = steps * batch * 4 * units * 8
        assert gate_cache_bytes == 3_145_728
        layer = LSTMLayer(1, units, output_activation="relu",
                          rng=np.random.default_rng(4),
                          return_sequences=return_sequences)
        x = np.random.default_rng(5).normal(size=(batch, steps, 1))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = layer.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape[0] == batch
        assert peak < gate_cache_bytes

    def test_width_mismatch(self):
        layer = LSTMLayer(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 4, 2)))

    def test_relu_output_activation_clamps_emissions_only(self):
        rng = np.random.default_rng(8)
        plain = LSTMLayer(2, 3, output_activation="identity", rng=rng)
        rectified = LSTMLayer(2, 3, output_activation="relu", rng=rng)
        rectified.w_x[...] = plain.w_x
        rectified.w_h[...] = plain.w_h
        rectified.bias[...] = plain.bias
        x = rng.normal(size=(2, 6, 2))
        raw = plain.forward(x)
        clamped = rectified.forward(x)
        assert (clamped == np.maximum(raw, 0.0)).all()


@pytest.mark.parametrize("input_grad", [True, False], ids=["dx", "no-dx"])
@pytest.mark.parametrize("b, t, s, k, activation, return_sequences", [
    (32, 48, 1, 128, "relu", True),
    (32, 6, 128, 128, "identity", True),
    (32, 6, 128, 128, "identity", False),
    (5, 7, 3, 4, "relu", False),
    (2, 1, 1, 3, "identity", True),
    (33, 48, 1, 16, "relu", True),
    (1, 5, 2, 3, "relu", True),
], ids=["m2", "m3-sequences", "m3-last", "small-last", "one-step", "odd-batch", "batch-1"])
def test_lstm_backward_matches_the_batch_major_reference(b, t, s, k, activation,
                                                         return_sequences, input_grad):
    # The gate-major backward runs the batch-major loop's operations in the
    # same order, so every gradient is byte-equal.  It takes the kept state
    # and writes its gate gradient over the kept gates, so the reference
    # reads that state first, and a second round reruns the forward.
    rng = np.random.default_rng(27)
    layer = bound(LSTMLayer(s, k, output_activation=activation, rng=rng,
                            return_sequences=return_sequences))
    layer.bias[:] = rng.normal(scale=0.5, size=4 * k)
    x = rng.normal(size=(b, t, s))
    out = layer.forward(x, train=True)
    dout = rng.normal(size=out.shape)
    want_dx, *want_grads = reference_lstm_backward(layer, dout, input_grad)
    for rerun in (False, True):
        if rerun:
            assert same_bits(layer.forward(x, train=True), out)
        dx = layer.backward(dout, input_grad=input_grad)
        assert layer._saved is None
        for name, want in zip(("grad_w_x", "grad_w_h", "grad_bias"), want_grads):
            assert same_bits(getattr(layer, name), want), name
        if input_grad:
            assert same_bits(dx, want_dx)
        else:
            assert dx is None and want_dx is None


class TestDense:
    def test_identity_weights(self):
        layer = DenseLayer(3, 3, rng=np.random.default_rng(0))
        layer.weights[:] = np.eye(3)
        x = np.array([1.0, -2.0, 0.5])
        assert (one(layer, x) == x).all()

    def test_relu_clamp(self):
        layer = DenseLayer(2, 2, activation="relu", rng=np.random.default_rng(0))
        layer.weights[:] = np.eye(2)
        out = one(layer, np.array([-1.0, 2.0]))
        assert out.tolist() == [0.0, 2.0]

    def test_hand_evaluation(self):
        layer = DenseLayer(2, 1, rng=np.random.default_rng(0))
        layer.weights[:, 0] = [1.0, 1.0]
        layer.bias[0] = 1.0
        assert one(layer, np.array([2.0, 3.0])).tolist() == [6.0]

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            one(DenseLayer(3, 2, rng=np.random.default_rng(0)), np.array([1.0, 2.0]))


class TestTimeDistributed:
    """A dense layer over the last axis of (batch, steps, features): one set of
    weights shared by every step, the paper's time-distributed dense layer."""

    def test_degenerate_sequence_equals_dense(self):
        rng = np.random.default_rng(3)
        layer = DenseLayer(3, 2, activation="relu", rng=rng)
        x = rng.normal(size=(3,))
        step = one(layer, x[None])
        assert step.shape == (1, 2)
        assert (step[0] == one(layer, x)).all()

    def test_degenerate_sequence_has_identical_gradients(self):
        rng = np.random.default_rng(9)
        seq = bound(DenseLayer(3, 2, activation="relu", rng=rng))
        flat = bound(DenseLayer(3, 2, activation="relu", rng=rng))
        flat.weights[...] = seq.weights
        flat.bias[...] = seq.bias
        x = rng.normal(size=(4, 3))
        dout = rng.normal(size=(4, 2))
        out_seq = seq.forward(x[:, None, :], train=True)
        out_flat = flat.forward(x, train=True)
        assert out_seq.shape == (4, 1, 2)
        assert (out_seq[:, 0, :] == out_flat).all()
        dx_seq = seq.backward(dout[:, None, :])
        dx_flat = flat.backward(dout)
        assert dx_seq.shape == (4, 1, 3)
        assert (dx_seq[:, 0, :] == dx_flat).all()
        for name in ("weights", "bias"):
            assert (grads(seq)[name] == grads(flat)[name]).all()

    def test_identical_rows_give_identical_rows(self):
        rng = np.random.default_rng(5)
        layer = DenseLayer(3, 4, rng=rng)
        row = rng.normal(size=3)
        seq = np.tile(row, (5, 1))
        out = one(layer, seq)
        assert out.shape == (5, 4)
        assert (out == out[0]).all()

    def test_identity_inner(self):
        layer = DenseLayer(2, 2, rng=np.random.default_rng(0))
        layer.weights[:] = np.eye(2)
        seq = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert (one(layer, seq) == seq).all()

    def test_sequence_equals_a_loop_of_steps(self):
        rng = np.random.default_rng(12)
        b, t, f, out = 3, 4, 5, 2
        layer = bound(DenseLayer(f, out, activation="relu", rng=rng))
        x = rng.normal(size=(b, t, f))
        dout = rng.normal(size=(b, t, out))
        y = layer.forward(x, train=True)
        dx = layer.backward(dout)
        seq_grads = {name: g.copy() for name, g in grads(layer).items()}
        summed = {name: np.zeros_like(g) for name, g in seq_grads.items()}
        for step in range(t):
            assert np.allclose(y[:, step], layer.forward(x[:, step], train=True),
                               rtol=1e-13, atol=1e-13)
            assert np.allclose(dx[:, step], layer.backward(dout[:, step]),
                               rtol=1e-13, atol=1e-13)
            for name, g in grads(layer).items():
                summed[name] += g
        for name, g in seq_grads.items():
            assert np.allclose(g, summed[name], rtol=1e-13, atol=1e-13), name

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4)])
    def test_wrong_last_axis_or_one_dimension_rejected(self, shape):
        layer = DenseLayer(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros(shape))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        probs, loss = cross_entropy(np.zeros(4), 2)
        assert np.abs(probs - 0.25).max() <= 1e-12
        assert abs(loss - math.log(4)) <= 1e-12

    def test_stabilized_extremes(self):
        probs, loss = cross_entropy(np.array([1000.0, 0.0]), 0)
        assert np.isfinite(loss)
        assert abs(probs[0] - 1.0) <= 1e-12
        assert probs[1] <= 1e-12

    def test_closed_form_two_class(self):
        _, loss = cross_entropy(np.array([1.0, 2.0]), 1)
        assert abs(loss - math.log(1 + math.exp(-1))) <= 1e-12

    def test_out_of_range_class(self):
        with pytest.raises(IndexError):
            cross_entropy(np.zeros(3), 3)

    def test_probabilities_sum_to_one_at_large_magnitudes(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            logits = rng.uniform(-1e4, 1e4, size=int(rng.integers(2, 8)))
            probs = softmax(logits)
            assert (probs >= 0).all()
            assert abs(probs.sum() - 1.0) <= 1e-12
