import math

import numpy as np
import pytest

from tdntc.layers import (
    BatchNormLayer,
    Conv2DLayer,
    DenseLayer,
    GeometryError,
    LSTMLayer,
    MaxPool2x2,
    StatisticsError,
    TimeDistributed,
    conv2d_output_dims,
    softmax,
    softmax_cross_entropy_batch,
)
from tdntc.tensor import ShapeError


def one(layer, x):
    """Run a batched layer's forward pass on a batch of one sample."""
    return layer.forward(x[None])[0]


def maxpool_map(x):
    """Pool a single (rows, cols) map."""
    return MaxPool2x2().forward(x[None, None])[0, 0]


def cross_entropy(logits, true_class):
    """(probabilities, loss) of one logit vector through the batched loss."""
    probs, losses, _ = softmax_cross_entropy_batch(
        np.asarray(logits, dtype=np.float64)[None], np.array([true_class]))
    return probs[0], float(losses[0])


def brute_force_conv2d(x, kernels, biases, padding, stride_x, stride_y):
    """Direct-sum convolution oracle: nothing shared with the layer code."""
    rows, cols = x.shape
    units, p, q = kernels.shape
    padded = np.zeros((rows + 2 * padding, cols + 2 * padding))
    padded[padding: padding + rows, padding: padding + cols] = x
    out_r = (rows - p + 2 * padding) // stride_x + 1
    out_c = (cols - q + 2 * padding) // stride_y + 1
    out = np.zeros((units, out_r, out_c))
    for u in range(units):
        for i in range(out_r):
            for j in range(out_c):
                acc = 0.0
                for a in range(p):
                    for b in range(q):
                        acc += kernels[u, a, b] * padded[i * stride_x + a,
                                                         j * stride_y + b]
                out[u, i, j] = acc + biases[u]
    return out


class TestConvGeometry:
    def test_8x6_frame_with_3x3_kernel(self):
        assert conv2d_output_dims(8, 6, 3, 3, 0, 1, 1) == (6, 4)

    def test_1x1_kernel_identity_geometry(self):
        assert conv2d_output_dims(7, 5, 1, 1, 0, 1, 1) == (7, 5)

    def test_same_padding_case(self):
        assert conv2d_output_dims(5, 5, 3, 3, 1, 1, 1) == (5, 5)

    def test_non_integral_stride_rejected(self):
        with pytest.raises(GeometryError):
            conv2d_output_dims(5, 5, 2, 2, 0, 2, 2)

    def test_oversized_kernel_rejected(self):
        with pytest.raises(GeometryError):
            conv2d_output_dims(3, 3, 5, 5, 0, 1, 1)

    def test_bad_arguments_rejected(self):
        with pytest.raises(GeometryError):
            conv2d_output_dims(4, 4, 2, 2, -1, 1, 1)


class TestConv2D:
    def test_scaling_kernel(self):
        layer = Conv2DLayer(1, kernel=(1, 1))
        layer.kernels[0, 0, 0] = 2.0
        out = one(layer, np.ones((2, 2)))
        assert out.shape == (1, 2, 2)
        assert (out == 2.0).all()

    def test_window_sums(self):
        layer = Conv2DLayer(1, kernel=(2, 2))
        layer.kernels[:] = 1.0
        x = np.arange(1.0, 10.0).reshape(3, 3)
        out = one(layer, x)
        assert out[0].tolist() == [[12.0, 16.0], [24.0, 28.0]]

    def test_bias_only(self):
        layer = Conv2DLayer(2, kernel=(2, 2))
        layer.biases[:] = 5.0
        out = one(layer, np.arange(16.0).reshape(4, 4))
        assert (out == 5.0).all()

    def test_matches_brute_force_on_random_grid(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 40:
            rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            p = int(rng.integers(1, rows + 1))
            q = int(rng.integers(1, cols + 1))
            g = int(rng.integers(0, 3))
            sx = int(rng.integers(1, 4))
            sy = int(rng.integers(1, 4))
            if (rows - p + 2 * g) % sx or (cols - q + 2 * g) % sy:
                continue
            layer = Conv2DLayer(int(rng.integers(1, 4)), kernel=(p, q),
                                stride=(sx, sy), padding=g, rng=rng)
            x = rng.normal(size=(rows, cols))
            got = one(layer, x)
            want = brute_force_conv2d(x, layer.kernels, layer.biases, g, sx, sy)
            assert got.shape == want.shape
            dims = conv2d_output_dims(rows, cols, p, q, g, sx, sy)
            assert got.shape[1:] == dims
            assert np.abs(got - want).max() <= 1e-12
            checked += 1

    def test_geometry_error_propagates(self):
        layer = Conv2DLayer(1, kernel=(3, 3))
        with pytest.raises(GeometryError):
            layer.forward(np.zeros((1, 2, 2)))


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
        x = rng.normal(size=(2, 3, 4, 6))
        out = pool.forward(x)
        dout = rng.normal(size=out.shape)
        dx = pool.backward(dout)
        assert abs(dx.sum() - dout.sum()) <= 1e-12

    def test_tie_routes_to_first_in_row_major(self):
        pool = MaxPool2x2()
        x = np.zeros((1, 1, 2, 2))
        pool.forward(x)
        dx = pool.backward(np.array([[[[1.0]]]]))
        assert dx[0, 0].tolist() == [[1.0, 0.0], [0.0, 0.0]]


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
        layer = BatchNormLayer(1, momentum=0.9)
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


class TestLSTM:
    def test_zero_weights_give_zero_states(self):
        layer = LSTMLayer(2, 3)
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
        layer = LSTMLayer(1, 1)
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

    def test_width_mismatch(self):
        layer = LSTMLayer(3, 2)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 4, 2)))

    def test_relu_output_activation_clamps_emissions_only(self):
        rng = np.random.default_rng(8)
        plain = LSTMLayer(2, 3, output_activation="identity", rng=rng)
        rectified = LSTMLayer(2, 3, output_activation="relu")
        rectified.w_x[...] = plain.w_x
        rectified.w_h[...] = plain.w_h
        rectified.bias[...] = plain.bias
        x = rng.normal(size=(2, 6, 2))
        raw = plain.forward(x)
        clamped = rectified.forward(x)
        assert (clamped == np.maximum(raw, 0.0)).all()


class TestDense:
    def test_identity_weights(self):
        layer = DenseLayer(3, 3)
        layer.weights[:] = np.eye(3)
        x = np.array([1.0, -2.0, 0.5])
        assert (one(layer, x) == x).all()

    def test_relu_clamp(self):
        layer = DenseLayer(2, 2, activation="relu")
        layer.weights[:] = np.eye(2)
        out = one(layer, np.array([-1.0, 2.0]))
        assert out.tolist() == [0.0, 2.0]

    def test_hand_evaluation(self):
        layer = DenseLayer(2, 1)
        layer.weights[:, 0] = [1.0, 1.0]
        layer.bias[0] = 1.0
        assert one(layer, np.array([2.0, 3.0])).tolist() == [6.0]

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            one(DenseLayer(3, 2), np.array([1.0, 2.0]))


class TestTimeDistributed:
    def test_degenerate_sequence_equals_dense(self):
        rng = np.random.default_rng(3)
        inner = DenseLayer(3, 2, activation="relu", rng=rng)
        td = TimeDistributed(inner)
        x = rng.normal(size=(3,))
        assert (one(td, x[None]) == one(inner, x)).all()

    def test_degenerate_sequence_has_identical_gradients(self):
        rng = np.random.default_rng(9)
        inner_a = DenseLayer(3, 2, activation="relu", rng=rng)
        inner_b = DenseLayer(3, 2, activation="relu")
        inner_b.weights[...] = inner_a.weights
        inner_b.bias[...] = inner_a.bias
        td = TimeDistributed(inner_a)
        x = rng.normal(size=(4, 3))
        dout = rng.normal(size=(4, 2))
        out_td = td.forward(x[:, None, :])
        out_dense = inner_b.forward(x)
        assert (out_td[:, 0, :] == out_dense).all()
        dx_td = td.backward(dout[:, None, :])
        dx_dense = inner_b.backward(dout)
        assert (dx_td[:, 0, :] == dx_dense).all()
        for name in ("weights", "bias"):
            assert (td.grads()[name] == inner_b.grads()[name]).all()

    def test_identical_rows_give_identical_rows(self):
        rng = np.random.default_rng(5)
        td = TimeDistributed(DenseLayer(3, 4, rng=rng))
        row = rng.normal(size=3)
        seq = np.tile(row, (5, 1))
        out = one(td, seq)
        assert (out == out[0]).all()

    def test_identity_inner(self):
        inner = DenseLayer(2, 2)
        inner.weights[:] = np.eye(2)
        td = TimeDistributed(inner)
        seq = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert (one(td, seq) == seq).all()


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
