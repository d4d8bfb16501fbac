import tracemalloc

import numpy as np
import pytest

from gradcheck_lib import graph_backward_returns, grads, params
from tdntc import models, trainer
from tdntc.layers import DenseLayer, Layer, ShapeError, softmax, softmax_cross_entropy_batch
from tdntc.models import BuildError, ModelConfig, build_model, count_parameters

# N=12 folds to 4x3 frames; a 3x2 kernel is the geometry that survives the
# 2x2 pool there (the default 3x3 kernel leaves an odd column extent).
GRID_KERNELS = {12: (3, 2), 48: (3, 3)}


def make_config(variant, n_features, n_classes, **kw):
    kw.setdefault("kernel", GRID_KERNELS.get(n_features, (3, 3)))
    return ModelConfig(variant, n_features, n_classes, **kw)


def enumerate_stage_counts(graph):
    """Independent audit oracle: count every element of every live array."""
    per_stage = []
    for stage in graph.stages:
        per_stage.append(sum(arr.size for arr in params(stage).values()))
    return per_stage, sum(per_stage)


class TestGoldenParameterTables:
    def test_m3_td_48_141_matches_reference_table(self):
        graph = build_model(ModelConfig("m3-td", 48, 141))
        rows, total = count_parameters(graph)
        assert [r.name for r in rows] == [
            "CNN_2D", "MP_2D", "BN", "Reshape", "LSTM", "TD(FFNN_0)",
            "Flatten", "FFNN_1"]
        assert [r.count for r in rows] == [1280, 0, 256, 0, 131584, 16512, 0, 108429]
        assert total == 258061

    def test_m3_van_48_141_matches_reference_table(self):
        graph = build_model(ModelConfig("m3-van", 48, 141))
        rows, total = count_parameters(graph)
        assert [r.name for r in rows] == [
            "CNN_2D", "MP_2D", "BN", "Reshape", "LSTM", "FFNN_0",
            "Flatten", "FFNN_1"]
        assert [r.count for r in rows] == [1280, 0, 256, 0, 131584, 16512, 0, 18189]
        assert total == 167821

    def test_decision_stage_formula_for_cos_width(self):
        graph = build_model(ModelConfig("m3-td", 48, 24))
        rows, total = count_parameters(graph)
        assert rows[-1].count == 768 * 24 + 24 == 18456
        assert [r.count for r in rows[:-1]] == [1280, 0, 256, 0, 131584, 16512, 0]

    def test_td_vanilla_delta_confined_to_decision_stage(self):
        td_rows, td_total = count_parameters(build_model(ModelConfig("m3-td", 48, 141)))
        van_rows, van_total = count_parameters(build_model(ModelConfig("m3-van", 48, 141)))
        assert td_total - van_total == 90240
        deltas = [t.count - v.count for t, v in zip(td_rows, van_rows)]
        assert deltas[:-1] == [0] * (len(deltas) - 1)
        assert deltas[-1] == 90240
        assert td_rows[-1].name == van_rows[-1].name == "FFNN_1"

    def test_count_equals_enumeration_over_grid(self):
        for variant in models.VARIANTS:
            for n_features in (12, 48):
                for n_classes in (2, 24, 141):
                    graph = build_model(make_config(variant, n_features, n_classes))
                    rows, total = count_parameters(graph)
                    stage_sizes, live_total = enumerate_stage_counts(graph)
                    assert [r.count for r in rows] == stage_sizes, (
                        variant, n_features, n_classes)
                    assert total == live_total
                    # the plan writes each audit name beside the layer's own
                    assert [r.name for r in rows] == [s.name for s in graph.stages]

    def test_state_shapes_match_the_built_graph(self):
        # 16x3 frames under a 3x2 kernel pool to a 7x1 grid
        for variant in models.VARIANTS:
            for n_features, kernel, pair in ((12, (3, 2), None), (48, (3, 3), None),
                                             (141, (2, 2), None), (48, (3, 2), (16, 3))):
                if pair and variant.startswith("m2"):
                    continue  # m2 reads flow vectors and refuses a factor pair
                cfg = ModelConfig(variant, n_features, 5, units=3, kernel=kernel,
                                  td_units=2, factor_pair=pair)
                live = build_model(cfg).state_arrays()
                # in order too: load_checkpoint fills state_arrays() in the
                # order of the state_shapes directory
                assert list(models.state_shapes(cfg).items()) == [
                    (name, arr.shape) for name, arr in live.items()], (variant, n_features, pair)

    def test_state_shapes_and_the_audit_build_no_layer(self, monkeypatch):
        graphs = {variant: build_model(ModelConfig(variant, 48, 141))
                  for variant in models.VARIANTS}

        def refuse(*args, **kwargs):
            raise AssertionError("a layer was built")

        for name in ("Conv2DLayer", "MaxPool2x2", "BatchNormLayer", "LSTMLayer",
                     "DenseLayer", "Reshape"):
            monkeypatch.setattr(models, name, refuse)
        for variant, graph in graphs.items():
            shapes = models.state_shapes(graph.config)
            assert shapes == {name: arr.shape for name, arr in graph.state_arrays().items()}
            assert count_parameters(graph)[1] == graph.flat_params.size
            with pytest.raises(AssertionError, match="a layer was built"):
                build_model(graph.config)

    def test_lstm_formula_follows_text_not_table_cell(self):
        # 4[(S+1)U+U^2] at S=U=128 is 131,584; the squared-sum misprint
        # would give 196,608 and break the 258,061 total.
        graph = build_model(ModelConfig("m3-td", 48, 141))
        lstm_row = [r for r in count_parameters(graph)[0] if r.name == "LSTM"][0]
        assert lstm_row.count == 4 * ((128 + 1) * 128 + 128 ** 2) == 131584
        assert lstm_row.count != 196608


CONV_STATE = ["CNN_2D/kernels", "CNN_2D/biases",
              "BN/gamma", "BN/beta", "BN/running_mean", "BN/running_var"]
LSTM_STATE = ["LSTM/w_x", "LSTM/w_h", "LSTM/bias"]
TD_STATE = ["TD(FFNN_0)/weights", "TD(FFNN_0)/bias"]
VAN_STATE = ["FFNN_0/weights", "FFNN_0/bias"]
DECISION_STATE = ["FFNN_1/weights", "FFNN_1/bias"]


@pytest.mark.parametrize("variant, names", [
    ("m1-td", CONV_STATE + TD_STATE + DECISION_STATE),
    ("m1-van", CONV_STATE + VAN_STATE + DECISION_STATE),
    ("m2-td", LSTM_STATE + TD_STATE + DECISION_STATE),
    ("m2-van", LSTM_STATE + VAN_STATE + DECISION_STATE),
    ("m3-td", CONV_STATE + LSTM_STATE + TD_STATE + DECISION_STATE),
    ("m3-van", CONV_STATE + LSTM_STATE + VAN_STATE + DECISION_STATE),
])
def test_state_array_names_in_checkpoint_order(variant, names):
    graph = build_model(ModelConfig(variant, 48, 5))
    assert list(graph.state_arrays()) == names


@pytest.mark.parametrize("variant", models.VARIANTS)
def test_stages_share_one_layer_interface(variant):
    graph = build_model(make_config(variant, 12, 3, units=4, td_units=4, seed=2))
    for stage in graph.stages:
        assert isinstance(stage, Layer)
        assert isinstance(stage.name, str) and stage.name
        for method in ("forward", "backward"):
            assert callable(getattr(stage, method)), (stage.name, method)
        for name, arr in params(stage).items():  # every parameter has its grad_ view
            assert grads(stage)[name].shape == arr.shape, (stage.name, name)
    decision = graph.stages[-1]
    assert isinstance(decision, DenseLayer)
    assert decision.name == "FFNN_1"

    # Replace the decision layer's two passes on the instance, the way the
    # benchmark's tracer does, and check the graph still goes through them.
    # The tracer reaches that instance as `graph.stages[-1].layer`.
    assert graph.stages[-1].layer is graph.stages[-1]
    calls = {"forward_logits": 0, "backward": 0}
    for attr in calls:
        inner = getattr(decision, attr)

        def counted(*args, attr=attr, inner=inner, **kwargs):
            calls[attr] += 1
            return inner(*args, **kwargs)

        setattr(decision, attr, counted)
    x = np.random.default_rng(3).uniform(0, 1, size=(4, 12))
    if graph.config.frame_input:
        x = x.reshape(4, *graph.frame_dims)
    logits = graph.forward_logits(x, train=True)
    graph.backward(softmax_cross_entropy_batch(logits, np.array([0, 1, 2, 0]))[2])
    graph.predict(x)
    assert calls == {"forward_logits": 2, "backward": 1}


@pytest.mark.parametrize("variant", models.VARIANTS)
def test_stage_order_carries_the_backward_contract(variant):
    # Only a conv makes no input gradient, and the plan puts it first, where
    # nothing reads one; every other stage returns the gradient of the input
    # its forward took, m2's first-stage LSTM included.
    graph = build_model(make_config(variant, 48, 3, units=4, td_units=4, seed=2))
    x = np.random.default_rng(3).uniform(0, 1, size=(4, 48))
    if graph.config.frame_input:
        x = x.reshape(4, *graph.frame_dims)
    out = x if graph.config.frame_input else x[..., None]
    in_shapes = []
    for stage in graph.stages:
        in_shapes.append(out.shape)
        out = stage.forward(out)
    logits = graph.forward_logits(x, train=True)
    dlogits = softmax_cross_entropy_batch(logits, np.array([0, 1, 2, 0]))[2]
    returned = graph_backward_returns(graph, dlogits)
    for i, (stage, dx, shape) in enumerate(zip(graph.stages, returned, in_shapes)):
        if stage.name == "CNN_2D":
            assert i == 0 and dx is None
        else:
            assert dx.shape == shape, (variant, stage.name)
    if not graph.config.frame_input:
        assert returned[0].shape == (4, 48, 1)


STAGE_KINDS = {"CNN_2D", "MP_2D", "BN", "Reshape", "LSTM", "TD(FFNN_0)", "FFNN_0",
               "Flatten", "FFNN_1"}


@pytest.mark.parametrize("variant, then", [
    *(pytest.param(variant, "predict", id=variant) for variant in models.VARIANTS),
    *(pytest.param(variant, "backward", id=f"{variant}-second-backward")
      for variant in models.VARIANTS),
])
def test_backward_requires_a_train_mode_forward(variant, then):
    graph = build_model(make_config(variant, 12, 3, units=4, td_units=4, seed=2))
    x = np.random.default_rng(3).uniform(0, 1, size=(4, 12))
    if graph.config.frame_input:
        x = x.reshape(4, *graph.frame_dims)
    # A train-mode pass through every stage, the decision layer included,
    # records each stage's output shape.  Then either predict runs in
    # inference mode, or every stage runs one backward, which takes the
    # state its forward kept.
    out = x if graph.config.frame_input else x[..., None]
    out_shapes = []
    for stage in graph.stages:
        out = stage.forward(out, True)
        out_shapes.append(out.shape)
    if then == "predict":
        graph.predict(x)
    else:
        for stage, shape in zip(graph.stages, out_shapes):
            stage.backward(np.ones(shape))
    for stage, shape in zip(graph.stages, out_shapes):
        assert stage.name in STAGE_KINDS
        with pytest.raises(RuntimeError) as err:
            stage.backward(np.ones(shape))
        assert str(err.value) == f"{stage.name}: backward requires a train-mode forward"


def test_backward_guard_covers_every_stage_kind():
    kinds = set()
    for variant in models.VARIANTS:
        graph = build_model(make_config(variant, 12, 3, units=4, td_units=4))
        kinds.update(stage.name for stage in graph.stages)
    assert kinds == STAGE_KINDS


@pytest.mark.parametrize("next_pass", ["train", "predict"])
@pytest.mark.parametrize("variant", models.VARIANTS)
def test_a_graph_pass_starts_with_no_stage_state(variant, next_pass):
    graph = build_model(make_config(variant, 12, 3, units=4, td_units=4, seed=2))
    x = np.random.default_rng(3).uniform(0, 1, size=(4, 12))
    if graph.config.frame_input:
        x = x.reshape(4, *graph.frame_dims)
    logits = graph.forward_logits(x, train=True)
    graph.backward(softmax_cross_entropy_batch(logits, np.array([0, 1, 2, 0]))[2])
    trainer._Adam(1e-2).step(graph.flat_params, graph.flat_grads)
    # Backward took every stage's state; the next step's forward keeps it again.
    assert all(stage._saved is None for stage in graph.stages)
    graph.forward_logits(x, train=True)
    assert all(stage._saved is not None for stage in graph.stages)

    # When the next pass reaches its first stage, no stage may still hold
    # the train step's state beside the state that pass is about to make.
    first = graph.stages[0]
    seen = []

    def first_forward(*args, inner=first.forward, **kwargs):
        seen.append([stage.name for stage in graph.stages if stage._saved is not None])
        return inner(*args, **kwargs)

    first.forward = first_forward
    if next_pass == "train":
        graph.forward_logits(x, train=True)
    else:
        graph.predict(x)
    assert seen == [[]]


class TestBuildGeometry:
    def test_m1_td_stage_names(self):
        rows, _ = count_parameters(build_model(ModelConfig("m1-td", 48, 5)))
        assert [r.name for r in rows] == [
            "CNN_2D", "MP_2D", "BN", "Reshape", "TD(FFNN_0)", "Flatten", "FFNN_1"]

    def test_m1_van_stage_names(self):
        rows, _ = count_parameters(build_model(ModelConfig("m1-van", 48, 5)))
        assert [r.name for r in rows] == [
            "CNN_2D", "MP_2D", "BN", "Flatten", "FFNN_0", "FFNN_1"]

    def test_m2_td_sequence_is_n_scalar_steps(self):
        graph = build_model(ModelConfig("m2-td", 48, 5))
        lstm_stage = graph.stages[0]
        assert lstm_stage.name == "LSTM"
        assert lstm_stage.input_size == 1
        logits = graph.forward_logits(np.random.default_rng(0).uniform(size=(2, 48)))
        assert logits.shape == (2, 5)
        flatten_width = graph.stages[-1].in_size
        assert flatten_width == 48 * 128

    def test_default_kernel_fails_cleanly_on_4x3_frames(self):
        with pytest.raises(BuildError) as err:
            build_model(ModelConfig("m3-td", 12, 3))
        assert "MP_2D" in str(err.value)

    def test_oversized_kernel_names_conv_stage(self):
        with pytest.raises(BuildError) as err:
            build_model(ModelConfig("m1-td", 12, 3, kernel=(5, 5)))
        assert "CNN_2D" in str(err.value)

    def test_factor_pair_override_must_cover_features(self):
        with pytest.raises(BuildError):
            build_model(ModelConfig("m3-td", 48, 3, factor_pair=(7, 7)))

    @pytest.mark.parametrize("variant", ["m2-td", "m2-van"])
    def test_factor_pair_is_checked_without_frames(self, variant):
        with pytest.raises(BuildError, match="^factor pair 7x7 does not cover 48 features$"):
            ModelConfig(variant, 48, 3, factor_pair=(7, 7))

    @pytest.mark.parametrize("variant", ["m2-td", "m2-van"])
    def test_m2_refuses_a_factor_pair_that_covers_the_features(self, variant):
        with pytest.raises(BuildError, match=f"^{variant} reads flow vectors, not frames; "):
            ModelConfig(variant, 48, 3, factor_pair=(12, 4))

    def test_unknown_variant_rejected(self):
        with pytest.raises(BuildError):
            ModelConfig("m4-td", 48, 3)

    def test_config_round_trips_through_dict(self):
        cfg = make_config("m3-td", 12, 3, units=16, td_units=8, seed=77)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


@pytest.fixture(scope="module")
def graph():
    return build_model(ModelConfig("m3-td", 48, 5, units=8, td_units=8, seed=3))


class TestPredict:
    def test_single_sample_and_batch_agree(self, graph):
        rng = np.random.default_rng(2)
        batch = rng.uniform(0, 1, size=(6, 8, 6))
        probs, classes = graph.predict(batch)
        assert probs.shape == (6, 5)
        assert classes.shape == (6,)
        for i in range(6):
            p_one, c_one = graph.predict(batch[i:i + 1])
            assert (p_one[0] == probs[i]).all()
            assert c_one[0] == classes[i]

    def test_untrained_prediction_is_deterministic(self, graph):
        x = np.random.default_rng(4).uniform(0, 1, size=(3, 8, 6))
        first = graph.predict(x)
        second = graph.predict(x)
        assert (first[0] == second[0]).all()
        assert (first[1] == second[1]).all()

    def test_argmax_semantics(self):
        probs = np.array([0.1, 0.7, 0.2])
        assert int(probs.argmax()) == 1

    def test_argmax_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            logits = rng.normal(size=7)
            scale = float(rng.uniform(0.1, 100.0))
            assert softmax(logits).argmax() == softmax(scale * logits).argmax()

    def test_probabilities_normalized(self, graph):
        x = np.random.default_rng(6).uniform(0, 1, size=(3, 8, 6))
        probs, _ = graph.predict(x)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_wrong_shape_rejected(self, graph):
        with pytest.raises(ShapeError):
            graph.predict(np.zeros((2, 6, 8)))


def decision_input(graph, x, train=False):
    """The holistic features: what every stage before the decision layer hands it.

    Every stage runs once over all rows: the reference that blocked
    inference must match bit for bit.
    """
    out = graph._check_batch(np.asarray(x, dtype=np.float64))
    for stage in graph.stages[:-1]:
        out = stage.forward(out, train)
    return out


class TestHolisticFeatures:
    def test_m3_td_width_is_pooled_steps_times_units(self):
        graph = build_model(ModelConfig("m3-td", 48, 141))
        assert graph.stages[-1].in_size == 6 * 128

    def test_m3_van_width_is_units(self):
        graph = build_model(ModelConfig("m3-van", 48, 141))
        assert graph.stages[-1].in_size == 128

    def test_features_feed_the_decision_layer(self):
        graph = build_model(make_config("m1-td", 12, 3, units=4, td_units=4, seed=4))
        x = np.random.default_rng(2).uniform(0, 1, size=(3, *graph.frame_dims))
        decision = graph.stages[-1]
        feats = decision_input(graph, x)
        want = feats @ decision.weights + decision.bias
        assert (graph.forward_logits(x) == want).all()

    def test_identical_inputs_identical_features(self):
        graph = build_model(ModelConfig("m2-td", 12, 3, units=6, td_units=6))
        x = np.random.default_rng(1).uniform(0, 1, size=(1, 12))
        a = decision_input(graph, x)
        b = decision_input(graph, x)
        assert a.shape == (1, 12 * 6)
        assert (a == b).all()


class TestSeededInitialization:
    def test_same_seed_same_weights(self):
        a = build_model(ModelConfig("m3-td", 48, 5, seed=11))
        b = build_model(ModelConfig("m3-td", 48, 5, seed=11))
        for name, arr in a.params().items():
            assert arr.tobytes() == b.params()[name].tobytes()

    def test_different_seed_different_weights(self):
        a = build_model(ModelConfig("m3-td", 48, 5, seed=11))
        b = build_model(ModelConfig("m3-td", 48, 5, seed=12))
        assert any((arr != b.params()[name]).any()
                   for name, arr in a.params().items())

    def test_biases_start_at_zero(self):
        graph = build_model(ModelConfig("m3-td", 48, 5, seed=1))
        for name, arr in graph.params().items():
            if name.endswith("/bias") or name.endswith("/biases") or name.endswith("/beta"):
                assert (arr == 0).all(), name


# The rows a blocked pass must handle: one row, the smallest GEMM, a block
# and either side of it, a 1-row tail after two blocks, one chunk, a 1-row
# chunk after it, a block or a block and a tail past it, and two chunks
# and a row.
BLOCK_ROWS = (1, 2, 31, 32, 33, 65, 256, 257, 289, 321, 513)


def wide_graph(variant):
    return build_model(ModelConfig(variant, 48, 4, units=128, seed=1))


@pytest.fixture(scope="module")
def wide_graphs():
    return {variant: wide_graph(variant) for variant in models.VARIANTS}


def wide_input(graph, rows, seed=0):
    shape = (rows, *graph.frame_dims) if graph.config.frame_input else (rows, 48)
    return np.random.default_rng(seed).uniform(0, 1, size=shape)


def chunked_logits(graph, x):
    """Each 256-row chunk once through every stage: the reference that
    chunked, blocked inference must match bit for bit."""
    decision = graph.stages[-1]
    return np.concatenate([decision.forward_logits(decision_input(graph, x[i:i + 256]))
                           for i in range(0, x.shape[0], 256)])


class TestBlockedInference:
    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_logits_match_one_pass_over_all_rows(self, wide_graphs, variant):
        # One pass over all rows of each 256-row chunk.
        graph = wide_graphs[variant]
        for rows in BLOCK_ROWS:
            x = wide_input(graph, rows, seed=rows)
            want = chunked_logits(graph, x)
            assert graph.forward_logits(x).tobytes() == want.tobytes(), rows
            _, classes = graph.predict(x)
            assert (classes == want.argmax(axis=1)).all(), rows

    def test_no_rows_give_no_logits_and_no_classes(self, wide_graphs):
        for variant, graph in wide_graphs.items():
            logits = graph.forward_logits(wide_input(graph, 0))
            assert logits.shape == (0, graph.config.n_classes), variant
            probs, classes = graph.predict(wide_input(graph, 0))
            assert probs.shape == (0, graph.config.n_classes), variant
            assert classes.shape == (0,), variant

    @pytest.mark.parametrize("rows, blocks, chunks", [
        (1, [1], [1]), (32, [32], [32]), (33, [33], [33]), (65, [32, 33], [65]),
        (256, [32] * 8, [256]), (321, [32] * 8 + [32, 33], [256, 65]),
        (513, [32] * 16 + [1], [256, 256, 1])])
    def test_feature_stages_see_blocks_and_the_decision_layer_all_rows(
            self, wide_graphs, rows, blocks, chunks):
        # All rows of each chunk of at most 256 rows.
        graph = wide_graphs["m1-td"]
        first, decision = graph.stages[0], graph.stages[-1]
        seen = {"first": [], "decision": []}

        def spy(stage, key, attr):
            inner = getattr(stage, attr)

            def wrapped(x, *args, **kwargs):
                seen[key].append(x.shape[0])
                return inner(x, *args, **kwargs)
            return wrapped

        first.forward = spy(first, "first", "forward")
        decision.forward_logits = spy(decision, "decision", "forward_logits")
        try:
            graph.predict(wide_input(graph, rows))
        finally:
            del first.forward, decision.forward_logits
        assert seen == {"first": blocks, "decision": chunks}
        assert (models.INFER_BATCH, models.INFER_BLOCK) == (256, 32)

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_train_mode_runs_every_stage_over_the_whole_batch(self, variant):
        # Batchnorm normalizes by the whole batch's statistics, and its
        # running statistics move by them.
        graph, reference = wide_graph(variant), wide_graph(variant)
        x = wide_input(graph, 64)
        want = reference.stages[-1].forward_logits(decision_input(reference, x, True), True)
        assert graph.forward_logits(x, train=True).tobytes() == want.tobytes()
        for name, arr in graph.state_arrays().items():
            assert arr.tobytes() == reference.state_arrays()[name].tobytes(), name

    def test_m1_td_predict_peaks_below_half_the_chunks_conv_map(self, wide_graphs):
        # A 256-row chunk's conv map is 256 rows x 24 positions x 128 units
        # x 8 bytes = 6 MiB; a predict that holds it whole peaks at 7.63 MiB.
        graph = wide_graphs["m1-td"]
        x = wide_input(graph, 256)
        graph.predict(x)
        tracemalloc.start()
        try:
            graph.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("rows", [1000, 2000])
    def test_m2_td_predict_peak_does_not_grow_with_the_rows(self, wide_graphs, rows):
        # One chunk's features are 256 rows x 48 steps x 128 units x 8 bytes
        # = 12 MiB; a (rows, 6144) features array would be 47 MiB at 1,000.
        graph = wide_graphs["m2-td"]
        x = wide_input(graph, rows)
        tracemalloc.start()
        try:
            graph.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_m2_td_train_backward_makes_no_gate_gradient_slab(self):
        # The LSTM's gate gradient over 48 steps is 48 x 32 rows x 512 x 8
        # bytes = 6 MiB; backward writes it over the kept gates, so the peak
        # above the backward's start is the TD(FFNN_0) backward's, 4.5 MiB.
        graph = wide_graph("m2-td")
        logits = graph.forward_logits(wide_input(graph, 32), train=True)
        dlogits = softmax_cross_entropy_batch(logits, np.arange(32) % 4)[2] / 32
        tracemalloc.start()
        try:
            graph.backward(dlogits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"peak {peak / 2**20:.2f} MiB"
