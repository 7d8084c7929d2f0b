"""Network stack: forward semantics, finite-difference-verified backprop,
optimizer closed forms, initialization scale, and checkpoint round trips."""

import json
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    central_diff,
    grads_arrays,
    model_arrays,
    params_equal,
    raises_exactly,
    rel_err,
    sampled_central_diff,
    zeros_like,
)
from otda.errors import ContractViolationError, ParseError
from otda.nn_core import (
    FEATURE_WIDTHS,
    NUM_CLASSES,
    VARIANCE_FLOOR,
    ModelParams,
    OptimizerConfig,
    _domain_head_backward,
    _domain_head_forward,
    _norm_backward,
    _normalize_rows,
    backward,
    cross_entropy,
    forward_classifier,
    forward_features,
    init_model,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)


def network(seed=0, domain_head=False):
    """The network for 4-wide inputs."""
    return init_model(4, domain_head=domain_head, seed=seed)


def _traced(params, rows=4):
    return forward_features(params, np.zeros((rows, 4)))[1]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ModelParams(network().layout, np.zeros(3)),
                 f"buffer of shape (3,) does not fit a layout of {network().layout.size} entries", id="buffer-size"),
    pytest.param(lambda: forward_classifier(network(), np.zeros((2, 7))),
                 "features of shape (2, 7) do not match classifier input width 32", id="classifier-width"),
    pytest.param(lambda: cross_entropy(np.zeros((3, 2)), np.zeros(2, dtype=int)),
                 "labels shape (2,) does not match 3 rows of logits", id="labels-shape"),
    pytest.param(lambda: backward(network(), _traced(network()), None, np.zeros((4, 3))),
                 "logit grads shape (4, 3) does not match the trace", id="logit-grads-shape"),
    pytest.param(lambda: backward(network(), _traced(network()), np.zeros((3, 5)), None),
                 "feature grads shape (3, 5) does not match the trace", id="feature-grads-shape"),
])
def test_library_guard_names_the_fault(call, message):
    # inputs the CLI never builds, so only library callers meet these guards
    with raises_exactly(ContractViolationError, message):
        call()


class TestForwardFeatures:
    def test_zero_weights_give_zero_features(self):
        params = network()
        for layer in params.featurizer:
            layer.weight[:] = 0.0
            layer.bias[:] = 0.0
        features, _ = forward_features(params, np.random.default_rng(0).standard_normal((5, 4)))
        assert np.array_equal(features, np.zeros((5, 32)))

    def test_duplicated_row_duplicates_features(self):
        params = network(seed=1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 4))
        x[2] = x[0]
        features, _ = forward_features(params, x)
        assert np.array_equal(features[2], features[0])

    def test_row_permutation_equivariance(self):
        params = network(seed=2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 4))
        perm = rng.permutation(6)
        base, _ = forward_features(params, x)
        shuffled, _ = forward_features(params, x[perm])
        assert np.array_equal(shuffled, base[perm])

    def test_normalized_rows_standardized(self):
        params = network(seed=3)
        _, trace = forward_features(params, np.random.default_rng(3).standard_normal((10, 4)))
        for normalized in trace.normalized:
            assert np.abs(normalized.mean(axis=1)).max() <= 1e-7
            assert np.abs(normalized.var(axis=1) - 1.0).max() <= 1e-4

    def test_shape_mismatch(self):
        with raises_exactly(ContractViolationError, "inputs of shape (2, 5) do not match featurizer input width 4"):
            forward_features(network(), np.zeros((2, 5)))


def textbook_normalize_rows(z):
    mean = z.mean(axis=1, keepdims=True)
    var = z.var(axis=1, keepdims=True)
    floored = var <= VARIANCE_FLOOR
    scale = np.sqrt(np.where(floored, VARIANCE_FLOOR, var))
    return (z - mean) / scale, scale, floored


def textbook_norm_backward(dy, y, scale, floored):
    centered = dy - dy.mean(axis=1, keepdims=True)
    full = (centered - y * (dy * y).mean(axis=1, keepdims=True)) / scale
    flat = centered / scale
    return np.where(floored, flat, full)


@st.composite
def pre_normalization_blocks(draw):
    """(n, k) blocks of pre-activations at mixed magnitudes, with some rows
    constant or at or below the variance floor."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(2, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-4, 3, size=(n, 1)) + rng.standard_normal((n, 1))
    special = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(["constant", "floor", "below"])), max_size=n))
    for row, kind in special:
        if kind == "constant":
            z[row] = rng.standard_normal()
        else:
            noise = rng.standard_normal(k)
            noise = (noise - noise.mean()) / max(noise.std(), 1e-300)
            share = 1.0 if kind == "floor" else rng.uniform(0.0, 1.0)
            z[row] = rng.standard_normal() + np.sqrt(share * VARIANCE_FLOOR) * noise
    dy = rng.standard_normal((n, k))
    return z, dy


class TestNormalizationKernels:
    """The normalization passes repeat the textbook numpy forms bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(block=pre_normalization_blocks())
    def test_forward_and_backward_match_textbook_bytes(self, block):
        z, dy = block
        expected = textbook_normalize_rows(z)
        got = _normalize_rows(z.copy(), np.empty_like(z))
        for g, e in zip(got, expected):
            assert g.shape == e.shape and g.dtype == e.dtype
            assert g.tobytes() == e.tobytes()
        y, scale, floored = expected
        dy = dy * (y > 0)
        assert _norm_backward(dy.copy(), y, scale, floored).tobytes() == textbook_norm_backward(dy, y, scale, floored).tobytes()

    def test_floored_rows_match_textbook_bytes(self):
        rng = np.random.default_rng(18)
        z = rng.standard_normal((6, 9))
        z[1] = 2.5
        z[4] = -1.0 + np.sqrt(0.5 * VARIANCE_FLOOR) * np.tile([1.0, -1.0, 0.0], 3) * np.sqrt(1.5)
        y, scale, floored = _normalize_rows(z.copy(), np.empty_like(z))
        assert floored[:, 0].tolist() == [False, True, False, False, True, False]
        assert y.tobytes() == textbook_normalize_rows(z)[0].tobytes()
        dy = rng.standard_normal((6, 9))
        assert _norm_backward(dy.copy(), y, scale, floored).tobytes() == textbook_norm_backward(dy, y, scale, floored).tobytes()


class TestForwardClassifier:
    def test_identity_layer_passes_features_through(self):
        params = network()
        params.classifier[0].weight[:] = np.eye(32, 2)
        params.classifier[0].bias[:] = 0.0
        features = np.random.default_rng(4).standard_normal((3, 32))
        assert np.array_equal(forward_classifier(params, features), features[:, :2])

    def test_logit_shift_leaves_cross_entropy_unchanged(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, 4)
        base, _ = cross_entropy(logits, labels)
        shifted, _ = cross_entropy(logits + 7.3, labels)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_single_row_matches_batch_row(self):
        params = network(seed=6)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 4))
        features, _ = forward_features(params, x)
        full = forward_classifier(params, features)
        single = forward_classifier(params, features[2:3])
        assert np.allclose(single[0], full[2], atol=1e-12)


class TestCrossEntropy:
    def test_uniform_logits_binary(self):
        loss, _ = cross_entropy(np.zeros((3, 2)), np.array([0, 1, 0]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_confident_correct_logit(self):
        logits = np.array([[50.0, 0.0]])
        loss, _ = cross_entropy(logits, np.array([0]))
        assert loss <= 1e-20

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((3, 4))
        labels = rng.integers(0, 4, 3)
        _, grads = cross_entropy(logits, labels)
        fd = central_diff(lambda: cross_entropy(logits, labels)[0], logits, h=1e-6)
        assert rel_err(grads, fd).max() <= 1e-5

    def test_label_out_of_range(self):
        with raises_exactly(ContractViolationError, "labels must lie in [0, 2)"):
            cross_entropy(np.zeros((2, 2)), np.array([0, 2]))


def reference_forward_features(params, x):
    """forward_features as it was before it normalized in place."""
    normalized = []
    for layer in params.featurizer:
        y, _, _ = textbook_normalize_rows(x @ layer.weight + layer.bias)
        normalized.append(y)
        x = np.maximum(y, 0.0)
    return x, normalized


def reference_backward(params, trace, feature_grads, logit_grads):
    """backward as it was before it worked in place, as a flat gradient
    buffer: the classifier's forward pass recomputed, its ReLU masks taken
    from the pre-activations, the feature gradient summed from zeros, and a
    fresh array for every intermediate."""
    flat = np.zeros(params.layout.size)
    featurizer, classifier, _ = params.layout.views(flat)
    dfeatures = np.zeros_like(trace.features)
    if logit_grads is not None:
        inputs, preacts, out = [], [], trace.features
        for layer in params.classifier:
            inputs.append(out)
            preacts.append(out @ layer.weight + layer.bias)
            out = np.maximum(preacts[-1], 0.0)
        grad = logit_grads
        last = len(params.classifier) - 1
        for i in range(last, -1, -1):
            if i != last:
                grad = grad * (preacts[i] > 0)
            np.matmul(inputs[i].T, grad, out=classifier[i].weight)
            np.add.reduce(grad, axis=0, out=classifier[i].bias)
            grad = grad @ params.classifier[i].weight.T
        dfeatures += grad
    if feature_grads is not None:
        dfeatures += feature_grads
    grad = dfeatures
    for i in range(len(params.featurizer) - 1, -1, -1):
        dy = grad * (trace.normalized[i] > 0)
        dz = textbook_norm_backward(dy, trace.normalized[i], trace.scales[i], trace.floored[i])
        np.matmul(trace.inputs[i].T, dz, out=featurizer[i].weight)
        np.add.reduce(dz, axis=0, out=featurizer[i].bias)
        grad = dz @ params.featurizer[i].weight.T
    return flat


@st.composite
def backward_cases(draw):
    """(params, inputs, feature grads, logit grads): zero input rows stay
    constant through every block, so they sit at the variance floor; the
    upstream gradients (either, both or none) hold -0.0 entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = network(seed=draw(st.integers(0, 3)), domain_head=draw(st.booleans()))
    n = draw(st.integers(1, 12))
    x = rng.standard_normal((n, 4)) * 10.0 ** rng.uniform(-3, 2)
    x[draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
    negative_zeros = draw(st.sampled_from([0.0, 0.3, 1.0]))

    def upstream(shape):
        g = rng.standard_normal(shape)
        g[rng.random(shape) < negative_zeros] = -0.0
        return g

    terms = draw(st.sampled_from(["features", "logits", "both", "neither"]))
    feature_grads = upstream((n, FEATURE_WIDTHS[-1])) if terms in ("features", "both") else None
    logit_grads = upstream((n, NUM_CLASSES)) if terms in ("logits", "both") else None
    return params, x, feature_grads, logit_grads


def scale_to_floor(params, x, rows):
    """Scale x's rows (in place) so that their first block's variance lands
    on VARIANCE_FLOOR, to either side by rounding: init_model's biases are
    zero, so the variance scales with the square of the row."""
    variance = (x @ params.featurizer[0].weight).var(axis=1)
    rows = [i for i in rows if variance[i] > 0]
    x[rows] *= np.sqrt(VARIANCE_FLOOR / variance[rows])[:, None]


@st.composite
def untraced_cases(draw):
    """(params, inputs) of backward_cases, some rows scaled to the floor."""
    params, x, _, _ = draw(backward_cases())
    scale_to_floor(params, x, draw(st.lists(st.integers(0, len(x) - 1), max_size=len(x))))
    return params, x


class TestUntracedForward:
    @settings(max_examples=200, deadline=None)
    @given(case=untraced_cases())
    def test_same_feature_bytes_and_no_trace(self, case):
        params, x = case
        traced, trace = forward_features(params, x)
        untraced, none = forward_features(params, x, keep_trace=False)
        assert none is None and trace is not None
        assert untraced.tobytes() == traced.tobytes()

    def test_scaled_rows_sit_on_both_sides_of_the_floor(self):
        params = network(seed=1)
        x = np.random.default_rng(1).standard_normal((64, 4))
        scale_to_floor(params, x, range(64))
        variance = (x @ params.featurizer[0].weight).var(axis=1)
        assert np.abs(variance / VARIANCE_FLOOR - 1).max() <= 1e-12
        _, trace = forward_features(params, x)
        assert 0 < trace.floored[0].sum() < len(x)

    def test_pass_holds_two_blocks(self):
        # a split evaluation's shape: 1 800 rows through the default featurizer
        params = init_model(8)
        x = np.random.default_rng(0).standard_normal((1800, 8))
        forward_features(params, x, keep_trace=False)  # warm up outside the traced window
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            features, _ = forward_features(params, x, keep_trace=False)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        limit = 2 * 1800 * 64 * 8 + 2**16
        assert peak - features.nbytes < limit, f"peak {peak} bytes with {features.nbytes}-byte features"


class TestBackward:
    @settings(max_examples=200, deadline=None)
    @given(case=backward_cases())
    def test_matches_reference_bytes(self, case):
        params, x, feature_grads, logit_grads = case
        features, trace = forward_features(params, x)
        ref_features, ref_normalized = reference_forward_features(params, x)
        assert features.tobytes() == ref_features.tobytes()
        assert [y.tobytes() for y in trace.normalized] == [y.tobytes() for y in ref_normalized]
        upstream = [g.copy() for g in (feature_grads, logit_grads) if g is not None]
        traced = [a.copy() for a in (*trace.inputs, *trace.normalized, trace.features)]
        grads = backward(params, trace, feature_grads, logit_grads)
        assert grads.flat.tobytes() == reference_backward(params, trace, feature_grads, logit_grads).tobytes()
        # backward writes only into buffers of its own
        after = [g for g in (feature_grads, logit_grads) if g is not None]
        assert [g.tobytes() for g in after] == [g.tobytes() for g in upstream]
        assert [a.tobytes() for a in (*trace.inputs, *trace.normalized, trace.features)] == [a.tobytes() for a in traced]

    def test_zero_upstream_zero_grads(self):
        params = network(seed=8)
        x = np.random.default_rng(8).standard_normal((4, 4))
        features, trace = forward_features(params, x)
        grads = backward(params, trace, np.zeros_like(features), np.zeros((4, 2)))
        assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads.featurizer + grads.classifier)

    def test_full_composite_gradcheck(self):
        params = network(seed=9)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 4))
        labels = rng.integers(0, 2, 8)
        target = 0.3 * rng.standard_normal((8, 32))

        def loss():
            features, _ = forward_features(params, x)
            ce, _ = cross_entropy(forward_classifier(params, features), labels)
            return ce + 0.5 * np.sum((features - target) ** 2)

        features, trace = forward_features(params, x)
        _, dlogits = cross_entropy(forward_classifier(params, features), labels)
        grads = backward(params, trace, features - target, dlogits)
        for arr, grad in zip(model_arrays(params), grads_arrays(grads)):
            assert sampled_central_diff(loss, arr, grad, rng, probes=30, h=1e-6) <= 1e-4

    def test_dead_relu_unit_in_head_gets_zero_gradient(self):
        params = network(seed=10, domain_head=True)
        # force the domain head's hidden unit 1 dead: large negative bias
        params.domain_head[0].bias[1] = -100.0
        rng = np.random.default_rng(10)
        features, _ = forward_features(params, rng.standard_normal((6, 4)))
        out, hidden = _domain_head_forward(params.domain_head, features)
        grads, _ = _domain_head_backward(params.domain_head, features, hidden, rng.standard_normal(out.shape))
        assert np.all(grads[0].weight[:, 1] == 0.0) and grads[0].bias[1] == 0.0
        assert np.all(grads[1].weight[1] == 0.0)


class TestSgdStep:
    def test_plain_gradient_descent(self):
        params = network(seed=12)
        grads = zeros_like(params)
        grads.featurizer[0].weight[...] = 1.0
        before = params.featurizer[0].weight.copy()
        updated = sgd_step(params, grads, zeros_like(params), OptimizerConfig(0.05, 0.0, 0.0))
        assert np.allclose(updated.featurizer[0].weight, before - 0.05)

    def test_weight_decay_closed_form(self):
        params = network(seed=13)
        before_w = params.featurizer[1].weight.copy()
        before_b = params.featurizer[1].bias.copy()
        updated = sgd_step(params, zeros_like(params), zeros_like(params), OptimizerConfig(0.1, 0.0, 0.5))
        assert np.allclose(updated.featurizer[1].weight, before_w * (1 - 0.1 * 0.5))
        assert np.array_equal(updated.featurizer[1].bias, before_b)

    def test_momentum_unroll(self):
        params = network(seed=14)
        grads, velocity = zeros_like(params), zeros_like(params)
        g = np.ones_like(params.classifier[0].weight)
        grads.classifier[0].weight[...] = g
        before = params.classifier[0].weight.copy()
        config = OptimizerConfig(1.0, 0.9, 0.0)
        params = sgd_step(params, grads, velocity, config)
        params = sgd_step(params, grads, velocity, config)
        assert np.allclose(params.classifier[0].weight - before, -2.9 * g)
        assert np.allclose(velocity.classifier[0].weight, 1.9 * g)

    def test_original_params_not_mutated(self):
        params = network(seed=15)
        before = params.flat.copy()
        grads = zeros_like(params)
        grads.featurizer[0].weight[...] = 1.0
        before_grads = grads.flat.copy()
        sgd_step(params, grads, zeros_like(params), OptimizerConfig(0.1, 0.5, 0.0))
        assert np.array_equal(params.flat, before) and np.array_equal(grads.flat, before_grads)

    def test_matches_per_layer_update_bitwise(self):
        # the per-layer update that sgd_step replaced is the reference; the
        # featurizer's -0.0 bias gradients and momenta show whether bias
        # entries see any weight-decay term
        params = network(seed=18, domain_head=True)
        rng = np.random.default_rng(18)
        params.flat[:] = rng.standard_normal(params.flat.size)
        velocity = ModelParams(params.layout, rng.standard_normal(params.flat.size))
        grads = ModelParams(params.layout, rng.standard_normal(params.flat.size))
        for layer in grads.featurizer + velocity.featurizer:
            layer.bias[...] = -0.0
        before = ModelParams(velocity.layout, velocity.flat.copy())
        config = OptimizerConfig(0.05, 0.9, 0.01)
        stepped = sgd_step(params, grads, velocity, config)

        def layers(model):
            return model.featurizer + model.classifier + model.domain_head

        models = (params, grads, before, stepped, velocity)
        for w, g, v, new_w, new_v in zip(*map(layers, models)):
            vw = v.weight * config.momentum
            vw += g.weight + config.weight_decay * w.weight
            vb = v.bias * config.momentum
            vb += g.bias
            assert new_v.weight.tobytes() == vw.tobytes() and new_v.bias.tobytes() == vb.tobytes()
            assert new_w.weight.tobytes() == (w.weight - config.learning_rate * vw).tobytes()
            assert new_w.bias.tobytes() == (w.bias - config.learning_rate * vb).tobytes()

    def test_grads_must_span_the_whole_model(self):
        params = network(seed=19, domain_head=True)
        head = sum(layer.weight.size + layer.bias.size for layer in params.domain_head)
        for size in (params.layout.size - head, params.layout.size + 1):  # stopping before the head, or past it
            with pytest.raises(ContractViolationError, match="does not fit a layout"):
                ModelParams(params.layout, np.zeros(size))
        headless = network(seed=19)
        for grads, velocity in ((params, headless), (headless, params)):
            with raises_exactly(ContractViolationError, "gradients and momentum do not match the model's layout"):
                sgd_step(headless, zeros_like(grads), zeros_like(velocity), OptimizerConfig())

    def test_grad_components_reject_assignment(self):
        grads = zeros_like(network(seed=20))
        with raises_exactly(TypeError, "'tuple' object does not support item assignment"):
            grads.featurizer[0] = (np.ones((4, 64)), np.zeros(64))


class TestFlatBuffer:
    def test_layers_view_one_buffer_in_layout_order(self):
        params = network(seed=21, domain_head=True)
        layers = params.featurizer + params.classifier + params.domain_head
        assert params.flat.tobytes() == b"".join(a.tobytes() for layer in layers for a in layer)
        copied = ModelParams(params.layout, params.flat.copy())
        for model in (params, copied, pickle.loads(pickle.dumps(params))):
            for layer in model.featurizer + model.classifier + model.domain_head:
                assert np.shares_memory(layer.weight, model.flat) and np.shares_memory(layer.bias, model.flat)


class TestInitialization:
    def test_deterministic_per_seed(self):
        a, b = network(seed=42), network(seed=42)
        assert params_equal(a.featurizer, b.featurizer)
        assert params_equal(a.classifier, b.classifier)

    def test_layers_drawn_in_layout_order(self):
        # fan-in-scaled uniform weights, one draw per layer: featurizer,
        # classifier, then the domain head; biases are zero
        rng = np.random.default_rng([5, 0])
        expected = []
        for fan_in, fan_out in [(8, 64), (64, 64), (64, 32), (32, 2), (32, 16), (16, 1)]:
            bound = 1.0 / np.sqrt(fan_in)
            expected += [rng.uniform(-bound, bound, size=(fan_in, fan_out)).reshape(-1), np.zeros(fan_out)]
        assert init_model(8, domain_head=True, seed=5).flat.tobytes() == np.concatenate(expected).tobytes()

    def test_initial_logit_scale(self):
        rng = np.random.default_rng(16)
        for seed in range(5):
            params = init_model(8, seed=seed)
            x = rng.standard_normal((200, 8))
            features, _ = forward_features(params, x)
            logits = forward_classifier(params, features)
            assert 0.1 <= logits.std() <= 10.0


_FEATURIZER = "((4, 64), (64, 64), (64, 32))"


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = network(seed=17, domain_head=True)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert params_equal(params.featurizer, loaded.featurizer)
        assert params_equal(params.classifier, loaded.classifier)
        assert params_equal(params.domain_head, loaded.domain_head)
        assert loaded.layout == params.layout

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{\"format\": \"something-else\"}")
        with raises_exactly(ParseError, f"{path}: not a checkpoint file (format='something-else')"):
            load_checkpoint(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json")
        with raises_exactly(ParseError, f"{path}: not valid JSON: Expecting value: line 1 column 1 (char 0)"):
            load_checkpoint(path)

    def test_non_utf8_bytes_are_parse_error(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not valid JSON: "):
            load_checkpoint(path)

    def test_json_nested_too_deep_is_parse_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ParseError, match="not valid JSON"):
            load_checkpoint(path)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_round_trip_is_bitwise(self, tmp_path, data):
        params = network(seed=3, domain_head=True)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        for layer in params.featurizer + params.classifier + params.domain_head:
            layer.weight[...] = data.draw(arrays(float, layer.weight.shape, elements=finite))
            layer.bias[...] = data.draw(arrays(float, layer.bias.shape, elements=finite))
        save_checkpoint(params, tmp_path / "model.json")
        loaded = load_checkpoint(tmp_path / "model.json")
        assert [a.tobytes() for a in model_arrays(loaded)] == [a.tobytes() for a in model_arrays(params)]

    @pytest.mark.parametrize("field", ["weight", "bias"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_weights(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        save_checkpoint(network(seed=4), path)
        payload = json.loads(path.read_text())
        payload["classifier"][0][field][0] = value
        path.write_text(json.dumps(payload))
        with raises_exactly(ParseError, f"{path}: layer 0 holds a non-finite weight or bias"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda payload: [payload], "expected a JSON object, got list"),
            (lambda payload: {k: v for k, v in payload.items() if k != "featurizer"},
             "featurizer must be a list of layers, got NoneType"),
            (lambda payload: {**payload, "featurizer": 5}, "featurizer must be a list of layers, got int"),
            (lambda payload: {**payload, "featurizer": [{**payload["featurizer"][0], "shape": [256]}]},
             "layer 0 has weight shape (256,) and bias shape (64,)"),
            # a classifier reading 6 inputs behind a featurizer of width 32
            (lambda payload: {**payload, "classifier": [{"shape": [6, 2], "weight": [0.0] * 12, "bias": [0.0] * 2}]},
             f"layers of shapes ({_FEATURIZER}, ((6, 2),), ()) are not otda's network"),
            (lambda payload: {**payload, "featurizer": [{"shape": [4, 6], "bias": [0.0] * 6}]},
             "malformed layer 0: 'weight'"),
            (lambda payload: {**payload, "featurizer": []},
             "layers of shapes ((), ((32, 2),), ()) are not otda's network"),
            # a domain head without its hidden layer
            (lambda payload: {**payload, "domain_head": [{"shape": [32, 1], "weight": [0.0] * 32, "bias": [0.0]}]},
             f"layers of shapes ({_FEATURIZER}, ((32, 2),), ((32, 1),)) are not otda's network"),
            (lambda payload: {**payload, "version": 99}, "unsupported checkpoint version 99"),
        ],
        ids=["json-array", "no-featurizer", "featurizer-not-a-list", "one-dim-shape", "classifier-width",
             "layer-without-weight", "empty-featurizer", "head-depth", "version"],
    )
    def test_malformed_structure_is_parse_error(self, tmp_path, corrupt, message):
        path = tmp_path / "model.json"
        save_checkpoint(network(seed=5), path)
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        with raises_exactly(ParseError, f"{path}: {message}"):
            load_checkpoint(path)
