"""Post-hoc barycentric alignment: map limits, hull containment, and the
frozen-model evaluation semantics."""

import numpy as np
import pytest

from otda import posthoc_align
from otda.data_gen import GeneratorConfig, generate
from otda.da_train import TrainConfig, train_with_model
from otda.errors import ContractViolationError, SinkhornConvergenceError
from otda.nn_core import ModelParams, forward_classifier, forward_features, init_model
from otda.posthoc_align import barycentric_map, evaluate_posthoc


class TestBarycentricMap:
    def test_near_identity_at_small_epsilon(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((12, 5))
        aligned, plan = barycentric_map(points, points.copy(), epsilon=1e-3)
        assert plan.converged
        assert np.abs(aligned - points).max() <= 1e-3

    def test_single_source_point(self):
        rng = np.random.default_rng(1)
        source = np.array([[1.0, -2.0, 0.5]])
        target = rng.standard_normal((7, 3))
        aligned, _ = barycentric_map(source, target, epsilon=0.5)
        assert np.allclose(aligned, np.tile(source, (7, 1)), atol=1e-12)

    def test_large_epsilon_collapses_to_source_mean(self):
        rng = np.random.default_rng(2)
        source = rng.standard_normal((10, 4))
        target = rng.standard_normal((6, 4))
        aligned, _ = barycentric_map(source, target, epsilon=1e4)
        assert np.abs(aligned - source.mean(axis=0)).max() <= 1e-3

    def test_hull_containment_weights(self):
        rng = np.random.default_rng(3)
        source = rng.standard_normal((9, 4))
        target = rng.standard_normal((5, 4))
        _, plan = barycentric_map(source, target, epsilon=2.0)
        weights = plan.gamma / plan.gamma.sum(axis=1, keepdims=True)
        assert np.all(weights >= 0)
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-9

    def test_width_mismatch_rejected(self):
        with pytest.raises(ContractViolationError):
            barycentric_map(np.zeros((3, 4)), np.zeros((3, 5)))

    def test_empty_target_rejected(self):
        with pytest.raises(ContractViolationError):
            barycentric_map(np.ones((4, 3)), np.zeros((0, 3)))

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ContractViolationError):
            barycentric_map(np.zeros((3, 4)), np.zeros((3, 4)), epsilon=0.0)


@pytest.fixture(scope="module")
def trained():
    dataset = generate(GeneratorConfig(samples_per_domain=150, seed=3))
    _, params = train_with_model(dataset, TrainConfig(method="erm", epochs=2, seed=0))
    return dataset, params


class TestEvaluatePosthoc:
    def test_reports_both_splits(self, trained):
        dataset, params = trained
        results = evaluate_posthoc(dataset, params)
        assert set(results) == {"val", "test"}
        for res in results.values():
            assert 0.0 <= res.pre_accuracy <= 1.0
            assert 0.0 <= res.post_accuracy <= 1.0
            assert res.aligned_features.shape[1] == params.feature_dim

    def test_constant_classifier_gives_majority_rate(self, trained):
        dataset, params = trained
        frozen = ModelParams(params.layout, params.flat.copy())
        for layer in frozen.classifier:
            layer.weight[:] = 0.0
            layer.bias[:] = 0.0
        results = evaluate_posthoc(dataset, frozen)
        for split in ("val", "test"):
            _, labels = dataset.split_arrays(split)
            majority = float((labels == 0).mean())  # argmax ties break to class 0
            assert results[split].post_accuracy == pytest.approx(majority)
            assert results[split].pre_accuracy == pytest.approx(majority)

    def test_self_alignment_keeps_accuracy(self, trained):
        dataset, params = trained
        x_train, y_train = dataset.split_arrays("train")
        features, _ = forward_features(params, x_train)
        baseline = float(
            (np.argmax(forward_classifier(params, features), axis=1) == y_train).mean()
        )
        aligned, _ = barycentric_map(features, features.copy(), epsilon=1e-3)
        after = float((np.argmax(forward_classifier(params, aligned), axis=1) == y_train).mean())
        assert abs(after - baseline) <= 0.005

    def test_source_subsampling_cap(self, trained, monkeypatch):
        dataset, params = trained
        monkeypatch.setattr(posthoc_align, "MAX_SOURCE_ROWS", 64)
        results = evaluate_posthoc(dataset, params)
        assert results["test"].plan.gamma.shape[1] == 64

    def test_unconverged_solve_raises(self, trained, monkeypatch):
        dataset, params = trained
        monkeypatch.setattr(posthoc_align, "MAX_ITERATIONS", 1)
        with pytest.raises(SinkhornConvergenceError) as info:
            evaluate_posthoc(dataset, params)
        assert info.value.iterations_used == 1
        assert max(info.value.row_residual, info.value.col_residual) > posthoc_align.MARGINAL_TOLERANCE
