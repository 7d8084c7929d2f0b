"""Training harness: step semantics, ERM degeneracy, gradient reversal,
composite-loss gradcheck, determinism, leakage, early stopping, and sweeps."""

import contextlib
import json
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import otda.da_train
from helpers import (
    cap_training_solver_at_one_iteration,
    central_diff,
    grads_arrays,
    model_arrays,
    params_equal,
    raises_exactly,
    record_blas_threads,
    rel_err,
    zeros_like,
)
from otda.data_gen import GeneratorConfig, generate
from otda.da_train import (
    METHODS,
    EpochRecord,
    RunReport,
    SweepResult,
    TrainConfig,
    _openblas_function,
    _worker_pool,
    alpha_sweep,
    binary_cross_entropy_with_logits,
    composite_loss_and_grads,
    composite_loss_step,
    dann_step,
    evaluate_split,
    load_report,
    run_seeds,
    save_report,
    train,
    train_with_model,
)
from otda.errors import ConfigurationError, ContractViolationError, NumericError, ParseError, SinkhornConvergenceError
from otda.eval_report import roc_auc
from otda.nn_core import (
    OptimizerConfig,
    _head_backward,
    _head_forward,
    backward,
    cross_entropy,
    forward_classifier,
    forward_features,
    init_model,
)
from otda.ot_core import SinkhornConfig


@pytest.fixture(scope="module")
def tiny_ds():
    return generate(GeneratorConfig(samples_per_domain=150, seed=3))


def small_config(**kwargs):
    defaults = dict(method="erm", alpha=0.1, epochs=2, seed=5)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def fresh_step(step, params, source, target, config):
    """A training step from params with zero momentum, as a run's first step."""
    return step(params, zeros_like(params), source, target, config)


def batch_from(ds, rng, size=16):
    idx = rng.choice(np.flatnonzero(ds.splits == "train"), size, replace=False)
    tidx = rng.choice(np.flatnonzero(ds.splits == "val"), size, replace=False)
    return (ds.features[idx], ds.labels[idx]), ds.features[tidx]


_BATCH = (np.zeros((4, 8)), np.zeros(4, dtype=int))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda ds: TrainConfig(method="sgd"), ConfigurationError,
                 "unknown method 'sgd'; expected one of ('erm', 'ot', 'dann')", id="method"),
    pytest.param(lambda ds: TrainConfig(metric="manhattan"), ConfigurationError,
                 "unknown metric 'manhattan'", id="metric"),
    pytest.param(lambda ds: binary_cross_entropy_with_logits(np.zeros((3, 1)), np.zeros(2)), ContractViolationError,
                 "logits and targets must align", id="bce-shapes"),
    pytest.param(lambda ds: composite_loss_and_grads(init_model(8), _BATCH, _BATCH[0], small_config(method="dann")),
                 ContractViolationError, "method 'dann' needs a model with a domain head", id="dann-without-head"),
    pytest.param(lambda ds: composite_loss_and_grads(init_model(8), (np.zeros((0, 8)), np.zeros(0, dtype=int)),
                                                     _BATCH[0], small_config()),
                 ContractViolationError, "empty source batch", id="empty-source"),
    pytest.param(lambda ds: composite_loss_and_grads(init_model(8), _BATCH, np.zeros((0, 8)), small_config(method="ot")),
                 ContractViolationError, "empty target batch", id="empty-target"),
    pytest.param(lambda ds: alpha_sweep(ds, small_config(method="ot"), [], [0]), ConfigurationError,
                 "need at least one alpha value", id="no-alphas"),
    pytest.param(lambda ds: alpha_sweep(ds, small_config(method="ot"), [0.1, 0.1000001], [0]), ConfigurationError,
                 "alphas 0.1 and 0.1000001 share the run id label 0.1", id="alphas-share-a-label"),
    pytest.param(lambda ds: alpha_sweep(ds, small_config(method="ot"), [0.0, -0.0], [0]), ConfigurationError,
                 "alphas 0.0 and -0.0 are equal", id="alphas-equal"),
    pytest.param(lambda ds: TrainConfig(seed=2**63), ConfigurationError,
                 "seed must be a 64-bit int >= 0, got 9223372036854775808", id="seed-past-64-bits"),
])
def test_library_guard_names_the_fault(tiny_ds, call, error, message):
    # inputs the training loop and the CLI never build
    with raises_exactly(error, message):
        call(tiny_ds)


class TestCompositeStep:
    def test_alpha_zero_matches_erm_bitwise(self, tiny_ds):
        rng = np.random.default_rng(0)
        source, target = batch_from(tiny_ds, rng)
        params = init_model(8, seed=1)
        erm_params, erm_ce, _ = fresh_step(composite_loss_step, params, source, target, small_config(method="erm"))
        ot_params, ot_ce, ot_loss = fresh_step(
            composite_loss_step, params, source, target, small_config(method="ot", alpha=0.0)
        )
        assert erm_ce == ot_ce and ot_loss == 0.0
        assert params_equal(erm_params.featurizer, ot_params.featurizer)
        assert params_equal(erm_params.classifier, ot_params.classifier)

    def test_identical_batches_self_transport(self, tiny_ds):
        from otda.ot_core import DiscreteDistribution, cost_matrix

        rng = np.random.default_rng(1)
        (xs, ys), _ = batch_from(tiny_ds, rng)
        params = init_model(8, seed=2)
        # sharp regularization: the self-coupling is then essentially the
        # identity, so the transport gradient contribution decays like
        # exp(-distance/epsilon) and the step reduces to a plain erm step
        sk = SinkhornConfig(epsilon=0.02, relative_epsilon=False,
                            max_iterations=200000, marginal_tolerance=1e-10)
        config = small_config(method="ot", alpha=0.5, sinkhorn=sk)
        features, _ = forward_features(params, xs)
        _, ot_loss, grads = composite_loss_and_grads(params, (xs, ys), xs.copy(), config)
        _, _, erm_grads = composite_loss_and_grads(params, (xs, ys), None, small_config(method="erm"))
        measure = DiscreteDistribution.uniform(features)
        eps_eff = config.sinkhorn.resolve_epsilon(cost_matrix(measure, measure).entries)
        # value_cost is near zero; the entropy term bounds the magnitude
        assert abs(ot_loss) <= eps_eff * 2.0 * np.log(len(xs))
        for g_ot, g_erm in zip(grads_arrays(grads), grads_arrays(erm_grads)):
            assert np.abs(g_ot - g_erm).max() <= 1e-6

    def test_unequal_batch_sizes_rejected(self, tiny_ds):
        rng = np.random.default_rng(2)
        source, target = batch_from(tiny_ds, rng)
        params = init_model(8, seed=3)
        with pytest.raises(ContractViolationError):
            fresh_step(composite_loss_step, params, source, target[:-3], small_config(method="ot", alpha=0.1))

    def test_composite_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((8, 4))
        ys = rng.integers(0, 2, 8)
        xt = rng.standard_normal((8, 4))
        params = init_model(4, feature_widths=(5, 4), num_classes=2, seed=4)
        sk = SinkhornConfig(epsilon=0.5, relative_epsilon=False, max_iterations=200000,
                            marginal_tolerance=1e-11)
        config = TrainConfig(method="ot", alpha=0.3, sinkhorn=sk, seed=0)

        def total_loss():
            ce, ot, _ = composite_loss_and_grads(params, (xs, ys), xt, config)
            return ce + config.alpha * ot

        _, _, grads = composite_loss_and_grads(params, (xs, ys), xt, config)
        for arr, grad in zip(model_arrays(params), grads_arrays(grads)):
            fd = central_diff(total_loss, arr, h=1e-5)
            assert rel_err(grad, fd).max() <= 1e-4


class TestDannStep:
    def test_alpha_zero_featurizer_matches_erm(self, tiny_ds):
        rng = np.random.default_rng(4)
        source, target = batch_from(tiny_ds, rng)
        erm_params = init_model(8, seed=6)
        dann_params = init_model(8, domain_head_widths=(16,), seed=6)
        assert params_equal(erm_params.featurizer, dann_params.featurizer)
        stepped_erm, _, _ = fresh_step(composite_loss_step, erm_params, source, target, small_config(method="erm"))
        stepped_dann, _, _ = fresh_step(dann_step, dann_params, source, target, small_config(method="dann", alpha=0.0))
        assert params_equal(stepped_erm.featurizer, stepped_dann.featurizer)
        assert params_equal(stepped_erm.classifier, stepped_dann.classifier)
        # the head itself must have moved
        assert not params_equal(dann_params.domain_head, stepped_dann.domain_head)

    def test_uninformative_adversary(self, tiny_ds):
        rng = np.random.default_rng(5)
        source, target = batch_from(tiny_ds, rng)
        params = init_model(8, domain_head_widths=(16,), seed=7)
        params.domain_head[-1].weight[:] = 0.0
        params.domain_head[-1].bias[:] = 0.0
        erm_ref = init_model(8, seed=7)
        stepped_ref, _, _ = fresh_step(composite_loss_step, erm_ref, source, target, small_config(method="erm"))
        stepped, _, domain_loss = fresh_step(dann_step, params, source, target, small_config(method="dann", alpha=0.7))
        assert domain_loss == pytest.approx(np.log(2.0), abs=1e-12)
        assert params_equal(stepped.featurizer, stepped_ref.featurizer)

    def test_composite_step_takes_the_dann_step_bitwise(self, tiny_ds):
        rng = np.random.default_rng(7)
        source, target = batch_from(tiny_ds, rng)
        params = init_model(8, domain_head_widths=(16,), seed=9)
        config = small_config(method="dann", alpha=0.4)
        via_dann, ce_a, aux_a = fresh_step(dann_step, params, source, target, config)
        via_composite, ce_b, aux_b = fresh_step(composite_loss_step, params, source, target, config)
        assert (ce_a, aux_a) == (ce_b, aux_b)
        assert [a.tobytes() for a in model_arrays(via_dann)] == [a.tobytes() for a in model_arrays(via_composite)]

    def test_dann_step_ignores_the_configured_method(self, tiny_ds):
        rng = np.random.default_rng(8)
        source, target = batch_from(tiny_ds, rng)
        params = init_model(8, domain_head_widths=(16,), seed=10)
        reference, _, domain_loss = fresh_step(dann_step, params, source, target, small_config(method="dann", alpha=0.4))
        stepped, _, aux_loss = fresh_step(dann_step, params, source, target, small_config(method="ot", alpha=0.4))
        assert aux_loss == domain_loss
        assert [a.tobytes() for a in model_arrays(stepped)] == [a.tobytes() for a in model_arrays(reference)]
        assert not params_equal(params.domain_head, stepped.domain_head)

    def test_gradient_reversal_sign(self, tiny_ds):
        rng = np.random.default_rng(6)
        (xs, ys), xt = batch_from(tiny_ds, rng)
        alpha = 0.37
        params = init_model(8, domain_head_widths=(16,), seed=8)

        features_s, trace_s = forward_features(params, xs)
        logits = forward_classifier(params, features_s)
        _, dlogits = cross_entropy(logits, ys)
        features_t, trace_t = forward_features(params, xt)
        stacked = np.vstack([features_s, features_t])
        targets = np.concatenate([np.zeros(len(xs)), np.ones(len(xt))])
        head_out, inputs = _head_forward(params.domain_head, stacked)
        _, dhead = binary_cross_entropy_with_logits(head_out, targets)
        head_grads, dstacked = _head_backward(params.domain_head, inputs, dhead)

        base = backward(params, trace_s, None, dlogits)
        unreversed = backward(params, trace_s, dstacked[: len(xs)], np.zeros_like(dlogits))
        unreversed.flat += backward(params, trace_t, dstacked[len(xs):], None).flat
        reversed_grads = backward(params, trace_s, -alpha * dstacked[: len(xs)], dlogits)
        reversed_grads.flat += backward(params, trace_t, -alpha * dstacked[len(xs):], None).flat

        for (bw, bb), (uw, ub), (rw, rb) in zip(base.featurizer, unreversed.featurizer, reversed_grads.featurizer):
            assert np.allclose(rw, bw - alpha * uw, atol=1e-12)
            assert np.allclose(rb, bb - alpha * ub, atol=1e-12)
        # the training step's gradients are these reversed ones, bit for bit
        _, _, step_grads = composite_loss_and_grads(params, (xs, ys), xt, small_config(method="dann", alpha=alpha))
        for a, b in zip(grads_arrays(step_grads), grads_arrays(reversed_grads)):
            assert np.array_equal(a, b)
        # and its domain head's are the head's own, not reversed or scaled
        assert [a.tobytes() for layer in step_grads.domain_head for a in layer] == [
            a.tobytes() for layer in head_grads for a in layer
        ]

    def test_sigmoid_overflow_gives_the_exact_limit(self):
        # exp(1000) overflows to inf, and 1 / (1 + inf) is sigmoid's limit 0
        loss, grads = binary_cross_entropy_with_logits(np.full((4, 1), -1000.0), np.ones(4))
        assert loss == 1000.0
        assert np.array_equal(grads, np.full((4, 1), -0.25))


class TestTrain:
    def test_separable_toy_reaches_high_train_accuracy(self):
        rng = np.random.default_rng(7)
        n = 120
        blobs = []
        for dom in range(1, 4):
            x0 = rng.standard_normal((n, 4)) * 0.3 + np.array([2.0, 0, 0, 0])
            x1 = rng.standard_normal((n, 4)) * 0.3 + np.array([-2.0, 0, 0, 0])
            blobs.append((np.vstack([x0, x1]), np.array([0] * n + [1] * n), dom))
        from otda.data_gen import DomainDataset

        features = np.vstack([b[0] for b in blobs])
        labels = np.concatenate([b[1] for b in blobs])
        domains = np.concatenate([np.full(2 * n, b[2]) for b in blobs])
        splits = np.where(domains == 1, "train", np.where(domains == 2, "val", "test")).astype(object)
        ds = DomainDataset(features, labels, domains, splits)
        report = train(ds, TrainConfig(method="erm", epochs=5, seed=0))
        assert report.final["train"]["accuracy"] >= 0.99

    def test_same_seed_identical_reports(self, tiny_ds):
        config = small_config(method="ot", alpha=0.05)
        a = train(tiny_ds, config)
        b = train(tiny_ds, config)
        assert a.to_json_dict() == b.to_json_dict()

    def test_validation_labels_never_touch_training(self, tiny_ds):
        config = small_config(method="ot", alpha=0.1)
        _, base_params = train_with_model(tiny_ds, config)
        shuffled = generate(GeneratorConfig(samples_per_domain=150, seed=3))
        rng = np.random.default_rng(0)
        val_idx = shuffled.split_indices("val")
        shuffled.labels[val_idx] = rng.permutation(shuffled.labels[val_idx])
        report, permuted_params = train_with_model(shuffled, config)
        assert params_equal(base_params.featurizer, permuted_params.featurizer)
        assert params_equal(base_params.classifier, permuted_params.classifier)

    def test_early_stopping_selects_best_validation_epoch(self, tiny_ds):
        report = train(tiny_ds, small_config(method="erm", epochs=4))
        best = max(r.val_accuracy for r in report.epochs)
        assert report.epochs[report.selected_epoch].val_accuracy == best

    def test_val_accuracy_tie_keeps_the_first_epoch(self, tiny_ds, monkeypatch):
        # val then test accuracy of each epoch
        accuracies = iter([0.5, 0.2, 0.7, 0.4, 0.7, 0.6, 0.6, 0.8, 0.7, 1.0])
        scored, evaluated = [], []

        def scripted(params, X, y):
            scored.append(params)
            return next(accuracies)

        def evaluate(params, X, y):
            evaluated.append(params)
            return evaluate_split(params, X, y)

        monkeypatch.setattr(otda.da_train, "_split_accuracy", scripted)
        monkeypatch.setattr(otda.da_train, "evaluate_split", evaluate)
        report, params = train_with_model(tiny_ds, small_config(epochs=5))
        assert [r.val_accuracy for r in report.epochs] == [0.5, 0.7, 0.7, 0.6, 0.7]
        assert report.selected_epoch == 1 and params is scored[2]
        assert len(evaluated) == 3 and all(p is params for p in evaluated)

    @pytest.mark.parametrize("method", METHODS)
    def test_final_metrics_score_the_returned_params_once(self, tiny_ds, method, monkeypatch):
        curves = []

        def counted(scores, labels):
            curves.append(len(labels))
            return roc_auc(scores, labels)

        monkeypatch.setattr(otda.da_train, "roc_auc", counted)
        report, params = train_with_model(tiny_ds, small_config(method=method, epochs=5))
        assert len(curves) == 3  # val, test and train of the returned params, never an epoch's
        for split in ("val", "test", "train"):
            assert report.final[split] == evaluate_split(params, *tiny_ds.split_arrays(split))

    def test_full_run_erm_degeneracy(self, tiny_ds):
        erm = train_with_model(tiny_ds, small_config(method="erm", alpha=0.0, epochs=3))[1]
        ot = train_with_model(tiny_ds, small_config(method="ot", alpha=0.0, epochs=3))[1]
        dann = train_with_model(tiny_ds, small_config(method="dann", alpha=0.0, epochs=3))[1]
        assert params_equal(erm.featurizer, ot.featurizer)
        assert params_equal(erm.classifier, ot.classifier)
        assert params_equal(erm.featurizer, dann.featurizer)
        assert params_equal(erm.classifier, dann.classifier)


class TestEvaluateSplit:
    def test_untraced_pass_holds_two_block_arrays(self):
        rng = np.random.default_rng(0)
        params = init_model(8, seed=0)
        x, y = rng.standard_normal((1800, 8)), rng.integers(0, 2, 1800)
        expected = evaluate_split(params, x, y)  # first call loads what it imports
        tracemalloc.start()
        try:
            assert evaluate_split(params, x, y) == expected
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = 1800 * 64 * 8  # the widest block array: 1800 rows of 64 doubles
        assert peak <= 2 * block + 256 * 1024


class TestSolverFailures:
    def test_seed_227_completes(self, benchmark_dataset):
        # the ragged 8x8 last batch whose solve once stalled until the cap
        report, _ = train_with_model(benchmark_dataset, TrainConfig(method="ot", seed=227))
        assert len(report.epochs) == 5

    def test_failure_names_epoch_step_and_batch_shape(self, tiny_ds):
        config = small_config(method="ot", sinkhorn=SinkhornConfig(epsilon=0.1, max_iterations=1))
        with pytest.raises(SinkhornConvergenceError) as info:
            train_with_model(tiny_ds, config)
        assert (info.value.epoch, info.value.step, info.value.batch_shape) == (0, 0, (128, 128))

    def test_error_survives_pickling(self):
        error = SinkhornConvergenceError("stalled", 20000, 1.4e-6, 6e-17)
        error.epoch, error.step, error.batch_shape = 3, 14, (8, 8)
        copy = pickle.loads(pickle.dumps(error))
        assert str(copy) == "stalled"
        assert (copy.iterations_used, copy.row_residual, copy.col_residual) == (20000, 1.4e-6, 6e-17)
        assert (copy.epoch, copy.step, copy.batch_shape) == (3, 14, (8, 8))


class TestAlphaSweep:
    def test_single_alpha_table(self, tiny_ds):
        sweep = alpha_sweep(tiny_ds, small_config(method="ot"), [0.01], seeds=[0])
        assert sweep.selected_alpha == 0.01
        assert sweep.val_acc.shape == (1, 1)

    def test_selection_and_aggregation(self, tiny_ds):
        sweep = alpha_sweep(tiny_ds, small_config(method="ot"), [1e-4, 1e-2], seeds=[0, 1])
        assert sweep.val_acc.shape == (2, 2)
        assert sweep.selected_alpha in (1e-4, 1e-2)
        best = int(np.argmax(sweep.val_means))
        assert sweep.selected_alpha == sweep.alphas[best]
        # sample std over exactly the configured seeds
        manual = np.std(sweep.val_acc[0], ddof=1)
        assert sweep.val_stds[0] == pytest.approx(manual)

    def test_erm_rejected(self, tiny_ds):
        with pytest.raises(ConfigurationError):
            alpha_sweep(tiny_ds, small_config(method="erm"), [0.1], seeds=[0])

    def test_empty_seed_list_rejected(self, tiny_ds):
        config = small_config(method="ot")
        with pytest.raises(ConfigurationError, match="seed"):
            alpha_sweep(tiny_ds, config, [0.1], [])
        with pytest.raises(ConfigurationError, match="seed"):
            run_seeds(tiny_ds, config, [])

    def test_negative_seed_rejected(self, tiny_ds):
        with pytest.raises(ConfigurationError, match="seed"):
            TrainConfig(seed=-1)
        with pytest.raises(ConfigurationError, match="seed"):
            run_seeds(tiny_ds, small_config(), [0, -1])

    def test_parallel_workers_match_sequential(self, tiny_ds, monkeypatch):
        config = small_config(method="ot", epochs=1)
        sequential = alpha_sweep(tiny_ds, config, [1e-3, 1e-1], seeds=[0, 1])
        monkeypatch.setenv("OTDA_THREADS", "2")
        parallel = alpha_sweep(tiny_ds, config, [1e-3, 1e-1], seeds=[0, 1])
        assert parallel.to_json_dict() == sequential.to_json_dict()
        for seq_row, par_row in zip(sequential.reports, parallel.reports):
            assert [r.to_json_dict() for r in par_row] == [r.to_json_dict() for r in seq_row]


def _cell_blas_threads(config):
    """In a pool worker: train one cell on the worker's dataset and return
    the BLAS thread counts its featurizer calls ran at."""
    with pytest.MonkeyPatch.context() as mp:
        seen = record_blas_threads(mp, otda.da_train, "forward_features", _openblas_function("get_num_threads"))
        otda.da_train._sweep_cell(config)
    return seen


class TestWorkerPool:
    def test_run_seeds_parallel_matches_sequential(self, tiny_ds, monkeypatch):
        config = small_config(method="dann", epochs=1)
        sequential = run_seeds(tiny_ds, config, [0, 1, 2], keep_params=True)
        monkeypatch.setenv("OTDA_THREADS", "2")
        parallel = run_seeds(tiny_ds, config, [0, 1, 2], keep_params=True)
        assert [r.seed for r, _ in parallel] == [0, 1, 2]
        for (seq_report, seq_params), (par_report, par_params) in zip(sequential, parallel):
            assert par_report.to_json_dict() == seq_report.to_json_dict()
            assert [a.tobytes() for a in model_arrays(par_params)] == [a.tobytes() for a in model_arrays(seq_params)]

    def test_workers_run_one_blas_thread(self, tiny_ds, parent_blas_threads):
        # The parent runs two threads, so a cell that kept them would show it.
        with _worker_pool(tiny_ds, 1) as pool:
            seen = pool.submit(_cell_blas_threads, small_config(method="dann", epochs=1)).result()
        assert seen and set(seen) == {1}
        assert parent_blas_threads() == 2


class TestBlasScope:
    def test_training_runs_one_thread_and_restores(self, tiny_ds, monkeypatch, parent_blas_threads):
        import otda.da_train

        seen = record_blas_threads(monkeypatch, otda.da_train, "forward_features", parent_blas_threads)
        train_with_model(tiny_ds, small_config(method="dann", epochs=1))
        assert seen and set(seen) == {1}
        assert parent_blas_threads() == 2

    def test_posthoc_runs_one_thread_and_restores(self, tiny_ds, monkeypatch, parent_blas_threads):
        import otda.posthoc_align
        from otda.posthoc_align import evaluate_posthoc

        _, params = train_with_model(tiny_ds, small_config(epochs=1))
        seen = record_blas_threads(monkeypatch, otda.posthoc_align, "forward_features", parent_blas_threads)
        evaluate_posthoc(tiny_ds, params)
        assert seen and set(seen) == {1}
        assert parent_blas_threads() == 2

    def test_failed_run_restores(self, tiny_ds, monkeypatch, parent_blas_threads):
        cap_training_solver_at_one_iteration(monkeypatch)
        with pytest.raises(SinkhornConvergenceError):
            train_with_model(tiny_ds, small_config(method="ot", alpha=0.1, epochs=1, batch_size=32))
        assert parent_blas_threads() == 2


# A caller's error state that differs from numpy's default in every field.
_CALLER_ERR = {"divide": "print", "over": "ignore", "under": "raise", "invalid": "warn"}


class TestNumericSection:
    def _restores(self, call, raises=None):
        with np.errstate(**_CALLER_ERR):
            with pytest.raises(raises) if raises else contextlib.nullcontext():
                call()
            assert np.geterr() == _CALLER_ERR

    def test_training_restores(self, tiny_ds):
        self._restores(lambda: train_with_model(tiny_ds, small_config(method="dann", epochs=1)))

    def test_diverged_training_restores(self, tiny_ds):
        config = small_config(epochs=1, optimizer=OptimizerConfig(learning_rate=1e300))
        self._restores(lambda: train_with_model(tiny_ds, config), NumericError)

    def test_posthoc_restores(self, tiny_ds, monkeypatch):
        from otda import posthoc_align

        _, params = train_with_model(tiny_ds, small_config(epochs=1))
        self._restores(lambda: posthoc_align.evaluate_posthoc(tiny_ds, params))
        monkeypatch.setattr(posthoc_align, "MAX_ITERATIONS", 1)
        self._restores(lambda: posthoc_align.evaluate_posthoc(tiny_ds, params), SinkhornConvergenceError)

    @pytest.mark.parametrize("argv, code", [(["selftest"], 0), (["train", "--bogus"], 1)])
    def test_command_restores(self, argv, code, capsys):
        from otda.cli import run

        with np.errstate(**_CALLER_ERR):
            assert run(argv) == code
            assert np.geterr() == _CALLER_ERR
        capsys.readouterr()

    def test_fault_in_epoch_end_evaluation_names_its_epoch(self, tiny_ds, monkeypatch):
        def overflowing(*args):
            return np.float64(1e308) * 10.0

        monkeypatch.setattr(otda.da_train, "_split_accuracy", overflowing)
        with pytest.raises(NumericError, match="^overflow encountered in scalar multiply$") as caught:
            train_with_model(tiny_ds, small_config(epochs=1))
        assert (caught.value.epoch, caught.value.step, caught.value.batch_shape) == (0, None, None)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_nan_feature_is_an_input_fault(self, tiny_ds, method, split):
        # a NaN input sets no floating-point flag, so the dataset refuses it
        # before any run can train on it
        features = tiny_ds.features.copy()
        row = np.flatnonzero(tiny_ds.splits == split)[0]
        features[row, 0] = np.nan
        with raises_exactly(ContractViolationError, f"non-finite feature in row {row} ({split} split)"):
            train_with_model(replace(tiny_ds, features=features), small_config(method=method, epochs=1))


class TestReportStructures:
    def test_report_round_trip(self, tiny_ds, tmp_path):
        from otda.da_train import load_report, save_report

        report = train(tiny_ds, small_config(method="erm"))
        save_report(report, tmp_path / "r.json")
        loaded = load_report(tmp_path / "r.json")
        assert loaded.to_json_dict() == report.to_json_dict()
        assert loaded.run_id() == report.run_id()

    def test_serialized_report_excludes_timing(self, tiny_ds, tmp_path):
        from otda.da_train import save_report
        import json

        report = train(tiny_ds, small_config(method="erm"))
        save_report(report, tmp_path / "r.json")
        payload = json.loads((tmp_path / "r.json").read_text())
        keys = {"epoch", "ce_loss", "aux_loss", "val_accuracy", "test_accuracy"}
        assert [set(e) for e in payload["epochs"]] == [keys] * len(report.epochs)


_unit = st.floats(0.0, 1.0)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def run_reports(draw):
    epochs = [
        EpochRecord(epoch=i, ce_loss=draw(_finite), aux_loss=draw(_finite), val_accuracy=draw(_unit),
                    test_accuracy=draw(_unit), wall_seconds=draw(st.floats(0.0, 1e6)))
        for i in range(draw(st.integers(1, 4)))
    ]
    split = st.fixed_dictionaries({"accuracy": _unit, "auc": st.none() | _unit})
    return RunReport(
        config={"method": draw(st.sampled_from(METHODS)), "alpha": draw(st.floats(0.0, 10.0)),
                "feature_widths": draw(st.lists(st.integers(1, 64), max_size=3))},
        epochs=epochs,
        selected_epoch=draw(st.integers(0, len(epochs) - 1)),
        final=draw(st.fixed_dictionaries({"val": split, "test": split, "train": split})),
        seed=draw(st.integers(0, 2**31)),
    )


def _report_text(**change) -> str:
    """A stored report whose top-level keys are replaced by change."""
    split = {"accuracy": 0.5, "auc": None}
    payload = {"config": {"method": "ot", "alpha": 0.1}, "selected_epoch": 0, "seed": 0,
               "epochs": [{"epoch": 0, "ce_loss": 0.7, "aux_loss": 0.1, "val_accuracy": 0.5, "test_accuracy": 0.5}],
               "final": {"val": split, "test": split, "train": split}}
    return json.dumps({**payload, **change})


_io_settings = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestReportJsonRoundTrip:
    @_io_settings
    @given(report=run_reports())
    def test_save_then_load_keeps_the_json_dict(self, tmp_path, report):
        save_report(report, tmp_path / "r.json")
        loaded = load_report(tmp_path / "r.json")
        assert loaded.to_json_dict() == report.to_json_dict()
        assert all("wall_seconds" not in vars(e) for e in loaded.epochs)

    def test_well_formed_text_loads(self, tmp_path):
        (tmp_path / "r.json").write_text(_report_text())
        assert load_report(tmp_path / "r.json").run_id() == "ot_a0.1_s0"

    @_io_settings
    @given(report=run_reports())
    def test_report_with_wall_seconds_loads(self, tmp_path, report):
        # every report written while training timed its epochs stores the
        # field; it is checked, then dropped
        payload = report.to_json_dict()
        (tmp_path / "without.json").write_text(json.dumps(payload))
        for i, record in enumerate(payload["epochs"]):
            record["wall_seconds"] = 0.5 * i
        (tmp_path / "with.json").write_text(json.dumps(payload))
        loaded = load_report(tmp_path / "with.json").to_json_dict()
        assert loaded == load_report(tmp_path / "without.json").to_json_dict() == report.to_json_dict()

    @pytest.mark.parametrize("text", ["not json", '{"config": {}}', '{"unknown": 1}', *(
        # reports that emit_tables could not use
        pytest.param(_report_text(**change), id=name) for name, change in [
            ("no-val", {"final": {"test": {"accuracy": 0.5, "auc": None}}}),
            ("no-test", {"final": {"val": {"accuracy": 0.5, "auc": None}}}),
            ("string-accuracy", {"final": {split: {"accuracy": "0.5", "auc": None} for split in ("val", "test")}}),
            ("accuracy-above-one", {"final": {split: {"accuracy": 1.5, "auc": None} for split in ("val", "test")}}),
            ("no-method", {"config": {"alpha": 0.1}}),
            ("unknown-method", {"config": {"method": "sgd", "alpha": 0.1}}),
            ("string-alpha", {"config": {"method": "ot", "alpha": "0.1"}}),
            ("string-seed", {"seed": "x"}),
        ]
    )])
    def test_malformed_report_is_parse_error(self, tmp_path, text):
        (tmp_path / "r.json").write_text(text)
        with pytest.raises(ParseError):
            load_report(tmp_path / "r.json")
