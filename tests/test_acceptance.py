"""Acceptance gate: every release criterion at its stated tolerance, one
pass/fail line per criterion (run with pytest -s to see them live).

The statistical criteria (4-8) share one session fixture, conftest.py's
gate_runs: gate.train_gate on the benchmark dataset (four seeds per method,
the six-point alpha grid, and the swapped-split runs), read through the
statistics in gate.py. All runs are deterministic for fixed seeds on a
fixed platform; the patterns were calibrated once and then frozen.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from gate import ALPHA_GRID, masked_accuracy, mean_accuracy, posthoc_accuracy
from helpers import central_diff, grads_arrays, model_arrays, params_equal, rel_err, sampled_central_diff
from otda.cli import run as cli_run
from otda.da_train import TrainConfig, composite_loss_and_grads, train_with_model
from otda.eval_report import accuracy, roc_auc
from otda.nn_core import init_model
from otda.ot_core import (
    DiscreteDistribution,
    SinkhornConfig,
    cost_matrix,
    exact_ot_bruteforce,
    marginal_residual,
    ot_value_and_point_grads,
    sinkhorn,
)

# Converged plans are rounded to exact marginals, so their cost dominates the
# linear-program optimum up to float addition error.
FEASIBILITY_SLACK = 1e-12


@contextmanager
def criterion(number, summary):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} FAIL: {summary}")
        raise
    print(f"\nACCEPTANCE {number} PASS: {summary}")


def test_criterion_1_sinkhorn_oracle_agreement():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    config = SinkhornConfig(
        epsilon=1e-3, relative_epsilon=False, max_iterations=100000, marginal_tolerance=1e-6
    )
    worst_gap = 0.0
    with criterion(1, "entropic value within 1% above brute force on 100 instances"):
        for _ in range(100):
            n = int(rng.integers(4, 7))
            src = DiscreteDistribution.uniform(rng.standard_normal((n, 8)))
            tgt = DiscreteDistribution.uniform(rng.standard_normal((n, 8)))
            cost = cost_matrix(src, tgt)
            _, optimum = exact_ot_bruteforce(cost, src, tgt)
            plan = sinkhorn(cost, src, tgt, config)
            assert plan.converged
            row, col = marginal_residual(plan, src, tgt)
            assert row <= 1e-6 and col <= 1e-6
            assert plan.value_cost >= optimum - FEASIBILITY_SLACK
            gap = (plan.value_cost - optimum) / optimum
            assert gap <= 0.01
            worst_gap = max(worst_gap, gap)
        elapsed = time.perf_counter() - start
        assert elapsed <= 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    point_config = SinkhornConfig(
        epsilon=0.8, relative_epsilon=False, max_iterations=200000, marginal_tolerance=1e-9
    )
    with criterion(2, "OT point gradients and composite parameter gradients match FD at 1e-4"):
        for metric in ("euclidean", "squared_euclidean"):
            for _ in range(10):
                X = rng.standard_normal((int(rng.integers(3, 6)), 3))
                Y = rng.standard_normal((int(rng.integers(3, 6)), 3))
                _, gx, gy = ot_value_and_point_grads(X, Y, point_config, metric)
                fd_x = central_diff(lambda: ot_value_and_point_grads(X, Y, point_config, metric)[0], X)
                fd_y = central_diff(lambda: ot_value_and_point_grads(X, Y, point_config, metric)[0], Y)
                assert rel_err(gx, fd_x).max() <= 1e-4
                assert rel_err(gy, fd_y).max() <= 1e-4

        sk = SinkhornConfig(epsilon=0.5, relative_epsilon=False, max_iterations=200000,
                            marginal_tolerance=1e-9)
        config = TrainConfig(method="ot", alpha=0.3, sinkhorn=sk, seed=0)
        for instance in range(20):
            params = init_model(4, seed=instance)
            xs = rng.standard_normal((6, 4))
            ys = rng.integers(0, 2, 6)
            xt = rng.standard_normal((6, 4))

            def total():
                ce, ot, _ = composite_loss_and_grads(params, (xs, ys), xt, config)
                return ce + config.alpha * ot

            _, _, grads = composite_loss_and_grads(params, (xs, ys), xt, config)
            for arr, grad in zip(model_arrays(params), grads_arrays(grads)):
                worst = sampled_central_diff(total, arr, grad, rng)
                assert worst <= 1e-4
        elapsed = time.perf_counter() - start
        assert elapsed <= 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_erm_degeneracy(benchmark_dataset):
    with criterion(3, "alpha=0 ot and dann trajectories equal erm exactly"):
        for seed in (0, 1):
            erm = train_with_model(benchmark_dataset, TrainConfig(method="erm", alpha=0.0, seed=seed))[1]
            ot = train_with_model(benchmark_dataset, TrainConfig(method="ot", alpha=0.0, seed=seed))[1]
            dann = train_with_model(benchmark_dataset, TrainConfig(method="dann", alpha=0.0, seed=seed))[1]
            for other in (ot, dann):
                assert params_equal(erm.featurizer, other.featurizer)
                assert params_equal(erm.classifier, other.classifier)


def test_criterion_4_alpha_sweep_pattern(gate_runs):
    sweep_result = gate_runs.sweep
    with criterion(4, "validation-selected alpha beats smallest alpha; largest alpha least stable"):
        best = int(np.argmax(sweep_result.val_means))
        assert sweep_result.test_means[best] > sweep_result.test_means[0], (
            f"selected alpha {sweep_result.alphas[best]:g} test {sweep_result.test_means[best]:.3f} "
            f"vs smallest-alpha test {sweep_result.test_means[0]:.3f}"
        )
        assert int(np.argmax(sweep_result.test_stds)) == len(ALPHA_GRID) - 1, (
            f"test stds {np.round(sweep_result.test_stds, 3).tolist()}"
        )
        assert gate_runs.elapsed_seconds <= 600.0


def test_criterion_5_method_ordering(gate_runs):
    with criterion(5, "unseen-domain accuracy ordering ot > dann > erm with ot-erm >= 3 points"):
        means = {m: mean_accuracy(gate_runs.runs[m], "test") for m in ("erm", "ot", "dann")}
        assert means["ot"] > means["dann"] > means["erm"], means
        assert means["ot"] - means["erm"] >= 0.03, means


def test_benchmark_generalization_gap(gate_runs):
    # calibration contract of the generator: erm degrades off-domain
    val = mean_accuracy(gate_runs.runs["erm"], "val")
    test = mean_accuracy(gate_runs.runs["erm"], "test")
    assert val - test >= 0.05, f"erm val {val:.3f} vs test {test:.3f}"


def test_criterion_6_masked_subcluster_pattern(gate_runs):
    with criterion(6, "ot beats dann by >= 5 points on the withheld subcluster"):
        ot = masked_accuracy(gate_runs.dataset, gate_runs.runs["ot"])
        dann = masked_accuracy(gate_runs.dataset, gate_runs.runs["dann"])
        assert ot - dann >= 0.05, f"ot {ot:.3f} vs dann {dann:.3f}"


def test_criterion_7_posthoc_pattern(gate_runs):
    with criterion(7, "erm <= post-hoc alignment (eps=2) < in-training ot on the test domain"):
        post = posthoc_accuracy(gate_runs.dataset, gate_runs.runs["erm"])
        erm = mean_accuracy(gate_runs.runs["erm"], "test")
        ot = mean_accuracy(gate_runs.runs["ot"], "test")
        assert erm <= post < ot, f"erm {erm:.3f}, post {post:.3f}, ot {ot:.3f}"


def test_criterion_8_swap_pattern(gate_runs):
    with criterion(8, "after swapping val and test institutions, ot still beats erm"):
        ot = mean_accuracy(gate_runs.swap_runs["ot"], "test")
        erm = mean_accuracy(gate_runs.swap_runs["erm"], "test")
        assert ot > erm, f"ot {ot:.3f} vs erm {erm:.3f}"


def test_criterion_9_metric_oracles():
    rng = np.random.default_rng(909)
    with criterion(9, "AUC equals the pairwise oracle to 1e-12; accuracy equals a loop count"):
        for n in range(2, 51):
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.random(n), 1)
            pos, neg = scores[labels == 1], scores[labels == 0]
            oracle = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg) / (len(pos) * len(neg))
            assert abs(roc_auc(scores, labels).auc - oracle) <= 1e-12
        for _ in range(20):
            n = int(rng.integers(1, 100))
            logits = rng.standard_normal((n, 3))
            labels = rng.integers(0, 3, n)
            count = sum(1 for i in range(n) if int(np.argmax(logits[i])) == labels[i])
            assert accuracy(logits, labels) == count / n


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "repeated CLI runs produce byte-identical report files"):
        data = tmp_path / "data"
        assert cli_run(["gen-data", "--seed", "3", "--out", str(data), "--samples-per-domain", "150"]) == 0
        assert cli_run(["gen-data", "--seed", "3", "--out", str(data), "--samples-per-domain", "150"]) == 0
        out = tmp_path / "run"
        args = ["train", "--method", "ot", "--alpha", "0.05", "--seed", "1", "--epochs", "2",
                "--data", str(data), "--out", str(out)]
        assert cli_run(args) == 0
        first = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert cli_run(args) == 0
        second = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert first and first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], rel
