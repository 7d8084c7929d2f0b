"""Metrics vs brute-force oracles, ROC invariants, PCA properties, and the
byte-stable table/plot emitters."""

import re

import numpy as np
import pytest

from otda.da_train import EpochRecord, RunReport
from otda.errors import (
    ContractViolationError,
    DegenerateProjectionError,
    FeatureUnavailableError,
    UndefinedMetricError,
)
from otda.eval_report import (
    accuracy,
    emit_tables,
    format_mean_std,
    line_plot_svg,
    mean_std,
    method_stats,
    pca_project,
    roc_auc,
    subcluster_breakdown,
    write_alpha_table,
)


class TestAccuracy:
    def test_all_correct(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_complement_binary(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((50, 2))
        labels = rng.integers(0, 2, 50)
        assert accuracy(logits, labels) == pytest.approx(1.0 - accuracy(logits, 1 - labels))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((100, 4))
        labels = rng.integers(0, 4, 100)
        count = sum(1 for i in range(100) if int(np.argmax(logits[i])) == labels[i])
        assert accuracy(logits, labels) == count / 100

    def test_tie_breaks_to_lower_index(self):
        logits = np.array([[0.5, 0.5]])
        assert accuracy(logits, np.array([0])) == 1.0
        assert accuracy(logits, np.array([1])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert roc_auc(scores, labels).auc == 1.0

    def test_uninformative_scores(self):
        scores = np.full(10, 0.5)
        labels = np.array([0, 1] * 5)
        assert roc_auc(scores, labels).auc == pytest.approx(0.5, abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(4, 21))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.random(n), 1)  # force ties
            pos, neg = scores[labels == 1], scores[labels == 0]
            oracle = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg) / (len(pos) * len(neg))
            assert abs(roc_auc(scores, labels).auc - oracle) <= 1e-12

    def test_curve_invariants(self):
        rng = np.random.default_rng(3)
        scores = rng.random(40)
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        curve = roc_auc(scores, labels)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0) and np.all(np.diff(curve.tpr) >= 0)
        assert np.all(np.diff(curve.thresholds) < 0)
        trapezoid = float(np.sum(np.diff(curve.fpr) * (curve.tpr[1:] + curve.tpr[:-1]) / 2))
        assert abs(curve.auc - trapezoid) <= 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc(np.array([0.1, 0.9]), np.array([1, 1]))

    @pytest.mark.parametrize(
        "scores, labels",
        [
            ([0.9, 0.8, 0.2, 0.1], [1, 2, 0, 0]),
            ([0.9, 0.8, 0.2, 0.1], [1, 0, -1, 0]),
            ([0.9, np.nan, 0.2, 0.1], [1, 1, 0, 0]),
            ([0.9, np.inf, 0.2, 0.1], [1, 1, 0, 0]),
        ],
    )
    def test_labels_outside_zero_one_or_non_finite_scores_rejected(self, scores, labels):
        with pytest.raises(ContractViolationError):
            roc_auc(np.array(scores), np.array(labels))


class TestSubclusterBreakdown:
    def test_uniform_predictions_cell_majority(self):
        labels = np.array([0, 0, 1, 1, 1, 0])
        tags = np.array(["a", "a", "a", "b", "b", "b"])
        preds = np.zeros(6, dtype=int)
        cells = subcluster_breakdown(preds, labels, tags, np.ones(6, dtype=int), "m")
        by_tag = {c.tag: c for c in cells}
        assert by_tag["a"].accuracy == pytest.approx(2 / 3)
        assert by_tag["b"].accuracy == pytest.approx(1 / 3)

    def test_partition_identity(self):
        rng = np.random.default_rng(4)
        n = 120
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        tags = rng.choice(["a", "b", "c"], n)
        domains = rng.choice([1, 2], n)
        cells = subcluster_breakdown(preds, labels, tags, domains, "a")
        assert sum(c.count for c in cells) == n
        weighted = sum(c.count * c.accuracy for c in cells) / n
        assert weighted == pytest.approx(float((preds == labels).mean()), abs=1e-12)

    def test_masked_flag(self):
        cells = subcluster_breakdown(
            np.array([0, 0]), np.array([0, 1]), np.array(["m", "x"]), np.array([1, 1]), masked_tag="m"
        )
        assert {c.tag: c.masked for c in cells} == {"m": True, "x": False}

    def test_missing_tags_rejected(self):
        with pytest.raises(FeatureUnavailableError):
            subcluster_breakdown(np.array([0]), np.array([0]), None, np.array([1]), "m")

    @pytest.mark.parametrize("n_domains", [3, 5])
    def test_domain_id_length_mismatch_rejected(self, n_domains):
        rows = np.array([0, 1, 1, 0])
        with pytest.raises(ContractViolationError, match="domain ids"):
            subcluster_breakdown(rows, rows, np.array(["a", "b", "a", "b"]), np.ones(n_domains, dtype=int), "a")


class TestPcaProject:
    def test_planar_points_preserve_distances(self):
        rng = np.random.default_rng(5)
        flat = rng.standard_normal((30, 2))
        basis = np.linalg.qr(rng.standard_normal((7, 2)))[0]
        embedded = flat @ basis.T
        projected = pca_project(embedded)
        orig = np.linalg.norm(embedded[:, None] - embedded[None, :], axis=2)
        proj = np.linalg.norm(projected[:, None] - projected[None, :], axis=2)
        assert np.abs(orig - proj).max() <= 1e-6

    def test_duplicated_rows_project_identically(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 5))
        x[7] = x[3]
        projected = pca_project(x)
        assert np.allclose(projected[7], projected[3], atol=1e-12)

    def test_captured_variance_matches_eigensolver(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 6)) * np.array([3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
        projected = pca_project(x)
        captured = projected.var(axis=0, ddof=1).sum()
        centered = x - x.mean(axis=0)
        eigvals = np.linalg.eigvalsh(centered.T @ centered / (len(x) - 1))
        assert captured == pytest.approx(float(eigvals[-2:].sum()), abs=1e-9)

    def test_translation_invariance_and_rotation_equivariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 5))
        base = pca_project(x)
        moved = pca_project(x + rng.standard_normal(5))
        rotation = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        rotated = pca_project(x @ rotation.T)
        def pairwise(p):
            return np.linalg.norm(p[:, None] - p[None, :], axis=2)
        assert np.abs(pairwise(base) - pairwise(moved)).max() <= 1e-9
        assert np.abs(pairwise(base) - pairwise(rotated)).max() <= 1e-9

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateProjectionError):
            pca_project(np.ones((5, 3)))

    def test_too_few_rows_rejected(self):
        with pytest.raises(ContractViolationError):
            pca_project(np.ones((1, 3)))


def _report(method, alpha, seed, val, test):
    epochs = [EpochRecord(epoch=0, ce_loss=0.5, aux_loss=0.1, val_accuracy=val, test_accuracy=test,
                          wall_seconds=0.0)]
    return RunReport(
        config={"method": method, "alpha": alpha},
        epochs=epochs,
        selected_epoch=0,
        final={"val": {"accuracy": val, "auc": None}, "test": {"accuracy": test, "auc": None}},
        seed=seed,
    )


class TestEmitters:
    def test_mean_std_format(self):
        assert format_mean_std(0.891, 0.005) == "0.891 (0.005)"

    def test_mean_std_matches_numpy_sample_std(self):
        values = np.random.default_rng(0).random((3, 4))
        mean, std = mean_std(values)
        assert np.array_equal(mean, values.mean(axis=1))
        assert np.array_equal(std, np.std(values, axis=1, ddof=1))

    def test_mean_std_of_one_seed_is_zero(self):
        mean, std = mean_std(np.array([[0.25], [0.5]]))
        assert mean.tolist() == [0.25, 0.5] and std.tolist() == [0.0, 0.0]
        assert mean_std([0.7]) == (0.7, 0.0)

    def test_method_stats(self):
        stats = method_stats([_report("ot", 0.1, s, 0.9 - 0.1 * s, 0.8) for s in range(2)])
        assert stats["val_mean"] == pytest.approx(0.85)
        assert stats["val_std"] == pytest.approx(np.std([0.9, 0.8], ddof=1))
        assert stats["test_mean"] == pytest.approx(0.8) and stats["test_std"] == 0.0

    def test_single_run_method_table(self, tmp_path):
        files = emit_tables([_report("ot", 0.1, 0, 0.9, 0.8)], tmp_path)
        table = (tmp_path / "tables" / "method_comparison.csv").read_text().splitlines()
        assert table[0] == "metric,ot"
        assert table[1].startswith("validation_accuracy,0.900")
        assert len(files) >= 2

    def test_alpha_table_columns_match_grid(self, tmp_path):
        alphas = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        stats = [(0.8 + 0.01 * i, 0.005) for i in range(6)]
        path = write_alpha_table(alphas, stats, stats, tmp_path / "alpha.csv")
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["metric", "1e-05", "0.0001", "0.001", "0.01", "0.1", "1"]
        row = path.read_text().splitlines()[1].split(",")
        assert row[1] == "0.800 (0.005)"

    def test_reemission_byte_identical(self, tmp_path):
        reports = [_report("ot", 0.1, s, 0.9, 0.8) for s in range(2)]
        emit_tables(reports, tmp_path / "a")
        emit_tables(reports, tmp_path / "b")
        for rel in ["tables/method_comparison.csv", "plots/curves_ot_a0.1_s0.svg"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_line_plot_svg_is_wellformed(self, tmp_path):
        big = float(np.finfo(float).max)
        # the first series is the CLI's kind; the rest are finite series at
        # the double range whose span is zero or overflows a double
        for xs, ys in [
            ([0, 1, 2], [0.1, 0.5, 0.3]),
            ([0, 1], [2.0**54, 2.0**54]),
            ([0, 1], [-big, -big]),
            ([0, 1], [big, big]),
            ([2.0**60, 2.0**60], [0.0, 1.0]),
            ([big, big], [0.0, 1.0]),
            ([-1.7e308, 1.7e308], [-1.7e308, 1.7e308]),
        ]:
            path = line_plot_svg([("s", xs, ys)], "t", "x", "y", tmp_path / "p.svg")
            text = path.read_text()
            assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
            assert "polyline" in text
            assert "nan" not in text and "inf" not in text, (xs, ys)
            (points,) = re.findall(r'points="([^"]*)"', text)
            for point in points.split():
                px, py = map(float, point.split(","))
                assert 70 <= px <= 620 and 40 <= py <= 350, (xs, ys, point)  # the plot box
