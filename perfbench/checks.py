"""Reference computations the benchmark checks the program against.

Everything here is written apart from the program: the forward pass, the
Mann-Whitney AUC, the dataset and checkpoint parsers and the summary tables
are plain numpy/Python re-implementations of the documented formats and
formulas. A check appends a message to a list of problems instead of
raising, so one run reports every failed check.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

# Per-sample normalization floor of the featurizer (documented in nn_core).
VARIANCE_FLOOR = 1e-5
# Logit margins below this are float ties: an independent forward pass may
# break them the other way without either side being wrong.
TIE_MARGIN = 1e-9


def layers_of(params) -> tuple:
    """(featurizer, classifier) as lists of (weight, bias) from ModelParams."""
    return (
        [(l.weight, l.bias) for l in params.featurizer],
        [(l.weight, l.bias) for l in params.classifier],
    )


def read_checkpoint(path) -> tuple:
    """(featurizer, classifier) as lists of (weight, bias) from a checkpoint
    JSON file, parsed without the program's loader."""
    payload = json.loads(Path(path).read_text())

    def parse(entries):
        return [
            (np.array(e["weight"], dtype=float).reshape(e["shape"]), np.array(e["bias"], dtype=float))
            for e in entries
        ]

    return parse(payload["featurizer"]), parse(payload["classifier"])


def read_dataset_csv(path) -> dict:
    """split name -> (features, labels) from a dataset CSV file."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    d = len(header) - 3
    splits = np.array([r[1] for r in rows])
    labels = np.array([int(r[2]) for r in rows])
    feats = np.array([[float(v) for v in r[3:3 + d]] for r in rows])
    return {s: (feats[splits == s], labels[splits == s]) for s in ("train", "val", "test")}


def features(featurizer, x) -> np.ndarray:
    """Dense -> per-sample normalization -> ReLU, block by block."""
    x = np.asarray(x, dtype=float)
    for weight, bias in featurizer:
        z = x @ weight + bias
        mean = z.mean(axis=1, keepdims=True)
        var = z.var(axis=1, keepdims=True)
        scale = np.sqrt(np.where(var <= VARIANCE_FLOOR, VARIANCE_FLOOR, var))
        x = np.maximum((z - mean) / scale, 0.0)
    return x


def head(classifier, f) -> np.ndarray:
    """Dense head: ReLU between layers, last layer linear."""
    out = np.asarray(f, dtype=float)
    for i, (weight, bias) in enumerate(classifier):
        out = out @ weight + bias
        if i < len(classifier) - 1:
            out = np.maximum(out, 0.0)
    return out


def check_accuracy(problems, where, logits, labels, reported) -> None:
    """Argmax accuracy (ties to the lower class) against a reported value;
    disagreements are allowed only on samples whose margin is a float tie."""
    preds = np.argmax(logits, axis=1)
    mine = float(np.mean(preds == labels))
    if mine != reported:
        margin = np.abs(logits[:, 1] - logits[:, 0]) if logits.shape[1] == 2 else np.zeros(len(labels))
        ties = int(np.sum(margin < TIE_MARGIN))
        if abs(mine - reported) * len(labels) > ties + 0.5:
            problems.append(f"{where}: accuracy {reported!r} but the reference forward pass gives {mine!r}")


def mann_whitney_auc(logits, labels) -> float:
    """Share of (positive, negative) pairs the class-1 softmax score orders
    correctly, ties counting one half."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    scores = e[:, 1] / e.sum(axis=1)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])
    return float(wins) / (len(pos) * len(neg))


def check_split(problems, where, featurizer, classifier, x, y, reported: dict) -> None:
    """Accuracy and AUC of one split from the weights, against the report."""
    logits = head(classifier, features(featurizer, x))
    check_accuracy(problems, where, logits, y, reported["accuracy"])
    if reported.get("auc") is not None:
        auc = mann_whitney_auc(logits, y)
        if abs(auc - reported["auc"]) > 1e-12:
            problems.append(f"{where}: AUC {reported['auc']!r} but the pairwise count gives {auc!r}")


def check_selection(problems, where, report: dict) -> None:
    """Early stopping keeps the first epoch of best validation accuracy, and
    the final metrics are that epoch's."""
    epochs = report["epochs"]
    vals = [e["val_accuracy"] for e in epochs]
    best = vals.index(max(vals))
    if report["selected_epoch"] != best:
        problems.append(f"{where}: selected epoch {report['selected_epoch']}, first best is {best}")
    chosen = epochs[report["selected_epoch"]]
    for split, key in (("val", "val_accuracy"), ("test", "test_accuracy")):
        if report["final"][split]["accuracy"] != chosen[key]:
            problems.append(f"{where}: final {split} accuracy is not the selected epoch's")


def mean_std(values) -> tuple:
    """Exact mean and sample standard deviation (0 for one value)."""
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    if len(exact) < 2:
        return float(mean), 0.0
    var = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)
    return float(mean), float(var) ** 0.5


def check_method_table(problems, where, table: str, reports) -> None:
    """The method-comparison CSV that `otda report` documents: one column per
    method in sorted order, entries "mean (std)" of the selected-epoch
    accuracies at three decimals. An entry may round either way when the
    exact value sits on a rounding boundary."""
    by_method = {}
    for rep in reports:
        by_method.setdefault(rep["config"]["method"], []).append(rep)
    methods = sorted(by_method)
    rows = [line.split(",") for line in table.splitlines()]
    if [r[0] for r in rows] != ["metric", "validation_accuracy", "test_accuracy"] or rows[0][1:] != methods:
        problems.append(f"{where}: table layout {rows!r}")
        return
    for row, split in ((rows[1], "val"), (rows[2], "test")):
        for method, cell in zip(methods, row[1:]):
            mean, std = mean_std([r["final"][split]["accuracy"] for r in by_method[method]])
            printed_mean, printed_std = (float(v) for v in cell.replace("(", "").replace(")", "").split())
            if abs(printed_mean - mean) > 0.0005 + 1e-12 or abs(printed_std - std) > 0.0005 + 1e-12:
                problems.append(f"{where}: {method} {split} entry {cell!r}, exact mean {mean!r} std {std!r}")


def same_files(problems, where, first: Path, second: Path) -> int:
    """Every file under two directories byte for byte; returns the count."""
    names_a = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    if names_a != names_b:
        problems.append(f"{where}: rerun wrote a different file set")
        return 0
    for name in names_a:
        if (first / name).read_bytes() != (second / name).read_bytes():
            problems.append(f"{where}: {name} differs between runs")
    return len(names_a)


def check_plan(plan, a, b, tolerance) -> str | None:
    """Nonnegativity and marginals within tolerance, whether or not the
    solver reports convergence."""
    gamma = plan.gamma
    if not np.all(gamma >= 0):
        return "plan has negative entries"
    row = float(np.max(np.abs(gamma.sum(axis=1) - a)))
    col = float(np.max(np.abs(gamma.sum(axis=0) - b)))
    if row > tolerance or col > tolerance:
        return f"plan misses its marginals (row {row:.2e}, col {col:.2e}, tol {tolerance:.0e})"
    return None


def check_point_grads(problems, otda, sample) -> None:
    """Central finite differences of the transport value against the point
    gradients it returns, at the sampled call's points and metric.

    The training default resolves epsilon from the mean cost, which moves
    with the points, so the value is differentiated at that epsilon held
    fixed (absolute) and solved to a tight tolerance. The two largest
    gradient entries of each side are probed.
    """
    X = np.array(sample["X"], dtype=float)
    Y = np.array(sample["Y"], dtype=float)
    metric = str(sample["metric"])
    src = otda.DiscreteDistribution.uniform(X)
    tgt = otda.DiscreteDistribution.uniform(Y)
    cost = otda.cost_matrix(src, tgt, metric)
    resolved = otda.SinkhornConfig(
        epsilon=float(sample["epsilon"]), relative_epsilon=bool(sample["relative"])
    ).resolve_epsilon(cost.entries)
    config = otda.SinkhornConfig(
        epsilon=resolved, relative_epsilon=False, max_iterations=200000, marginal_tolerance=1e-12
    )
    _, grad_x, grad_y = otda.ot_value_and_point_grads(X, Y, config, metric)
    worst = 0.0
    for arr, grad in ((X, grad_x), (Y, grad_y)):
        flat = arr.reshape(-1)
        g = grad.reshape(-1)
        for idx in np.argsort(-np.abs(g), kind="stable")[:2]:
            h = 1e-6 * max(1.0, abs(flat[idx]))
            orig = flat[idx]
            flat[idx] = orig + h
            up = otda.ot_value_and_point_grads(X, Y, config, metric)[0]
            flat[idx] = orig - h
            down = otda.ot_value_and_point_grads(X, Y, config, metric)[0]
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8)
            worst = max(worst, rel)
    if worst > 1e-4:
        problems.append(f"ot_value_and_point_grads: point gradient off finite differences by {worst:.2e}")
