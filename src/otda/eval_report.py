"""Metrics (accuracy, ROC/AUC), per-subcluster breakdowns, deterministic 2-D
PCA export, and table/plot emission. All file output is byte-stable: fixed
float formatting, sorted keys, hand-written SVG with no timestamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateProjectionError,
    FeatureUnavailableError,
    ParseError,
    UndefinedMetricError,
)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Argmax-match rate; ties break toward the lower class index."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise ContractViolationError(f"logits must be a non-empty 2-D array, got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ContractViolationError("labels length does not match logits")
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == labels))


def softmax_scores(logits: np.ndarray) -> np.ndarray:
    """Class-1 softmax probability of each row of two-class logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp[:, 1] / exp.sum(axis=1)


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray  # descending; starts at +inf
    fpr: np.ndarray  # nondecreasing from 0 to 1
    tpr: np.ndarray  # nondecreasing from 0 to 1
    auc: float


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """ROC curve from class-1 scores via a sweep over distinct thresholds;
    the AUC trapezoid equals the normalized Mann-Whitney U statistic."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ContractViolationError("scores and labels must be matching 1-D arrays")
    if not np.isin(labels, (0, 1)).all():
        raise ContractViolationError("labels must be 0 or 1")
    if not np.isfinite(scores).all():
        raise ContractViolationError("scores must be finite")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC needs both classes present")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = (labels[order] == 1).astype(float)
    # indices closing each group of tied scores
    distinct = np.flatnonzero(np.diff(sorted_scores) != 0)
    boundary = np.concatenate([distinct, [scores.size - 1]])
    tps = np.cumsum(sorted_pos)[boundary]
    fps = (boundary + 1) - tps
    thresholds = np.concatenate([[np.inf], sorted_scores[boundary]])
    tpr = np.concatenate([[0.0], tps / n_pos])
    fpr = np.concatenate([[0.0], fps / n_neg])
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=auc)


@dataclass(frozen=True)
class BreakdownCell:
    domain_id: int
    tag: str
    count: int
    accuracy: float
    masked: bool


def subcluster_breakdown(
    predictions: np.ndarray,
    labels: np.ndarray,
    subcluster_tags,
    domain_ids,
    masked_tag: str,
) -> list:
    """Accuracy per (domain, subcluster) cell; cells partition the inputs.

    The cells tagged masked_tag are flagged so reports can highlight the
    phenotype the training split never saw.
    """
    if subcluster_tags is None:
        raise FeatureUnavailableError("subcluster tags are not available for this dataset")
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    tags = np.asarray(subcluster_tags)
    domains = np.asarray(domain_ids)
    if predictions.shape != labels.shape or tags.shape != labels.shape or domains.shape != labels.shape:
        raise ContractViolationError("predictions, labels, tags and domain ids must share one length")
    correct = predictions == labels
    cells = []
    for dom in sorted(set(domains.tolist())):
        dom_mask = domains == dom
        for tag in sorted(set(tags[dom_mask].tolist())):
            mask = dom_mask & (tags == tag)
            cells.append(
                BreakdownCell(
                    domain_id=int(dom),
                    tag=str(tag),
                    count=int(mask.sum()),
                    accuracy=float(correct[mask].mean()),
                    masked=(tag == masked_tag),
                )
            )
    return cells


def pca_project(features: np.ndarray) -> np.ndarray:
    """Deterministic projection onto the top-2 principal directions.

    Signs are fixed by making each component's largest-magnitude loading
    positive. Raises on fewer than 2 rows or zero total variance.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ContractViolationError(f"need at least 2 rows to project, got shape {X.shape}")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (X.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    if float(eigvals[-1]) <= 0.0:
        raise DegenerateProjectionError("input has zero variance; nothing to project")
    components = eigvecs[:, ::-1][:, :2]
    for j in range(components.shape[1]):
        lead = np.argmax(np.abs(components[:, j]))
        if components[lead, j] < 0:
            components[:, j] = -components[:, j]
    return centered @ components


def mean_std(values) -> tuple:
    """Mean and sample standard deviation (ddof 1) over the last axis, which
    holds the seeds; the deviation of a single seed is 0."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] > 1:
        return values.mean(axis=-1), values.std(axis=-1, ddof=1)
    return values.mean(axis=-1), np.zeros(values.shape[:-1])


def method_stats(reports) -> dict:
    """val_mean/val_std/test_mean/test_std of the runs' final accuracies."""
    stats = {}
    for split in ("val", "test"):
        mean, std = mean_std([r.final[split]["accuracy"] for r in reports])
        stats[f"{split}_mean"], stats[f"{split}_std"] = float(mean), float(std)
    return stats


def format_mean_std(mean: float, std: float) -> str:
    return f"{mean:.3f} ({std:.3f})"


def write_json(path, payload) -> Path:
    """Sorted, indented JSON with a final newline; creates parent folders."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def read_json(path) -> dict:
    """The JSON object stored at path. Raises ParseError naming the file when
    its bytes are not UTF-8 JSON holding an object; OSError passes through."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or not JSON; RecursionError: nesting too deep
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload


def write_csv(path, rows) -> Path:
    """One comma-joined line of str(value)s per row; creates parent folders."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return path


def _accuracy_table(columns, val_stats, test_stats, path) -> Path:
    """Grid of mean (std) accuracies: a row per split, a column per entry of
    columns; val_stats and test_stats hold one (mean, std) pair per column."""
    return write_csv(path, [
        ["metric", *columns],
        ["validation_accuracy", *(format_mean_std(m, s) for m, s in val_stats)],
        ["test_accuracy", *(format_mean_std(m, s) for m, s in test_stats)],
    ])


def write_alpha_table(alphas, val_stats, test_stats, path) -> Path:
    """Grid with one column per alpha and mean (std) accuracy entries."""
    return _accuracy_table([f"{a:g}" for a in alphas], val_stats, test_stats, path)


def write_method_table(stats: dict, path) -> Path:
    """stats: method name -> dict with val_mean/val_std/test_mean/test_std."""
    val_stats = [(s["val_mean"], s["val_std"]) for s in stats.values()]
    test_stats = [(s["test_mean"], s["test_std"]) for s in stats.values()]
    return _accuracy_table(list(stats), val_stats, test_stats, path)


def write_breakdown_table(cells, path) -> Path:
    rows = [["domain_id", "subcluster", "count", "accuracy", "masked"]]
    for c in cells:
        rows.append([c.domain_id, c.tag, c.count, f"{c.accuracy:.6f}", int(c.masked)])
    return write_csv(path, rows)


def write_embedding_csv(projection, labels, domain_ids, path) -> Path:
    rows = [["pc1", "pc2", "label", "domain_id"]]
    for i in range(projection.shape[0]):
        rows.append(
            [f"{projection[i, 0]:.9g}", f"{projection[i, 1]:.9g}", int(labels[i]), int(domain_ids[i])]
        )
    return write_csv(path, rows)


# ---------------------------------------------------------------------------
# Minimal SVG line plots (hand-written so repeated emission is byte-identical)
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 400
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_QUARTER_MAX = float(np.finfo(float).max) / 4


def _quarter_range(values) -> tuple:
    """The least and greatest of values, in quarters. Both axes are laid out
    in quarters of the values: a power of two scales exactly, so ordinary
    plots keep their bytes, and the span of any two doubles stays finite.
    A zero span widens by 0.25, or by a share of the magnitude where 0.25
    rounds away, and downward where upward would pass _QUARTER_MAX."""
    lo, hi = min(values) / 4, max(values) / 4
    if hi == lo:
        hi = lo + max(0.25, abs(lo) / 2**20)
        if hi > _QUARTER_MAX:
            lo, hi = 2 * lo - hi, lo
    return lo, hi


def line_plot_svg(series, title: str, xlabel: str, ylabel: str, path) -> Path:
    """series: list of (name, xs, ys). Writes a fixed-size SVG line chart."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ContractViolationError("nothing to plot")
    # tick labels scale the quarters back
    x_lo, x_hi = _quarter_range(xs_all)
    y_lo, y_hi = _quarter_range(ys_all)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = max(y_lo - pad, -_QUARTER_MAX), min(y_hi + pad, _QUARTER_MAX)
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(q):  # q: a value's quarter
        return _ML + (q - x_lo) / (x_hi - x_lo) * plot_w

    def sy(q):
        return _MT + plot_h - (q - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" fill="none" '
        f'stroke="#333" stroke-width="1"/>',
    ]
    for tx in np.linspace(x_lo, x_hi, 5).tolist():
        px = sx(tx)
        parts.append(f'<line x1="{px:.2f}" y1="{_MT + plot_h}" x2="{px:.2f}" y2="{_MT + plot_h + 5}" stroke="#333"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{_MT + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{4 * tx:.3g}</text>'
        )
    for ty in np.linspace(y_lo, y_hi, 5).tolist():
        py = sy(ty)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" stroke="#333"/>')
        parts.append(
            f'<text x="{_ML - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{4 * ty:.3g}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 18 {_MT + plot_h / 2:.1f})">{ylabel}</text>'
    )
    for i, (name, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x / 4):.2f},{sy(y / 4):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_ML + 10}" y1="{ly - 4}" x2="{_ML + 34}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_ML + 40}" y="{ly}" font-family="sans-serif" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path


def write_roc_plot(curves: dict, path) -> Path:
    """curves: name -> RocCurve."""
    series = [
        (f"{name} (AUC {curve.auc:.3f})", curve.fpr.tolist(), curve.tpr.tolist())
        for name, curve in curves.items()
    ]
    series.append(("chance", [0.0, 1.0], [0.0, 1.0]))
    return line_plot_svg(series, "ROC", "false positive rate", "true positive rate", path)


def curve_series(epochs) -> list:
    """(name, xs, ys) series of the per-epoch CE loss, alignment loss and
    validation accuracy of a run's EpochRecords, for line_plot_svg."""
    xs = [r.epoch for r in epochs]
    return [
        ("CE loss", xs, [r.ce_loss for r in epochs]),
        ("alignment loss", xs, [r.aux_loss for r in epochs]),
        ("validation accuracy", xs, [r.val_accuracy for r in epochs]),
    ]


def emit_tables(reports: list, out_dir) -> list:
    """Emit the standard report bundle for a list of RunReports: per-method
    comparison table and one epoch-curve plot per report. Returns the written
    paths.

    A run id can repeat (the same run from `train` and from `sweep`): the
    first report with an id writes curves_<run_id>.svg, and the n-th one, in
    list order, writes curves_<run_id>_<n>.svg.
    """
    if not reports:
        raise ContractViolationError("need at least one report to emit")
    out = Path(out_dir)
    by_method = {}
    for rep in reports:
        by_method.setdefault(rep.config["method"], []).append(rep)
    stats = {method: method_stats(by_method[method]) for method in sorted(by_method)}
    written = [write_method_table(stats, out / "tables" / "method_comparison.csv")]

    seen = {}
    for rep in reports:
        run_id = rep.run_id()
        seen[run_id] = seen.get(run_id, 0) + 1
        if seen[run_id] > 1:
            run_id = f"{run_id}_{seen[run_id]}"
        written.append(
            line_plot_svg(
                curve_series(rep.epochs),
                f"training curves ({run_id})",
                "epoch",
                "value",
                out / "plots" / f"curves_{run_id}.svg",
            )
        )
    return written
