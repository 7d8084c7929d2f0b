"""Post-hoc alignment baseline: train with cross-entropy only, then move each
frozen target feature to the transport-weighted barycenter of the frozen
source features and classify the moved points with the frozen head.
"""

from __future__ import annotations

import numpy as np

from .da_train import _numeric_section
from .data_gen import DomainDataset
from .eval_report import accuracy
from .nn_core import ModelParams, forward_classifier, forward_features
from .ot_core import (
    EUCLIDEAN,
    DiscreteDistribution,
    SinkhornConfig,
    TransportPlan,
    cost_matrix,
    require_converged,
    sinkhorn,
)
from dataclasses import dataclass

DEFAULT_EPSILON = 2.0
MAX_SOURCE_ROWS = 2048
MAX_ITERATIONS = 1000
MARGINAL_TOLERANCE = 1e-6
SUBSAMPLE_SEED = 0


@dataclass
class AlignmentResult:
    aligned_features: np.ndarray
    plan: TransportPlan
    pre_accuracy: float
    post_accuracy: float


def barycentric_map(
    source_features: np.ndarray,
    target_features: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    metric: str = EUCLIDEAN,
) -> tuple:
    """Map target features into the convex hull of the source features.

    Solves entropic transport from the target points (rows of the plan) to
    the source points with uniform weights and absolute regularization
    epsilon, then replaces each target row by its transported-mass-weighted
    average of source rows. Returns (aligned_features, plan); raises
    SinkhornConvergenceError when the solve stops at MAX_ITERATIONS.
    """
    config = SinkhornConfig(
        epsilon=epsilon,
        relative_epsilon=False,
        max_iterations=MAX_ITERATIONS,
        marginal_tolerance=MARGINAL_TOLERANCE,
    )
    target_measure = DiscreteDistribution.uniform(target_features)
    source_measure = DiscreteDistribution.uniform(source_features)
    cost = cost_matrix(target_measure, source_measure, metric)
    plan = sinkhorn(cost, target_measure, source_measure, config)
    require_converged(plan, target_measure, source_measure)
    aligned = (plan.gamma @ source_measure.points) / plan.gamma.sum(axis=1)[:, None]
    return aligned, plan


@_numeric_section()
def evaluate_posthoc(
    dataset: DomainDataset,
    erm_params: ModelParams,
    epsilon: float = DEFAULT_EPSILON,
    metric: str = EUCLIDEAN,
) -> dict:
    """Align val and test features onto the training features of a frozen
    erm model and report accuracy before and after alignment per split.

    The source side is capped at MAX_SOURCE_ROWS rows (a subsample seeded by
    SUBSAMPLE_SEED) to bound the transport problem. Returns
    {"val": AlignmentResult, "test": ...}.
    """
    x_train, _ = dataset.split_arrays("train")
    # This pass keeps the trace it never reads. Untraced, it left glibc's
    # heap laid out so that the solves below peaked in RSS 3.7-4.3 MB higher
    # at perfbench cli-posthoc --seed 1, 2 and 11 (78.7-79.4 MB against
    # 74.9-75.1 MB) and 2.5 MB lower at --seed 5. The val and test passes
    # below run untraced, which lowered it at all five seeds measured.
    source_features, _ = forward_features(erm_params, x_train)
    if source_features.shape[0] > MAX_SOURCE_ROWS:
        rng = np.random.default_rng([SUBSAMPLE_SEED, 3])
        keep = rng.permutation(source_features.shape[0])[:MAX_SOURCE_ROWS]
        source_features = source_features[np.sort(keep)]

    results = {}
    for split in ("val", "test"):
        x_split, y_split = dataset.split_arrays(split)
        target_features, _ = forward_features(erm_params, x_split, keep_trace=False)
        pre = accuracy(forward_classifier(erm_params, target_features), y_split)
        aligned, plan = barycentric_map(source_features, target_features, epsilon, metric)
        post = accuracy(forward_classifier(erm_params, aligned), y_split)
        results[split] = AlignmentResult(aligned, plan, pre, post)
    return results
