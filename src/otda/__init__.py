"""Transport-regularized domain adaptation: entropic OT core, a small
gradient-checked network stack, training methods (erm / ot / dann), a
post-hoc alignment baseline, a synthetic multi-institution benchmark, and
reporting utilities. See the CLI (`otda --help`) for the experiment surface.
"""

from .data_gen import DomainDataset, GeneratorConfig, generate, load, save, swap_val_test
from .da_train import (
    EpochRecord,
    RunReport,
    SweepResult,
    TrainConfig,
    alpha_sweep,
    composite_loss_step,
    dann_step,
    train,
    train_with_model,
)
from .eval_report import RocCurve, accuracy, pca_project, roc_auc, subcluster_breakdown
from .nn_core import (
    ModelParams,
    OptimizerConfig,
    backward,
    cross_entropy,
    forward_classifier,
    forward_features,
    init_model,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from .ot_core import (
    CostMatrix,
    DiscreteDistribution,
    SinkhornConfig,
    TransportPlan,
    cost_matrix,
    entropy,
    exact_ot_bruteforce,
    marginal_residual,
    ot_value_and_point_grads,
    sinkhorn,
)
from .posthoc_align import AlignmentResult, barycentric_map, evaluate_posthoc

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "CostMatrix",
    "DiscreteDistribution",
    "DomainDataset",
    "EpochRecord",
    "GeneratorConfig",
    "ModelParams",
    "OptimizerConfig",
    "RocCurve",
    "RunReport",
    "SinkhornConfig",
    "SweepResult",
    "TrainConfig",
    "TransportPlan",
    "accuracy",
    "alpha_sweep",
    "backward",
    "barycentric_map",
    "composite_loss_step",
    "cost_matrix",
    "cross_entropy",
    "dann_step",
    "entropy",
    "evaluate_posthoc",
    "exact_ot_bruteforce",
    "forward_classifier",
    "forward_features",
    "generate",
    "init_model",
    "load",
    "load_checkpoint",
    "marginal_residual",
    "ot_value_and_point_grads",
    "pca_project",
    "roc_auc",
    "save",
    "save_checkpoint",
    "sgd_step",
    "sinkhorn",
    "subcluster_breakdown",
    "swap_val_test",
    "train",
    "train_with_model",
]
