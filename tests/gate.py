"""The acceptance gate's training runs and the statistics its criteria read.

test_acceptance.py, tools/bits.py and tools/gate_margins.py all train
through train_gate and read the runs through the functions below, so a
margin report cannot drift from the gate it reports on. Training runs in
OTDA_THREADS pool workers; the gate and the tools train on two.
"""

import time
from dataclasses import dataclass

import numpy as np

from otda.da_train import SweepResult, TrainConfig, _train_cells
from otda.data_gen import DomainDataset, masked_tag, swap_val_test
from otda.eval_report import accuracy
from otda.nn_core import forward_classifier, forward_features
from otda.posthoc_align import evaluate_posthoc

ACCEPTANCE_SEEDS = (0, 1, 2, 3)
ALPHA_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_ALPHA = 0.1


@dataclass
class GateRuns:
    """sweep: the ot sweep over ALPHA_GRID and the seeds. runs and swap_runs:
    (report, params) per seed for each method at DEFAULT_ALPHA, on the
    dataset (erm, ot, dann) and on it with val and test swapped (erm, ot).
    elapsed_seconds: the wall time of the dataset's pool, sweep included."""

    dataset: DomainDataset
    sweep: SweepResult
    runs: dict
    swap_runs: dict
    elapsed_seconds: float


def _configs(methods, alphas, seeds):
    return [TrainConfig(method=m, alpha=a, seed=s) for m in methods for a in alphas for s in seeds]


def train_gate(dataset: DomainDataset, seeds) -> GateRuns:
    """Train the gate's cells in one _train_cells call per dataset. The
    sweep's ot cells at DEFAULT_ALPHA are also the ot runs."""
    seeds = [int(s) for s in seeds]
    n, k = len(seeds), len(ALPHA_GRID) * len(seeds)
    start = time.perf_counter()
    configs = _configs(["ot"], ALPHA_GRID, seeds) + _configs(["erm", "dann"], [DEFAULT_ALPHA], seeds)
    cells = _train_cells(dataset, configs, keep_params=True)
    elapsed = time.perf_counter() - start
    sweep = SweepResult(list(ALPHA_GRID), seeds, [[report for report, _ in cells[i:i + n]] for i in range(0, k, n)])
    ot = ALPHA_GRID.index(DEFAULT_ALPHA) * n
    swap = _train_cells(swap_val_test(dataset), _configs(["erm", "ot"], [DEFAULT_ALPHA], seeds), keep_params=True)
    return GateRuns(
        dataset,
        sweep,
        {"erm": cells[k:k + n], "ot": cells[ot:ot + n], "dann": cells[k + n:]},
        {"erm": swap[:n], "ot": swap[n:]},
        elapsed,
    )


def mean_accuracy(runs, split: str) -> float:
    """Mean final accuracy of the runs on split."""
    return float(np.mean([report.final[split]["accuracy"] for report, _ in runs]))


def masked_accuracy(dataset: DomainDataset, runs) -> float:
    """Mean accuracy of the runs' models on the test split's withheld
    subcluster."""
    idx = dataset.split_indices("test")
    mask = dataset.subclusters[idx] == masked_tag()
    x, y = dataset.features[idx][mask], dataset.labels[idx][mask]
    accuracies = []
    for _, params in runs:
        features, _ = forward_features(params, x)
        accuracies.append(accuracy(forward_classifier(params, features), y))
    return float(np.mean(accuracies))


def posthoc_accuracy(dataset: DomainDataset, runs) -> float:
    """Mean test accuracy of the runs' models after post-hoc alignment."""
    return float(np.mean([evaluate_posthoc(dataset, p)["test"].post_accuracy for _, p in runs]))
