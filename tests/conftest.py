"""Session-scoped experiment fixtures shared by the statistical tests and the
acceptance gate, so the expensive training runs happen once."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from otda.data_gen import GeneratorConfig, generate, swap_val_test
from otda.da_train import TrainConfig, _openblas_function, _train_cells, alpha_sweep

ACCEPTANCE_SEEDS = (0, 1, 2, 3)
ALPHA_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_ALPHA = 0.1


@pytest.fixture(scope="session")
def benchmark_dataset():
    return generate(GeneratorConfig())


@pytest.fixture(scope="session")
def small_dataset():
    return generate(GeneratorConfig(samples_per_domain=150, seed=3))


def _pooled_runs(dataset, methods):
    """(report, params) per seed for each method at the default alpha,
    trained in one pool of two workers like sweep_result."""
    configs = [
        TrainConfig(method=method, alpha=DEFAULT_ALPHA, seed=seed) for method in methods for seed in ACCEPTANCE_SEEDS
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("OTDA_THREADS", "2")
        runs = _train_cells(dataset, configs, keep_params=True)
    n = len(ACCEPTANCE_SEEDS)
    return {method: runs[i * n:(i + 1) * n] for i, method in enumerate(methods)}


@pytest.fixture(scope="session")
def method_runs(benchmark_dataset):
    return _pooled_runs(benchmark_dataset, ("erm", "ot", "dann"))


@pytest.fixture(scope="session")
def sweep_result(benchmark_dataset):
    """The acceptance sweep on two pool workers: the cells equal the
    sequential ones (test_parallel_workers_match_sequential), and the gate
    then also runs through the forked pool."""
    import time

    start = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("OTDA_THREADS", "2")
        sweep = alpha_sweep(
            benchmark_dataset,
            TrainConfig(method="ot", alpha=DEFAULT_ALPHA, seed=0),
            list(ALPHA_GRID),
            seeds=list(ACCEPTANCE_SEEDS),
        )
    sweep.elapsed_seconds = time.perf_counter() - start
    return sweep


@pytest.fixture(scope="session")
def swap_runs(benchmark_dataset):
    return _pooled_runs(swap_val_test(benchmark_dataset), ("erm", "ot"))


@pytest.fixture
def parent_blas_threads():
    """The calling process runs OpenBLAS on two threads for the test, so a
    run that kept them, or failed to give them back, shows it."""
    set_threads = _openblas_function("set_num_threads")
    get_threads = _openblas_function("get_num_threads")
    if set_threads is None or get_threads is None:
        pytest.skip("numpy exposes no OpenBLAS thread controls")
    before = get_threads()
    set_threads(2)
    try:
        yield get_threads
    finally:
        set_threads(before)


def mean_test_accuracy(runs):
    return float(np.mean([rep.final["test"]["accuracy"] for rep, _ in runs]))


def mean_val_accuracy(runs):
    return float(np.mean([rep.final["val"]["accuracy"] for rep, _ in runs]))
