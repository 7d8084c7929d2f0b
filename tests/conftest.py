"""Session-scoped experiment fixtures shared by the statistical tests and the
acceptance gate, so the expensive training runs happen once."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gate import ACCEPTANCE_SEEDS, train_gate
from otda.data_gen import GeneratorConfig, generate
from otda.da_train import _openblas_function


@pytest.fixture(scope="session")
def benchmark_dataset():
    return generate(GeneratorConfig())


@pytest.fixture(scope="session")
def small_dataset():
    return generate(GeneratorConfig(samples_per_domain=150, seed=3))


@pytest.fixture(scope="session")
def gate_runs(benchmark_dataset):
    """The gate's runs on two pool workers: the cells equal the sequential
    ones (test_parallel_workers_match_sequential), and the gate then also
    runs through the forked pool."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("OTDA_THREADS", "2")
        return train_gate(benchmark_dataset, ACCEPTANCE_SEEDS)


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

