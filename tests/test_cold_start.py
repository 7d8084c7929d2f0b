"""Cold start: scipy's compiled cdist kernel loads only where a transport
cost matrix is built, and the rest of scipy never loads.

Each test runs its script in a fresh interpreter, since this process has
long since imported scipy. At each checkpoint a script prints one JSON
object: the sorted names of the scipy modules loaded, and whether
`cost_matrix`'s kernel is (the kernel stays out of sys.modules).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_PRELUDE = """
import json, sys

def loaded():
    ot_core = sys.modules.get("otda.ot_core")
    kernel = ot_core is not None and ot_core._distance_kernel.cache_info().currsize > 0
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    print(json.dumps({"scipy": scipy, "kernel": kernel}), flush=True)
"""

_TINY_DATA = "generate(GeneratorConfig(samples_per_domain=100, seed=3))"

_NOTHING = {"scipy": [], "kernel": False}
# What `import scipy.spatial.distance` loads besides the kernel.
_HEAVY = {"scipy.spatial", "scipy.sparse", "scipy.linalg", "scipy.special"}


def checkpoints(script: str, threads: str = "1") -> list:
    """Run script fresh with src on the path; returns one record per
    `loaded()` call."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OTDA_THREADS": threads}
    result = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return [json.loads(line) for line in result.stdout.splitlines() if line.startswith("{")]


def test_import_loads_no_scipy():
    assert checkpoints("""
        import otda
        loaded()
        import otda.cli
        loaded()
    """) == [_NOTHING, _NOTHING]


def test_erm_and_dann_load_no_scipy():
    assert checkpoints(f"""
        from otda.data_gen import GeneratorConfig, generate
        from otda.da_train import TrainConfig, run_seeds
        dataset = {_TINY_DATA}
        for method in ("erm", "dann"):
            run_seeds(dataset, TrainConfig(method=method, epochs=1), [0, 1])
            loaded()
    """) == [_NOTHING, _NOTHING]


def test_cli_loads_scipy_at_the_first_cost_matrix(tmp_path):
    first, after_train = checkpoints(f"""
        import contextlib, io
        from otda.cli import run
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["gen-data", "--samples-per-domain", "100", "--out", {str(tmp_path / "data")!r}]) == 0
        loaded()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["train", "--method", "ot", "--epochs", "1", "--data", {str(tmp_path / "data")!r},
                        "--out", {str(tmp_path / "run")!r}]) == 0
        loaded()
    """)
    assert first == _NOTHING
    assert after_train["kernel"]
    assert not _HEAVY & set(after_train["scipy"])


def test_dann_pool_loads_no_scipy():
    # The parent builds no cost matrix itself: ot's workers load the kernel
    # at their first one, dann's never do.
    assert checkpoints(f"""
        from otda.data_gen import GeneratorConfig, generate
        from otda.da_train import TrainConfig, alpha_sweep
        for method in ("ot", "dann"):
            alpha_sweep({_TINY_DATA}, TrainConfig(method=method, epochs=1), [0.1], seeds=[0, 1])
            loaded()
    """, threads="2") == [_NOTHING, _NOTHING]


@pytest.mark.parametrize("kernel_first", [True, False])
def test_kernel_and_public_cdist_load_in_either_order(kernel_first):
    (after,) = checkpoints(f"""
        import numpy as np
        from otda.ot_core import DiscreteDistribution, cost_matrix

        rng = np.random.default_rng(5)
        X = rng.standard_normal((60, 7))
        Y = np.vstack([X[:5], rng.standard_normal((175, 7))])  # zero costs too
        src, tgt = DiscreteDistribution.uniform(X), DiscreteDistribution.uniform(Y)

        def kernel():
            return [cost_matrix(src, tgt, m).entries.tobytes() for m in ("euclidean", "squared_euclidean")]

        def public():
            from scipy.spatial.distance import cdist
            return [np.maximum(cdist(X, Y, m), 0.0).tobytes() for m in ("euclidean", "sqeuclidean")]

        first, second = (kernel(), public()) if {kernel_first} else (public(), kernel())
        assert first == second
        loaded()
    """)
    assert after["kernel"]
    assert "scipy.spatial.distance" in after["scipy"]
