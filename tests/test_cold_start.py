"""Cold start: scipy loads only where a transport cost matrix is built.

Each test runs its script in a fresh interpreter, since this process has
long since imported scipy. A script prints the sorted names of the scipy
modules loaded at each checkpoint, one JSON list per line.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PRELUDE = """
import json, sys

def loaded():
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")), flush=True)
"""

_TINY_DATA = "generate(GeneratorConfig(samples_per_domain=100, seed=3))"


def scipy_modules(script: str, threads: str = "1") -> list:
    """Run script fresh with src on the path; returns one list of loaded
    scipy modules per `loaded()` call."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OTDA_THREADS": threads}
    result = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return [json.loads(line) for line in result.stdout.splitlines() if line.startswith("[")]


def test_import_loads_no_scipy():
    assert scipy_modules("""
        import otda
        loaded()
        import otda.cli
        loaded()
    """) == [[], []]


def test_erm_and_dann_load_no_scipy():
    assert scipy_modules(f"""
        from otda.data_gen import GeneratorConfig, generate
        from otda.da_train import TrainConfig, run_seeds
        dataset = {_TINY_DATA}
        for method in ("erm", "dann"):
            run_seeds(dataset, TrainConfig(method=method, epochs=1), [0, 1])
            loaded()
    """) == [[], []]


def test_cli_loads_scipy_at_the_first_cost_matrix(tmp_path):
    first, after_train = scipy_modules(f"""
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
    assert first == []
    assert "scipy.spatial.distance" in after_train


def test_ot_pool_loads_scipy_in_the_parent_before_forking():
    # The parent builds no cost matrix itself; its workers inherit the module.
    (after,) = scipy_modules(f"""
        from otda.data_gen import GeneratorConfig, generate
        from otda.da_train import TrainConfig, alpha_sweep
        alpha_sweep({_TINY_DATA}, TrainConfig(method="ot", epochs=1), [0.1], seeds=[0, 1])
        loaded()
    """, threads="2")
    assert "scipy.spatial.distance" in after


def test_dann_pool_loads_no_scipy():
    assert scipy_modules(f"""
        from otda.data_gen import GeneratorConfig, generate
        from otda.da_train import TrainConfig, alpha_sweep
        alpha_sweep({_TINY_DATA}, TrainConfig(method="dann", epochs=1), [0.1], seeds=[0, 1])
        loaded()
    """, threads="2") == [[]]
