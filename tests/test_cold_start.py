"""Cold start: otda never looks for scipy. Cost matrices come from numpy alone.

Each test runs its script in a fresh interpreter, since this process has
long since imported scipy (the tests use it as an oracle). A finder first on
sys.meta_path refuses every scipy lookup, so the check catches a file
loaded by path after `importlib.util.find_spec`, which sys.modules alone
would not show; forked pool workers inherit it. At each checkpoint a script
prints the sorted names of the scipy modules loaded.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PRELUDE = """
import contextlib, io, json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"looked for {name}")

sys.meta_path.insert(0, NoScipy())

def loaded():
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")), flush=True)
"""

_TINY_DATA = "generate(GeneratorConfig(samples_per_domain=100, seed=3))"


def checkpoints(script: str, threads: str = "1") -> list:
    """Run script fresh with src on the path; returns one list of scipy
    module names per `loaded()` call."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OTDA_THREADS": threads}
    result = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return [json.loads(line) for line in result.stdout.splitlines() if line.startswith("[")]


def test_import_loads_no_scipy():
    assert checkpoints("""
        import otda
        loaded()
        import otda.cli
        loaded()
    """) == [[], []]


def test_erm_and_dann_load_no_scipy():
    assert checkpoints(f"""
        from otda.data_gen import GeneratorConfig, generate
        from otda.da_train import TrainConfig, run_seeds
        dataset = {_TINY_DATA}
        for method in ("erm", "dann"):
            run_seeds(dataset, TrainConfig(method=method, epochs=1), [0, 1])
            loaded()
    """) == [[], []]


def test_cli_loads_scipy_at_the_first_cost_matrix(tmp_path):
    # The name dates from when scipy's cdist kernel loaded at the first cost
    # matrix; that point, `train --method ot`, now loads none, nor do posthoc
    # (which trains erm first) and dann.
    data = str(tmp_path / "data")
    assert checkpoints(f"""
        from otda.cli import run
        commands = [
            ["gen-data", "--samples-per-domain", "100", "--out", {data!r}],
            ["train", "--method", "ot", "--epochs", "1"],
            ["posthoc", "--epochs", "1"],
            ["dann", "--epochs", "1"],
        ]
        for k, argv in enumerate(commands):
            if k:
                argv += ["--data", {data!r}, "--out", {str(tmp_path)!r} + f"/run{{k}}"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(argv) == 0, argv
            loaded()
    """) == [[], [], [], []]


def test_dann_pool_loads_no_scipy(tmp_path):
    # ot's workers build cost matrices, dann's never do; both pools run in two
    # forked workers, and so does the CLI's ot sweep.
    assert checkpoints(f"""
        from otda.cli import run
        from otda.data_gen import GeneratorConfig, generate
        from otda.da_train import TrainConfig, alpha_sweep
        for method in ("ot", "dann"):
            alpha_sweep({_TINY_DATA}, TrainConfig(method=method, epochs=1), [0.1, 1.0], seeds=[0, 1])
            loaded()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["gen-data", "--samples-per-domain", "100", "--out", {str(tmp_path / "data")!r}]) == 0
            assert run(["sweep", "--alphas", "0.1,1", "--seeds", "2", "--epochs", "1",
                        "--data", {str(tmp_path / "data")!r}, "--out", {str(tmp_path / "sweep")!r}]) == 0
        loaded()
    """, threads="2") == [[], [], []]
