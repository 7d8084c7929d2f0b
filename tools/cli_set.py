"""Run the CLI set: every otda command once, from one source tree into one
output directory, so that two trees can be compared byte for byte.

    python tools/cli_set.py TREE OUT
    diff -r OUT_A OUT_B

TREE is a checkout of this repository (its src/ is put on PYTHONPATH); OUT
must not exist yet. The commands run one after another with OUT as the
working directory and relative paths, so the paths the outputs record are
the same for every tree. Each command's exit code, stdout and stderr go to
OUT/log/<step>.txt. The set:

  gen-data at its defaults, and with --samples-per-domain 150 --seed 3;
  train --method ot, train --method erm, dann and posthoc on the default data;
  sweep (the default alphas, two seeds) and swap-eval (two seeds) on the
  small data with OTDA_THREADS=2;
  report over every run.

Exits 1 if any command exits non-zero.
"""

import os
import subprocess
import sys
from pathlib import Path

SMALL = ["--data", "data150"]
STEPS = [
    ("gen-data", ["gen-data", "--out", "data"], {}),
    ("gen-data-150", ["gen-data", "--samples-per-domain", "150", "--seed", "3", "--out", "data150"], {}),
    ("train-ot", ["train", "--method", "ot", "--data", "data", "--out", "runs/train_ot"], {}),
    ("train-erm", ["train", "--method", "erm", "--data", "data", "--out", "runs/train_erm"], {}),
    ("dann", ["dann", "--data", "data", "--out", "runs/dann"], {}),
    ("posthoc", ["posthoc", "--data", "data", "--out", "runs/posthoc"], {}),
    ("sweep", ["sweep", *SMALL, "--seeds", "2", "--out", "runs/sweep"], {"OTDA_THREADS": "2"}),
    ("swap-eval", ["swap-eval", *SMALL, "--seeds", "2", "--out", "runs/swap_eval"], {"OTDA_THREADS": "2"}),
    ("report", ["report", "--data", "runs", "--out", "summary"], {}),
]


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tree, out = Path(argv[0]).resolve(), Path(argv[1])
    out.mkdir(parents=True)
    (out / "log").mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("OTDA_THREADS", None)
    failed = 0
    for i, (name, args, extra) in enumerate(STEPS):
        done = subprocess.run([sys.executable, "-m", "otda.cli", *args], cwd=out, env={**env, **extra},
                              capture_output=True, text=True)
        (out / "log" / f"{i:02d}_{name}.txt").write_text(
            f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}")
        print(f"{name}: exit {done.returncode}")
        failed += done.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
