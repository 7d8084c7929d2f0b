"""Print the digests that say whether a tree computes the same bytes as another.

    python tools/bits.py TREE > bits_a.txt
    diff bits_a.txt bits_b.txt

TREE is a checkout of this repository. Its src/ goes on PYTHONPATH in fresh
processes, so no two trees share an import. The output is:

  one sha256 over the acceptance gate's runs, on the benchmark dataset
  (GeneratorConfig()): the 24 reports of the ot sweep (alphas 1e-5 to 1,
  seeds 0-3); the reports and weights of erm, ot and dann at alpha 0.1,
  seeds 0-3, on that dataset and on it with val and test swapped; and for
  each erm model on the benchmark dataset, evaluate_posthoc's accuracies,
  plans and aligned features. The runs are the gate's own (tests/gate.py's
  train_gate, from this checkout) plus dann on the swapped split, trained
  in two pool workers, as the gate trains (OTDA_THREADS=2);

  the sha256 of every file that tools/cli_set.py writes, with its path.

Exits 1 if a step fails. Takes about ten seconds on two cores.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent


def gate_digest() -> str:
    """The sha256 over the gate's runs, computed with the otda on sys.path."""
    sys.path.insert(0, str(TOOLS.parent / "tests"))
    from gate import ACCEPTANCE_SEEDS, DEFAULT_ALPHA, train_gate
    from otda.da_train import METHODS, TrainConfig, run_seeds
    from otda.data_gen import GeneratorConfig, generate, swap_val_test
    from otda.posthoc_align import evaluate_posthoc

    digest = hashlib.sha256()

    def add_report(report):
        digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())

    dataset = generate(GeneratorConfig())
    gate = train_gate(dataset, ACCEPTANCE_SEEDS)
    for row in gate.sweep.reports:
        for report in row:
            add_report(report)
    swapped_dann = run_seeds(
        swap_val_test(dataset), TrainConfig(method="dann", alpha=DEFAULT_ALPHA), ACCEPTANCE_SEEDS, keep_params=True
    )
    for runs in (gate.runs, {**gate.swap_runs, "dann": swapped_dann}):
        for method in METHODS:
            for report, params in runs[method]:
                add_report(report)
                digest.update(params.flat.tobytes())
                if method != "erm" or runs is not gate.runs:
                    continue
                for split, result in evaluate_posthoc(dataset, params).items():
                    plan = result.plan
                    digest.update(repr((split, result.pre_accuracy, result.post_accuracy, plan.value_cost,
                                        plan.value_regularized, plan.iterations_used, plan.converged)).encode())
                    digest.update(plan.gamma.tobytes())
                    digest.update(result.aligned_features.tobytes())
    return digest.hexdigest()


def main(argv: list) -> int:
    if argv[:1] == ["--gate"]:
        print(gate_digest())
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1", "OTDA_THREADS": "2"}
    gate = subprocess.run([sys.executable, __file__, "--gate"], env=env, capture_output=True, text=True)
    if gate.returncode != 0:
        print(gate.stderr, file=sys.stderr)
        return 1
    print(f"gate {gate.stdout.strip()}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cli_set"
        done = subprocess.run([sys.executable, str(TOOLS / "cli_set.py"), str(tree), str(out)],
                              capture_output=True, text=True)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    if done.returncode != 0:
        print(done.stdout, done.stderr, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
