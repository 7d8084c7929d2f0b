"""Print each acceptance criterion's margin over training-seed blocks and dataset draws.

    python tools/gate_margins.py

A margin is a criterion's statistic minus its bound, taken from the gate's
own runs and statistics (tests/gate.py), so it cannot drift from
tests/test_acceptance.py. Two Markdown tables:

  the gate's draw (GeneratorConfig(), seed 7) at training-seed blocks 0-3,
  4-7, ..., 28-31;
  draws 0-11 (GeneratorConfig(seed=d)) at seeds 0-3.

A failing margin is bold: a negative one, or exactly 0 for a strict
criterion (>). Each table ends with the number of rows each criterion passes.
One (draw, block) trains 40 runs and 4 post-hoc evaluations on two pool
workers (OTDA_THREADS, 2 unless set); the 19 distinct rows took 47 s on two
cores.
"""

import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gate import masked_accuracy, mean_accuracy, posthoc_accuracy, train_gate  # noqa: E402
from otda.data_gen import GeneratorConfig, generate  # noqa: E402

GATE_DRAW = GeneratorConfig().seed
BLOCKS = 8
DRAWS = 12
# (column, strict): a strict criterion fails at a margin of exactly 0.
CRITERIA = [
    ("c4 gain", True), ("c4 std", True), ("ot−dann", True), ("dann−erm", True), ("ot−erm−.03", False),
    ("c6", False), ("post−erm", False), ("ot−post", True), ("c8", True), ("gap−.05", False),
]


def margins(draw: int, seeds: list) -> list:
    """The margins of CRITERIA, in order, for the gate's runs on one draw."""
    dataset = generate(GeneratorConfig(seed=draw))
    gate = train_gate(dataset, seeds)
    sweep = gate.sweep
    best = int(np.argmax(sweep.val_means))
    test = {method: mean_accuracy(runs, "test") for method, runs in gate.runs.items()}
    post = posthoc_accuracy(dataset, gate.runs["erm"])
    masked = {method: masked_accuracy(dataset, gate.runs[method]) for method in ("ot", "dann")}
    return [
        sweep.test_means[best] - sweep.test_means[0],
        sweep.test_stds[-1] - max(sweep.test_stds[:-1]),
        test["ot"] - test["dann"],
        test["dann"] - test["erm"],
        test["ot"] - test["erm"] - 0.03,
        masked["ot"] - masked["dann"] - 0.05,
        post - test["erm"],
        test["ot"] - post,
        mean_accuracy(gate.swap_runs["ot"], "test") - mean_accuracy(gate.swap_runs["erm"], "test"),
        mean_accuracy(gate.runs["erm"], "val") - test["erm"] - 0.05,
    ]


def passes(margin: float, strict: bool) -> bool:
    return margin > 0 if strict else margin >= 0


def cell(margin: float, strict: bool) -> str:
    """Three decimals, or one significant digit for a nonzero margin that
    would print as 0.000."""
    text = f"{margin:.3f}" if margin == 0 or abs(margin) >= 5e-4 else f"{margin:.0e}"
    return text if passes(margin, strict) else f"**{text}**"


def print_table(label: str, rows: list) -> None:
    """rows: (row label, margins) pairs."""
    print(f"| {label} | " + " | ".join(name for name, _ in CRITERIA) + " |")
    print("| --- " * (len(CRITERIA) + 1) + "|")
    for name, row in rows:
        print(f"| {name} | " + " | ".join(cell(m, strict) for m, (_, strict) in zip(row, CRITERIA)) + " |")
    counts = [sum(passes(row[i], strict) for _, row in rows) for i, (_, strict) in enumerate(CRITERIA)]
    print(f"| passes (of {len(rows)}) | " + " | ".join(str(c) for c in counts) + " |")
    print()


def main() -> int:
    os.environ.setdefault("OTDA_THREADS", "2")
    done = {}

    def row(draw, block):
        if (draw, block) not in done:
            done[draw, block] = margins(draw, list(range(4 * block, 4 * block + 4)))
        return done[draw, block]

    print_table(f"seeds (draw {GATE_DRAW})", [(f"{4 * b}–{4 * b + 3}", row(GATE_DRAW, b)) for b in range(BLOCKS)])
    print_table("draw (seeds 0–3)", [(str(d), row(d, 0)) for d in range(DRAWS)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
