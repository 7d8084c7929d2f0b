"""Run a parent tree and a changed tree's benchmark in alternating pairs and
compare their end-to-end metrics.

    python tools/ab.py PARENT CHANGE --workload W [--workload W2 ...] --pairs N \\
        [--label LABEL]

PARENT and CHANGE are checkouts of this repository. Each run is the tree's
own `python3 perfbench/run.py --workload W --seed 1 --seconds T --trace 0`
in a fresh process with the tree as its working directory; T is the
`run_seconds` of CHANGE's BENCHMARK.json (15). Both trees' src/otda and
perfbench bytecode caches are removed before every run, so every run
compiles from source as a fresh checkout does. The parent runs first in
even pairs and the change in odd ones.

For each workload and each metric of CHANGE's BENCHMARK.json `end_to_end`
list, it prints both medians, the parent's IQR, the change of the median
relative to the parent's, and the pairs the change won and tied, then each
tree's failed operations summed over its runs (a run with no result counts
as one). A metric worse than the parent's by more than its bound is marked
WORSE; one that won at least 9 in 10 pairs by a median gap wider than the
parent's IQR is marked GAIN, unless the change failed more operations than
the parent. The samples go to BENCH_<LABEL>.json in the working directory,
under "parent" and "change" for each workload. Exits 1 if a run gives no
result or fails its check.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

CACHES = ("src/otda/__pycache__", "perfbench/__pycache__")
SEED = 1  # every run's perfbench --seed
TREES = ("parent", "change")


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One benchmark run of tree: its result object, or {"error": ...}."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", "0"]
    env = {name: value for name, value in os.environ.items() if name not in ("PYTHONPATH", "OTDA_THREADS")}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}


def quartiles(values: list) -> tuple:
    return tuple(statistics.quantiles(values, n=4, method="inclusive")) if len(values) > 1 else (values[0],) * 3


def compare(samples: dict, metrics: list) -> list:
    """One printed line per metric of the end_to_end list, then the failed
    operations of each tree."""
    failed = {tree: sum(s.get("failed", 1) for s in samples[tree]) for tree in TREES}
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [tuple(s["metrics"][name]["value"] for s in pair) for pair in zip(*(samples[t] for t in TREES))
                 if all("metrics" in s for s in pair)]
        if not pairs:
            lines.append(f"  {name:<12} no pair gave a result")
            continue
        parent, change = ([pair[i] for pair in pairs] for i in (0, 1))
        q1, p_med, q3 = quartiles(parent)
        c_med = statistics.median(change)
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        ties = sum(c == p for p, c in pairs)
        gain = (p_med - c_med) if lower else (c_med - p_med)
        relative = gain / abs(p_med) if p_med else (0.0 if gain == 0 else math.copysign(math.inf, gain))
        won = 10 * wins >= 9 * len(pairs) and gain > q3 - q1
        flag = ("WORSE" if -relative > metric["bound"] else
                "GAIN" if won and failed["change"] <= failed["parent"] else "")
        lines.append(f"  {name:<12} parent {p_med:.6g} (IQR {q3 - q1:.3g})  change {c_med:.6g}"
                     f"  {relative:+.2%} better  won {wins} tied {ties} of {len(pairs)}  {flag}".rstrip())
    lines.append(f"  {'failed':<12} parent {failed['parent']}  change {failed['change']}")
    return lines


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", default="ab")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    bench = {
        "label": args.label,
        "commands": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {benchmark['run_seconds']} "
                    f"--trace 0 in each tree; the parent runs first in even pairs; {' and '.join(CACHES)} "
                    "of both trees are removed before every run",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "workloads": {},
    }
    ok = True
    for workload in args.workload:
        samples = {name: [] for name in TREES}
        for pair in range(args.pairs):
            for name in TREES if pair % 2 == 0 else reversed(TREES):
                for tree in trees.values():
                    for cache in CACHES:
                        shutil.rmtree(tree / cache, ignore_errors=True)
                result = run_once(trees[name], workload, benchmark["run_seconds"])
                samples[name].append(result)
                ok &= result.get("correct", False)
            print(f"{workload} pair {pair + 1}/{args.pairs} done", file=sys.stderr)
        bench["workloads"][workload] = samples
        print(workload)
        print("\n".join(compare(samples, benchmark["end_to_end"])))
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
