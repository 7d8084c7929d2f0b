#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 perfbench/steady.py [--runs 10]

Run it from the repository root. It runs the command of BENCHMARK.json with
--trace 0 on every workload, --runs times per set, each time with another
--seed (set 1 uses seeds 1..runs, set 2 uses 11..10+runs), for run_seconds
seconds. It then prints, per workload and end-to-end metric, each set's
median and quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, and checks that

  - each set's spread is within the metric's bound;
  - the two sets' medians differ by no more than the bound, either way.

Raw results go to perfbench/out/steady-<time>.json. The exit code is 0 when
every check holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SEED_BASES = (1, 11)


def run_once(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    results = {w: [[] for _ in SEED_BASES] for w in workloads}
    for s, base in enumerate(SEED_BASES):
        for i in range(args.runs):
            for w in workloads:
                r = run_once(spec, w, base + i)
                if set(r["metrics"]) != set(metrics) or not r["correct"]:
                    raise SystemExit(f"{w} seed {base + i}: bad result {r}")
                results[w][s].append(r)
                print(f"set {s + 1} {w} seed {base + i}: {r['elapsed_s']:.1f} s, "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(results, indent=1))

    ok = True
    print(f"{'workload':12} {'metric':12} {'bound':>5}  "
          + "  ".join(f"{'set ' + str(s + 1) + ' Q1/median/Q3':>32} {'spread':>7}" for s in range(len(SEED_BASES)))
          + "  verdict")
    for w in workloads:
        for name, m in metrics.items():
            cells, verdict, medians = [], [], []
            for s in range(len(SEED_BASES)):
                values = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                cells.append(f"{q1:10.4g} {med:10.4g} {q3:10.4g} {spread:7.3f}")
                if spread > m["bound"]:
                    verdict.append(f"set {s + 1} spread over bound")
                    ok = False
                elif spread > m["bound"] / 3:
                    verdict.append(f"set {s + 1} spread over bound/3")
            change = (medians[1] - medians[0]) / medians[0]
            verdict.append(f"medians {'differ' if abs(change) > m['bound'] else 'agree'} ({change:+.3f})")
            ok = ok and abs(change) <= m["bound"]
            print(f"{w:12} {name:12} {m['bound']:5.2f}  " + "  ".join(cells) + "  " + "; ".join(verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
