#!/usr/bin/env python3
"""Benchmark of the otda pipeline: three workloads through otda's public API.

    python3 perfbench/run.py --workload {sweep-ot,seeds-nn,cli-posthoc} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root; the program is imported from ./src. A run
sets up several times in fresh interpreters (setup_s), repeats whole rounds
of the workload's fixed work until S seconds have passed (at least one
round), checks the outputs against computations made apart from the
program, and prints one JSON object as its last line: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. A failed check
prints the result with "correct": false and exits 1; a failed operation ends
the run with an error and no result. README.md describes the workloads, the
metrics and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
OUT = BENCH_DIR / "out"

WORKLOADS = ("sweep-ot", "seeds-nn", "cli-posthoc")
# The acceptance grid of the paper's alpha sweep.
ALPHAS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
SWEEP_WORKERS = "2"
# Set-up is short and its spread comes from the machine, whose speed drifts
# from one run to the next. It is taken several times per run, half before
# the timed rounds and half after them so that the samples span the run, and
# reported as the median.
SETUP_REPEATS = (6, 5)
SCIPY_REPEATS = 3

# Every workload trains on the benchmark dataset the generator's constants
# were calibrated on (GeneratorConfig's default seed). Test accuracy moves by
# up to ten points from one generator seed to another, which would hide any
# regression, so --seed picks the training seeds instead: a block of
# consecutive seeds.
DATA_SEED = 7
# ot training fails on some training seeds: seed 227 stalls Sinkhorn just
# above its tolerance at alpha 0.1. The ot workloads therefore draw their
# blocks from training seeds 0..127, which train without error at every
# alpha of the grid; --seed wraps around those 32 blocks of four.
OT_BLOCKS = 32


def training_seeds(seed, count, blocks=None):
    block = seed if blocks is None else seed % blocks
    return [count * block + i for i in range(count)]


END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "test_acc": "fraction"}


class Workload:
    """Fixed work repeated in rounds. round() runs one round and returns the
    number of operations it attempted; an operation that fails raises, which
    ends the run without a result. settle() runs untimed after each round
    and checks that it returned what the first round did."""

    name = ""
    span = None  # the tracer's span context manager during traced rounds

    def __init__(self, otda, seed, work):
        self.otda = otda
        self.seed = seed
        self.first = None
        self.last = None
        self.drifted = False

    def reset(self):
        # Let the last round's results go before the next round runs, so
        # peak_rss_mb sees one round's memory, not two.
        self.last = None

    def summary(self):
        raise NotImplementedError

    def settle(self):
        summary = self.summary()
        if self.first is None:
            self.first = summary
        self.drifted = self.drifted or summary != self.first

    def check(self, problems, checks):
        if self.drifted:
            problems.append(f"{self.name}: rounds of the same work returned different results")


class SweepOt(Workload):
    """alpha_sweep of method ot on the acceptance grid over four seeds, with
    two pool workers. One operation is one (alpha, seed) cell."""

    name = "sweep-ot"

    def __init__(self, otda, seed, work):
        super().__init__(otda, seed, work)
        self.dataset = otda.generate(otda.GeneratorConfig(seed=DATA_SEED))
        self.seeds = training_seeds(seed, 4, OT_BLOCKS)
        self.config = otda.TrainConfig(method="ot", seed=self.seeds[0])
        os.environ["OTDA_THREADS"] = SWEEP_WORKERS

    def round(self):
        self.last = self.otda.da_train.alpha_sweep(self.dataset, self.config, ALPHAS, self.seeds)
        return len(ALPHAS) * len(self.seeds)

    def summary(self):
        return self.last.to_json_dict()

    def test_acc(self):
        return float(self.last.test_acc.mean())

    def check(self, problems, checks):
        super().check(problems, checks)
        sweep = self.last
        reports = [[r.to_json_dict() for r in row] for row in sweep.reports]
        for row in reports:
            for rep in row:
                checks.check_selection(problems, f"sweep cell a{rep['config']['alpha']:g} s{rep['seed']}", rep)
        for split, table, means, stds in (("val", sweep.val_acc, sweep.val_means, sweep.val_stds),
                                          ("test", sweep.test_acc, sweep.test_means, sweep.test_stds)):
            cells = [[rep["final"][split]["accuracy"] for rep in row] for row in reports]
            if table.tolist() != cells:
                problems.append(f"sweep-ot: {split} accuracy table differs from the cell reports")
            for i, row in enumerate(cells):
                mean, std = checks.mean_std(row)
                if abs(mean - means[i]) > 1e-12 or abs(std - stds[i]) > 1e-12:
                    problems.append(f"sweep-ot: {split} mean/std at alpha {ALPHAS[i]:g} is off")
        exact = [sum(Fraction(r["final"]["val"]["accuracy"]) for r in row) for row in reports]
        best = [a for a, m in zip(ALPHAS, exact) if m == max(exact)]
        if sweep.selected_alpha not in best or (len(best) == 1 and sweep.selected_alpha != best[0]):
            problems.append(f"sweep-ot: selected alpha {sweep.selected_alpha:g}, best mean validation at {best}")
        # One cell again, in this process: it must match the pool's report.
        index = self.seed % (len(ALPHAS) * len(self.seeds))
        row, col = divmod(index, len(self.seeds))
        alpha, cell_seed = ALPHAS[row], self.seeds[col]
        report, params = self.otda.train_with_model(self.dataset, replace(self.config, alpha=alpha, seed=cell_seed))
        if report.to_json_dict() != reports[row][col]:
            problems.append(f"sweep-ot: cell a{alpha:g} s{cell_seed} rerun here differs from the pool's report")
        featurizer, classifier = checks.layers_of(params)
        for split in ("val", "test"):
            x, y = self.dataset.split_arrays(split)
            checks.check_split(problems, f"sweep cell a{alpha:g} s{cell_seed} {split}",
                               featurizer, classifier, x, y, report.final[split])


class SeedsNn(Workload):
    """run_seeds for erm, then for dann, over sixteen seeds: the network
    stack and the training loop with no transport solve. One operation is one
    training run."""

    name = "seeds-nn"

    def __init__(self, otda, seed, work):
        super().__init__(otda, seed, work)
        self.dataset = otda.generate(otda.GeneratorConfig(seed=DATA_SEED))
        self.seeds = training_seeds(seed, 16)

    def round(self):
        self.last = {
            method: self.otda.da_train.run_seeds(
                self.dataset, self.otda.TrainConfig(method=method), self.seeds, keep_params=True
            )
            for method in ("erm", "dann")
        }
        return 2 * len(self.seeds)

    def summary(self):
        return {m: [rep.to_json_dict() for rep, _ in pairs] for m, pairs in self.last.items()}

    def test_acc(self):
        return statistics.fmean(r.final["test"]["accuracy"] for pairs in self.last.values() for r, _ in pairs)

    def check(self, problems, checks):
        super().check(problems, checks)
        for method, pairs in self.last.items():
            for report, params in pairs:
                where = f"{method} s{report.seed}"
                checks.check_selection(problems, where, report.to_json_dict())
                featurizer, classifier = checks.layers_of(params)
                for split in ("val", "test"):
                    x, y = self.dataset.split_arrays(split)
                    checks.check_split(problems, f"{where} {split}", featurizer, classifier, x, y,
                                       report.final[split])
        # dann at alpha 0 is erm bit for bit: same featurizer and classifier
        # weights, losses and accuracies at every epoch.
        erm_report, erm_params = self.last["erm"][0]
        report, params = self.otda.train_with_model(
            self.dataset, self.otda.TrainConfig(method="dann", alpha=0.0, seed=self.seeds[0])
        )
        same = all(
            (a.weight.tobytes(), a.bias.tobytes()) == (b.weight.tobytes(), b.bias.tobytes())
            for a, b in zip(params.featurizer + params.classifier, erm_params.featurizer + erm_params.classifier)
        )
        same = same and report.final == erm_report.final and all(
            (a.ce_loss, a.val_accuracy, a.test_accuracy) == (b.ce_loss, b.val_accuracy, b.test_accuracy)
            for a, b in zip(report.epochs, erm_report.epochs)
        )
        if not same:
            problems.append(f"seeds-nn: dann at alpha 0 differs from erm at seed {self.seeds[0]}")


class CliPosthoc(Workload):
    """In-process `otda` commands into real run directories: gen-data, then
    train --method ot and posthoc for four seeds, then report over all runs.
    One operation is one command."""

    name = "cli-posthoc"

    def __init__(self, otda, seed, work):
        super().__init__(otda, seed, work)
        self.seeds = training_seeds(seed, 4, OT_BLOCKS)
        self.base = work / "cli"
        self.data = self.base / "data"
        self.runs = self.base / "runs"
        self.summary_dir = self.base / "summary"
        self.commands = [["gen-data", "--seed", str(DATA_SEED), "--out", str(self.data)]]
        for s in self.seeds:
            self.commands.append(["train", "--method", "ot", "--seed", str(s),
                                  "--data", str(self.data), "--out", str(self.runs / f"ot_s{s}")])
        for s in self.seeds:
            self.commands.append(["posthoc", "--seed", str(s),
                                  "--data", str(self.data), "--out", str(self.runs / f"posthoc_s{s}")])
        self.commands.append(["report", "--data", str(self.runs), "--out", str(self.summary_dir)])
        # The posthoc command writes only accuracies. Its inputs are kept (not
        # its plans, which would hold memory past the command) so the check
        # can solve the same alignment again and inspect the plans.
        self.evaluate_posthoc = otda.posthoc_align.evaluate_posthoc
        self.posthoc_inputs = []

        def keep_inputs(dataset, erm_params, *args, **kwargs):
            self.posthoc_inputs.append((dataset, erm_params))
            return self.evaluate_posthoc(dataset, erm_params, *args, **kwargs)

        otda.posthoc_align.evaluate_posthoc = keep_inputs

    def reset(self):
        super().reset()
        shutil.rmtree(self.base, ignore_errors=True)
        self.posthoc_inputs = []

    def command(self, argv):
        span = self.span(f"cli.{argv[0]}") if self.span else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            return self.otda.cli.run(argv)

    def round(self):
        for argv in self.commands:
            if self.command(argv) != 0:
                raise RuntimeError(f"otda {' '.join(argv)} failed")
        return len(self.commands)

    def reports(self):
        return [json.loads(p.read_text()) for p in sorted(self.runs.rglob("report_*.json"))]

    def posthoc_written(self):
        return [json.loads((self.runs / f"posthoc_s{s}" / "posthoc.json").read_text()) for s in self.seeds]

    def summary(self):
        return [r["final"] for r in self.reports()], self.posthoc_written()

    def test_acc(self):
        finals, posthoc = self.first
        accuracies = [final["test"]["accuracy"] for final in finals]
        accuracies += [written["test"]["post_accuracy"] for written in posthoc]
        return statistics.fmean(accuracies)

    def check(self, problems, checks):
        super().check(problems, checks)
        splits = checks.read_dataset_csv(self.data / "dataset.csv")
        reports = self.reports()
        for rep in reports:
            checks.check_selection(problems, f"report {rep['config']['method']} s{rep['seed']}", rep)
        for s in self.seeds:
            run_dir = self.runs / f"ot_s{s}"
            metrics = json.loads((run_dir / "metrics.json").read_text())
            (checkpoint,) = run_dir.glob("checkpoint_*.json")
            featurizer, classifier = checks.read_checkpoint(checkpoint)
            for split in ("val", "test"):
                x, y = splits[split]
                checks.check_split(problems, f"train ot s{s} {split}", featurizer, classifier, x, y,
                                   metrics["final"][split])
        for s, (dataset, erm_params) in zip(self.seeds, self.posthoc_inputs):
            self.check_posthoc(problems, checks, splits, s, dataset, erm_params)
        table = (self.summary_dir / "tables" / "method_comparison.csv").read_text()
        checks.check_method_table(problems, "cli-posthoc report table", table, reports)
        if len(list((self.summary_dir / "plots").glob("curves_*.svg"))) != len(reports):
            problems.append("cli-posthoc: report did not draw one curve plot per run")
        # The same command again must write byte-identical files.
        first = self.base / "first"
        (self.runs / f"ot_s{self.seeds[0]}").rename(first)
        if self.command(self.commands[1]) != 0:
            raise RuntimeError("otda train failed on its rerun")
        if checks.same_files(problems, "cli-posthoc train rerun", first, self.runs / f"ot_s{self.seeds[0]}") == 0:
            problems.append("cli-posthoc: rerun of train compared no files")

    def check_posthoc(self, problems, checks, splits, seed, dataset, erm_params):
        import numpy as np

        results = self.evaluate_posthoc(dataset, erm_params)
        featurizer, classifier = checks.layers_of(erm_params)
        x_train, _ = splits["train"]
        if len(x_train) > self.otda.posthoc_align.MAX_SOURCE_ROWS:
            problems.append("cli-posthoc: the source side is subsampled; the alignment check needs all rows")
            return
        source = checks.features(featurizer, x_train)
        written = self.posthoc_written()[self.seeds.index(seed)]
        for split in ("val", "test"):
            where = f"posthoc s{seed} {split}"
            result = results[split]
            x, y = splits[split]
            target = checks.features(featurizer, x)
            n, m = result.plan.gamma.shape
            if not result.plan.converged:
                problems.append(f"{where}: Sinkhorn stopped after {result.plan.iterations_used} "
                                "iterations without converging")
            problem = checks.check_plan(result.plan, np.full(n, 1.0 / n), np.full(m, 1.0 / m), 1e-6)
            if problem:
                problems.append(f"{where}: {problem}")
            gamma = result.plan.gamma
            aligned = (gamma @ source) / gamma.sum(axis=1)[:, None]
            if not np.allclose(result.aligned_features, aligned, rtol=1e-9, atol=1e-12):
                problems.append(f"{where}: aligned features differ from the barycenters of the returned plan")
            checks.check_accuracy(problems, f"{where} pre", checks.head(classifier, target), y, result.pre_accuracy)
            checks.check_accuracy(problems, f"{where} post", checks.head(classifier, aligned), y, result.post_accuracy)
            if written[split] != {"pre_accuracy": result.pre_accuracy, "post_accuracy": result.post_accuracy}:
                problems.append(f"{where}: posthoc.json differs from the accuracies of the same alignment")


WORKLOAD_CLASSES = {"sweep-ot": SweepOt, "seeds-nn": SeedsNn, "cli-posthoc": CliPosthoc}


def _probe(args, timeout=120):
    """Run setup_probe.py in a fresh interpreter; (wall seconds, phases)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe {args} failed: {proc.stderr.strip()}")
    return wall, json.loads(proc.stdout.splitlines()[-1])


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _rounds(workload, seconds, walls, cpus):
    """Whole rounds until `seconds` have passed, at least one; returns the
    operations attempted."""
    attempted = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        workload.reset()
        cpu = _cpu_seconds()
        t0 = time.perf_counter()
        attempted += workload.round()
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_seconds() - cpu)
        workload.settle()
    return attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "otda" / "__init__.py").is_file():
        print(f"no otda sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(args, work) -> dict:
    setups = []

    def setup_probes(count):
        for _ in range(count):
            setups.append(_probe([args.workload, str(DATA_SEED), str(work / f"setup-{len(setups)}")]))

    setup_probes(SETUP_REPEATS[0])

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import otda
    import otda.cli  # noqa: F401  (cli-posthoc calls it; the tracer wraps its names)

    if not Path(otda.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"otda was imported from {otda.__file__}, not from {SRC}")
    import checks

    workload = WORKLOAD_CLASSES[args.workload](otda, args.seed, work)
    walls, cpus = [], []
    share = 0.5 if args.trace else 1.0
    attempted = _rounds(workload, share * args.seconds, walls, cpus)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup_probes(SETUP_REPEATS[1])
    problems = []
    if args.trace:
        import tracing

        values, traced = _traced(args, work, workload, otda, checks, problems)
        attempted += traced
        values["trace.overhead_s"] -= statistics.median(walls)
        values["cli.import_s"] = statistics.median(p["import_s"] for _, p in setups)
        values["data_gen.generate_s"] = statistics.median(p.get("generate_s", 0.0) for _, p in setups)
        values["data_gen.save_s"] = statistics.median(p.get("save_s", 0.0) for _, p in setups)
        units = tracing.LAYER_METRICS

    workload.check(problems, checks)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if not args.trace:
        values = {
            "setup_s": statistics.median(wall for wall, _ in setups),
            "run_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_kb / 1024.0,
            "test_acc": workload.test_acc(),
        }
        units = END_TO_END
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _traced(args, work, workload, otda, checks, problems):
    """Traced rounds for half of --seconds; returns (per-layer values,
    operations attempted). trace.overhead_s holds the median traced round, from
    which the caller subtracts the median untraced round."""
    import numpy as np
    import tracing

    tracer = tracing.Tracer(work / "trace")
    walls = []
    tracer.install()
    workload.span = tracer.span
    try:
        attempted = _rounds(workload, 0.5 * args.seconds, walls, [])
    finally:
        tracer.uninstall()
        workload.span = None
    spans = tracer.collect()
    problems.extend(tracer.problems)
    samples = tracer.samples()
    if samples:
        with np.load(samples[0]) as sample:
            checks.check_point_grads(problems, otda, dict(sample))
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"trace-{args.workload}-s{args.seed}.jsonl", "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")

    values = tracing.layer_metrics(spans, len(walls))
    values["cli.scipy_import_s"] = statistics.median(
        _probe(["scipy"])[1]["scipy_import_s"] for _ in range(SCIPY_REPEATS)
    )
    values["trace.overhead_s"] = statistics.median(walls)
    return values, attempted


if __name__ == "__main__":
    sys.exit(main())
