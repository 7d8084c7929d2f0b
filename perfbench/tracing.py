"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of otda's modules under the names
their callers look up (for example `otda.da_train.forward_features`, which
the training step calls, and `otda.posthoc_align.sinkhorn`, which the
post-hoc alignment calls), so no code under src/ changes. Each call becomes
a span (id, parent, name, start, end, pid, attributes) kept in memory.
Sweep cells run in forked pool workers, which inherit the wrappers; a worker
appends its spans to a file of its own after each cell, and the parent
merges those files when the traced rounds end.

Returned transport plans are checked for nonnegativity and marginals on the
spot, and the first `ot_value_and_point_grads` call of each process is saved
for a finite-difference check after the run. The time these checks take is
recorded as `bench.check` spans, so it is excluded from every layer's self
time but counted in the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import pickle
import statistics
import time
from pathlib import Path

import numpy as np

from checks import check_plan

CHECK = "bench.check"
CELL = "da_train.sweep_cell"
EMIT = "eval_report.emit"
SINKHORN = "ot_core.sinkhorn"
POINT_GRADS = "ot_core.ot_value_and_point_grads"
BARYCENTRIC = "posthoc_align.barycentric_map"

# (module, attribute the caller looks up, span name)
WRAPS = (
    ("otda.ot_core", "cost_matrix", "ot_core.cost_matrix"),
    ("otda.ot_core", "sinkhorn", SINKHORN),
    ("otda.posthoc_align", "cost_matrix", "ot_core.cost_matrix"),
    ("otda.posthoc_align", "sinkhorn", SINKHORN),
    ("otda.da_train", "ot_value_and_point_grads", POINT_GRADS),
    ("otda.da_train", "forward_features", "nn_core.forward_features"),
    ("otda.posthoc_align", "forward_features", "nn_core.forward_features"),
    ("otda.cli", "forward_features", "nn_core.forward_features"),
    ("otda.da_train", "forward_classifier", "nn_core.forward_classifier"),
    ("otda.posthoc_align", "forward_classifier", "nn_core.forward_classifier"),
    ("otda.cli", "forward_classifier", "nn_core.forward_classifier"),
    ("otda.da_train", "backward", "nn_core.backward"),
    ("otda.da_train", "cross_entropy", "nn_core.cross_entropy"),
    ("otda.da_train", "sgd_step", "nn_core.sgd_step"),
    ("otda.cli", "save_checkpoint", "nn_core.save_checkpoint"),
    ("otda.da_train", "composite_loss_step", "da_train.step"),
    ("otda.da_train", "dann_step", "da_train.step"),
    ("otda.da_train", "evaluate_split", "da_train.evaluate_split"),
    ("otda.da_train", "train_with_model", "da_train.train_with_model"),
    ("otda.cli", "train_with_model", "da_train.train_with_model"),
    ("otda.da_train", "_sweep_cell", CELL),
    ("otda.da_train", "alpha_sweep", "da_train.alpha_sweep"),
    ("otda.da_train", "run_seeds", "da_train.run_seeds"),
    ("otda.posthoc_align", "barycentric_map", BARYCENTRIC),
    ("otda.posthoc_align", "evaluate_posthoc", "posthoc_align.evaluate_posthoc"),
    ("otda.data_gen", "generate", "data_gen.generate"),
    ("otda.data_gen", "save", "data_gen.save"),
    ("otda.data_gen", "load", "data_gen.load"),
    ("otda.da_train", "roc_auc", "eval_report.roc_auc"),
    ("otda.cli", "roc_auc", "eval_report.roc_auc"),
    ("otda.cli", "pca_project", "eval_report.pca_project"),
    ("otda.cli", "subcluster_breakdown", "eval_report.subcluster_breakdown"),
    ("otda.cli", "line_plot_svg", EMIT),
    ("otda.cli", "write_breakdown_table", EMIT),
    ("otda.eval_report", "line_plot_svg", EMIT),
    ("otda.eval_report", "write_embedding_csv", EMIT),
    ("otda.eval_report", "write_roc_plot", EMIT),
    ("otda.eval_report", "write_method_table", EMIT),
    ("otda.eval_report", "write_alpha_table", EMIT),
    ("otda.eval_report", "emit_tables", EMIT),
)

# Metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.scipy_import_s": "s",
    "cli.gen-data_s": "s",
    "cli.train_s": "s",
    "cli.posthoc_s": "s",
    "cli.report_s": "s",
    "data_gen.generate_s": "s",
    "data_gen.save_s": "s",
    "data_gen.load_s": "s",
    "data_gen.load_calls": "count",
    "data_gen.csv_bytes": "bytes",
    "ot_core.sinkhorn_s": "s",
    "ot_core.sinkhorn_calls": "count",
    "ot_core.sinkhorn_iters": "count",
    "ot_core.sinkhorn_iters_max": "count",
    "ot_core.sinkhorn_us_per_iter": "us",
    "ot_core.sinkhorn_unconverged": "count",
    "ot_core.cost_matrix_s": "s",
    "ot_core.cost_matrix_calls": "count",
    "ot_core.point_grads_s": "s",
    "nn_core.forward_features_s": "s",
    "nn_core.forward_features_calls": "count",
    "nn_core.backward_s": "s",
    "nn_core.backward_calls": "count",
    "nn_core.sgd_step_s": "s",
    "nn_core.sgd_steps": "count",
    "nn_core.cross_entropy_s": "s",
    "nn_core.forward_classifier_s": "s",
    "nn_core.checkpoint_s": "s",
    "da_train.step_self_s": "s",
    "da_train.evaluate_split_s": "s",
    "da_train.evaluate_calls": "count",
    "da_train.runs": "count",
    "da_train.run_s_p50": "s",
    "da_train.run_s_max": "s",
    "da_train.cell_s_p50": "s",
    "da_train.cell_s_max": "s",
    "da_train.pool_busy_share": "fraction",
    "da_train.worker_cpu_per_wall": "ratio",
    "da_train.pool_pickled_bytes": "bytes",
    "posthoc_align.barycentric_map_s": "s",
    "posthoc_align.barycentric_calls": "count",
    "posthoc_align.sinkhorn_iters": "count",
    "posthoc_align.plan_entries": "count",
    "eval_report.roc_auc_s": "s",
    "eval_report.pca_project_s": "s",
    "eval_report.emit_s": "s",
    "eval_report.files_written": "count",
    "eval_report.bytes_written": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """Records spans around the wrapped functions of one benchmark process
    and of the pool workers forked from it."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.spans = []
        self.stack = []
        self.problems = []
        self.counter = 0
        self.pid = os.getpid()
        self.worker = False
        self.sampled = False
        self.installed = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # A forked worker keeps the open-span stack, so its cells name the
        # parent's alpha_sweep span as their cause, but starts with no spans.
        self.pid = os.getpid()
        self.spans = []
        self.problems = []
        self.worker = True
        self.sampled = False

    def _open(self, name):
        self.counter += 1
        span = [f"{self.pid}-{self.counter}", self.stack[-1] if self.stack else None, name,
                time.perf_counter(), None, self.pid, {}]
        self.stack.append(span[0])
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def install(self):
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self.installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self.installed):
            setattr(module, attr, original)
        self.installed = []

    def _wrap(self, fn, name):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            cpu = time.process_time() if name == CELL else None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if cpu is not None:
                span[6]["cpu"] = time.process_time() - cpu
            if hook is not None:
                with tracer.span(CHECK):
                    hook(tracer, span, args, kwargs, result)
            if name == CELL and tracer.worker:
                tracer.flush()
            return result

        return wrapper

    def flush(self):
        """Append this process's spans and problems to its own file."""
        with open(self.spool / f"spans-{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps({"span": span}) + "\n")
            for problem in self.problems:
                fh.write(json.dumps({"problem": problem}) + "\n")
        self.spans = []
        self.problems = []

    def collect(self) -> list:
        """All spans of this process and of its finished workers."""
        spans = list(self.spans)
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if "span" in record:
                    spans.append(record["span"])
                else:
                    self.problems.append(record["problem"])
            path.unlink()
        return spans

    def samples(self) -> list:
        return sorted(self.spool.glob("grads-sample-*.npz"))


def _sinkhorn_hook(tracer, span, args, kwargs, plan):
    from otda.ot_core import SinkhornConfig

    config = args[3] if len(args) > 3 else kwargs.get("config", SinkhornConfig())
    span[6].update(iters=plan.iterations_used, converged=plan.converged, entries=int(plan.gamma.size))
    problem = check_plan(plan, args[1].weights, args[2].weights, config.marginal_tolerance)
    if problem:
        tracer.problems.append(f"sinkhorn {plan.gamma.shape}: {problem}")


def _point_grads_hook(tracer, span, args, kwargs, result):
    if tracer.sampled:
        return
    from otda.ot_core import EUCLIDEAN, SinkhornConfig

    tracer.sampled = True
    config = args[2] if len(args) > 2 else kwargs.get("config", SinkhornConfig())
    metric = args[3] if len(args) > 3 else kwargs.get("metric", EUCLIDEAN)
    np.savez(
        tracer.spool / f"grads-sample-{tracer.pid}.npz",
        X=np.asarray(args[0]), Y=np.asarray(args[1]), metric=metric,
        epsilon=config.epsilon, relative=config.relative_epsilon,
    )


def _cell_hook(tracer, span, args, kwargs, result):
    if tracer.worker:
        span[6]["pickled"] = len(pickle.dumps(args[0], protocol=pickle.HIGHEST_PROTOCOL))


def _emit_hook(tracer, span, args, kwargs, result):
    paths = result if isinstance(result, list) else [result]
    span[6]["files"] = {str(p): os.path.getsize(p) for p in paths}


def _load_hook(tracer, span, args, kwargs, result):
    span[6]["bytes"] = os.path.getsize(args[0])


_HOOKS = {
    SINKHORN: _sinkhorn_hook,
    POINT_GRADS: _point_grads_hook,
    CELL: _cell_hook,
    EMIT: _emit_hook,
    "data_gen.load": _load_hook,
}


def _covered(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def layer_metrics(spans: list, rounds: int) -> dict:
    """Per-layer figures of one traced round: sums and counts are divided by
    the number of traced rounds; p50, max and ratios are over all spans."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)

    def dur(s):
        return s[4] - s[3]

    def self_time(s):
        inner = [(max(c[3], s[3]), min(c[4], s[4])) for c in children.get(s[0], ())]
        return dur(s) - _covered([iv for iv in inner if iv[1] > iv[0]])

    named = {}
    for s in spans:
        named.setdefault(s[2], []).append(s)

    def total(name, fn=dur):
        return sum(fn(s) for s in named.get(name, ())) / rounds

    def calls(name):
        return len(named.get(name, ())) / rounds

    def parent_name(s):
        parent = by_id.get(s[1])
        return parent[2] if parent else None

    m = {}
    for command in ("gen-data", "train", "posthoc", "report"):
        m[f"cli.{command}_s"] = total(f"cli.{command}")
    m["data_gen.load_s"] = total("data_gen.load")
    m["data_gen.load_calls"] = calls("data_gen.load")
    m["data_gen.csv_bytes"] = sum(s[6]["bytes"] for s in named.get("data_gen.load", ())) / rounds

    solves = named.get(SINKHORN, [])
    iters = [s[6]["iters"] for s in solves]
    m["ot_core.sinkhorn_s"] = total(SINKHORN, self_time)
    m["ot_core.sinkhorn_calls"] = calls(SINKHORN)
    m["ot_core.sinkhorn_iters"] = sum(iters) / rounds
    m["ot_core.sinkhorn_iters_max"] = max(iters, default=0)
    m["ot_core.sinkhorn_us_per_iter"] = 1e6 * m["ot_core.sinkhorn_s"] * rounds / sum(iters) if iters else 0.0
    m["ot_core.sinkhorn_unconverged"] = sum(not s[6]["converged"] for s in solves) / rounds
    m["ot_core.cost_matrix_s"] = total("ot_core.cost_matrix")
    m["ot_core.cost_matrix_calls"] = calls("ot_core.cost_matrix")
    m["ot_core.point_grads_s"] = total(POINT_GRADS, self_time)

    m["nn_core.forward_features_s"] = total("nn_core.forward_features")
    m["nn_core.forward_features_calls"] = calls("nn_core.forward_features")
    m["nn_core.backward_s"] = total("nn_core.backward")
    m["nn_core.backward_calls"] = calls("nn_core.backward")
    m["nn_core.sgd_step_s"] = total("nn_core.sgd_step")
    m["nn_core.sgd_steps"] = calls("nn_core.sgd_step")
    m["nn_core.cross_entropy_s"] = total("nn_core.cross_entropy")
    m["nn_core.forward_classifier_s"] = total("nn_core.forward_classifier")
    m["nn_core.checkpoint_s"] = total("nn_core.save_checkpoint")

    m["da_train.step_self_s"] = total("da_train.step", self_time)
    m["da_train.evaluate_split_s"] = total("da_train.evaluate_split")
    m["da_train.evaluate_calls"] = calls("da_train.evaluate_split")
    runs = [dur(s) for s in named.get("da_train.train_with_model", ())]
    m["da_train.runs"] = len(runs) / rounds
    m["da_train.run_s_p50"] = statistics.median(runs) if runs else 0.0
    m["da_train.run_s_max"] = max(runs, default=0.0)
    cells = named.get(CELL, [])
    cell_s = [dur(s) for s in cells]
    m["da_train.cell_s_p50"] = statistics.median(cell_s) if cells else 0.0
    m["da_train.cell_s_max"] = max(cell_s, default=0.0)
    pooled = [s for s in cells if "pickled" in s[6]]
    workers = len({s[5] for s in pooled})
    sweep_wall = sum(dur(s) for s in named.get("da_train.alpha_sweep", ()))
    m["da_train.pool_busy_share"] = sum(dur(s) for s in pooled) / (workers * sweep_wall) if workers else 0.0
    m["da_train.worker_cpu_per_wall"] = (
        sum(s[6]["cpu"] for s in pooled) / sum(dur(s) for s in pooled) if pooled else 0.0
    )
    m["da_train.pool_pickled_bytes"] = sum(s[6].get("pickled", 0) for s in cells) / rounds

    m["posthoc_align.barycentric_map_s"] = total(BARYCENTRIC)
    m["posthoc_align.barycentric_calls"] = calls(BARYCENTRIC)
    posthoc_solves = [s for s in solves if parent_name(s) == BARYCENTRIC]
    m["posthoc_align.sinkhorn_iters"] = sum(s[6]["iters"] for s in posthoc_solves) / rounds
    m["posthoc_align.plan_entries"] = sum(s[6]["entries"] for s in posthoc_solves) / rounds

    m["eval_report.roc_auc_s"] = total("eval_report.roc_auc")
    m["eval_report.pca_project_s"] = total("eval_report.pca_project")
    outer = [s for s in named.get(EMIT, ()) if parent_name(s) != EMIT]
    m["eval_report.emit_s"] = sum(dur(s) for s in outer) / rounds
    # Every round writes the same paths, so the union is one round's files.
    files = {}
    for s in named.get(EMIT, ()):
        files.update(s[6]["files"])
    m["eval_report.files_written"] = len(files)
    m["eval_report.bytes_written"] = sum(files.values())
    m["trace.spans"] = len([s for s in spans if s[2] != CHECK]) / rounds
    return m
