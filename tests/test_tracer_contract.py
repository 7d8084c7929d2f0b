"""The names perfbench's tracer wraps by (module, attribute) and the argument
positions its hooks read. A traced benchmark run fails at its first span if
one of them goes missing; these tests find that out in a second.

perfbench/tracing.py is only imported, with bytecode writing off, so the
benchmark's folder gets no new files.
"""

import importlib
import inspect
import math
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from otda import da_train, eval_report, posthoc_align
from otda.da_train import EpochRecord, RunReport, TrainConfig
from otda.data_gen import load
from otda.eval_report import BreakdownCell, roc_auc
from otda.ot_core import CostMatrix, DiscreteDistribution, SinkhornConfig, ot_value_and_point_grads, sinkhorn

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
        for name in ("tracing", "checks"):
            sys.modules.pop(name, None)


def test_every_wrapped_name_is_callable(tracing):
    missing = [
        f"{module}.{attr}" for module, attr, _ in tracing.WRAPS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("function, leading", [
    (sinkhorn, ["cost", "source", "target", "config"]),
    (ot_value_and_point_grads, ["source_points", "target_points", "config", "metric"]),
    (load, ["path"]),  # the load hook sizes the file at args[0]
])
def test_hooked_arguments_keep_their_positions(function, leading):
    assert list(inspect.signature(function).parameters)[:4] == leading


def test_barycentric_map_solves_through_its_module(tracing, monkeypatch):
    """The post-hoc counters (posthoc_align.sinkhorn_iters, plan_entries) and
    the per-plan check see a post-hoc solve only if barycentric_map looks up
    cost_matrix and sinkhorn on posthoc_align and hands sinkhorn
    (cost, source, target, config) by position, where the hook reads them."""
    calls = []
    for attr in ("cost_matrix", "sinkhorn"):
        def record(*args, _attr=attr, _call=getattr(posthoc_align, attr), **kwargs):
            result = _call(*args, **kwargs)
            calls.append((_attr, args, kwargs, result))
            return result

        monkeypatch.setattr(posthoc_align, attr, record)
    rng = np.random.default_rng(0)
    posthoc_align.barycentric_map(rng.standard_normal((9, 3)), rng.standard_normal((7, 3)))
    assert [attr for attr, *_ in calls] == ["cost_matrix", "sinkhorn"]
    _, args, kwargs, plan = calls[1]
    assert kwargs == {}
    assert [type(arg) for arg in args] == [CostMatrix, DiscreteDistribution, DiscreteDistribution, SinkhornConfig]
    tracer, span = types.SimpleNamespace(problems=[]), [None] * 6 + [{}]
    tracing._HOOKS[tracing.SINKHORN](tracer, span, args, kwargs, plan)
    assert tracer.problems == [] and span[6]["entries"] == 7 * 9


def test_emit_writers_return_what_they_wrote(tracing, tmp_path):
    """The emit hook sizes the path (or the paths) a wrapped writer returns."""
    labels = np.array([0, 1, 1, 0])
    scores = np.array([0.2, 0.9, 0.6, 0.4])
    report = RunReport(
        config={"method": "ot", "alpha": 0.1},
        epochs=[EpochRecord(0, 0.7, 0.1, 0.5, 0.5), EpochRecord(1, 0.6, 0.1, 0.75, 0.5)],
        selected_epoch=1, final={split: {"accuracy": 0.5, "auc": None} for split in ("val", "test")}, seed=0,
    )
    stats = {"erm": {"val_mean": 0.5, "val_std": 0.0, "test_mean": 0.5, "test_std": 0.0}}
    writes = {
        "line_plot_svg": lambda path: eval_report.line_plot_svg([("a", [0, 1], [0, 1])], "t", "x", "y", path),
        "write_breakdown_table": lambda path: eval_report.write_breakdown_table(
            [BreakdownCell(1, "a", 2, 0.5, False)], path),
        "write_embedding_csv": lambda path: eval_report.write_embedding_csv(np.zeros((4, 2)), labels, labels, path),
        "write_roc_plot": lambda path: eval_report.write_roc_plot({"val": roc_auc(scores, labels)}, path),
        "write_method_table": lambda path: eval_report.write_method_table(stats, path),
        "write_alpha_table": lambda path: eval_report.write_alpha_table([0.1], [(0.5, 0.0)], [(0.5, 0.0)], path),
    }
    wrapped = {attr for _, attr, name in tracing.WRAPS if name == tracing.EMIT}
    assert wrapped == set(writes) | {"emit_tables"}
    for attr, write in writes.items():
        path = tmp_path / attr
        assert write(path) == path and path.stat().st_size > 0
    written = eval_report.emit_tables([report], tmp_path / "emit")
    assert written and all(p.stat().st_size > 0 for p in written)


@pytest.mark.parametrize("method", ["erm", "ot", "dann"])
def test_training_steps_through_da_train(small_dataset, monkeypatch, method):
    """nn_core.sgd_steps counts calls of da_train.sgd_step, and
    da_train.step_self_s times composite_loss_step and dann_step less what
    they call: both see a run only if each batch takes one step and one
    sgd_step, looked up on da_train."""
    counts = Counter()
    for attr in ("composite_loss_step", "dann_step", "sgd_step"):
        def count(*args, _attr=attr, _call=getattr(da_train, attr), **kwargs):
            counts[_attr] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(da_train, attr, count)
    config = TrainConfig(method=method, epochs=2, batch_size=128)
    da_train.train_with_model(small_dataset, config)
    batches = config.epochs * math.ceil(len(small_dataset.split_arrays("train")[0]) / config.batch_size)
    assert counts["composite_loss_step"] + counts["dann_step"] == batches
    assert counts["sgd_step"] == batches
