"""Training harness: plain source-risk minimization (erm), transport-
regularized training (ot), and a gradient-reversal adversary baseline (dann),
plus the alpha sweep and multi-seed aggregation used by the experiment CLI.

Target batches always come from the validation institution's inputs; its
labels are never part of any loss. All randomness flows from the run seed
through dedicated generator streams, so a (dataset, config) pair fully
determines the trajectory, and every method consumes the streams identically
(an alpha of zero reproduces erm bit for bit).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
from dataclasses import InitVar, asdict, astuple, dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .data_gen import DomainDataset
from .errors import ConfigurationError, ContractViolationError, NumericError, ParseError
from .eval_report import accuracy, mean_std, read_json, roc_auc, softmax_scores, write_csv, write_json
from .nn_core import (
    ModelParams,
    OptimizerConfig,
    _head_backward,
    _head_forward,
    backward,
    cross_entropy,
    forward_classifier,
    forward_features,
    init_model,
    sgd_step,
)
from .ot_core import EUCLIDEAN, SQUARED_EUCLIDEAN, SinkhornConfig, ot_value_and_point_grads

METHODS = ("erm", "ot", "dann")


@dataclass(frozen=True)
class TrainConfig:
    method: str = "erm"
    alpha: float = 0.1
    epochs: int = 5
    batch_size: int = 128
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    # Strongly weighted alignment collapses feature batches into near-duplicate
    # rows whose transport plans converge very slowly at the bare solver
    # defaults; a run aborts on non-convergence, so the in-training solver
    # gets a blurrier epsilon and more iteration headroom.
    sinkhorn: SinkhornConfig = field(
        default_factory=lambda: SinkhornConfig(epsilon=0.1, max_iterations=20000)
    )
    seed: int = 0
    metric: str = EUCLIDEAN

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigurationError(f"alpha must be finite and nonnegative, got {self.alpha}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be positive")
        if self.metric not in (EUCLIDEAN, SQUARED_EUCLIDEAN):
            raise ConfigurationError(f"unknown metric {self.metric!r}")
        if not 0 <= self.seed <= _INT:  # the bound load_report checks
            raise ConfigurationError(f"seed must be a 64-bit int >= 0, got {self.seed}")

    def snapshot(self) -> dict:
        return asdict(self)


def _number(low, high, kinds=(int, float), null=False):
    """A field test: a JSON number of kinds in [low, high], never a bool or a
    NaN, or null where null is set; high may be a function of the lookup."""
    return lambda value, field: (value is None and null) or (
        isinstance(value, kinds) and not isinstance(value, bool)
        and low <= value <= (high(field) if callable(high) else high))


_INT, _REAL = 2**63 - 1, float(np.finfo(float).max)
_UNIT = ("a real in [0, 1]", _number(0, 1))
# Each stored field of an EpochRecord and a RunReport: what it holds and a
# test(value, field) of its JSON value, with field(name) looking up another.
# RunReport fields are paths in the stored object; config and final may hold
# other keys, which nothing reads.
_EPOCH_FIELDS = {
    "epoch": ("a 64-bit int", _number(-_INT - 1, _INT, int)),
    "ce_loss": ("a finite real", _number(-_REAL, _REAL)),
    "aux_loss": ("a finite real", _number(-_REAL, _REAL)),
    "val_accuracy": _UNIT,
    "test_accuracy": _UNIT,
    # reports written before training stopped timing epochs store this one
    "wall_seconds": ("a finite real >= 0", _number(0, _REAL)),
}
_REPORT_FIELDS = {
    "seed": ("a 64-bit int >= 0", _number(0, _INT, int)),
    "epochs": ("a non-empty list of epoch records", lambda value, field: isinstance(value, list) and value != []),
    "selected_epoch": ("the index of an epoch", _number(0, lambda field: len(field("epochs")) - 1, int)),
    "config.method": (f"one of {METHODS}", lambda value, field: isinstance(value, str) and value in METHODS),
    "config.alpha": ("a finite real >= 0", _number(0, _REAL)),
    "final.val.accuracy": _UNIT,
    "final.val.auc": ("null or a real in [0, 1]", _number(0, 1, null=True)),
    "final.test.accuracy": _UNIT,
    "final.test.auc": ("null or a real in [0, 1]", _number(0, 1, null=True)),
}


def _check_fields(fields: dict, field) -> None:
    """Raise ContractViolationError at the first field missing or failing its test."""
    for name, (holds, test) in fields.items():
        try:
            value = field(name)
        except (KeyError, TypeError):
            raise ContractViolationError(f"{name} is missing") from None
        if not test(value, field):
            raise ContractViolationError(f"{name} must be {holds}, got {value!r}")


@dataclass
class EpochRecord:
    epoch: int
    ce_loss: float
    aux_loss: float  # transport or adversary loss; 0 for erm
    val_accuracy: float
    test_accuracy: float
    wall_seconds: InitVar[float] = 0.0  # checked, then dropped

    def __post_init__(self, wall_seconds):
        _check_fields(_EPOCH_FIELDS, {**vars(self), "wall_seconds": wall_seconds}.__getitem__)


@dataclass
class RunReport:
    config: dict
    epochs: list
    selected_epoch: int
    final: dict  # split -> {"accuracy": ..., "auc": ...}
    seed: int

    def run_id(self) -> str:
        return f"{self.config['method']}_a{self.config['alpha']:g}_s{self.seed}"

    def to_json_dict(self) -> dict:
        return asdict(self)


def evaluate_split(params: ModelParams, X: np.ndarray, y: np.ndarray) -> dict:
    features, _ = forward_features(params, X, keep_trace=False)
    logits = forward_classifier(params, features)
    acc = accuracy(logits, y)
    auc = None
    if logits.shape[1] == 2 and len(set(y.tolist())) == 2:
        auc = roc_auc(softmax_scores(logits), y).auc
    return {"accuracy": acc, "auc": auc}


def binary_cross_entropy_with_logits(logits: np.ndarray, targets: np.ndarray) -> tuple:
    """Mean logistic loss over a single-logit column; returns (loss, dlogits)."""
    z = logits.reshape(-1)
    t = np.asarray(targets, dtype=float)
    if z.shape != t.shape:
        raise ContractViolationError("logits and targets must align")
    loss = float(np.mean(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))))
    with np.errstate(over="ignore"):  # exp(-z) = inf gives sigma's exact limit 0
        sigma = 1.0 / (1.0 + np.exp(-z))
    grads = ((sigma - t) / z.size).reshape(logits.shape)
    return loss, grads


def _transport_term(params: ModelParams, features_s, features_t, config: TrainConfig) -> tuple:
    """Entropic OT between the two feature batches."""
    if len(features_t) != len(features_s):
        raise ContractViolationError(
            f"method 'ot' pairs equal-size batches; got {len(features_s)} source and {len(features_t)} target"
        )
    ot_loss, grad_s, grad_t = ot_value_and_point_grads(features_s, features_t, config.sinkhorn, config.metric)
    return ot_loss, grad_s, grad_t, None


def _adversary_term(params: ModelParams, features_s, features_t, config: TrainConfig) -> tuple:
    """Domain-head BCE on telling source (0) from target (1) features; the
    featurizer receives the head's input gradient reversed."""
    if params.domain_head is None:
        raise ContractViolationError("method 'dann' needs a model with a domain head")
    n = len(features_s)
    stacked = np.vstack([features_s, features_t])
    domain_targets = np.concatenate([np.zeros(n), np.ones(len(features_t))])
    head_out, head_inputs = _head_forward(params.domain_head, stacked)
    domain_loss, dhead = binary_cross_entropy_with_logits(head_out, domain_targets)
    head_grads, dstacked = _head_backward(params.domain_head, head_inputs, dhead)
    return domain_loss, -dstacked[:n], -dstacked[n:], head_grads


# An alignment term maps (params, features_s, features_t, config) to
# (loss, dfeat_s, dfeat_t, head_grads); the featurizer receives alpha * dfeat.
_ALIGNMENT_TERMS = {"ot": _transport_term, "dann": _adversary_term}


def composite_loss_and_grads(params: ModelParams, source_batch: tuple, target_batch, config: TrainConfig) -> tuple:
    """Losses and exact parameter gradients of CE + alpha * the method's
    alignment term, without taking a step. Returns (ce_loss, aux_loss, grads).

    erm has no term. The transport term is skipped at alpha == 0, and the
    adversary then trains only its head, so every method at alpha 0 moves
    featurizer and classifier exactly as erm does. The batches must be finite.
    """
    xs, ys = source_batch
    if len(xs) == 0:
        raise ContractViolationError("empty source batch")
    term = None if config.method == "ot" and config.alpha == 0 else _ALIGNMENT_TERMS.get(config.method)
    if term is not None and (target_batch is None or len(target_batch) == 0):
        raise ContractViolationError("empty target batch")
    features_s, trace_s = forward_features(params, xs)
    logits = forward_classifier(params, features_s)
    ce_loss, dlogits = cross_entropy(logits, ys)
    if term is None:
        return ce_loss, 0.0, backward(params, trace_s, None, dlogits)
    features_t, trace_t = forward_features(params, target_batch)
    aux_loss, dfeat_s, dfeat_t, head_grads = term(params, features_s, features_t, config)
    if config.alpha > 0:
        grads = backward(params, trace_s, config.alpha * dfeat_s, dlogits)
        grads.flat += backward(params, trace_t, config.alpha * dfeat_t, None).flat
    else:
        grads = backward(params, trace_s, None, dlogits)
    if head_grads is not None:
        for layer, head_layer in zip(grads.domain_head, head_grads):
            layer.weight[...] = head_layer.weight
            layer.bias[...] = head_layer.bias
    return ce_loss, aux_loss, grads


def composite_loss_step(params: ModelParams, velocity: ModelParams, source_batch: tuple, target_batch,
                        config: TrainConfig) -> tuple:
    """One SGD step on CE + alpha * the alignment term of config.method;
    velocity, the momentum, is updated in place. Returns (params, ce_loss, aux_loss).

    Sinkhorn failure aborts the step by raising, so a sweep never silently
    drops its alignment term.
    """
    ce_loss, aux_loss, grads = composite_loss_and_grads(params, source_batch, target_batch, config)
    return sgd_step(params, grads, velocity, config.optimizer), ce_loss, aux_loss


def dann_step(params: ModelParams, velocity: ModelParams, source_batch: tuple, target_batch: np.ndarray,
              config: TrainConfig) -> tuple:
    """composite_loss_step with the adversary term whatever config.method says."""
    return composite_loss_step(params, velocity, source_batch, target_batch, replace(config, method="dann"))


# Symbol spellings of OpenBLAS's thread controls, most specific first: the
# numpy wheels ship a renamed 64-bit-integer build (scipy_openblas64_).
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}",
)
# (argtypes, restype) of each control: the getter returns a C int and the
# setter takes one, also in the 64-bit-integer build.
_OPENBLAS_SIGNATURES = {"get_num_threads": ([], ctypes.c_int), "set_num_threads": ([ctypes.c_int], None)}


@functools.cache
def _openblas_function(name: str):
    """OpenBLAS's `name` ("set_num_threads" or "get_num_threads") from the
    library numpy loaded, or None when numpy uses another BLAS."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            # RTLD_NOLOAD finds a library already mapped and never loads one.
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for symbol in _OPENBLAS_SYMBOLS:
            function = getattr(lib, symbol.format(name), None)
            if function is not None:
                function.argtypes, function.restype = _OPENBLAS_SIGNATURES[name]
                return function
    return None


@contextlib.contextmanager
def _numeric_section():
    """Run the block on one OpenBLAS thread, since a second one only spins at
    otda's sizes, with numpy raising on overflow, invalid and divide. A
    FloatingPointError leaves as a NumericError naming numpy's operation, with
    the attributes set on it on the way. The caller's thread count and error
    state come back on every exit. Without OpenBLAS, threads are left alone."""
    get_threads = _openblas_function("get_num_threads") or (lambda: None)
    set_threads = _openblas_function("set_num_threads") or (lambda count: None)
    before = get_threads()
    set_threads(1)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            yield
    except FloatingPointError as exc:
        error = NumericError(str(exc))
        error.__dict__.update(exc.__dict__)
        raise error from exc
    finally:
        set_threads(before)


@_numeric_section()
def train_with_model(dataset: DomainDataset, config: TrainConfig) -> tuple:
    """Run the configured method and return (report, params at the selected
    epoch). The selected epoch is the first with the best validation accuracy.
    A numeric fault is given its epoch and, in a step, the step and batch shape.
    """
    x_train, y_train = dataset.split_arrays("train")
    x_val, y_val = dataset.split_arrays("val")
    x_test, y_test = dataset.split_arrays("test")

    params = init_model(
        input_dim=dataset.dim,
        domain_head_widths=(16,) if config.method == "dann" else None,
        seed=config.seed,
    )
    velocity = ModelParams(params.layout, np.zeros(params.layout.size))  # the SGD momentum
    rng = np.random.default_rng([int(config.seed), 2])
    n_train, n_val = len(x_train), len(x_val)

    records = []
    # (epoch, params, {"val": ..., "test": ...}) of the first epoch with the
    # best val accuracy; sgd_step never mutates its input, so params stay put
    best = None
    for epoch in range(config.epochs):
        perm = rng.permutation(n_train)
        target_perm = rng.permutation(n_val)
        ce_sum = aux_sum = 0.0
        steps = 0
        try:
            for start in range(0, n_train, config.batch_size):
                idx = perm[start:start + config.batch_size]
                take = np.arange(start, start + len(idx)) % n_val
                at = (steps, (len(idx), len(take)))
                params, ce_loss, aux_loss = composite_loss_step(
                    params, velocity, (x_train[idx], y_train[idx]), x_val[target_perm[take]], config
                )
                ce_sum += ce_loss
                aux_sum += aux_loss
                steps += 1
            at = (None, None)  # the epoch-end evaluation has no step
            val_metrics = evaluate_split(params, x_val, y_val)
            test_metrics = evaluate_split(params, x_test, y_test)
        except (NumericError, FloatingPointError) as exc:
            exc.epoch, (exc.step, exc.batch_shape) = epoch, at
            raise
        records.append(EpochRecord(epoch, ce_sum / steps, aux_sum / steps,
                                   val_metrics["accuracy"], test_metrics["accuracy"]))
        if best is None or val_metrics["accuracy"] > best[2]["val"]["accuracy"]:
            best = (epoch, params, {"val": val_metrics, "test": test_metrics})

    selected, best_params, final = best
    final["train"] = evaluate_split(best_params, x_train, y_train)
    report = RunReport(
        config=config.snapshot(),
        epochs=records,
        selected_epoch=selected,
        final=final,
        seed=config.seed,
    )
    return report, best_params


def train(dataset: DomainDataset, config: TrainConfig) -> RunReport:
    return train_with_model(dataset, config)[0]


_worker_dataset = None


def _start_worker(dataset: DomainDataset) -> None:
    """Pool initializer: keep the dataset for every cell of this worker and
    run BLAS on one thread, since the workers themselves are the parallelism.
    A forked worker inherits OpenBLAS's thread count, so only the library's
    setter (not OPENBLAS_NUM_THREADS) can change it."""
    global _worker_dataset
    _worker_dataset = dataset
    set_threads = _openblas_function("set_num_threads")
    if set_threads is not None:
        set_threads(1)


def _worker_pool(dataset: DomainDataset, workers: int):
    # Forked workers inherit the dataset through initargs, so a task pickles
    # only its config. The pool machinery loads here, so runs that stay in
    # this process never import it.
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(dataset,))


def _sweep_cell(config: TrainConfig, keep_params: bool = False, dataset: DomainDataset | None = None):
    """One training run; pool workers train on their initializer's dataset."""
    report, params = train_with_model(_worker_dataset if dataset is None else dataset, config)
    return (report, params) if keep_params else report


def _worker_count(n_cells: int) -> int:
    raw = os.environ.get("OTDA_THREADS", "1")
    try:
        workers = max(1, int(raw))
    except ValueError:
        raise ConfigurationError(f"OTDA_THREADS must be an integer, got {raw!r}")
    return min(workers, n_cells)


def _train_cells(dataset: DomainDataset, configs: list, keep_params: bool = False) -> list:
    """Train every config in order; returns RunReports, or (report, params)
    pairs when keep_params is set. The runs go to OTDA_THREADS worker
    processes when that is above 1 and stay in this process otherwise."""
    workers = _worker_count(len(configs))
    if workers <= 1:
        return [_sweep_cell(config, keep_params, dataset) for config in configs]
    with _worker_pool(dataset, workers) as pool:
        return list(pool.map(_sweep_cell, configs, repeat(keep_params)))


@dataclass
class SweepResult:
    """An alpha sweep's reports and the tables derived from them: val_acc and
    test_acc (n_alphas, n_seeds), their means and stds over the seeds, and
    the selected alpha, the first with the best mean validation accuracy."""

    alphas: list
    seeds: list
    reports: list  # list (per alpha) of lists (per seed) of RunReport

    def __post_init__(self):
        self.val_acc, self.test_acc = (
            np.array([[r.final[split]["accuracy"] for r in row] for row in self.reports]) for split in ("val", "test")
        )
        self.val_means, self.val_stds = mean_std(self.val_acc)
        self.test_means, self.test_stds = mean_std(self.test_acc)
        self.selected_alpha = self.alphas[int(np.argmax(self.val_means))]

    def to_json_dict(self) -> dict:
        return {
            "alphas": [float(a) for a in self.alphas],
            "seeds": [int(s) for s in self.seeds],
            "val_accuracy": self.val_acc.tolist(),
            "test_accuracy": self.test_acc.tolist(),
            "val_mean": self.val_means.tolist(),
            "val_std": self.val_stds.tolist(),
            "test_mean": self.test_means.tolist(),
            "test_std": self.test_stds.tolist(),
            "selected_alpha": float(self.selected_alpha),
        }


def _seed_list(seeds) -> list:
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigurationError("need at least one seed")
    return seeds


def alpha_sweep(dataset: DomainDataset, base_config: TrainConfig, alphas, seeds) -> SweepResult:
    """Train per (alpha, seed) cell and aggregate mean/std accuracies.

    The selected alpha maximizes mean validation accuracy (first maximum in
    the given order). Two alphas that are equal or print as the same run id
    label are refused before any cell trains. Cells run in parallel worker
    processes when the OTDA_THREADS environment variable is above 1.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ConfigurationError("need at least one alpha value")
    seen = {}
    for alpha in alphas:
        label = f"{alpha:g}"
        if label in seen:
            raise ConfigurationError(f"alphas {seen[label]!r} and {alpha!r} share the run id label {label}")
        if alpha in seen.values():  # equal with another label: only 0.0 and -0.0
            raise ConfigurationError(f"alphas {-alpha!r} and {alpha!r} are equal")
        seen[label] = alpha
    seeds = _seed_list(seeds)

    if base_config.method == "erm":
        raise ConfigurationError("alpha sweep needs a method with an alignment term (ot or dann)")
    configs = [replace(base_config, alpha=alpha, seed=seed) for alpha in alphas for seed in seeds]
    flat = _train_cells(dataset, configs)
    return SweepResult(alphas, seeds, [flat[i * len(seeds):(i + 1) * len(seeds)] for i in range(len(alphas))])


def run_seeds(dataset: DomainDataset, config: TrainConfig, seeds, keep_params: bool = False) -> list:
    """Train one configuration across several seeds; returns a list of
    RunReports, or (report, params) pairs when keep_params is set. Seeds run
    in parallel worker processes when OTDA_THREADS is above 1."""
    return _train_cells(dataset, [replace(config, seed=seed) for seed in _seed_list(seeds)], keep_params)


def save_report(report: RunReport, path) -> Path:
    return write_json(path, report.to_json_dict())


def load_report(path) -> RunReport:
    """The RunReport stored at path, its fields checked against the table
    (_REPORT_FIELDS, and _EPOCH_FIELDS for each epoch record). Raises
    ParseError naming the file."""
    payload = read_json(path)
    try:
        _check_fields(_REPORT_FIELDS, lambda name: functools.reduce(dict.__getitem__, name.split("."), payload))
        return RunReport(**{**payload, "epochs": [EpochRecord(**record) for record in payload["epochs"]]})
    except (TypeError, ContractViolationError) as exc:
        raise ParseError(f"{path}: not a run report: {exc}") from exc


def write_epoch_csv(report: RunReport, path) -> Path:
    """One row per EpochRecord, its fields in declaration order."""
    rows = [[f.name for f in fields(EpochRecord)]]
    rows += [[r.epoch, *(f"{value:.9g}" for value in astuple(r)[1:])] for r in report.epochs]
    return write_csv(path, rows)
