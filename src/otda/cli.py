"""Command-line entry point covering the full experiment lifecycle:
benchmark generation, training (erm/ot/dann), the alpha sweep, the post-hoc
alignment baseline, the validation/test institution swap, report emission,
and a self-test of the numeric oracles.

Exit codes: 0 success, 1 contract or configuration error, 2 numeric failure
(for example Sinkhorn non-convergence). Errors go to stderr as one JSON
object. All outputs are byte-stable for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data_gen, eval_report, posthoc_align
from .da_train import (
    METHODS,
    RunReport,
    TrainConfig,
    _numeric_section,
    _seed_list,
    _train_cells,
    alpha_sweep,
    load_report,
    save_report,
    train_with_model,
    write_epoch_csv,
)
from .errors import ConfigurationError, NumericError, OtdaError
from .eval_report import line_plot_svg, pca_project, roc_auc, subcluster_breakdown, write_breakdown_table, write_json
from .nn_core import OptimizerConfig, forward_classifier, forward_features, save_checkpoint
from .ot_core import EUCLIDEAN, SQUARED_EUCLIDEAN, SinkhornConfig

_METRIC_FLAGS = {"euclidean": EUCLIDEAN, "squared": SQUARED_EUCLIDEAN}


def _add_train_flags(p: argparse.ArgumentParser, method: bool = True, alpha: bool = True, swap: bool = True) -> None:
    """The training flags, less those the command fixes or does not read.
    Their defaults are TrainConfig's, but for --method and --metric."""
    defaults = TrainConfig()
    if method:
        p.add_argument("--method", choices=METHODS, default="ot")
    if alpha:
        p.add_argument("--alpha", type=float, default=defaults.alpha)
    p.add_argument("--epsilon", type=float, default=None,
                   help="absolute Sinkhorn regularization; default is cost-relative")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--lr", type=float, default=defaults.optimizer.learning_rate)
    p.add_argument("--momentum", type=float, default=defaults.optimizer.momentum)
    p.add_argument("--weight-decay", type=float, default=defaults.optimizer.weight_decay)
    p.add_argument("--metric", choices=sorted(_METRIC_FLAGS), default="euclidean")
    if swap:
        p.add_argument("--swap-val-test", action="store_true")
    p.add_argument("--config", type=str, default=None, help="JSON file whose keys override flags")
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--out", type=str, required=True)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigurationError, so they end in the JSON error
    object like every other bad input; subparsers inherit this class."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="otda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic benchmark")
    defaults = data_gen.GeneratorConfig()
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--samples-per-domain", type=int, default=defaults.samples_per_domain)
    p.add_argument("--config", type=str, default=None)

    p = sub.add_parser("train", help="train one configuration")
    _add_train_flags(p)

    p = sub.add_parser("dann", help="train the adversarial baseline (train --method dann)")
    _add_train_flags(p, method=False)
    p.set_defaults(method="dann")

    # without abbreviations, --alpha is an unknown flag here and not --alphas
    p = sub.add_parser("sweep", help="alpha sweep across seeds", allow_abbrev=False)
    _add_train_flags(p, alpha=False)
    p.add_argument("--alphas", type=str, default="1e-5,1e-4,1e-3,1e-2,1e-1,1")
    p.add_argument("--seeds", type=int, default=4, help="number of consecutive seeds starting at --seed")

    p = sub.add_parser("posthoc", help="train erm, then align frozen features")
    _add_train_flags(p, method=False)
    p.set_defaults(method="erm")

    p = sub.add_parser("swap-eval", help="swap val/test institutions and compare methods")
    _add_train_flags(p, method=False, swap=False)
    p.add_argument("--seeds", type=int, default=4)

    p = sub.add_parser("report", help="re-emit tables and plots from stored run reports")
    p.add_argument("--data", type=str, required=True, help="directory searched for report_*.json")
    p.add_argument("--out", type=str, required=True)

    sub.add_parser("selftest", help="run the numeric oracle suites")
    return parser


def _config_value(action: argparse.Action, key: str, value):
    """A config-file value checked as its flag would check it on the command
    line: the flag's converter runs on the value's text, so {"epochs": 1.5}
    fails the way --epochs 1.5 does."""
    if action.nargs == 0:  # a switch such as --swap-val-test
        if not isinstance(value, bool):
            raise ConfigurationError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if value is None and not action.required and action.default is None:
        return None  # an optional flag such as --epsilon, left unset
    if value is None:
        raise ConfigurationError(f"config key {key!r} cannot be null")
    try:
        converted = action.type(str(value)) if action.type else str(value)
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigurationError(f"config key {key!r}: invalid value {value!r}: {exc}") from exc
    if action.choices is not None and converted not in action.choices:
        raise ConfigurationError(f"config key {key!r}: {converted!r} is not one of {sorted(action.choices)}")
    return converted


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Values in the JSON config file take precedence over flags."""
    if getattr(args, "config", None) is None:
        return
    try:
        overrides = eval_report.read_json(args.config)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {args.config}: {exc}") from exc
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest: a for a in commands.choices[args.command]._actions if hasattr(args, a.dest)}
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr not in flags:
            raise ConfigurationError(f"{args.config}: unknown config key {key!r}")
        setattr(args, attr, _config_value(flags[attr], key, value))


def _train_config(args: argparse.Namespace) -> TrainConfig:
    base = TrainConfig()
    sk = base.sinkhorn
    if args.epsilon is not None:
        sk = replace(sk, epsilon=float(args.epsilon), relative_epsilon=False)
    return TrainConfig(
        method=getattr(args, "method", base.method),
        alpha=getattr(args, "alpha", base.alpha),
        epochs=args.epochs,
        batch_size=args.batch_size,
        optimizer=OptimizerConfig(args.lr, args.momentum, args.weight_decay),
        sinkhorn=sk,
        seed=args.seed,
        metric=_METRIC_FLAGS[args.metric],
    )


def _load_dataset(path_str: str, swap: bool = False) -> data_gen.DomainDataset:
    path = Path(path_str)
    if path.is_dir():
        path = path / "dataset.csv"
    dataset = data_gen.load(path)
    return data_gen.swap_val_test(dataset) if swap else dataset


def _write_config(args: argparse.Namespace, resolved: dict | None = None) -> Path:
    """Write <out>/config.json: the command's flags and, if given, the
    snapshot of the TrainConfig they resolve to (swap-eval: one per method).
    Returns the output folder."""
    extra = {} if resolved is None else {"resolved": resolved}
    return write_json(Path(args.out) / "config.json", {**vars(args), **extra}).parent


def _emit_run_outputs(args: argparse.Namespace, config: TrainConfig, report: RunReport, params, dataset) -> None:
    """Write a train run's files. Both splits are projected first, so a split
    that PCA refuses (one row) ends the command before any file is written."""
    splits = {}
    for split in ("val", "test"):
        x, y = dataset.split_arrays(split)
        features, _ = forward_features(params, x, keep_trace=False)
        splits[split] = (y, forward_classifier(params, features), pca_project(features))
    out = _write_config(args, config.snapshot())
    run_id = report.run_id()
    save_report(report, out / f"report_{run_id}.json")
    write_epoch_csv(report, out / "tables" / f"epochs_{run_id}.csv")
    save_checkpoint(params, out / f"checkpoint_{run_id}.json")
    metrics = {"run_id": run_id, "selected_epoch": report.selected_epoch, "final": report.final}
    write_json(out / "metrics.json", metrics)
    line_plot_svg(
        eval_report.curve_series(report.epochs),
        f"training curves ({run_id})",
        "epoch",
        "value",
        out / "plots" / f"curves_{run_id}.svg",
    )
    curves = {}
    for split, (y, logits, projection) in splits.items():
        if report.final[split]["auc"] is not None:
            curves[split] = roc_auc(eval_report.softmax_scores(logits), y)
        idx = dataset.split_indices(split)
        eval_report.write_embedding_csv(
            projection, y, dataset.domain_ids[idx],
            out / "embeddings" / f"features_{split}_{run_id}.csv",
        )
    eval_report.write_roc_plot(curves, out / "plots" / f"roc_{run_id}.svg")
    if dataset.subclusters is not None:
        # logits, y and idx still hold the test split, the loop's last
        cells = subcluster_breakdown(
            np.argmax(logits, axis=1), y, dataset.subclusters[idx], dataset.domain_ids[idx],
            masked_tag=data_gen.masked_tag(),
        )
        write_breakdown_table(cells, out / "tables" / f"subcluster_{run_id}.csv")


def _cmd_gen_data(args) -> int:
    out = Path(args.out)
    config = data_gen.GeneratorConfig(samples_per_domain=args.samples_per_domain, seed=args.seed)
    dataset = data_gen.generate(config)
    data_gen.save(dataset, out / "dataset.csv")  # creates out
    _write_config(args)
    print(f"wrote {out / 'dataset.csv'} ({dataset.features.shape[0]} samples)")
    return 0


def _cmd_train(args) -> int:
    dataset = _load_dataset(args.data, swap=args.swap_val_test)
    config = _train_config(args)
    report, params = train_with_model(dataset, config)
    _emit_run_outputs(args, config, report, params, dataset)
    final = report.final
    print(
        f"{report.run_id()}: selected epoch {report.selected_epoch} "
        f"val={final['val']['accuracy']:.3f} test={final['test']['accuracy']:.3f}"
    )
    return 0


def _cmd_sweep(args) -> int:
    dataset = _load_dataset(args.data, swap=args.swap_val_test)
    try:
        alphas = [float(tok) for tok in args.alphas.split(",") if tok]
    except ValueError as exc:
        raise ConfigurationError(f"bad --alphas list {args.alphas!r}: {exc}") from exc
    seeds = [args.seed + i for i in range(args.seeds)]
    config = _train_config(args)
    sweep = alpha_sweep(dataset, config, alphas, seeds)
    out = _write_config(args, config.snapshot())
    write_json(out / "sweep.json", sweep.to_json_dict())
    eval_report.write_alpha_table(
        sweep.alphas,
        list(zip(sweep.val_means, sweep.val_stds)),
        list(zip(sweep.test_means, sweep.test_stds)),
        out / "tables" / "alpha_sweep.csv",
    )
    for row in sweep.reports:
        for report in row:
            save_report(report, out / f"report_{report.run_id()}.json")
    print(f"selected alpha {sweep.selected_alpha:g} (validation-accuracy argmax)")
    return 0


def _cmd_posthoc(args) -> int:
    dataset = _load_dataset(args.data, swap=args.swap_val_test)
    config = _train_config(args)
    report, params = train_with_model(dataset, config)
    epsilon = args.epsilon if args.epsilon is not None else posthoc_align.DEFAULT_EPSILON
    results = posthoc_align.evaluate_posthoc(
        dataset, params, epsilon=epsilon, metric=_METRIC_FLAGS[args.metric]
    )
    out = _write_config(args, config.snapshot())
    summary = {
        split: {"pre_accuracy": r.pre_accuracy, "post_accuracy": r.post_accuracy}
        for split, r in results.items()
    }
    write_json(out / "posthoc.json", summary)
    rows = [["split", "pre_accuracy", "post_accuracy"]]
    for split in ("val", "test"):
        rows.append([split, f"{summary[split]['pre_accuracy']:.6f}", f"{summary[split]['post_accuracy']:.6f}"])
    eval_report.write_csv(out / "tables" / "posthoc.csv", rows)
    save_report(report, out / f"report_{report.run_id()}.json")
    print(
        "posthoc test accuracy: "
        f"{summary['test']['pre_accuracy']:.3f} -> {summary['test']['post_accuracy']:.3f} (epsilon {epsilon:g})"
    )
    return 0


def _cmd_swap_eval(args) -> int:
    dataset = _load_dataset(args.data, swap=True)
    configs = {m: replace(_train_config(args), method=m) for m in METHODS}
    seeds = _seed_list(range(args.seed, args.seed + args.seeds))
    # one pool trains every (method, seed) cell; the reports come back in order
    reports = _train_cells(dataset, [replace(configs[m], seed=s) for m in METHODS for s in seeds])
    stats = {m: eval_report.method_stats(reports[i * len(seeds):(i + 1) * len(seeds)]) for i, m in enumerate(METHODS)}
    out = _write_config(args, {m: config.snapshot() for m, config in configs.items()})
    eval_report.write_method_table(stats, out / "tables" / "swap_comparison.csv")
    for report in reports:
        save_report(report, out / f"report_{report.run_id()}.json")
    write_json(out / "swap.json", stats)
    print(
        "swapped-split test accuracy: "
        + ", ".join(f"{m}={stats[m]['test_mean']:.3f}" for m in METHODS)
    )
    return 0


def _cmd_report(args) -> int:
    root = Path(args.data)
    paths = sorted(root.rglob("report_*.json"))
    if not paths:
        raise ConfigurationError(f"no report_*.json files under {root}")
    reports = [load_report(p) for p in paths]
    written = eval_report.emit_tables(reports, args.out)
    print(f"emitted {len(written)} files from {len(reports)} reports to {args.out}")
    return 0


def _selftest_bruteforce(rng) -> None:
    from .ot_core import DiscreteDistribution, cost_matrix, exact_ot_bruteforce, sinkhorn

    for _ in range(20):
        n = int(rng.integers(4, 7))
        src = DiscreteDistribution.uniform(rng.standard_normal((n, 8)))
        tgt = DiscreteDistribution.uniform(rng.standard_normal((n, 8)))
        cost = cost_matrix(src, tgt)
        _, best = exact_ot_bruteforce(cost, src, tgt)
        plan = sinkhorn(cost, src, tgt, SinkhornConfig(
            epsilon=1e-3, relative_epsilon=False, max_iterations=100000, marginal_tolerance=1e-6))
        assert plan.converged, "sinkhorn failed to converge"
        assert plan.value_cost >= best - 1e-12, f"entropic value {plan.value_cost} below optimum {best}"
        assert plan.value_cost <= best * 1.01, "entropic value more than 1% above optimum"


def _selftest_gradients(rng) -> None:
    from .ot_core import ot_value_and_point_grads

    config = SinkhornConfig(epsilon=0.5, relative_epsilon=False, max_iterations=200000,
                            marginal_tolerance=1e-10)
    h = 1e-5
    for metric in (EUCLIDEAN, SQUARED_EUCLIDEAN):
        for _ in range(5):
            X = rng.standard_normal((4, 3))
            Y = rng.standard_normal((4, 3))
            _, gx, _ = ot_value_and_point_grads(X, Y, config, metric)
            i, j = int(rng.integers(0, 4)), int(rng.integers(0, 3))
            orig = X[i, j]
            X[i, j] = orig + h
            up, _, _ = ot_value_and_point_grads(X, Y, config, metric)
            X[i, j] = orig - h
            down, _, _ = ot_value_and_point_grads(X, Y, config, metric)
            X[i, j] = orig
            fd = (up - down) / (2 * h)
            rel = abs(gx[i, j] - fd) / max(abs(gx[i, j]), abs(fd), 1e-8)
            assert rel <= 1e-4, f"point-gradient mismatch {rel:.2e} ({metric})"


def _selftest_auc(rng) -> None:
    for _ in range(20):
        n = int(rng.integers(6, 50))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 2)
        curve = roc_auc(scores, labels)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        oracle = wins / (len(pos) * len(neg))
        assert abs(curve.auc - oracle) <= 1e-12, f"auc {curve.auc} vs oracle {oracle}"
        logits = rng.standard_normal((n, 3))
        acc = eval_report.accuracy(logits, rng.integers(0, 3, n))
        assert 0.0 <= acc <= 1.0


def _cmd_selftest(_args) -> int:
    rng = np.random.default_rng(2024)
    suites = [
        ("brute-force transport oracle", _selftest_bruteforce),
        ("finite-difference gradients", _selftest_gradients),
        ("AUC pairwise oracle", _selftest_auc),
    ]
    failures = 0
    for name, suite in suites:
        try:
            suite(rng)
            print(f"selftest {name}: ok")
        except Exception as exc:
            failures += 1
            print(f"selftest {name}: FAILED ({type(exc).__name__}: {exc})")
    return 1 if failures else 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "dann": _cmd_train,
    "sweep": _cmd_sweep,
    "posthoc": _cmd_posthoc,
    "swap-eval": _cmd_swap_eval,
    "report": _cmd_report,
    "selftest": _cmd_selftest,
}


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("iterations_used", "row_residual", "col_residual", "epoch", "step", "batch_shape"):
        if getattr(exc, attr, None) is not None:
            payload[attr] = getattr(exc, attr)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


# The whole command, emission and reports included, runs in one numeric
# section, as training does; the caller's state comes back on every exit.
@_numeric_section()
def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args, parser)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help prints its text and exits 0
        return exc.code
    except NumericError as exc:
        _emit_error(exc)
        return 2
    except (OtdaError, OSError, MemoryError) as exc:
        _emit_error(exc)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
