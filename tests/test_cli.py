"""CLI surface: subcommands, exit codes, config snapshots, flag handling,
and byte-identical reruns."""

import argparse
import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cap_training_solver_at_one_iteration, record_blas_threads
from otda import data_gen, posthoc_align
from otda.cli import _apply_config_file, build_parser, run
from otda.errors import ConfigurationError
from otda.da_train import load_report
from otda.data_gen import DomainDataset
from otda.eval_report import emit_tables


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data"
    code = run(["gen-data", "--seed", "3", "--out", str(path), "--samples-per-domain", "150"])
    assert code == 0
    return path


def small_train_args(data_dir, out, **extra):
    args = [
        "train", "--method", "ot", "--alpha", "0.05", "--seed", "0", "--epochs", "2",
        "--data", str(data_dir), "--out", str(out),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestGenData:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["gen-data", "--seed", "7", "--out", str(a), "--samples-per-domain", "150"]) == 0
        assert run(["gen-data", "--seed", "7", "--out", str(b), "--samples-per-domain", "150"]) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "dataset.meta.json").read_bytes() == (b / "dataset.meta.json").read_bytes()

    def test_writes_config_snapshot(self, data_dir):
        snapshot = json.loads((data_dir / "config.json").read_text())
        assert snapshot["command"] == "gen-data"
        assert snapshot["seed"] == 3


class TestTrain:
    def test_run_report_exists_with_selected_epoch_invariant(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert run(small_train_args(data_dir, out)) == 0
        report = json.loads((out / "report_ot_a0.05_s0.json").read_text())
        best = max(e["val_accuracy"] for e in report["epochs"])
        assert report["epochs"][report["selected_epoch"]]["val_accuracy"] == best
        assert (out / "metrics.json").exists()
        assert (out / "config.json").exists()
        assert (out / "checkpoint_ot_a0.05_s0.json").exists()
        assert list((out / "plots").glob("*.svg"))
        assert list((out / "embeddings").glob("*.csv"))

    def test_byte_identical_reruns(self, data_dir, tmp_path):
        out = tmp_path / "a"
        assert run(small_train_args(data_dir, out)) == 0
        first = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert run(small_train_args(data_dir, out)) == 0
        second = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], rel

    def test_one_class_test_split_writes_every_file(self, data_dir, tmp_path):
        # training records a null test AUC; emission leaves the test split
        # off the ROC plot instead of failing halfway through the run files
        ds = data_gen.load(data_dir / "dataset.csv")
        keep = ~((ds.splits == "test") & (ds.labels == 1))
        one_class = DomainDataset(
            ds.features[keep], ds.labels[keep], ds.domain_ids[keep], ds.splits[keep], ds.subclusters[keep], ds.metadata
        )
        data_gen.save(one_class, tmp_path / "data" / "dataset.csv")
        assert run(small_train_args(tmp_path / "data", tmp_path / "one")) == 0
        assert run(small_train_args(data_dir, tmp_path / "two")) == 0
        one, two = ([p.relative_to(out) for p in sorted(out.rglob("*")) if p.is_file()] for out in (tmp_path / "one", tmp_path / "two"))
        assert one == two
        assert json.loads((tmp_path / "one" / "metrics.json").read_text())["final"]["test"]["auc"] is None

    def test_dann_subcommand(self, data_dir, tmp_path):
        out = tmp_path / "dann"
        assert run(["dann", "--data", str(data_dir), "--out", str(out), "--epochs", "1", "--alpha", "0.05"]) == 0
        assert (out / "report_dann_a0.05_s0.json").exists()

    def test_config_file_overrides_flags(self, data_dir, tmp_path):
        override = tmp_path / "override.json"
        override.write_text(json.dumps({"alpha": 0.2}))
        out = tmp_path / "cfg"
        assert run(small_train_args(data_dir, out, config=str(override))) == 0
        assert (out / "report_ot_a0.2_s0.json").exists()

    def test_unknown_config_key_is_error(self, data_dir, tmp_path):
        override = tmp_path / "bad.json"
        override.write_text(json.dumps({"bogus_key": 1}))
        assert run(small_train_args(data_dir, tmp_path / "x", config=str(override))) == 1


class TestExitCodes:
    def test_unknown_flag_is_config_error(self, data_dir, tmp_path, capsys):
        code = run(small_train_args(data_dir, tmp_path / "x") + ["--bogus"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize(
        "flags", [["--alpha", "-inf"], ["--bogus"], ["--method", "sgd"], ["--log-domain", "true"]]
    )
    def test_usage_error_is_json_config_error(self, data_dir, tmp_path, capsys, flags):
        code = run(small_train_args(data_dir, tmp_path / "x") + flags)
        err = capsys.readouterr().err
        assert code == 1
        assert json.loads(err)["error"] == "ConfigurationError"

    @pytest.mark.parametrize("sidecar", ["[]", '{"subclusters": 5}', '{"metadata": 5}'])
    def test_malformed_sidecar_is_parse_error(self, data_dir, tmp_path, capsys, sidecar):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "dataset.meta.json").write_text(sidecar)
        code = run(["train", "--method", "erm", "--epochs", "1", "--data", str(data), "--out", str(tmp_path / "o")])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert payload["error"] == "ParseError"

    def test_help_exits_zero(self, capsys):
        assert run(["train", "--help"]) == 0
        assert "--alpha" in capsys.readouterr().out

    def test_missing_data_is_config_error(self, tmp_path, capsys):
        code = run(["train", "--method", "erm", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        payload = json.loads(err.strip().splitlines()[-1])
        assert "error" in payload and "message" in payload

    def test_numeric_failure_is_exit_two(self, data_dir, tmp_path, capsys, monkeypatch):
        cap_training_solver_at_one_iteration(monkeypatch)
        code = run(small_train_args(data_dir, tmp_path / "n", epsilon="1e-12", batch_size=32))
        err = capsys.readouterr().err
        assert code == 2
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "SinkhornConvergenceError"
        assert payload["iterations_used"] == 1
        assert payload["row_residual"] > 0
        assert (payload["epoch"], payload["step"], payload["batch_shape"]) == (0, 0, [32, 32])

    def test_worker_failure_is_exit_two(self, data_dir, tmp_path, capsys, monkeypatch):
        # the error crosses the process pool with its fields
        cap_training_solver_at_one_iteration(monkeypatch)
        monkeypatch.setenv("OTDA_THREADS", "2")
        code = run(["sweep", "--alphas", "0.1,1", "--seeds", "1", "--epochs", "1",
                    "--data", str(data_dir), "--out", str(tmp_path / "s")])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 2
        assert payload["error"] == "SinkhornConvergenceError"
        assert (payload["epoch"], payload["step"], payload["batch_shape"]) == (0, 0, [128, 128])

    def test_tiny_epsilon_trains(self, data_dir, tmp_path):
        assert run(small_train_args(data_dir, tmp_path / "t", epsilon="1e-12", batch_size=32)) == 0

    @pytest.mark.parametrize("override", [{"alpha": "abc"}, {"epochs": 1.5}, {"log_domain": True}])
    def test_config_file_value_checked_like_its_flag(self, data_dir, tmp_path, capsys, override):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(override))
        out = tmp_path / "x"
        code = run(small_train_args(data_dir, out, config=str(path)))
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert payload["error"] == "ConfigurationError"
        assert not list(out.rglob("report_*.json"))

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_rejected(self, data_dir, tmp_path, capsys, alpha):
        out = tmp_path / "x"
        args = small_train_args(data_dir, out)
        args[args.index("--alpha") + 1] = alpha
        code = run(args)
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert payload["error"] == "ConfigurationError"
        assert "alpha" in payload["message"]
        assert not list(tmp_path.rglob("report_*.json"))

    @pytest.mark.parametrize("command", ["sweep", "swap-eval"])
    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_seeds_is_config_error(self, data_dir, tmp_path, capsys, command, seeds):
        out = tmp_path / "s"
        code = run([command, "--seeds", seeds, "--epochs", "1", "--data", str(data_dir), "--out", str(out)])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert payload["error"] == "ConfigurationError"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--seed", "-1"],
        *([command, "--seed", "-1", "--data", "DATA"] for command in ("train", "dann", "posthoc", "sweep", "swap-eval")),
        # flags a command ignored, on the command line and in a config file
        ["posthoc", "--method", "ot", "--data", "DATA"],
        ["dann", "--method", "erm", "--data", "DATA"],
        ["sweep", "--alpha", "7", "--data", "DATA"],
        ["swap-eval", "--method", "dann", "--swap-val-test", "--data", "DATA"],
        ["posthoc", "--config", {"method": "ot"}, "--data", "DATA"],
        ["dann", "--config", {"method": "erm"}, "--data", "DATA"],
        ["sweep", "--config", {"alpha": 7}, "--data", "DATA"],
        ["swap-eval", "--config", {"swap_val_test": True}, "--data", "DATA"],
    ])
    def test_rejected_command_writes_nothing(self, data_dir, tmp_path, capsys, argv):
        config, out = tmp_path / "config.json", tmp_path / "out"
        args = []
        for arg in argv:
            if isinstance(arg, dict):
                config.write_text(json.dumps(arg))
                arg = str(config)
            args.append(str(data_dir) if arg == "DATA" else arg)
        if argv[0] != "gen-data":
            args += ["--epochs", "1"]
        code = run(args + ["--out", str(out)])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert payload["error"] == "ConfigurationError"
        assert not out.exists()

    def test_bad_worker_count_is_config_error(self, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OTDA_THREADS", "abc")
        code = run(["sweep", "--alphas", "0.1", "--seeds", "1", "--epochs", "1",
                    "--data", str(data_dir), "--out", str(tmp_path / "s")])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert payload["error"] == "ConfigurationError"
        assert "OTDA_THREADS" in payload["message"]


def _train_flags():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest: a for a in commands.choices["train"]._actions if a.dest not in ("help", "config")}


_TRAIN_FLAGS = _train_flags()
_REJECTED = object()
_config_values = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.integers().map(str) | st.floats().map(str) | st.lists(st.integers(), max_size=2)
    | st.sampled_from(["erm", "ot", "dann", "euclidean", "squared", " 3", "1e-3", "-inf", "1_0"])
)


class TestConfigFileParsing:
    @settings(max_examples=200, deadline=None)
    @given(dest=st.sampled_from(sorted(_TRAIN_FLAGS)), hyphens=st.booleans(), value=_config_values)
    def test_value_is_what_its_flag_makes_of_it(self, dest, hyphens, value):
        # {"key": value} in a config file ends as --key=<str(value)> ends on
        # the command line: the same value, or ConfigurationError and exit 1.
        # A switch takes only true or false; null keeps a flag whose default
        # is null.
        action = _TRAIN_FLAGS[dest]
        parser = build_parser()
        argv = ["train", "--data", "d", "--out", "o"]
        if action.nargs == 0:
            expected = value if isinstance(value, bool) else _REJECTED
        elif value is None and action.default is None:
            expected = None
        else:
            try:
                expected = getattr(parser.parse_args(argv + [f"{action.option_strings[0]}={value}"]), dest)
            except ConfigurationError:
                expected = _REJECTED
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps({dest.replace("_", "-") if hyphens else dest: value}))
            args = parser.parse_args(argv + ["--config", str(path)])
            try:
                _apply_config_file(args, parser)
                got = getattr(args, dest)
            except ConfigurationError:
                got = _REJECTED
            if expected is _REJECTED:
                assert got is _REJECTED
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    assert run(argv + ["--config", str(path)]) == 1
                assert json.loads(stderr.getvalue())["error"] == "ConfigurationError"
            elif isinstance(expected, float) and math.isnan(expected):
                assert isinstance(got, float) and math.isnan(got)
            else:
                assert got == expected and type(got) is type(expected)


class TestBlasScope:
    def test_command_runs_one_thread_and_restores(self, data_dir, tmp_path, monkeypatch, parent_blas_threads):
        import otda.cli

        # the PCA of the emitted embeddings runs after training has returned
        seen = record_blas_threads(monkeypatch, otda.cli, "pca_project", parent_blas_threads)
        assert run(small_train_args(data_dir, tmp_path / "run", epochs=1)) == 0
        assert seen and set(seen) == {1}
        assert parent_blas_threads() == 2

    @pytest.mark.parametrize("extra, code", [(["--help"], 0), (["--bogus"], 1), (["--batch-size", "32"], 2)])
    def test_every_exit_restores(self, data_dir, tmp_path, monkeypatch, parent_blas_threads, capsys, extra, code):
        cap_training_solver_at_one_iteration(monkeypatch)
        assert run(small_train_args(data_dir, tmp_path / "x") + extra) == code
        capsys.readouterr()
        assert parent_blas_threads() == 2


class TestSlowTail:
    def test_seed_227_trains_on_the_gen_data_defaults(self, tmp_path):
        # Every epoch ends with an 8-row batch (1 800 training rows, batches
        # of 128); at seed 227 one of its 8x8 solves stalled above the
        # tolerance until the iteration cap.
        data = tmp_path / "data"
        assert run(["gen-data", "--out", str(data)]) == 0
        assert run(["train", "--seed", "227", "--data", str(data), "--out", str(tmp_path / "run")]) == 0


class TestOtherCommands:
    def test_posthoc(self, data_dir, tmp_path):
        out = tmp_path / "ph"
        assert run(["posthoc", "--data", str(data_dir), "--out", str(out), "--epochs", "2"]) == 0
        summary = json.loads((out / "posthoc.json").read_text())
        assert set(summary) == {"val", "test"}
        assert (out / "tables" / "posthoc.csv").exists()

    def test_posthoc_unconverged_is_exit_two(self, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(posthoc_align, "MAX_ITERATIONS", 1)
        out = tmp_path / "ph"
        assert run(["posthoc", "--data", str(data_dir), "--out", str(out), "--epochs", "2"]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "SinkhornConvergenceError"
        assert payload["iterations_used"] == 1
        assert not (out / "posthoc.json").exists()

    def test_sweep_table_shape(self, data_dir, tmp_path):
        out = tmp_path / "sweep"
        code = run([
            "sweep", "--data", str(data_dir), "--out", str(out),
            "--alphas", "1e-3,1e-1", "--seeds", "2", "--epochs", "1",
        ])
        assert code == 0
        lines = (out / "tables" / "alpha_sweep.csv").read_text().splitlines()
        assert lines[0] == "metric,0.001,0.1"
        for line in lines[1:]:
            cells = line.split(",")[1:]
            assert all("(" in c and c.endswith(")") for c in cells)
        sweep = json.loads((out / "sweep.json").read_text())
        assert sweep["selected_alpha"] in (1e-3, 1e-1)

    def test_swap_eval(self, data_dir, tmp_path):
        out = tmp_path / "swap"
        assert run(["swap-eval", "--data", str(data_dir), "--out", str(out), "--seeds", "1", "--epochs", "1"]) == 0
        table = (out / "tables" / "swap_comparison.csv").read_text().splitlines()
        assert table[0] == "metric,erm,ot,dann"

    def test_report_reemission(self, data_dir, tmp_path):
        run_dir = tmp_path / "r"
        assert run(small_train_args(data_dir, run_dir)) == 0
        out = tmp_path / "rep"
        assert run(["report", "--data", str(run_dir), "--out", str(out)]) == 0
        assert (out / "tables" / "method_comparison.csv").exists()

    def test_report_keeps_one_plot_per_report(self, data_dir, tmp_path, capsys):
        # train and a one-cell sweep both write report_ot_a0.05_s0.json
        tree = tmp_path / "tree"
        assert run(small_train_args(data_dir, tree / "train")) == 0
        assert run(["sweep", "--data", str(data_dir), "--out", str(tree / "sweep"),
                    "--alphas", "0.05", "--seeds", "1", "--epochs", "1"]) == 0
        out = tmp_path / "rep"
        capsys.readouterr()
        assert run(["report", "--data", str(tree), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("emitted 3 files from 2 reports")
        plots = sorted(p.name for p in (out / "plots").iterdir())
        assert plots == ["curves_ot_a0.05_s0.svg", "curves_ot_a0.05_s0_2.svg"]
        # sorted paths put sweep/ first; its plot is the one it gets on its own
        alone = tmp_path / "alone"
        emit_tables([load_report(tree / "sweep" / "report_ot_a0.05_s0.json")], alone)
        assert (out / "plots" / plots[0]).read_bytes() == (alone / "plots" / plots[0]).read_bytes()
        assert (out / "plots" / plots[1]).read_bytes() != (alone / "plots" / plots[0]).read_bytes()

    def test_report_loads_reports_with_log_domain_key(self, data_dir, tmp_path):
        run_dir = tmp_path / "r"
        assert run(small_train_args(data_dir, run_dir)) == 0
        path = run_dir / "report_ot_a0.05_s0.json"
        payload = json.loads(path.read_text())
        fresh = emit_tables([load_report(path)], tmp_path / "fresh")
        # keys of reports written before the switch and the fields were removed
        removed = {"early_stopping": True, "feature_widths": [64, 64, 32], "classifier_widths": [],
                   "domain_head_widths": [16]}
        payload["config"]["sinkhorn"]["log_domain"] = True
        payload["config"].update(removed)
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        config = load_report(path).config
        assert config["sinkhorn"]["log_domain"] is True
        assert {key: config[key] for key in removed} == removed
        out = tmp_path / "rep"
        assert run(["report", "--data", str(run_dir), "--out", str(out)]) == 0
        assert [(out / p.relative_to(tmp_path / "fresh")).read_bytes() for p in fresh] == [
            p.read_bytes() for p in fresh
        ]

    def test_report_without_reports_is_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["report", "--data", str(empty), "--out", str(tmp_path / "o")]) == 1

    def test_selftest_passes(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 3
