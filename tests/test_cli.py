"""CLI surface: subcommands, exit codes, config snapshots, flag handling,
and byte-identical reruns."""

import argparse
import contextlib
import io
import json
import math
import re
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import cap_training_solver_at_one_iteration, record_blas_threads
from otda import data_gen, posthoc_align
from otda.cli import _apply_config_file, build_parser, run
from otda.errors import ConfigurationError, ParseError
from otda.da_train import load_report
from otda.data_gen import DomainDataset
from otda.eval_report import emit_tables, method_stats


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data"
    code = run(["gen-data", "--seed", "3", "--out", str(path), "--samples-per-domain", "150"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def default_data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "default"
    assert run(["gen-data", "--out", str(path)]) == 0
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

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_one_row_split_writes_nothing(self, data_dir, tmp_path, capsys, split):
        # PCA needs two rows: train refuses before its first file, and
        # posthoc, which projects nothing, runs
        ds = data_gen.load(data_dir / "dataset.csv")
        keep = ds.splits != split
        keep[list(ds.splits).index(split)] = True
        one_row = DomainDataset(
            ds.features[keep], ds.labels[keep], ds.domain_ids[keep], ds.splits[keep], ds.subclusters[keep], ds.metadata
        )
        data_gen.save(one_row, tmp_path / "data" / "dataset.csv")
        flags = ["--epochs", "1", "--data", str(tmp_path / "data")]
        for method in ("ot", "dann"):
            out = tmp_path / method
            assert run(["train", "--method", method, *flags, "--out", str(out)]) == 1
            assert json.loads(capsys.readouterr().err)["error"] == "ContractViolationError"
            assert not out.exists()
        assert run(["posthoc", *flags, "--out", str(tmp_path / "posthoc")]) == 0

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

    @pytest.mark.parametrize("sidecar", [
        "[]", '{"subclusters": 5}', '{"metadata": 5}',
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
    ])
    def test_malformed_sidecar_is_parse_error(self, data_dir, tmp_path, capsys, sidecar):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "dataset.meta.json").write_text(sidecar)
        code = run(["train", "--method", "erm", "--epochs", "1", "--data", str(data), "--out", str(tmp_path / "o")])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert payload["error"] == "ParseError"

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[1]", b'{"seed": ' + b"9" * 5000 + b"}"],
                             ids=["not-utf8", "not-an-object", "int-too-long"])
    @pytest.mark.parametrize("which", ["csv", "sidecar", "config", "report"])
    def test_unreadable_input_file_is_one_parse_error(self, data_dir, tmp_path, capsys, which, content):
        data, runs, config = tmp_path / "data", tmp_path / "runs", tmp_path / "config.json"
        shutil.copytree(data_dir, data)
        runs.mkdir()
        train = ["train", "--method", "erm", "--epochs", "1", "--data", str(data)]
        bad, argv = {
            "csv": (data / "dataset.csv", train),
            "sidecar": (data / "dataset.meta.json", train),
            "config": (config, ["gen-data", "--config", str(config)]),
            "report": (runs / "report_x.json", ["report", "--data", str(runs)]),
        }[which]
        bad.write_bytes(content)
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ParseError" and str(bad) in payload["message"]
        assert not out.exists()

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

    @pytest.mark.parametrize("argv, data", [
        (["train", "--method", "erm", "--lr", "1e300"], "data_dir"),
        (["train", "--method", "ot", "--lr", "1e300"], "data_dir"),
        (["dann", "--lr", "1e100"], "data_dir"),
        (["posthoc", "--lr", "1e300"], "data_dir"),
        (["sweep", "--method", "dann", "--lr", "1e100", "--alphas", "0.1,1", "--seeds", "2"], "data_dir"),
        # on the default dataset these finished at chance while numpy warned
        (["train", "--method", "erm", "--lr", "1e6"], "default_data_dir"),
        (["train", "--method", "ot", "--lr", "1e6"], "default_data_dir"),
        (["posthoc", "--lr", "1e6"], "default_data_dir"),
        (["dann", "--lr", "1e6"], "default_data_dir"),
    ])
    def test_diverging_run_is_exit_two(self, request, tmp_path, capsys, monkeypatch, argv, data):
        monkeypatch.setenv("OTDA_THREADS", "2")
        out = tmp_path / "d"
        assert run(argv + ["--data", str(request.getfixturevalue(data)), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "NumericError"
        assert re.fullmatch(r"overflow encountered in \w+", payload["message"])
        assert isinstance(payload["epoch"], int) and isinstance(payload["step"], int)
        assert len(payload["batch_shape"]) == 2
        assert not out.exists()

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
        # the generator's shape is fixed: these are unknown flags and keys
        ["gen-data", "--num-domains", "4"],
        ["gen-data", "--dim", "12"],
        ["gen-data", "--config", {"num_domains": 4}],
        # more rows than numpy can index, refused before any allocation
        ["gen-data", "--samples-per-domain", str(2**62)],
        ["gen-data", "--samples-per-domain", str(10**20)],
        # two alphas that share a run id label or are equal, and seeds the report reader refuses
        ["sweep", "--alphas", "0.1,0.1000001", "--seeds", "1", "--data", "DATA"],
        ["sweep", "--alphas", "0,-0", "--seeds", "1", "--data", "DATA"],
        ["sweep", "--alphas", "0.1,0.1", "--seeds", "1", "--data", "DATA"],
        ["train", "--method", "erm", "--seed", "9223372036854775808", "--data", "DATA"],
        ["sweep", "--seed", "9223372036854775807", "--seeds", "2", "--data", "DATA"],
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
        (line,) = capsys.readouterr().err.splitlines()
        assert code == 1
        assert json.loads(line)["error"] == "ConfigurationError"
        assert not out.exists()

    def test_memory_error_is_one_json_line(self, tmp_path, capsys, monkeypatch):
        def allocate(config):
            raise MemoryError("Unable to allocate 33.4 TiB for an array with shape (4589890808404,)")

        monkeypatch.setattr(data_gen, "generate", allocate)
        out = tmp_path / "out"
        code = run(["gen-data", "--samples-per-domain", str(10**13), "--out", str(out)])
        (line,) = capsys.readouterr().err.splitlines()
        assert code == 1
        assert json.loads(line) == {"error": "MemoryError", "message": "Unable to allocate 33.4 TiB for an array "
                                                                      "with shape (4589890808404,)"}
        assert not out.exists()

    def test_bad_worker_count_is_config_error(self, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OTDA_THREADS", "abc")
        code = run(["sweep", "--alphas", "0.1", "--seeds", "1", "--epochs", "1",
                    "--data", str(data_dir), "--out", str(tmp_path / "s")])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert payload["error"] == "ConfigurationError"
        assert "OTDA_THREADS" in payload["message"]


def _flags(command):
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest: a for a in commands.choices[command]._actions if a.dest not in ("help", "config")}


_TRAIN_FLAGS = _flags("train")
_REJECTED = object()
_config_values = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.integers().map(str) | st.floats().map(str) | st.lists(st.integers(), max_size=2)
    | st.sampled_from(["erm", "ot", "dann", "euclidean", "squared", " 3", "1e-3", "-inf", "1_0"])
)


class TestConfigFileParsing:
    @pytest.mark.parametrize("make", [lambda path: None, lambda path: path.mkdir()], ids=["missing", "directory"])
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, make):
        config, out = tmp_path / "config.json", tmp_path / "out"
        make(config)
        assert run(["gen-data", "--config", str(config), "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigurationError"
        assert re.fullmatch(f"cannot read config file {re.escape(str(config))}: .+", payload["message"])
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(dest=st.sampled_from(sorted(_TRAIN_FLAGS)), hyphens=st.booleans(), value=_config_values)
    @example(dest="swap_val_test", hyphens=False, value=True)  # a switch given a JSON bool
    @example(dest="epsilon", hyphens=False, value=None)  # null for an optional flag
    def test_value_is_what_its_flag_makes_of_it(self, dest, hyphens, value):
        # {"key": value} in a config file ends as --key=<str(value)> ends on
        # the command line: the same value, or ConfigurationError and exit 1.
        # A switch takes only true or false; null keeps an optional flag
        # whose default is null, and no other flag takes it.
        action = _TRAIN_FLAGS[dest]
        parser = build_parser()
        argv = ["train", "--data", "d", "--out", "o"]
        if action.nargs == 0:
            expected = value if isinstance(value, bool) else _REJECTED
        elif value is None:
            expected = None if action.default is None and not action.required else _REJECTED
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


def _reads(convert, value) -> bool:
    try:
        convert(str(value))
    except ValueError:
        return False
    return True


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=2) | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=4,
)
_tiny = sys.float_info.min
# Numbers each flag reads but refuses: its command exits 1 before it trains
# or generates anything.
_OUT_OF_RANGE = {
    "seed": st.integers(max_value=-1),
    "epochs": st.integers(max_value=0),
    "batch_size": st.integers(max_value=0),
    "seeds": st.integers(max_value=0),
    "samples_per_domain": st.integers(max_value=99) | st.integers(min_value=data_gen._MAX_SAMPLES_PER_DOMAIN + 1),
    "alpha": st.floats(max_value=-_tiny) | st.integers(max_value=-1),
    "epsilon": st.floats(max_value=0.0) | st.integers(max_value=0),
    "lr": st.floats(max_value=0.0) | st.integers(max_value=0),
    "momentum": st.floats(min_value=1.0) | st.floats(max_value=-_tiny) | st.integers(min_value=1),
    "weight_decay": st.floats(max_value=-_tiny) | st.integers(max_value=-1),
    "alphas": st.sampled_from(["", "x", "0.1,,y", "-1", "0.1,nan", "inf"]),
}
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _refused(dest, action):
    """Config-file values that the flag behind dest refuses: null unless the
    flag is optional with a null default, a JSON value its converter cannot
    read, or a number out of its range."""
    if action.nargs == 0:  # a switch
        return _json_values.filter(lambda v: not isinstance(v, bool))
    null = st.none() if action.required or action.default is not None else st.nothing()
    if action.choices is not None:
        return null | _json_values.filter(lambda v: v is not None and str(v) not in action.choices)
    out_of_range = _OUT_OF_RANGE.get(dest, st.nothing())
    if action.type is float:
        out_of_range |= _NON_FINITE
    if action.type in (int, float):
        return null | out_of_range | _json_values.filter(lambda v: v is not None and not _reads(action.type, v))
    if dest == "alphas":  # a str flag; bool, list and object values are not float lists
        out_of_range |= _json_values.filter(lambda v: isinstance(v, (bool, list, dict)))
    return null | out_of_range


_FUZZED = {command: _flags(command) for command in ("train", "sweep", "gen-data")}
_FUZZED_KEYS = [(command, dest) for command, flags in _FUZZED.items() for dest in sorted(flags)]
_refused_cases = st.sampled_from(_FUZZED_KEYS).flatmap(
    lambda key: st.tuples(st.just(key), _refused(key[1], _FUZZED[key[0]][key[1]])))


class TestRefusedConfigValues:
    @settings(max_examples=200, deadline=None)
    @given(case=_refused_cases, hyphens=st.booleans())
    @example(case=(("sweep", "alphas"), "x"), hyphens=False)  # an --alphas list that does not parse
    @example(case=(("train", "epsilon"), math.nan), hyphens=False)  # a non-finite epsilon
    @example(case=(("train", "weight_decay"), -1), hyphens=False)  # a negative weight decay
    def test_refused_value_exits_one_and_writes_nothing(self, data_dir, case, hyphens):
        (command, dest), value = case
        with tempfile.TemporaryDirectory() as tmp:
            config, out = Path(tmp) / "config.json", Path(tmp) / "out"
            config.write_text(json.dumps({dest.replace("_", "-") if hyphens else dest: value}))
            argv = [command, "--out", str(out), "--config", str(config)]
            if command != "gen-data":
                argv += ["--data", str(data_dir)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(argv)
            assert code == 1
            (line,) = stderr.getvalue().splitlines()
            assert set(json.loads(line)) >= {"error", "message"}
            assert not out.exists()

    def test_json_nested_too_deep_is_parse_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000 + "]" * 100_000)
        assert run(["gen-data", "--out", str(tmp_path / "out"), "--config", str(config)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key", [("train", "out"), ("train", "data"), ("gen-data", "out")])
    def test_null_required_flag_is_config_error(self, data_dir, tmp_path, capsys, command, key):
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps({key: None}))
        argv = [command, "--out", str(out), "--config", str(config)]
        if command == "train":
            argv += ["--data", str(data_dir)]
        assert run(argv) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigurationError" and repr(key) in payload["message"]
        assert not out.exists()


@pytest.fixture(scope="module")
def train_report(data_dir, tmp_path_factory):
    """The text of a real two-epoch `train` report."""
    out = tmp_path_factory.mktemp("report") / "run"
    assert run(small_train_args(data_dir, out)) == 0
    return (out / "report_ot_a0.05_s0.json").read_text()


_INT64 = (-(2**63), 2**63 - 1)
_RECORD_KEYS = {"epoch", "ce_loss", "aux_loss", "val_accuracy", "test_accuracy"}


def _int(value, low, high) -> bool:
    return type(value) is int and max(low, _INT64[0]) <= value <= min(high, _INT64[1])


def _real(value, low=-sys.float_info.max, high=sys.float_info.max) -> bool:
    # a JSON number held by a finite float64; a NaN fails the comparison
    return type(value) in (int, float) and abs(value) <= sys.float_info.max and low <= value <= high


def _record_allowed(record) -> bool:
    return (
        type(record) is dict and _RECORD_KEYS <= set(record) <= _RECORD_KEYS | {"wall_seconds"}
        and _int(record["epoch"], *_INT64)
        and _real(record["ce_loss"]) and _real(record["aux_loss"])
        and _real(record["val_accuracy"], 0, 1) and _real(record["test_accuracy"], 0, 1)
        and _real(record.get("wall_seconds", 0.0), 0)
    )


def _table_allows(report) -> bool:
    """The field table of README's "Output layout", field by field: what
    otda report must take, and nothing else."""
    if type(report) is not dict or set(report) != {"config", "epochs", "selected_epoch", "final", "seed"}:
        return False
    config, epochs, final = report["config"], report["epochs"], report["final"]
    splits = [final.get(split) if type(final) is dict else None for split in ("val", "test")]
    return (
        _int(report["seed"], 0, math.inf)
        and type(epochs) is list and len(epochs) > 0 and all(map(_record_allowed, epochs))
        and _int(report["selected_epoch"], 0, len(epochs) - 1)
        and type(config) is dict and config.get("method") in ("erm", "ot", "dann") and _real(config.get("alpha"), 0)
        and all(type(split) is dict and _real(split.get("accuracy"), 0, 1)
                and "auc" in split and (split["auc"] is None or _real(split["auc"], 0, 1)) for split in splits)
    )


_DELETE = object()
# Every field of the stored report, its containers, a key the reader does
# not know at each level, and keys of config and final that nothing reads.
_REPORT_PATHS = [
    ("seed",), ("selected_epoch",), ("epochs",), ("config",), ("final",), ("extra",),
    ("config", "method"), ("config", "alpha"), ("config", "epochs"), ("config", "extra"),
    *(("final", split) for split in ("val", "test", "train")),
    *(("final", split, key) for split in ("val", "test", "train") for key in ("accuracy", "auc")),
    *(("epochs", i) for i in (0, 1, 2)),
    *(("epochs", i, key) for i in (0, 1) for key in (*sorted(_RECORD_KEYS), "wall_seconds", "extra")),
]
# Values at the edges of the table's types and ranges.
_EDGES = [
    _DELETE, None, True, False, 0, 1, -1, 2, 99, 0.0, -0.0, 0.5, 1.0, 1.5, 2**63 - 1, 2**63, -(2**63),
    -(2**63) - 1, 10**400, sys.float_info.max, -sys.float_info.max, math.nan, math.inf, -math.inf,
    "", "x", "0.5", "erm", "ot", "dann", [], {}, [1], {"accuracy": 0.5, "auc": None},
]
_records = st.fixed_dictionaries(
    {"epoch": st.integers(-2, 3), "ce_loss": st.floats(-1e3, 1e3), "aux_loss": st.floats(-1e3, 1e3),
     "val_accuracy": st.floats(0, 1), "test_accuracy": st.floats(0, 1)},
    optional={"wall_seconds": st.floats(0, 1e3)},
)
_report_values = (
    st.sampled_from(_EDGES) | _json_values
    | st.fixed_dictionaries({"accuracy": _json_values | st.floats(0, 1), "auc": _json_values | st.floats(0, 1)})
    | _records | st.lists(_records, max_size=3)
)


def _changed(text, path, value):
    """The report in text with the field at path replaced by value (deleted
    for _DELETE)."""
    report = json.loads(text)
    *parents, last = path
    holder = report
    for key in parents:
        holder = holder[key]
    if value is _DELETE:
        if type(holder) is dict:
            holder.pop(last, None)
        elif last < len(holder):
            del holder[last]
    elif type(holder) is list and last >= len(holder):
        holder.append(value)
    else:
        holder[last] = value
    return report


def _run_report(runs, out) -> tuple:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(["report", "--data", str(runs), "--out", str(out)])
    return code, stderr.getvalue()


def _tree(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestReportFieldTable:
    """`otda report` on a real train report with one field changed: a value
    the field table allows is plotted and tabled, twice with the same bytes;
    any other ends in exit 1 and a ParseError that names the file."""

    def _check(self, report):
        with tempfile.TemporaryDirectory() as tmp:
            runs = Path(tmp) / "runs"
            runs.mkdir()
            path = runs / "report_x.json"
            path.write_text(json.dumps(report))
            code, err = _run_report(runs, Path(tmp) / "a")
            if _table_allows(report):
                assert (code, err) == (0, "")
                assert _run_report(runs, Path(tmp) / "b") == (0, "")
                assert _tree(Path(tmp) / "a") == _tree(Path(tmp) / "b")
            else:
                assert code == 1
                (line,) = err.splitlines()
                payload = json.loads(line)
                assert payload["error"] == "ParseError"
                assert payload["message"].startswith(f"{path}: not a run report: ")
                assert not (Path(tmp) / "a").exists()

    def test_the_real_report_loads(self, train_report):
        assert _table_allows(json.loads(train_report))
        self._check(json.loads(train_report))

    @settings(max_examples=200, deadline=None)
    @given(path=st.sampled_from(_REPORT_PATHS), value=_report_values)
    def test_one_changed_field(self, train_report, path, value):
        self._check(_changed(train_report, path, value))

    def test_every_field_at_every_edge(self, train_report, tmp_path):
        # load_report, without the CLI around it, for speed
        path = tmp_path / "report_x.json"
        for field_path in _REPORT_PATHS:
            for value in _EDGES:
                report = _changed(train_report, field_path, value)
                path.write_text(json.dumps(report))
                if _table_allows(report):
                    assert emit_tables([load_report(path)], tmp_path / "out"), (field_path, value)
                else:
                    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not a run report: "):
                        load_report(path)

    def test_json_nested_too_deep_is_parse_error(self, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "report_x.json").write_text("[" * 100_000 + "]" * 100_000)
        code, err = _run_report(runs, tmp_path / "out")
        assert code == 1 and json.loads(err)["error"] == "ParseError"

    def test_losses_at_the_double_range_plot_without_nan(self, train_report, tmp_path):
        report = _changed(train_report, ("epochs", 0, "ce_loss"), 1.7e308)
        report["epochs"][1]["aux_loss"] = -1.7e308
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "report_x.json").write_text(json.dumps(report))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _run_report(runs, tmp_path / "out") == (0, "")
        (svg,) = (tmp_path / "out" / "plots").glob("curves_*.svg")
        assert "nan" not in svg.read_text() and "inf" not in svg.read_text()

    @pytest.mark.parametrize("path, value", [
        pytest.param(("epochs", 0, "epoch"), "x", id="string-epoch"),
        pytest.param(("config", "alpha"), math.nan, id="nan-alpha"),
        pytest.param(("final", "val", "auc"), "x", id="string-auc"),
        pytest.param(("seed",), -3, id="negative-seed"),
        pytest.param(("selected_epoch",), 99, id="selected-epoch-past-the-last"),
        pytest.param(("epochs",), [], id="empty-epochs"),
        pytest.param(("epochs",), {}, id="epochs-object"),
    ])
    def test_hole_is_parse_error(self, train_report, path, value):
        report = _changed(train_report, path, value)
        assert len(json.loads(train_report)["epochs"]) == 2 and not _table_allows(report)
        self._check(report)


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
    def test_seed_227_trains_on_the_gen_data_defaults(self, default_data_dir, tmp_path):
        # Every epoch ends with an 8-row batch (1 800 training rows, batches
        # of 128); at seed 227 one of its 8x8 solves stalled above the
        # tolerance until the iteration cap.
        assert run(["train", "--seed", "227", "--data", str(default_data_dir), "--out", str(tmp_path / "run")]) == 0


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

    def test_swap_eval(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("OTDA_THREADS", "2")
        out = tmp_path / "swap"
        assert run(["swap-eval", "--data", str(data_dir), "--out", str(out), "--seeds", "2", "--epochs", "1"]) == 0
        table = (out / "tables" / "swap_comparison.csv").read_text().splitlines()
        assert table[0] == "metric,erm,ot,dann"
        # one pool of two workers trains all six runs; each method's statistics
        # come from its own two
        stats = json.loads((out / "swap.json").read_text())
        for method in ("erm", "ot", "dann"):
            reports = [load_report(p) for p in sorted(out.glob(f"report_{method}_*.json"))]
            assert [r.seed for r in reports] == [0, 1]
            assert stats[method] == method_stats(reports)
        # config.json records the configuration each method trained with
        resolved = json.loads((out / "config.json").read_text())["resolved"]
        assert sorted(resolved) == ["dann", "erm", "ot"]
        assert all(resolved[m]["method"] == m for m in resolved)

    def test_report_reemission(self, data_dir, tmp_path):
        run_dir = tmp_path / "r"
        assert run(small_train_args(data_dir, run_dir)) == 0
        out = tmp_path / "rep"
        assert run(["report", "--data", str(run_dir), "--out", str(out)]) == 0
        assert (out / "tables" / "method_comparison.csv").exists()
        # report redraws the four curves train drew, byte for byte
        drawn = (run_dir / "plots" / "curves_ot_a0.05_s0.svg").read_bytes()
        assert drawn.count(b"<polyline") == 4
        assert (out / "plots" / "curves_ot_a0.05_s0.svg").read_bytes() == drawn

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

    def test_selftest_failure_names_the_suite_and_exits_one(self, capsys, monkeypatch):
        import otda.cli

        def broken(rng):
            raise AssertionError("auc 0.4 vs oracle 0.5")

        monkeypatch.setattr(otda.cli, "_selftest_auc", broken)
        assert run(["selftest"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "selftest brute-force transport oracle: ok",
            "selftest finite-difference gradients: ok",
            "selftest AUC pairwise oracle: FAILED (AssertionError: auc 0.4 vs oracle 0.5)",
        ]
