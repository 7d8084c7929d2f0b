"""Benchmark generator: determinism, split topology, the withheld subcluster,
shift behavior, pinned dataset bytes, CSV round trips, and parse errors."""

import csv
import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import probe_accuracy, raises_exactly
from otda import data_gen
from otda.data_gen import (
    SPLITS,
    DomainDataset,
    GeneratorConfig,
    generate,
    load,
    masked_tag,
    save,
    swap_val_test,
)
from otda.errors import ConfigurationError, ContractViolationError, ParseError


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def small_datasets(draw):
    """Datasets of a few rows: one or more train domains, one val and one
    test domain, rows in any order, any finite features."""
    domains = draw(st.lists(st.integers(-3, 50), min_size=3, max_size=5, unique=True))
    split_of = dict(zip(domains, ["val", "test"] + ["train"] * (len(domains) - 2)))
    rows = draw(st.permutations(domains + draw(st.lists(st.sampled_from(domains), max_size=6))))
    n, d = len(rows), draw(st.integers(1, 3))
    tags = draw(st.none() | st.lists(st.text(max_size=4), min_size=n, max_size=n))
    return DomainDataset(
        features=draw(arrays(float, (n, d), elements=st.floats(allow_nan=False, allow_infinity=False))),
        labels=np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=int),
        domain_ids=np.array(rows, dtype=int),
        splits=np.array([split_of[r] for r in rows], dtype=object),
        subclusters=None if tags is None else np.array(tags, dtype=object),
        metadata=draw(st.dictionaries(st.text(), _JSON, max_size=3)),
    )


def reference_save_csv(dataset, path):
    """save's CSV as it was written through csv.writer."""
    header = ["domain_id", "split", "label"] + [f"f{j}" for j in range(dataset.dim)]
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(dataset.features.shape[0]):
            row = [
                str(int(dataset.domain_ids[i])),
                str(dataset.splits[i]),
                str(int(dataset.labels[i])),
            ] + [f"{v:.9g}" for v in dataset.features[i]]
            writer.writerow(row)


def reference_parse_rows_one_by_one(path, rows, d, first_lineno):
    """load's check of split data lines as it was written line by line:
    raises ParseError naming the first malformed line, counting rows[0] as
    line first_lineno."""
    feats = np.empty((len(rows), d))
    labels = np.empty(len(rows), dtype=int)
    domains = np.empty(len(rows), dtype=int)
    splits = np.empty(len(rows), dtype=object)
    for i, parts in enumerate(rows):
        lineno = first_lineno + i
        if len(parts) != 3 + d:
            raise ParseError(f"{path}: line {lineno}: expected {3 + d} fields, got {len(parts)}")
        try:
            domains[i] = int(parts[0])
            label = int(parts[2])
            feats[i] = [float(v) for v in parts[3:]]
        except (ValueError, OverflowError) as exc:  # OverflowError: a domain id beyond int64
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        if parts[1] not in SPLITS:
            raise ParseError(f"{path}: line {lineno}: unknown split {parts[1]!r}")
        if label not in (0, 1):
            raise ParseError(f"{path}: line {lineno}: label must be 0 or 1, got {label}")
        if not np.all(np.isfinite(feats[i])):
            raise ParseError(f"{path}: line {lineno}: non-finite feature value")
        splits[i] = parts[1]
        labels[i] = label
    return feats, labels, domains, splits


# Field values that break one of load's rules, or look as if they might.
_ODD_FIELDS = st.sampled_from([
    "abc", "", " ", "nan", "-inf", "1e400", "1_0", "1__0", "1.5", "2", "-1", "0x1", "\u0661", "\u066b",
    "99999999999999999999", "-99999999999999999999", "holdout", "train", "val", "0",
]) | st.text(max_size=4).filter(lambda text: "," not in text and len(f"a{text}b".splitlines()) == 1)


@pytest.fixture(scope="module")
def default_ds():
    return generate(GeneratorConfig(samples_per_domain=300, seed=11))


def _dataset(domains=(0, 1, 2), splits=("train", "val", "test"), labels=3, tags=None):
    n = len(domains)
    return DomainDataset(np.zeros((n, 1)), np.zeros(labels, dtype=int), np.array(domains),
                         np.array(splits, dtype=object), tags)


def _load_text(path, text):
    path.write_text(text)
    return load(path)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda tmp: _dataset(labels=2), ContractViolationError, "per-sample arrays must share one length",
                 id="labels-length"),
    pytest.param(lambda tmp: _dataset(tags=np.array(["a"], dtype=object)), ContractViolationError,
                 "subcluster tags must match the sample count", id="tags-length"),
    pytest.param(lambda tmp: _dataset((0, 1, 2, 0), ("train", "val", "test", "val"), labels=4), ConfigurationError,
                 "domain 0 carries multiple splits (train, val)", id="domain-in-two-splits"),
    pytest.param(lambda tmp: _dataset(splits=("train", "val", "val")), ConfigurationError,
                 "dataset must have >=1 train domain, exactly 1 val domain and exactly 1 test domain; "
                 "got {'train': [0], 'val': [1, 2], 'test': []}", id="split-topology"),
    pytest.param(lambda tmp: _dataset().split_indices("dev"), ContractViolationError, "unknown split 'dev'",
                 id="unknown-split"),
    pytest.param(lambda tmp: DomainDataset(np.array([[0.0], [1.0], [np.inf]]), np.zeros(3, dtype=int),
                                           np.array([0, 1, 2]), np.array(SPLITS, dtype=object)),
                 ContractViolationError, "non-finite feature in row 2 (test split)", id="non-finite-feature"),
    pytest.param(lambda tmp: _load_text(tmp / "d.csv", "domain_id,split,label,f1\n"), ParseError,
                 "<tmp>/d.csv: line 1: feature columns must be f0..f0", id="feature-columns"),
])
def test_library_guard_names_the_fault(tmp_path, call, error, message):
    with raises_exactly(error, message.replace("<tmp>", str(tmp_path))):
        call(tmp_path)


class TestGenerate:
    def test_split_topology(self, default_ds):
        assert sorted(set(default_ds.domain_ids[default_ds.split_indices("train")].tolist())) == [1, 2, 3]
        assert sorted(set(default_ds.domain_ids[default_ds.split_indices("val")].tolist())) == [4]
        assert sorted(set(default_ds.domain_ids[default_ds.split_indices("test")].tolist())) == [5]

    def test_determinism(self):
        config = GeneratorConfig(samples_per_domain=150, seed=5)
        a, b = generate(config), generate(config)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.subclusters, b.subclusters)

    def test_masked_subcluster_only_in_test_domain(self, default_ds):
        masked = default_ds.subclusters == masked_tag()
        assert masked.any()
        assert set(default_ds.splits[masked]) == {"test"}

    def test_class_balance_within_bounds(self, default_ds):
        for dom in range(1, 6):
            share = default_ds.labels[default_ds.domain_ids == dom].mean()
            assert 0.3 <= share <= 0.7

    def test_every_train_cell_populated(self, default_ds):
        for dom in (1, 2, 3):
            labels = default_ds.labels[default_ds.domain_ids == dom]
            assert (labels == 0).sum() >= 1 and (labels == 1).sum() >= 1

    def test_in_domain_probe_separability(self, default_ds):
        for dom in range(1, 6):
            mask = default_ds.domain_ids == dom
            x, y = default_ds.features[mask], default_ds.labels[mask]
            half = len(x) // 2
            assert probe_accuracy(x[:half], y[:half], x[half:], y[half:]) >= 0.9

    def test_undoing_the_recorded_shift_lets_a_probe_transfer(self, default_ds):
        # The sidecar's shift is the one the features went through: undone,
        # train and test share one latent space and a linear probe carries over.
        shift = default_ds.metadata["shift"]
        rows = default_ds.domain_ids - 1
        scales, offsets = np.array(shift["scales"]), np.array(shift["offsets"])
        latent = (default_ds.features - offsets[rows]) / scales[rows]
        train, test = default_ds.split_indices("train"), default_ds.split_indices("test")
        y = default_ds.labels
        assert probe_accuracy(latent[train], y[train], latent[test], y[test]) >= 0.9

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(samples_per_domain=50)
        with pytest.raises(ConfigurationError, match="seed"):
            GeneratorConfig(seed=-1)

    def test_counts_numpy_cannot_index_are_refused(self):
        # the feature matrix of the largest count still fits numpy's index type
        largest = data_gen._MAX_SAMPLES_PER_DOMAIN
        assert 5 * largest * data_gen.NUM_FEATURES * 8 <= np.iinfo(np.intp).max
        GeneratorConfig(samples_per_domain=largest)
        for count in (largest + 1, 2**62, 10**20):
            with pytest.raises(ConfigurationError, match=f"samples_per_domain must be <= {largest}, got {count}"):
                GeneratorConfig(samples_per_domain=count)


class TestDigest:
    """The bytes of save(generate(config)), CSV then sidecar. The default
    dataset is the one the acceptance gate is calibrated on."""

    @pytest.mark.parametrize("config, digest", [
        (GeneratorConfig(), "24f9167cafdd97e2fab51b47a27bca2090c38581d4fa6ce714621709763efd4b"),
    ], ids=["default"])
    def test_saved_dataset_bytes(self, tmp_path, config, digest):
        path = tmp_path / "dataset.csv"
        save(generate(config), path)
        written = path.read_bytes() + (tmp_path / "dataset.meta.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest


def _seven_domains():
    """Seven domains of twelve features over ten decades: a shape generate()
    does not draw, which save writes all the same."""
    rng = np.random.default_rng(9)
    splits = ["train"] * 500 + ["val"] * 100 + ["test"] * 100
    return DomainDataset(rng.standard_normal((700, 12)) * 10.0 ** rng.integers(-5, 6, (700, 1)),
                         rng.integers(0, 2, 700), np.repeat(np.arange(1, 8), 100), np.array(splits, dtype=object))


class TestReferenceWriter:
    @pytest.mark.parametrize("make", [
        lambda: generate(GeneratorConfig()), lambda: generate(GeneratorConfig(seed=3, samples_per_domain=150)),
        _seven_domains,
    ], ids=["default", "cli-fixture", "seven-domains"])
    def test_save_writes_the_csv_writer_bytes(self, tmp_path, make):
        dataset = make()
        save(dataset, tmp_path / "dataset.csv")
        reference_save_csv(dataset, tmp_path / "reference.csv")
        assert (tmp_path / "dataset.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestSwap:
    def test_involution(self, default_ds):
        twice = swap_val_test(swap_val_test(default_ds))
        assert np.array_equal(twice.splits, default_ds.splits)

    def test_counts_unchanged(self, default_ds):
        swapped = swap_val_test(default_ds)
        assert sorted(set(swapped.domain_ids[swapped.split_indices("val")].tolist())) == [5]
        assert sorted(set(swapped.domain_ids[swapped.split_indices("test")].tolist())) == [4]
        for dom in range(1, 6):
            assert (swapped.domain_ids == dom).sum() == (default_ds.domain_ids == dom).sum()
        assert np.array_equal(swapped.features, default_ds.features)


class TestSaveLoad:
    def test_round_trip(self, default_ds, tmp_path):
        path = tmp_path / "dataset.csv"
        save(default_ds, path)
        loaded = load(path)
        assert np.allclose(loaded.features, default_ds.features, rtol=1e-8, atol=1e-8)
        assert np.array_equal(loaded.labels, default_ds.labels)
        assert np.array_equal(loaded.domain_ids, default_ds.domain_ids)
        assert np.array_equal(loaded.subclusters, default_ds.subclusters)
        assert loaded.metadata["masked_subcluster"]["tag"] == masked_tag()

    def test_byte_identical_saves(self, default_ds, tmp_path):
        save(default_ds, tmp_path / "a.csv")
        save(default_ds, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dataset=small_datasets())
    def test_round_trip_keeps_everything_but_float_digits(self, tmp_path, dataset):
        save(dataset, tmp_path / "a.csv")
        loaded = load(tmp_path / "a.csv")
        assert np.array_equal(loaded.labels, dataset.labels)
        assert np.array_equal(loaded.domain_ids, dataset.domain_ids)
        assert loaded.splits.tolist() == dataset.splits.tolist()
        assert set(loaded.splits.tolist()) <= set(SPLITS)
        if dataset.subclusters is None:
            assert loaded.subclusters is None
        else:
            assert loaded.subclusters.tolist() == dataset.subclusters.tolist()
        assert loaded.metadata == dataset.metadata
        rounded = np.array([[float(f"{v:.9g}") for v in row] for row in dataset.features])
        assert loaded.features.tobytes() == rounded.tobytes()
        save(loaded, tmp_path / "b.csv")
        for name in ("{}.csv", "{}.meta.json"):
            assert (tmp_path / name.format("b")).read_bytes() == (tmp_path / name.format("a")).read_bytes()

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="line 1"):
            load(path)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("domain_id,split,label,f0\n1,train,0,0.5\n1,train,2,0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load(path)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1,train,0,abc,1.0", "could not convert string to float: 'abc'"),
            ("1,train,0,nan,1.0", "non-finite feature value"),
            ("1,train,0,0.5,-inf", "non-finite feature value"),
            ("1,holdout,0,0.5,1.0", "unknown split 'holdout'"),
            ("1.5,train,0,0.5,1.0", "invalid literal for int"),
            ("99999999999999999999,train,0,0.5,1.0", "Python int too large"),
            ("1,train,2,0.5,1.0", "label must be 0 or 1, got 2"),
            ("1,train,0,0.5", "expected 5 fields, got 4"),
        ],
        ids=["non-numeric", "nan", "inf", "split", "domain", "domain-overflow", "label", "short-row"],
    )
    @pytest.mark.parametrize("good_lines", [1, 127, 128, 300])
    def test_rejection_names_the_first_bad_line(self, tmp_path, bad, message, good_lines):
        # a later line is bad too, in another way; 127 good lines make the
        # first bad one the last line of load's first block of 128 lines, 128
        # the first line of the second, and 300 a line of the third
        later = "1,train,1,0.5" if bad != "1,train,0,0.5" else "1,train,0,x,1.0"
        path = tmp_path / "bad.csv"
        good = "1,train,0,0.5,1.0\n" * good_lines
        path.write_text(f"domain_id,split,label,f0,f1\n{good}{bad}\n2,val,1,0.1,0.2\n{later}\n")
        with pytest.raises(ParseError, match=f"line {good_lines + 2}: {message}"):
            load(path)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        good_lines=st.integers(0, 300),
        line=st.integers(0, 301),
        changes=st.lists(st.tuples(st.integers(0, 5), _ODD_FIELDS), min_size=1, max_size=3),
    )
    def test_one_corrupted_line_names_it_as_the_reference_does(self, tmp_path, good_lines, line, changes):
        # each change sets a field of the line, so one line can break several
        # rules; field 5 appends a sixth field. A line that breaks no rule
        # loads or fails on the split topology, never as a parse error.
        lines = ["1,train,0,0.5,1.0"] * good_lines + ["2,val,1,0.1,0.2", "3,test,0,-0.3,4"]
        parts = lines[line % len(lines)].split(",")
        for field, value in changes:
            parts[field:field + 1] = [value]
        lines[line % len(lines)] = ",".join(parts)
        path = tmp_path / "one.csv"
        path.write_text("domain_id,split,label,f0,f1\n" + "".join(f"{text}\n" for text in lines))
        try:
            reference_parse_rows_one_by_one(path, [text.split(",") for text in lines], 2, first_lineno=2)
        except ParseError as exc:
            with pytest.raises(ParseError) as raised:
                load(path)
            assert str(raised.value) == str(exc)
        else:
            try:
                load(path)
            except ConfigurationError:
                pass

    def test_feature_fields_parse_as_float_does(self, tmp_path):
        # underscores, blanks, signs and non-ASCII digits, as float() reads them
        fields = [" 1.5 ", "1_000", "+.5e-3", "\u0661\u0662", "-0", "1e-400"]
        path = tmp_path / "odd.csv"
        header = ",".join(f"f{j}" for j in range(len(fields)))
        path.write_text(f"domain_id,split,label,{header}\n" + "".join(
            f"{dom},{split},0,{','.join(fields)}\n" for dom, split in ((1, "train"), (2, "val"), (3, "test"))
        ))
        loaded = load(path)
        assert loaded.features.tobytes() == np.array([[float(v) for v in fields]] * 3).tobytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("domain,split,label,f0\n")
        with pytest.raises(ParseError, match="line 1"):
            load(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "fields.csv"
        path.write_text("domain_id,split,label,f0\n1,train,0\n")
        with pytest.raises(ParseError, match="line 2"):
            load(path)

    def test_loads_without_sidecar(self, default_ds, tmp_path):
        path = tmp_path / "plain.csv"
        save(default_ds, path)
        (tmp_path / "plain.meta.json").unlink()
        loaded = load(path)
        assert loaded.subclusters is None
        assert np.array_equal(loaded.labels, default_ds.labels)
