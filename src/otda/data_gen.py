"""Synthetic multi-institution benchmark.

Each class is a mixture of three Gaussian subclusters in a shared latent
space; every domain ("institution") applies its own affine intensity shift
(per-coordinate scale and offset, dominated by a scalar stain-like component)
to all of its samples. One class-1 subcluster is withheld from every domain
except the test one, giving the test institution a phenotype the model never
sees during training. The draw is always the five institutions of
_INSTITUTIONS, eight features each: domains 1..3 are the training split, 4
validation, 5 test.

The class axis and the subcluster axes are orthogonal to the all-ones
intensity direction, so the shift family never erases the label signal: a
representation that discards per-sample scale and offset can still classify
perfectly, while a representation that keeps them degrades off-distribution.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ContractViolationError, ParseError
from .eval_report import read_json, write_csv

SPLITS = ("train", "val", "test")
NUM_FEATURES = 8
SUBCLUSTERS_PER_CLASS = 3
# Subcluster withheld from all non-test domains: class 1, component 2.
MASKED_CLASS = 1
MASKED_SUBCLUSTER = 2

# The institutions in domain-id order: (split, base scale, base offset);
# per-coordinate jitter is added on top. Validation and test sit on the same
# ray of the stain axis (test further out), so invariance learned by aligning
# train with validation extrapolates to the unseen institution while a fixed
# raw-space boundary does not.
_INSTITUTIONS = (
    ("train", 0.90, -0.15),
    ("train", 1.00, 0.0),
    ("train", 1.10, 0.15),
    ("val", 1.70, 1.60),
    ("test", 2.20, 3.40),
)
_SCALE_JITTER = 0.03
_OFFSET_JITTER = 0.05

# Latent mixture geometry. Both classes sit on the positive side of the class
# axis, so the optimal decision threshold is nonzero and a fixed raw-space
# boundary misfires when a domain rescales intensities; scale-invariant
# features do not.
_NOISE_SIGMA = 0.50
_CLASS_CENTERS = (1.0, 3.0)
_LINE_SPREAD = 0.3
_CLUSTER_SPREAD = 0.8
_NOVEL_SPREAD = 1.3
_CLASS1_FRACTION_RANGE = (0.4, 0.6)

# Fixed seed for the latent geometry so every dataset shares the same class
# and subcluster axes; the generator seed drives sampling and shift jitter.
_GEOMETRY_SEED = 173

# The most rows per domain whose features (all domains, float64) numpy can index.
_MAX_SAMPLES_PER_DOMAIN = np.iinfo(np.intp).max // (len(_INSTITUTIONS) * NUM_FEATURES * 8)


@dataclass(frozen=True)
class GeneratorConfig:
    samples_per_domain: int = 600
    seed: int = 7

    def __post_init__(self):
        if self.samples_per_domain < 100:
            raise ConfigurationError("samples_per_domain must be >= 100")
        if self.samples_per_domain > _MAX_SAMPLES_PER_DOMAIN:
            raise ConfigurationError(f"samples_per_domain must be <= {_MAX_SAMPLES_PER_DOMAIN}, "
                                     f"got {self.samples_per_domain}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class DomainDataset:
    """Columnar sample store plus generator metadata.

    features: (N, d); labels: (N,) in {0, 1}; domain_ids: (N,) ints;
    splits: (N,) strings from SPLITS; subclusters: (N,) tags like "c1s2"
    or None when the provenance is unknown (e.g. a bare CSV).
    """

    features: np.ndarray
    labels: np.ndarray
    domain_ids: np.ndarray
    splits: np.ndarray
    subclusters: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.domain_ids.shape != (n,) or self.splits.shape != (n,):
            raise ContractViolationError("per-sample arrays must share one length")
        if self.subclusters is not None and self.subclusters.shape != (n,):
            raise ContractViolationError("subcluster tags must match the sample count")
        finite = np.isfinite(self.features).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ContractViolationError(f"non-finite feature in row {row} ({self.splits[row]} split)")
        per_domain = {}
        for dom, spl in zip(self.domain_ids.tolist(), self.splits.tolist()):
            prev = per_domain.setdefault(dom, spl)
            if prev != spl:
                raise ConfigurationError(f"domain {dom} carries multiple splits ({prev}, {spl})")
        by_split = {s: [d for d, v in per_domain.items() if v == s] for s in SPLITS}
        if len(by_split["val"]) != 1 or len(by_split["test"]) != 1 or not by_split["train"]:
            raise ConfigurationError(
                "dataset must have >=1 train domain, exactly 1 val domain and exactly 1 test domain; "
                f"got {by_split}"
            )

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def split_indices(self, split: str) -> np.ndarray:
        if split not in SPLITS:
            raise ContractViolationError(f"unknown split {split!r}")
        return np.flatnonzero(self.splits == split)

    def split_arrays(self, split: str) -> tuple:
        idx = self.split_indices(split)
        return self.features[idx], self.labels[idx]


def _latent_axes() -> np.ndarray:
    """Three unit directions (class axis, seen-subcluster axis, novel axis),
    all orthogonal to the all-ones intensity direction and to each other."""
    rng = np.random.default_rng(_GEOMETRY_SEED)
    basis = [np.ones(NUM_FEATURES) / np.sqrt(NUM_FEATURES)]
    axes = []
    while len(axes) < 3:
        cand = rng.standard_normal(NUM_FEATURES)
        for b in basis:
            cand -= (cand @ b) * b
        norm = np.linalg.norm(cand)
        if norm > 1e-6:
            cand /= norm
            basis.append(cand)
            axes.append(cand)
    return np.stack(axes)


def subcluster_means() -> np.ndarray:
    """(2, SUBCLUSTERS_PER_CLASS, NUM_FEATURES) latent means;
    [1, MASKED_SUBCLUSTER] is the withheld phenotype, displaced along a
    direction no seen cluster uses."""
    class_axis, spread_axis, novel_axis = _latent_axes()
    means = np.zeros((2, SUBCLUSTERS_PER_CLASS, NUM_FEATURES))
    for cls, center in enumerate(_CLASS_CENTERS):
        means[cls, 0] = (center - _LINE_SPREAD) * class_axis - _CLUSTER_SPREAD * spread_axis
        means[cls, 1] = (center + _LINE_SPREAD) * class_axis + _CLUSTER_SPREAD * spread_axis
        means[cls, 2] = center * class_axis
    means[MASKED_CLASS, MASKED_SUBCLUSTER] = (
        _CLASS_CENTERS[1] * class_axis + _NOVEL_SPREAD * novel_axis
    )
    return means


def _draw_shift(rng: np.random.Generator) -> tuple:
    """(scales, offsets, inclusion): each institution's per-coordinate
    affine shift, its base scale and offset with jitter, (5, NUM_FEATURES)
    arrays, and which subclusters of each class it draws from, (5, 2,
    SUBCLUSTERS_PER_CLASS) booleans; only the test institution draws the
    withheld one."""
    scales = np.empty((len(_INSTITUTIONS), NUM_FEATURES))
    offsets = np.empty_like(scales)
    for k, (_, base_scale, base_offset) in enumerate(_INSTITUTIONS):
        scales[k] = base_scale * np.exp(_SCALE_JITTER * rng.standard_normal(NUM_FEATURES))
        offsets[k] = base_offset + _OFFSET_JITTER * rng.standard_normal(NUM_FEATURES)
    inclusion = np.ones((len(_INSTITUTIONS), 2, SUBCLUSTERS_PER_CLASS), dtype=bool)
    inclusion[[split != "test" for split, _, _ in _INSTITUTIONS], MASKED_CLASS, MASKED_SUBCLUSTER] = False
    return scales, offsets, inclusion


def generate(config: GeneratorConfig) -> DomainDataset:
    """Draw the benchmark; deterministic for a fixed config. Every domain
    holds at least 40 rows of each class (samples_per_domain >= 100 and the
    class-1 share lies in _CLASS1_FRACTION_RANGE), drawn from two or three
    subclusters."""
    rng = np.random.default_rng([int(config.seed), 1])
    scales, offsets, inclusion = _draw_shift(rng)
    means = subcluster_means()
    lo, hi = _CLASS1_FRACTION_RANGE
    n = config.samples_per_domain

    feats, labels, domains, splits, tags = [], [], [], [], []
    for k, (split, _, _) in enumerate(_INSTITUTIONS):
        frac1 = float(rng.uniform(lo, hi))
        n1 = int(round(frac1 * n))
        y = np.concatenate([np.ones(n1, dtype=int), np.zeros(n - n1, dtype=int)])
        rng.shuffle(y)
        subs = np.zeros(n, dtype=int)
        for c in (0, 1):
            mask = y == c
            pool = np.flatnonzero(inclusion[k, c])
            subs[mask] = pool[(rng.random(int(mask.sum())) * pool.size).astype(int)]
        latent = means[y, subs] + _NOISE_SIGMA * rng.standard_normal((n, NUM_FEATURES))
        x = scales[k] * latent + offsets[k]
        feats.append(x)
        labels.append(y)
        domains.append(np.full(n, k + 1, dtype=int))
        splits.append(np.full(n, split, dtype=object))
        tags.extend(f"c{c}s{s}" for c, s in zip(y.tolist(), subs.tolist()))

    metadata = {
        "generator": {
            "num_domains": len(_INSTITUTIONS),
            "dim": NUM_FEATURES,
            "samples_per_domain": config.samples_per_domain,
            "seed": config.seed,
            "noise_sigma": _NOISE_SIGMA,
            "class0_center": _CLASS_CENTERS[0],
            "class1_center": _CLASS_CENTERS[1],
            "line_spread": _LINE_SPREAD,
            "cluster_spread": _CLUSTER_SPREAD,
            "novel_spread": _NOVEL_SPREAD,
        },
        "shift": {
            "scales": scales.tolist(),
            "offsets": offsets.tolist(),
            "inclusion": inclusion.tolist(),
        },
        "masked_subcluster": {"class": MASKED_CLASS, "index": MASKED_SUBCLUSTER, "tag": masked_tag()},
    }
    return DomainDataset(
        features=np.vstack(feats),
        labels=np.concatenate(labels),
        domain_ids=np.concatenate(domains),
        splits=np.concatenate(splits),
        subclusters=np.array(tags, dtype=object),
        metadata=metadata,
    )


def masked_tag() -> str:
    return f"c{MASKED_CLASS}s{MASKED_SUBCLUSTER}"


def swap_val_test(dataset: DomainDataset) -> DomainDataset:
    """Exchange the split tags of the validation and test domains."""
    splits = dataset.splits.copy()
    splits[dataset.splits == "val"] = "test"
    splits[dataset.splits == "test"] = "val"
    return replace(dataset, splits=splits)


def _meta_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def save(dataset: DomainDataset, path) -> None:
    """Write the samples as CSV (header domain_id,split,label,f0..f{d-1},
    floats at 9 significant digits) plus a JSON sidecar carrying metadata and
    subcluster tags."""
    header = ["domain_id", "split", "label"] + [f"f{j}" for j in range(dataset.dim)]
    rows = (
        [int(domain), split, int(label)] + [f"{v:.9g}" for v in x]
        for domain, split, label, x in zip(dataset.domain_ids, dataset.splits, dataset.labels, dataset.features)
    )
    path = write_csv(path, itertools.chain([header], rows))
    sidecar = {
        "metadata": dataset.metadata,
        "subclusters": None if dataset.subclusters is None else dataset.subclusters.tolist(),
    }
    _meta_path(path).write_text(json.dumps(sidecar, sort_keys=True))


# Data lines parsed together by load: the split strings of one block are
# alive at once, about 100 kB, where a whole file's would be megabytes.
_LOAD_BLOCK_LINES = 128


def _parse_rows(rows, d):
    """(features, labels, domain ids, splits) of the split data lines, parsed
    and checked whole-array at a time. Raises ValueError or OverflowError
    for the first rule that some line breaks, in the order: field count,
    domain id, label, features, split, label range, finiteness. np.array
    parses the feature strings as float() does."""
    width = next((len(parts) for parts in rows if len(parts) != 3 + d), None)
    if width is not None:
        raise ValueError(f"expected {3 + d} fields, got {width}")
    domains = np.array([int(parts[0]) for parts in rows], dtype=int)  # OverflowError beyond int64
    labels = [int(parts[2]) for parts in rows]
    feats = np.array([parts[3:] for parts in rows], dtype=float).reshape(len(rows), d)
    splits = [parts[1] for parts in rows]
    unknown = next((split for split in splits if split not in SPLITS), None)
    if unknown is not None:
        raise ValueError(f"unknown split {unknown!r}")
    label = next((label for label in labels if label not in (0, 1)), None)
    if label is not None:
        raise ValueError(f"label must be 0 or 1, got {label}")
    if not np.all(np.isfinite(feats)):
        raise ValueError("non-finite feature value")
    return feats, np.array(labels, dtype=int), domains, np.array(splits, dtype=object)


def load(path) -> DomainDataset:
    """Read a dataset written by save(); raises ParseError with the offending
    line number on malformed content. The sidecar is optional."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    if not lines:
        raise ParseError(f"{path}: line 1: empty file, expected a header row")
    header = lines[0].split(",")
    if len(header) < 4 or header[:3] != ["domain_id", "split", "label"]:
        raise ParseError(f"{path}: line 1: bad header {lines[0]!r}")
    d = len(header) - 3
    if header[3:] != [f"f{j}" for j in range(d)]:
        raise ParseError(f"{path}: line 1: feature columns must be f0..f{d - 1}")

    blocks = []
    for start in range(1, len(lines), _LOAD_BLOCK_LINES):
        rows = [line.split(",") for line in lines[start:start + _LOAD_BLOCK_LINES]]
        try:
            blocks.append(_parse_rows(rows, d))
        except (ValueError, OverflowError) as exc:
            # A block that fails holds a line that fails: name the first.
            for lineno, parts in enumerate(rows, start + 1):
                try:
                    _parse_rows([parts], d)
                except (ValueError, OverflowError) as line_exc:
                    raise ParseError(f"{path}: line {lineno}: {line_exc}") from line_exc
            raise ParseError(f"{path}: lines {start + 1}-{start + len(rows)}: {exc}") from exc
    feats, labels, domains, splits = (np.concatenate(column) for column in zip(*blocks or [_parse_rows([], d)]))

    subclusters = None
    metadata = {}
    meta_path = _meta_path(path)
    if meta_path.exists():
        sidecar = read_json(meta_path)
        metadata = sidecar.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ParseError(f"{meta_path}: metadata must be an object, got {type(metadata).__name__}")
        raw_tags = sidecar.get("subclusters")
        if raw_tags is not None:
            if not isinstance(raw_tags, list) or len(raw_tags) != feats.shape[0]:
                raise ParseError(f"{meta_path}: subclusters must be a list of {feats.shape[0]} tags")
            subclusters = np.array(raw_tags, dtype=object)
    return DomainDataset(feats, labels, domains, splits, subclusters, metadata)
