"""otda's one network and its training arithmetic: a featurizer of dense /
per-sample-normalization / ReLU blocks of widths FEATURE_WIDTHS, a linear
classifier over NUM_CLASSES classes, and for dann a domain head with one
hidden ReLU layer of DOMAIN_HEAD_WIDTH units and one logit; cross-entropy,
hand-written backpropagation, and SGD with momentum. Each head's passes are
written for its one shape. init_model(input_dim, domain_head, seed) builds
the network for an input width.

Everything is plain float64 numpy. Forward passes retain what the backward
pass needs, unless the caller only wants the features; gradients are exact
(finite-difference checked in the tests). Normalization repeats the steps
of np.mean and np.var, so it matches them bit for bit while making fewer
passes over each block.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ContractViolationError, ParseError
from .eval_report import read_json

# Per-sample normalization keeps rows at zero mean / unit variance across
# hidden units; rows with variance at or below this floor are scaled by
# sqrt(floor) instead so constant rows map to zeros.
VARIANCE_FLOOR = 1e-5

# The one network every method trains: the featurizer's block widths (the
# last is the feature width), the linear classifier's classes, and the
# hidden width of the domain head that dann attaches.
FEATURE_WIDTHS = (64, 64, 32)
NUM_CLASSES = 2
DOMAIN_HEAD_WIDTH = 16

CHECKPOINT_FORMAT = "otda-checkpoint"
CHECKPOINT_VERSION = 1


class DenseLayer(NamedTuple):
    """A dense layer's weight (fan_in, fan_out) and bias (fan_out,). In
    ModelParams both are views into the model's flat buffer."""

    weight: np.ndarray
    bias: np.ndarray


def _flatten(layers) -> np.ndarray:
    """The (weight, bias) pairs of layers laid end to end."""
    return np.concatenate([a.reshape(-1) for layer in layers for a in layer])


@dataclass(frozen=True)
class _Layout:
    """otda's network for an input width, with or without the domain head:
    its layer shapes and where their entries sit in its flat buffer. The
    featurizer comes first, then the classifier, then the domain head, each
    layer's weight (row-major) followed by its bias. Copies and steps of a
    model share its layout, so it is worked out once per model."""

    input_dim: int
    with_head: bool

    @functools.cached_property
    def parts(self) -> tuple:
        """(featurizer, classifier, domain head) as tuples of (fan_in,
        fan_out) per layer; the domain head's is empty when absent."""
        widths = (self.input_dim, *FEATURE_WIDTHS)
        feature_dim = FEATURE_WIDTHS[-1]
        head = ((feature_dim, DOMAIN_HEAD_WIDTH), (DOMAIN_HEAD_WIDTH, 1)) if self.with_head else ()
        return tuple(zip(widths, widths[1:])), ((feature_dim, NUM_CLASSES),), head

    @functools.cached_property
    def shapes(self) -> tuple:
        return sum(self.parts, ())

    @functools.cached_property
    def is_weight(self) -> np.ndarray:
        """True at weight entries, False at bias entries."""
        blocks = [np.repeat([True, False], (fan_in * fan_out, fan_out)) for fan_in, fan_out in self.shapes]
        return np.concatenate(blocks)

    @property
    def size(self) -> int:
        return self.is_weight.size

    def views(self, buf: np.ndarray) -> tuple:
        """(featurizer, classifier, domain_head) as tuples of DenseLayer views
        into buf; domain_head is None when the model has none."""
        layers, start = [], 0
        for fan_in, fan_out in self.shapes:
            mid = start + fan_in * fan_out
            layers.append(DenseLayer(buf[start:mid].reshape(fan_in, fan_out), buf[mid:mid + fan_out]))
            start = mid + fan_out
        split = len(FEATURE_WIDTHS)
        return tuple(layers[:split]), tuple(layers[split:split + 1]), tuple(layers[split + 1:]) or None


class ModelParams:
    """Featurizer + classifier weights and an optional domain-discriminator
    head in one flat float64 array. Gradients and SGD momentum are
    ModelParams of the model's layout too.

    featurizer, classifier and domain_head (None when absent) are tuples of
    DenseLayer views into flat: writing through a layer writes the model.
    """

    def __init__(self, layout: _Layout, flat: np.ndarray):
        if flat.shape != (layout.size,):
            raise ContractViolationError(f"buffer of shape {flat.shape} does not fit a layout of {layout.size} entries")
        self.layout, self.flat = layout, flat
        self.featurizer, self.classifier, self.domain_head = layout.views(flat)

    def __reduce__(self):
        # pickle the buffer, not the views, so an unpickled model shares it too
        return ModelParams, (self.layout, self.flat)

    @property
    def input_dim(self) -> int:
        return self.layout.input_dim


@dataclass
class ForwardTrace:
    """Intermediates retained by forward_features for the backward pass."""

    inputs: list  # per block: input matrix
    normalized: list  # per block: normalized pre-ReLU activations
    scales: list  # per block: (n, 1) per-row std used to normalize
    floored: list  # per block: (n, 1) bool, rows at the variance floor
    features: np.ndarray


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-3

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and np.isfinite(self.weight_decay)):
            raise ConfigurationError(
                f"learning_rate and weight_decay must be finite, got {self.learning_rate} and {self.weight_decay}"
            )
        if not (self.learning_rate > 0):
            raise ContractViolationError("learning_rate must be positive")
        if not (0 <= self.momentum < 1):
            raise ContractViolationError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ContractViolationError("weight_decay must be nonnegative")


def init_model(input_dim: int, domain_head: bool = False, seed: int = 0) -> ModelParams:
    """otda's network for inputs of width input_dim, with the domain head
    when domain_head is set: fan-in-scaled uniform weights drawn layer by
    layer in layout order, deterministic per seed, and zero biases."""
    rng = np.random.default_rng([int(seed), 0])
    layout = _Layout(input_dim, domain_head)
    params = ModelParams(layout, np.zeros(layout.size))
    for layer in params.featurizer + params.classifier + (params.domain_head or ()):
        bound = 1.0 / np.sqrt(layer.weight.shape[0])
        layer.weight[...] = rng.uniform(-bound, bound, size=layer.weight.shape)
    return params


def _normalize_rows(z: np.ndarray, squares: np.ndarray):
    """Normalize z's rows in place; returns (z, scale, floored).

    np.mean and np.var step by step: sum, divide by the count, and square
    the centered rows, which divided by the scale are also the output. The
    squares go to `squares`, a buffer of z's shape that the caller hands
    over."""
    k = z.shape[1]
    mean = np.add.reduce(z, axis=1, keepdims=True)
    mean /= k
    z -= mean
    var = np.add.reduce(np.square(z, out=squares), axis=1, keepdims=True)
    var /= k
    floored = var <= VARIANCE_FLOOR
    scale = np.sqrt(np.where(floored, VARIANCE_FLOOR, var))
    z /= scale
    return z, scale, floored


def forward_features(params: ModelParams, inputs: np.ndarray, keep_trace: bool = True) -> tuple:
    """Run the featurizer: dense -> per-sample normalization -> ReLU per block.

    Returns (features, trace); the trace feeds backward(). With keep_trace
    off the trace is None, each block drops its input once the product has
    run and writes its ReLU over its pre-activation, so a pass holds at most
    two block-sized arrays; the features are the same bytes.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ContractViolationError(
            f"inputs of shape {x.shape} do not match featurizer input width {params.input_dim}"
        )
    trace = ForwardTrace(inputs=[], normalized=[], scales=[], floored=[], features=None) if keep_trace else None
    for layer in params.featurizer:
        z = x @ layer.weight
        z += layer.bias
        if trace is not None:
            trace.inputs.append(x)
        del x  # untraced, the input is freed before the squares are allocated
        squares = np.empty_like(z)
        y, scale, floored = _normalize_rows(z, squares)
        if trace is not None:
            trace.normalized.append(y)
            trace.scales.append(scale)
            trace.floored.append(floored)
        # traced, backward reads y, so the squares' buffer becomes the output
        x = np.maximum(y, 0.0, out=y if trace is None else squares)
        del z, y, squares
    if trace is not None:
        trace.features = x
    return x, trace


def forward_classifier(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Map features to logits through the linear classifier."""
    f = np.asarray(features, dtype=float)
    if f.ndim != 2 or f.shape[1] != FEATURE_WIDTHS[-1]:
        raise ContractViolationError(
            f"features of shape {f.shape} do not match classifier input width {FEATURE_WIDTHS[-1]}"
        )
    (layer,) = params.classifier
    out = f @ layer.weight
    out += layer.bias
    return out


def _domain_head_forward(head, x: np.ndarray) -> tuple:
    """The domain head's logits for features x: a hidden ReLU layer, then
    one linear output unit. Returns (logits, hidden activations)."""
    hidden_layer, out_layer = head
    z = x @ hidden_layer.weight
    z += hidden_layer.bias
    hidden = np.maximum(z, 0.0, out=z)
    logits = hidden @ out_layer.weight
    logits += out_layer.bias
    return logits, hidden


def _domain_head_backward(head, x: np.ndarray, hidden: np.ndarray, dlogits: np.ndarray) -> tuple:
    """Backprop dlogits through the domain head that _domain_head_forward ran
    on x. A hidden unit passes gradient where its ReLU output is positive.
    Returns ((hidden layer's, output layer's) DenseLayer gradients, dx)."""
    hidden_layer, out_layer = head
    dhidden = dlogits @ out_layer.weight.T
    dhidden *= hidden > 0
    grads = (
        DenseLayer(x.T @ dhidden, np.add.reduce(dhidden, axis=0)),
        DenseLayer(hidden.T @ dlogits, np.add.reduce(dlogits, axis=0)),
    )
    return grads, dhidden @ hidden_layer.weight.T


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple:
    """Mean negative log-softmax of the true class.

    Returns (loss, dloss/dlogits); the gradient is (softmax - onehot) / n.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ContractViolationError(f"labels shape {labels.shape} does not match {n} rows of logits")
    if labels.min() < 0 or labels.max() >= k:
        raise ContractViolationError(f"labels must lie in [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    rows = np.arange(n)
    loss = float(-log_probs[rows, labels].mean())
    grads = np.exp(log_probs)
    grads[rows, labels] -= 1.0
    grads /= n
    return loss, grads


def _norm_backward(dy, y, scale, floored):
    """Gradient through y = (z - mean z) / s. For rows above the floor s
    depends on z; for floored rows s is the constant sqrt(floor).

    dy is a buffer the caller hands over: it is overwritten with its
    row-centered values. The means repeat np.mean's steps (sum, then divide
    by the count), as _normalize_rows does."""
    k = dy.shape[1]
    dz = np.multiply(dy, y)
    projection = np.add.reduce(dz, axis=1, keepdims=True)
    projection /= k
    np.multiply(y, projection, out=dz)
    mean = np.add.reduce(dy, axis=1, keepdims=True)
    mean /= k
    centered = np.subtract(dy, mean, out=dy)
    np.subtract(centered, dz, out=dz)
    dz /= scale
    if floored.any():
        rows = floored[:, 0]
        dz[rows] = centered[rows] / scale[rows]
    return dz


def backward(
    params: ModelParams,
    trace: ForwardTrace,
    upstream_feature_grads: np.ndarray | None,
    upstream_logit_grads: np.ndarray | None,
) -> ModelParams:
    """Reverse-mode gradients of any scalar loss whose partials with respect
    to the features and/or the logits are supplied.

    The classifier's gradients come from the traced features; both upstream
    terms may be given at once and their contributions sum.
    """
    grads = ModelParams(params.layout, np.zeros(params.layout.size))
    # The feature gradient is the sum 0 + dx + g, which is +0.0 where dx and
    # g are both -0.0: adding +0.0 first keeps that without a zero buffer.
    grad = None
    if upstream_logit_grads is not None:
        dlogits = np.asarray(upstream_logit_grads, dtype=float)
        if dlogits.shape != (trace.features.shape[0], NUM_CLASSES):
            raise ContractViolationError(f"logit grads shape {dlogits.shape} does not match the trace")
        (layer,), (dlayer,) = params.classifier, grads.classifier
        np.matmul(trace.features.T, dlogits, out=dlayer.weight)
        np.add.reduce(dlogits, axis=0, out=dlayer.bias)
        grad = dlogits @ layer.weight.T
        grad += 0.0
    if upstream_feature_grads is not None:
        g = np.asarray(upstream_feature_grads, dtype=float)
        if g.shape != trace.features.shape:
            raise ContractViolationError(f"feature grads shape {g.shape} does not match the trace")
        if grad is None:
            grad = g + 0.0
        else:
            grad += g
    if grad is None:
        grad = np.zeros_like(trace.features)

    for i in range(len(params.featurizer) - 1, -1, -1):
        grad *= trace.normalized[i] > 0  # grad is ours: the sum above or the product below
        dz = _norm_backward(grad, trace.normalized[i], trace.scales[i], trace.floored[i])
        np.matmul(trace.inputs[i].T, dz, out=grads.featurizer[i].weight)
        np.add.reduce(dz, axis=0, out=grads.featurizer[i].bias)
        if i > 0:  # nothing reads the gradient of the network's inputs
            grad = dz @ params.featurizer[i].weight.T
    return grads


def sgd_step(params: ModelParams, grads: ModelParams, velocity: ModelParams, config: OptimizerConfig) -> ModelParams:
    """One SGD-with-momentum step over the flat buffers:
    v <- mu v + (g + wd * w); w <- w - lr v.

    Weight decay applies to weight entries only, never biases. The momentum
    velocity is updated in place; returns new weights, and neither params
    nor grads is mutated.
    """
    if not params.layout == grads.layout == velocity.layout:
        raise ContractViolationError("gradients and momentum do not match the model's layout")
    # where= leaves bias entries at exactly g: a float mask's 0 * w term
    # would turn a -0.0 gradient into +0.0.
    step = grads.flat.copy()
    np.add(step, config.weight_decay * params.flat, out=step, where=params.layout.is_weight)
    velocity.flat *= config.momentum
    velocity.flat += step
    return ModelParams(params.layout, params.flat - np.multiply(config.learning_rate, velocity.flat, out=step))


def _layers_to_json(layers):
    return [
        {
            "shape": list(l.weight.shape),
            "weight": l.weight.reshape(-1).tolist(),
            "bias": l.bias.tolist(),
        }
        for l in layers
    ]


def _layers_from_json(spec, where, name):
    if not isinstance(spec, list):
        raise ParseError(f"{where}: {name} must be a list of layers, got {type(spec).__name__}")
    layers = []
    for i, entry in enumerate(spec):
        try:
            weight = np.array(entry["weight"], dtype=float).reshape(tuple(entry["shape"]))
            bias = np.array(entry["bias"], dtype=float)
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(f"{where}: malformed layer {i}: {exc}") from exc
        if weight.ndim != 2 or bias.shape != weight.shape[1:]:
            raise ParseError(f"{where}: layer {i} has weight shape {weight.shape} and bias shape {bias.shape}")
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise ParseError(f"{where}: layer {i} holds a non-finite weight or bias")
        layers.append(DenseLayer(weight, bias))
    return layers


def save_checkpoint(params: ModelParams, path) -> None:
    """Write weights as a self-describing JSON container."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "featurizer": _layers_to_json(params.featurizer),
        "classifier": _layers_to_json(params.classifier),
        "domain_head": None if params.domain_head is None else _layers_to_json(params.domain_head),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def load_checkpoint(path) -> ModelParams:
    """The model save_checkpoint wrote to path. A file whose layers are not
    otda's network for its first layer's input width, with or without the
    domain head, is a ParseError."""
    where = str(path)
    payload = read_json(path)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"{where}: not a checkpoint file (format={payload.get('format')!r})")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ParseError(f"{where}: unsupported checkpoint version {payload.get('version')!r}")
    featurizer = _layers_from_json(payload.get("featurizer"), where, "featurizer")
    classifier = _layers_from_json(payload.get("classifier"), where, "classifier")
    head = payload.get("domain_head")
    domain_head = [] if head is None else _layers_from_json(head, where, "domain_head")
    parts = tuple(tuple(l.weight.shape for l in layers) for layers in (featurizer, classifier, domain_head))
    layout = _Layout(featurizer[0].weight.shape[0] if featurizer else 0, head is not None)
    if parts != layout.parts:
        raise ParseError(f"{where}: layers of shapes {parts} are not otda's network")
    return ModelParams(layout, _flatten([*featurizer, *classifier, *domain_head]))
