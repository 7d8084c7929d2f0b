"""Minimal differentiable feed-forward stack: a featurizer made of
dense / per-sample-normalization / ReLU blocks, dense classification heads,
cross-entropy, hand-written backpropagation, and SGD with momentum.

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
    """A model's layer shapes and where their entries sit in its flat buffer:
    featurizer, then classifier, then the domain head (None when absent),
    each layer's weight (row-major) followed by its bias. Copies and steps of
    a model share its layout, so it is worked out once per model."""

    featurizer: tuple  # (fan_in, fan_out) per layer
    classifier: tuple
    domain_head: tuple | None

    def __post_init__(self):
        components = [("featurizer", self.featurizer), ("classifier", self.classifier)]
        if self.domain_head is not None:
            components.append(("domain_head", self.domain_head))
        for name, shapes in components:
            if not shapes:
                raise ContractViolationError(f"{name} has no layers")
            if name != "featurizer":  # the heads read the features
                shapes = (self.featurizer[-1], *shapes)
            for prev, nxt in zip(shapes, shapes[1:]):
                if prev[1] != nxt[0]:
                    raise ContractViolationError(f"{name} layer widths do not compose: {prev} then {nxt}")

    @functools.cached_property
    def shapes(self) -> tuple:
        return self.featurizer + self.classifier + (self.domain_head or ())

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
        split, end = len(self.featurizer), len(self.featurizer) + len(self.classifier)
        return tuple(layers[:split]), tuple(layers[split:end]), tuple(layers[end:]) or None


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
        return self.featurizer[0].weight.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.featurizer[-1].weight.shape[1]

    @property
    def num_classes(self) -> int:
        return self.classifier[-1].weight.shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.layout, self.flat.copy())


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


def _init_layers(widths, rng) -> list:
    layers = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weight = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append(DenseLayer(weight, np.zeros(fan_out)))
    return layers


def _model_from_layers(featurizer, classifier, domain_head) -> ModelParams:
    """A model holding copies of the layers' arrays."""

    def shapes(layers):
        return None if layers is None else tuple(l.weight.shape for l in layers)

    layout = _Layout(shapes(featurizer), shapes(classifier), shapes(domain_head))
    flat = _flatten([*featurizer, *classifier, *(domain_head or ())])
    return ModelParams(layout, flat)


def init_model(
    input_dim: int,
    feature_widths=(64, 64, 32),
    num_classes: int = 2,
    classifier_widths=(),
    domain_head_widths=None,
    seed: int = 0,
) -> ModelParams:
    """Fan-in-scaled uniform initialization, deterministic per seed.

    feature_widths are the hidden widths of the featurizer (its last entry is
    the feature dimension); classifier_widths are extra hidden widths before
    the final linear logits layer. Pass domain_head_widths (e.g. (16,)) to
    attach a single-logit domain discriminator.
    """
    rng = np.random.default_rng([int(seed), 0])
    featurizer = _init_layers([input_dim, *feature_widths], rng)
    feature_dim = (input_dim, *feature_widths)[-1]  # no widths: _Layout refuses the empty featurizer
    classifier = _init_layers([feature_dim, *classifier_widths, num_classes], rng)
    domain_head = None
    if domain_head_widths is not None:
        domain_head = _init_layers([feature_dim, *domain_head_widths, 1], rng)
    return _model_from_layers(featurizer, classifier, domain_head)


def _normalize_rows(z: np.ndarray, squares: np.ndarray | None = None):
    """Normalize z's rows in place; returns (z, scale, floored).

    np.mean and np.var step by step: sum, divide by the count, and square
    the centered rows, which divided by the scale are also the output. The
    squares go to `squares`, a buffer of z's shape that the caller hands
    over (a fresh one when None)."""
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
        y, scale, floored = _normalize_rows(z, squares=squares)
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


def _head_inputs(layers, x: np.ndarray) -> list:
    """Each layer's input in a dense head, ReLU between layers: x, then the
    hidden activations. The final layer's output is not computed."""
    inputs = [x]
    for layer in layers[:-1]:
        z = inputs[-1] @ layer.weight
        z += layer.bias
        inputs.append(np.maximum(z, 0.0, out=z))
    return inputs


def _head_forward(layers, x: np.ndarray):
    """Dense head, final layer linear. Returns (output, per-layer inputs)."""
    inputs = _head_inputs(layers, x)
    out = inputs[-1] @ layers[-1].weight
    out += layers[-1].bias
    return out, inputs


def _head_backward(layers, inputs, dout, grads=None):
    """Backprop through a dense head, writing each layer's (dW, db) into
    grads (fresh arrays when None). A hidden unit passes gradient where its
    ReLU output, the next layer's input, is positive. Returns (grads, dx)."""
    if grads is None:
        grads = [DenseLayer(np.empty_like(l.weight), np.empty_like(l.bias)) for l in layers]
    grad = dout
    for i in range(len(layers) - 1, -1, -1):
        if i != len(layers) - 1:  # grad is the product below, so it can be masked in place
            grad *= inputs[i + 1] > 0
        np.matmul(inputs[i].T, grad, out=grads[i].weight)
        np.add.reduce(grad, axis=0, out=grads[i].bias)
        grad = grad @ layers[i].weight.T
    return grads, grad


def forward_classifier(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Map features to logits through the classification head."""
    f = np.asarray(features, dtype=float)
    if f.ndim != 2 or f.shape[1] != params.feature_dim:
        raise ContractViolationError(
            f"features of shape {f.shape} do not match classifier input width {params.feature_dim}"
        )
    out, _ = _head_forward(params.classifier, f)
    return out


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

    The classifier's layer inputs are recomputed from the traced features;
    both upstream terms may be given at once and their contributions sum.
    """
    if len(trace.inputs) != len(params.featurizer):
        raise ContractViolationError("trace does not match the model's featurizer depth")
    if trace.features.shape[1] != params.feature_dim:
        raise ContractViolationError("trace feature width does not match the model")

    grads = ModelParams(params.layout, np.zeros(params.layout.size))
    # The feature gradient is the sum 0 + dx + g, which is +0.0 where dx and
    # g are both -0.0: adding +0.0 first keeps that without a zero buffer.
    grad = None
    if upstream_logit_grads is not None:
        dlogits = np.asarray(upstream_logit_grads, dtype=float)
        if dlogits.shape != (trace.features.shape[0], params.num_classes):
            raise ContractViolationError(f"logit grads shape {dlogits.shape} does not match the trace")
        inputs = _head_inputs(params.classifier, trace.features)
        _, grad = _head_backward(params.classifier, inputs, dlogits, grads.classifier)
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
    where = str(path)
    payload = read_json(path)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"{where}: not a checkpoint file (format={payload.get('format')!r})")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ParseError(f"{where}: unsupported checkpoint version {payload.get('version')!r}")
    featurizer = _layers_from_json(payload.get("featurizer"), where, "featurizer")
    classifier = _layers_from_json(payload.get("classifier"), where, "classifier")
    head = payload.get("domain_head")
    domain_head = None if head is None else _layers_from_json(head, where, "domain_head")
    try:
        return _model_from_layers(featurizer, classifier, domain_head)
    except ContractViolationError as exc:
        raise ParseError(f"{where}: {exc}") from exc
