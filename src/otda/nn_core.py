"""Minimal differentiable feed-forward stack: a featurizer made of
dense / per-sample-normalization / ReLU blocks, dense classification heads,
cross-entropy, hand-written backpropagation, and SGD with momentum.

Everything is plain float64 numpy. Forward passes retain what the backward
pass needs; gradients are exact (finite-difference checked in the tests).
Normalization repeats the steps of np.mean and np.var, so it matches them
bit for bit while making fewer passes over each block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ContractViolationError, ParseError

# Per-sample normalization keeps rows at zero mean / unit variance across
# hidden units; rows with variance at or below this floor are scaled by
# sqrt(floor) instead so constant rows map to zeros.
VARIANCE_FLOOR = 1e-5

CHECKPOINT_FORMAT = "otda-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class DenseLayer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weight.copy(), self.bias.copy())


@dataclass
class ModelParams:
    """Featurizer + classifier weights, an optional domain-discriminator head,
    and momentum buffers parallel to every parameter array."""

    featurizer: list
    classifier: list
    domain_head: list | None
    velocity: dict  # component name -> list of (vel_w, vel_b)

    def __post_init__(self):
        for name, layers in self._components():
            widths = [layer.weight.shape for layer in layers]
            for prev, nxt in zip(widths, widths[1:]):
                if prev[1] != nxt[0]:
                    raise ContractViolationError(
                        f"{name} layer widths do not compose: {prev} then {nxt}"
                    )
            for layer, (vw, vb) in zip(layers, self.velocity[name]):
                if vw.shape != layer.weight.shape or vb.shape != layer.bias.shape:
                    raise ContractViolationError(f"{name} momentum buffers do not match parameter shapes")

    def _components(self):
        comps = [("featurizer", self.featurizer), ("classifier", self.classifier)]
        if self.domain_head is not None:
            comps.append(("domain_head", self.domain_head))
        return comps

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
        return ModelParams(
            featurizer=[l.copy() for l in self.featurizer],
            classifier=[l.copy() for l in self.classifier],
            domain_head=None if self.domain_head is None else [l.copy() for l in self.domain_head],
            velocity={k: [(vw.copy(), vb.copy()) for vw, vb in v] for k, v in self.velocity.items()},
        )


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


def _zero_velocity(layers) -> list:
    return [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in layers]


def _init_layers(widths, rng) -> list:
    layers = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weight = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append(DenseLayer(weight, np.zeros(fan_out)))
    return layers


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
    feature_dim = feature_widths[-1]
    classifier = _init_layers([feature_dim, *classifier_widths, num_classes], rng)
    domain_head = None
    if domain_head_widths is not None:
        domain_head = _init_layers([feature_dim, *domain_head_widths, 1], rng)
    velocity = {"featurizer": _zero_velocity(featurizer), "classifier": _zero_velocity(classifier)}
    if domain_head is not None:
        velocity["domain_head"] = _zero_velocity(domain_head)
    return ModelParams(featurizer, classifier, domain_head, velocity)


def _normalize_rows(z: np.ndarray):
    # np.mean and np.var step by step: sum, divide by the count, and square
    # the centered rows, which divided by the scale are also the output.
    k = z.shape[1]
    mean = np.add.reduce(z, axis=1, keepdims=True)
    mean /= k
    centered = z - mean
    var = np.add.reduce(np.square(centered), axis=1, keepdims=True)
    var /= k
    floored = var <= VARIANCE_FLOOR
    scale = np.sqrt(np.where(floored, VARIANCE_FLOOR, var))
    centered /= scale
    return centered, scale, floored


def forward_features(params: ModelParams, inputs: np.ndarray) -> tuple:
    """Run the featurizer: dense -> per-sample normalization -> ReLU per block.

    Returns (features, trace); the trace feeds backward().
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ContractViolationError(
            f"inputs of shape {x.shape} do not match featurizer input width {params.input_dim}"
        )
    trace = ForwardTrace(inputs=[], normalized=[], scales=[], floored=[], features=None)
    for layer in params.featurizer:
        trace.inputs.append(x)
        z = x @ layer.weight
        z += layer.bias
        y, scale, floored = _normalize_rows(z)
        trace.normalized.append(y)
        trace.scales.append(scale)
        trace.floored.append(floored)
        x = np.maximum(y, 0.0)
    trace.features = x
    return x, trace


def _head_forward(layers, x: np.ndarray):
    """Dense head: ReLU between layers, final layer linear. Returns
    (output, per-layer inputs, per-layer pre-activations)."""
    inputs, preacts = [], []
    out = x
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        inputs.append(out)
        z = out @ layer.weight + layer.bias
        preacts.append(z)
        out = z if i == last else np.maximum(z, 0.0)
    return out, inputs, preacts


def _head_backward(layers, inputs, preacts, dout):
    """Backprop through a dense head. Returns ([(dW, db)], dx)."""
    grads = [None] * len(layers)
    grad = dout
    for i in range(len(layers) - 1, -1, -1):
        if i != len(layers) - 1:
            grad = grad * (preacts[i] > 0)
        grads[i] = (inputs[i].T @ grad, grad.sum(axis=0))
        grad = grad @ layers[i].weight.T
    return grads, grad


def forward_classifier(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Map features to logits through the classification head."""
    f = np.asarray(features, dtype=float)
    if f.ndim != 2 or f.shape[1] != params.classifier[0].weight.shape[0]:
        raise ContractViolationError(
            f"features of shape {f.shape} do not match classifier input width "
            f"{params.classifier[0].weight.shape[0]}"
        )
    out, _, _ = _head_forward(params.classifier, f)
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


@dataclass
class ModelGrads:
    """Gradients shape-parallel to ModelParams; domain_head may be None."""

    featurizer: list
    classifier: list
    domain_head: list | None = None

    def add(self, other: "ModelGrads") -> "ModelGrads":
        def _sum(a, b):
            return [(gw + hw, gb + hb) for (gw, gb), (hw, hb) in zip(a, b)]

        head = self.domain_head
        if other.domain_head is not None:
            head = other.domain_head if head is None else _sum(head, other.domain_head)
        return ModelGrads(
            featurizer=_sum(self.featurizer, other.featurizer),
            classifier=_sum(self.classifier, other.classifier),
            domain_head=head,
        )


def _norm_backward(dy, y, scale, floored):
    # y = (z - mean z) / s. For rows above the floor s depends on z; for
    # floored rows s is the constant sqrt(floor).
    centered = dy - dy.mean(axis=1, keepdims=True)
    dz = y * (dy * y).mean(axis=1, keepdims=True)
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
) -> ModelGrads:
    """Reverse-mode gradients of any scalar loss whose partials with respect
    to the features and/or the logits are supplied.

    The classifier's intermediates are recomputed from the traced features;
    both upstream terms may be given at once and their contributions sum.
    """
    if len(trace.inputs) != len(params.featurizer):
        raise ContractViolationError("trace does not match the model's featurizer depth")
    if trace.features.shape[1] != params.feature_dim:
        raise ContractViolationError("trace feature width does not match the model")

    dfeatures = np.zeros_like(trace.features)
    classifier_grads = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in params.classifier]
    if upstream_logit_grads is not None:
        dlogits = np.asarray(upstream_logit_grads, dtype=float)
        if dlogits.shape != (trace.features.shape[0], params.num_classes):
            raise ContractViolationError(f"logit grads shape {dlogits.shape} does not match the trace")
        _, inputs, preacts = _head_forward(params.classifier, trace.features)
        classifier_grads, dx = _head_backward(params.classifier, inputs, preacts, dlogits)
        dfeatures += dx
    if upstream_feature_grads is not None:
        g = np.asarray(upstream_feature_grads, dtype=float)
        if g.shape != trace.features.shape:
            raise ContractViolationError(f"feature grads shape {g.shape} does not match the trace")
        dfeatures += g

    featurizer_grads = [None] * len(params.featurizer)
    grad = dfeatures
    for i in range(len(params.featurizer) - 1, -1, -1):
        dy = grad * (trace.normalized[i] > 0)
        dz = _norm_backward(dy, trace.normalized[i], trace.scales[i], trace.floored[i])
        featurizer_grads[i] = (trace.inputs[i].T @ dz, dz.sum(axis=0))
        if i > 0:  # nothing reads the gradient of the network's inputs
            grad = dz @ params.featurizer[i].weight.T
    return ModelGrads(featurizer=featurizer_grads, classifier=classifier_grads)


def sgd_step(params: ModelParams, grads: ModelGrads, config: OptimizerConfig) -> ModelParams:
    """One SGD-with-momentum step: v <- mu v + (g + wd * w); w <- w - lr v.

    Weight decay applies to weight matrices only, never biases. Components
    without gradients (e.g. the domain head on a plain step) are untouched.
    Returns a new ModelParams; the input is not mutated.
    """
    new = params.copy()
    updates = {"featurizer": grads.featurizer, "classifier": grads.classifier}
    if grads.domain_head is not None:
        if new.domain_head is None:
            raise ContractViolationError("domain head gradients supplied for a model without one")
        updates["domain_head"] = grads.domain_head
    for name, layer_grads in updates.items():
        layers = getattr(new, name)
        if len(layer_grads) != len(layers):
            raise ContractViolationError(f"{name} gradient count does not match layer count")
        for layer, (dw, db), vel in zip(layers, layer_grads, new.velocity[name]):
            if dw.shape != layer.weight.shape or db.shape != layer.bias.shape:
                raise ContractViolationError(f"{name} gradient shapes do not match parameters")
            vw, vb = vel
            vw *= config.momentum
            vw += dw + config.weight_decay * layer.weight
            vb *= config.momentum
            vb += db
            layer.weight -= config.learning_rate * vw
            layer.bias -= config.learning_rate * vb
    return new


def _layers_to_json(layers):
    return [
        {
            "shape": list(l.weight.shape),
            "weight": l.weight.reshape(-1).tolist(),
            "bias": l.bias.tolist(),
        }
        for l in layers
    ]


def _layers_from_json(spec, where):
    layers = []
    for i, entry in enumerate(spec):
        try:
            shape = tuple(entry["shape"])
            weight = np.array(entry["weight"], dtype=float).reshape(shape)
            bias = np.array(entry["bias"], dtype=float)
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(f"{where}: malformed layer {i}: {exc}") from exc
        if bias.shape != (shape[1],):
            raise ParseError(f"{where}: layer {i} bias length {bias.shape} does not match shape {shape}")
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise ParseError(f"{where}: layer {i} holds a non-finite weight or bias")
        layers.append(DenseLayer(weight, bias))
    return layers


def save_checkpoint(params: ModelParams, path) -> None:
    """Write weights as a self-describing JSON container (momentum buffers are
    not persisted; a loaded model starts with zero velocity)."""
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
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: not valid JSON: {exc}") from exc
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"{where}: not a checkpoint file (format={payload.get('format')!r})")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ParseError(f"{where}: unsupported checkpoint version {payload.get('version')!r}")
    featurizer = _layers_from_json(payload["featurizer"], where)
    classifier = _layers_from_json(payload["classifier"], where)
    domain_head = None
    if payload.get("domain_head") is not None:
        domain_head = _layers_from_json(payload["domain_head"], where)
    velocity = {"featurizer": _zero_velocity(featurizer), "classifier": _zero_velocity(classifier)}
    if domain_head is not None:
        velocity["domain_head"] = _zero_velocity(domain_head)
    return ModelParams(featurizer, classifier, domain_head, velocity)
