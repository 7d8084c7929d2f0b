"""Shared oracles for the test suite: finite differences, relative error,
and a least-squares linear probe; a cap on the training solver for tests
that need a solve to fail; and a check of a guard's exact message."""

import re

import numpy as np
import pytest

from otda import da_train
from otda.nn_core import ModelParams
from otda.ot_core import SinkhornConfig


def raises_exactly(error, message):
    """pytest.raises for error carrying exactly message."""
    return pytest.raises(error, match=f"^{re.escape(message)}$")


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def central_diff(fn, arr, h=1e-5):
    """Central finite differences of a scalar function over every entry of arr
    (mutates arr in place while probing, restores it)."""
    grads = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        up = fn()
        arr[idx] = orig - h
        down = fn()
        arr[idx] = orig
        grads[idx] = (up - down) / (2 * h)
        it.iternext()
    return grads


def sampled_central_diff(fn, arr, analytic, rng, probes=6, h=1e-5):
    """Check a random subset of coordinates of arr against finite differences;
    returns the worst relative error over the probed entries."""
    flat_idx = rng.choice(arr.size, size=min(probes, arr.size), replace=False)
    worst = 0.0
    view = arr.reshape(-1)
    grad = analytic.reshape(-1)
    for idx in flat_idx:
        orig = view[idx]
        view[idx] = orig + h
        up = fn()
        view[idx] = orig - h
        down = fn()
        view[idx] = orig
        fd = (up - down) / (2 * h)
        worst = max(worst, float(rel_err(grad[idx], fd)))
    return worst


def probe_accuracy(x_train, y_train, x_eval, y_eval):
    """Least-squares linear probe (with intercept) on +/-1 targets."""
    a = np.hstack([x_train, np.ones((len(x_train), 1))])
    w, *_ = np.linalg.lstsq(a, 2.0 * y_train - 1.0, rcond=None)
    preds = (np.hstack([x_eval, np.ones((len(x_eval), 1))]) @ w) > 0
    return float((preds == y_eval.astype(bool)).mean())


def model_arrays(params):
    """params.flat split into its weight and bias blocks, in layout order: each
    layer's weight (row-major, flattened), then its bias, as views."""
    cuts = np.flatnonzero(np.diff(params.layout.is_weight)) + 1
    return np.split(params.flat, cuts)


def grads_arrays(grads):
    """The featurizer's and classifier's gradient blocks in model_arrays's
    order and shapes; the domain head's are left out."""
    return [a.reshape(-1) for layer in grads.featurizer + grads.classifier for a in layer]


def zeros_like(params):
    """A zero buffer in params's layout: fresh momentum, or a gradient to fill."""
    return ModelParams(params.layout, np.zeros(params.layout.size))


def params_equal(a_layers, b_layers):
    return all(
        np.array_equal(x.weight, y.weight) and np.array_equal(x.bias, y.bias)
        for x, y in zip(a_layers, b_layers)
    )


def cap_training_solver_at_one_iteration(monkeypatch):
    """No flag leads training into a solve that fails (even --epsilon 1e-12
    converges), so the tests that need one shrink the solver's budget in the
    training defaults that the CLI starts from."""
    monkeypatch.setattr(
        da_train, "SinkhornConfig", lambda **kw: SinkhornConfig(**{**kw, "max_iterations": 1})
    )


def record_blas_threads(monkeypatch, module, name, get_threads) -> list:
    """Wrap module.<name> so that each call appends the BLAS thread count it
    ran at to the returned list."""
    seen = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen.append(get_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return seen
