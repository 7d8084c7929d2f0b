"""Discrete optimal transport: cost matrices, entropic Sinkhorn solver,
a brute-force oracle for the unregularized problem, and the differentiable
transport value used as a training loss.

The solver minimizes  <G, C> - eps * H(G)  over couplings G with prescribed
marginals, where H(G) = -sum G_ij log G_ij. The gradient of the optimal value
with respect to the cost matrix is the optimal plan itself, which lets the
point-cloud loss below return exact first-order gradients without unrolling
solver iterations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (
    ConfigurationError,
    ContractViolationError,
    SinkhornConvergenceError,
    UnsupportedInstanceError,
)

EUCLIDEAN = "euclidean"
SQUARED_EUCLIDEAN = "squared_euclidean"
_METRICS = (EUCLIDEAN, SQUARED_EUCLIDEAN)

# Guard against the distance singularity at coincident points when
# differentiating the euclidean cost.
_DISTANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    """A weighted point cloud treated as an empirical probability measure.

    points: (n, d) array of feature coordinates.
    weights: (n,) probability vector.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
            raise ContractViolationError(f"points must be a non-empty 2-D array, got shape {points.shape}")
        if weights.shape != (points.shape[0],):
            raise ContractViolationError(
                f"weights shape {weights.shape} does not match {points.shape[0]} points"
            )
        if not np.all(np.isfinite(points)):
            raise ContractViolationError("points contain non-finite coordinates")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ContractViolationError("weights must be finite and nonnegative")
        if abs(float(weights.sum()) - 1.0) > 1e-9:
            raise ContractViolationError(f"weights sum to {weights.sum():.12g}, expected 1 within 1e-9")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def uniform(cls, points: np.ndarray) -> "DiscreteDistribution":
        points = np.asarray(points, dtype=float)
        n = points.shape[0]
        return cls(points, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise transport costs between two point clouds."""

    entries: np.ndarray
    metric_tag: str

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise ContractViolationError(f"cost entries must be 2-D, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)) or np.any(entries < 0):
            raise ContractViolationError("cost entries must be finite and nonnegative")
        if self.metric_tag not in _METRICS:
            raise ContractViolationError(f"unknown metric tag {self.metric_tag!r}")
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self) -> tuple:
        return self.entries.shape


@dataclass
class TransportPlan:
    """Coupling matrix with solver diagnostics.

    gamma: (n_s, n_t) nonnegative coupling.
    value_cost: <gamma, C>.
    value_regularized: <gamma, C> - eps * H(gamma), the solved objective.
    """

    gamma: np.ndarray
    value_cost: float
    value_regularized: float
    iterations_used: int
    converged: bool


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver settings.

    epsilon is interpreted relative to the mean cost when relative_epsilon is
    true (the default keeps behavior stable across feature scales); set
    relative_epsilon=False to use epsilon as an absolute regularization value.
    """

    epsilon: float = 0.05
    max_iterations: int = 1000
    marginal_tolerance: float = 1e-6
    relative_epsilon: bool = field(default=True)

    def __post_init__(self):
        if not np.isfinite(self.epsilon):
            raise ConfigurationError(f"epsilon must be finite, got {self.epsilon}")
        if not (self.epsilon > 0):
            raise ContractViolationError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.marginal_tolerance > 0):
            raise ContractViolationError("marginal_tolerance must be positive")
        if self.max_iterations < 1:
            raise ContractViolationError("max_iterations must be >= 1")

    def resolve_epsilon(self, cost_entries: np.ndarray) -> float:
        if not self.relative_epsilon:
            return float(self.epsilon)
        return float(self.epsilon) * max(float(np.mean(cost_entries)), _DISTANCE_FLOOR)


def cost_matrix(source: DiscreteDistribution, target: DiscreteDistribution, metric: str = EUCLIDEAN) -> CostMatrix:
    """Pairwise euclidean or squared-euclidean costs between the supports."""
    if metric not in _METRICS:
        raise ContractViolationError(f"unknown metric {metric!r}")
    if source.dim != target.dim:
        raise ContractViolationError(
            f"dimension mismatch: source has d={source.dim}, target has d={target.dim}"
        )
    scipy_metric = "euclidean" if metric == EUCLIDEAN else "sqeuclidean"
    entries = cdist(source.points, target.points, metric=scipy_metric)
    # cdist can return tiny negative values for identical rows under sqeuclidean
    np.maximum(entries, 0.0, out=entries)
    return CostMatrix(entries, metric)


def entropy(plan) -> float:
    """Shannon entropy -sum g log g of a plan (or raw matrix), with 0 log 0 = 0."""
    gamma = np.asarray(plan.gamma if isinstance(plan, TransportPlan) else plan, dtype=float)
    if np.any(gamma < 0):
        raise ContractViolationError("plan entries must be nonnegative")
    positive = gamma[gamma > 0]
    return float(-np.sum(positive * np.log(positive)))


def marginal_residual(plan: TransportPlan, source: DiscreteDistribution, target: DiscreteDistribution) -> tuple:
    """Max-norm deviations of the plan's row/column sums from the marginals."""
    gamma = np.asarray(plan.gamma, dtype=float)
    if gamma.shape != (source.n, target.n):
        raise ContractViolationError(
            f"plan shape {gamma.shape} does not match marginals ({source.n}, {target.n})"
        )
    row = float(np.max(np.abs(gamma.sum(axis=1) - source.weights)))
    col = float(np.max(np.abs(gamma.sum(axis=0) - target.weights)))
    return row, col


def exact_ot_bruteforce(cost: CostMatrix, source: DiscreteDistribution, target: DiscreteDistribution) -> tuple:
    """Exact unregularized optimum by permutation enumeration.

    Only valid for uniform marginals of equal size n <= 8, where the linear
    program is minimized at a permutation matrix scaled by 1/n. Ties resolve
    to the first minimal permutation in lexicographic order.
    """
    n = source.n
    if target.n != n:
        raise UnsupportedInstanceError(f"need equal sizes, got {n} and {target.n}")
    if n > 8:
        raise UnsupportedInstanceError(f"n={n} exceeds the enumeration limit of 8")
    uniform = np.full(n, 1.0 / n)
    if not (np.allclose(source.weights, uniform, atol=1e-9) and np.allclose(target.weights, uniform, atol=1e-9)):
        raise UnsupportedInstanceError("brute force requires uniform weights on both sides")
    C = cost.entries
    if C.shape != (n, n):
        raise ContractViolationError(f"cost shape {C.shape} does not match n={n}")

    best_perm = None
    best_cost = np.inf
    rows = np.arange(n)
    for perm in itertools.permutations(range(n)):
        total = float(C[rows, list(perm)].sum()) / n
        if total < best_cost:
            best_cost = total
            best_perm = perm

    gamma = np.zeros((n, n))
    gamma[rows, list(best_perm)] = 1.0 / n
    plan = TransportPlan(
        gamma=gamma,
        value_cost=best_cost,
        value_regularized=best_cost,
        iterations_used=0,
        converged=True,
    )
    return plan, best_cost


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis)
    safe = np.where(np.isfinite(m), m, 0.0)
    out = safe + np.log(np.sum(np.exp(a - np.expand_dims(safe, axis)), axis=axis))
    return np.where(np.isfinite(m), out, m)


def _round_to_feasible(gamma, a, b):
    """Project an almost-feasible plan onto the transport polytope: shrink
    overfull rows and columns, then spread the leftover mass as a rank-one
    correction. The result has exact marginals (to float addition), so its
    cost can never undercut the unregularized optimum."""
    rows = gamma.sum(axis=1)
    gamma = gamma * np.minimum(1.0, a / np.where(rows > 0, rows, 1.0))[:, None]
    cols = gamma.sum(axis=0)
    gamma = gamma * np.minimum(1.0, b / np.where(cols > 0, cols, 1.0))[None, :]
    missing_a = np.maximum(a - gamma.sum(axis=1), 0.0)
    missing_b = np.maximum(b - gamma.sum(axis=0), 0.0)
    total = missing_a.sum()
    if total > 0:
        gamma = gamma + np.outer(missing_a, missing_b) / total
    return gamma


def sinkhorn(
    cost: CostMatrix,
    source: DiscreteDistribution,
    target: DiscreteDistribution,
    config: SinkhornConfig = SinkhornConfig(),
) -> TransportPlan:
    """Alternating marginal scaling in the log domain, safe for any
    cost/epsilon ratio, until both marginal residuals (max norm) drop below
    the tolerance or the iteration cap is reached. A converged plan is
    rounded onto the marginal polytope, so feasibility is exact.
    """
    C = cost.entries
    if C.shape != (source.n, target.n):
        raise ContractViolationError(
            f"cost shape {C.shape} does not match marginals ({source.n}, {target.n})"
        )
    a = source.weights
    b = target.weights
    eps = config.resolve_epsilon(C)
    gamma, iters, converged = _sinkhorn_log(C, a, b, eps, config.max_iterations, config.marginal_tolerance)
    if converged:
        gamma = _round_to_feasible(gamma, a, b)
    value_cost = float(np.sum(gamma * C))
    value_reg = value_cost - eps * entropy(gamma)
    return TransportPlan(
        gamma=gamma,
        value_cost=value_cost,
        value_regularized=value_reg,
        iterations_used=iters,
        converged=converged,
    )


_ANNEAL_RATIO = 3.0
_ANNEAL_STAGE_ITERATIONS = 30


def _scale(log_k, log_a, log_b, v):
    """One Sinkhorn iteration: the row half-step, then the column half-step."""
    u = log_a - _logsumexp(log_k + v[None, :], axis=1)
    v = log_b - _logsumexp(log_k + u[:, None], axis=0)
    return u, v


def _sinkhorn_log(C, a, b, eps, max_iterations, tol):
    with np.errstate(divide="ignore"):
        log_a = np.log(a)
        log_b = np.log(b)

    # Warm start by annealing the regularization geometrically from the mean
    # cost down to the target, carrying the column potential (in cost units)
    # between stages; each stage's first half-step rebuilds the row
    # potential from it. In the sharp regime (eps far below the cost scale)
    # this cuts the iteration count by orders of magnitude; the answer is the
    # same fixed point. At most half the iteration budget goes to warm-up, so
    # the main loop always runs.
    v = np.zeros_like(b)
    iters = 0
    mean_cost = float(np.mean(C))
    if mean_cost > 10.0 * eps:
        stages = []
        stage = mean_cost / _ANNEAL_RATIO
        while stage > _ANNEAL_RATIO * eps:
            stages.append(stage)
            stage /= _ANNEAL_RATIO
        dual_g = np.zeros_like(b)
        for stage_eps in stages:
            if iters + _ANNEAL_STAGE_ITERATIONS > max_iterations // 2:
                break
            log_k = -C / stage_eps
            v = dual_g / stage_eps
            for _ in range(_ANNEAL_STAGE_ITERATIONS):
                _, v = _scale(log_k, log_a, log_b, v)
            iters += _ANNEAL_STAGE_ITERATIONS
            dual_g = stage_eps * v
        v = dual_g / eps

    log_k = -C / eps
    converged = False
    while iters < max_iterations:
        iters += 1
        u, v = _scale(log_k, log_a, log_b, v)
        gamma = np.exp(u[:, None] + log_k + v[None, :])
        row_err = np.max(np.abs(gamma.sum(axis=1) - a))
        col_err = np.max(np.abs(gamma.sum(axis=0) - b))
        if row_err <= tol and col_err <= tol:
            converged = True
            break
    return gamma, iters, converged


def ot_value_and_point_grads(
    source_points: np.ndarray,
    target_points: np.ndarray,
    config: SinkhornConfig = SinkhornConfig(),
    metric: str = EUCLIDEAN,
) -> tuple:
    """Entropic transport value between two uniform point clouds and its
    gradients with respect to every point coordinate.

    Returns (value, source_grads, target_grads) where value is the solved
    regularized objective. Gradients chain d(value)/dC = gamma through the
    cost's dependence on the points; the euclidean branch floors distances at
    1e-12 to avoid the singularity at coincident points.
    """
    X = np.asarray(source_points, dtype=float)
    Y = np.asarray(target_points, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ContractViolationError(f"point arrays must be 2-D with equal width, got {X.shape} and {Y.shape}")
    src = DiscreteDistribution.uniform(X)
    tgt = DiscreteDistribution.uniform(Y)
    cost = cost_matrix(src, tgt, metric)
    plan = sinkhorn(cost, src, tgt, config)
    if not plan.converged:
        row, col = marginal_residual(plan, src, tgt)
        raise SinkhornConvergenceError(
            f"Sinkhorn did not converge in {plan.iterations_used} iterations "
            f"(residuals row={row:.3e}, col={col:.3e})",
            iterations_used=plan.iterations_used,
            row_residual=row,
            col_residual=col,
        )
    gamma = plan.gamma
    if metric == SQUARED_EUCLIDEAN:
        row_mass = gamma.sum(axis=1)
        col_mass = gamma.sum(axis=0)
        grad_x = 2.0 * (row_mass[:, None] * X - gamma @ Y)
        grad_y = 2.0 * (col_mass[:, None] * Y - gamma.T @ X)
    else:
        # Pairs at (or below) the distance floor have no defined direction;
        # they contribute the zero subgradient instead of a floored quotient.
        distances = cost.entries
        weights = np.where(distances > _DISTANCE_FLOOR, gamma / np.maximum(distances, _DISTANCE_FLOOR), 0.0)
        grad_x = weights.sum(axis=1)[:, None] * X - weights @ Y
        grad_y = weights.sum(axis=0)[:, None] * Y - weights.T @ X
    return plan.value_regularized, grad_x, grad_y
