"""Discrete optimal transport: cost matrices, entropic Sinkhorn solver,
a brute-force oracle for the unregularized problem, and the differentiable
transport value used as a training loss.

The solver minimizes  <G, C> - eps * H(G)  over couplings G with prescribed
marginals, where H(G) = -sum G_ij log G_ij. It scales the rows and columns
of a Gibbs kernel with two mat-vecs per iteration and absorbs the scalings
into dual potentials before they leave a safe range (stabilized scaling,
Schmitzer 2019); it anneals eps from the cost scale in the sharp regime,
and over-relaxes the scalings once their rate is known, falling back to
plain steps when that stops paying (Thibault, Chizat, Dossal, Papadakis).
The gradient of the optimal value with respect to the cost matrix is the
optimal plan itself, which lets the point-cloud loss below return exact
first-order gradients without unrolling solver iterations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

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
    weights: (n,) positive probability vector.
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
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ContractViolationError("weights must be finite and positive")
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
        n = points.shape[0] if points.ndim == 2 else 0
        # With no rows to weigh, __post_init__ rejects the points' shape.
        return cls(points, np.full(n, 1.0 / n) if n else np.empty(0))


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise transport costs between two point clouds."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise ContractViolationError(f"cost entries must be 2-D, got shape {entries.shape}")
        # min() and max() check without a boolean temporary the size of the
        # matrix; a NaN fails both comparisons. min() raises on an empty array.
        if entries.size and not (entries.min() >= 0 and entries.max() < np.inf):
            raise ContractViolationError("cost entries must be finite and nonnegative")
        object.__setattr__(self, "entries", entries)


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


# The cost's recompute and a solve's finish (the rounding's rank-one
# correction, <gamma, C> and the entropy) use numpy temporaries of at most
# this many entries (512 KB) each, or one row where a row is longer, not a
# matrix-sized array. A training plan (at most 128 x 128) is one block.
_FINISH_BLOCK = 1 << 16
_RECOMPUTE_SHARE = 1e-4


def cost_matrix(source: DiscreteDistribution, target: DiscreteDistribution, metric: str = EUCLIDEAN) -> CostMatrix:
    """Pairwise euclidean or squared-euclidean costs between the supports,
    in C order, from |x|^2 + |y|^2 - 2 x.y. With u = 2^-53 and
    g = d u / (1 - d u) for d coordinates, the norms and the product each miss
    by at most g (|x|^2 + |y|^2) and the two adds by 4 u (1 + g)(1 + u) of it,
    so for d < 2^26 an entry is within (2d + 6) u (|x|^2 + |y|^2) of exact.
    Entries at or below _RECOMPUTE_SHARE of max|x|^2 + max|y|^2, where that
    error swamps the distance, are summed from coordinate differences, within
    the same bound, so a coincident pair costs exactly 0.0. A row norm of
    2^511 (about 6.7e153) or more can overflow to an infinite or NaN entry,
    which CostMatrix refuses (ContractViolationError) unless a numeric
    section raises first."""
    if metric not in _METRICS:
        raise ContractViolationError(f"unknown metric {metric!r}")
    if source.dim != target.dim:
        raise ContractViolationError(
            f"dimension mismatch: source has d={source.dim}, target has d={target.dim}"
        )
    X, Y = source.points, target.points
    x2, y2 = np.add.reduce(X * X, axis=1), np.add.reduce(Y * Y, axis=1)
    D = (-2.0 * X) @ Y.T
    D += x2[:, None]
    D += y2
    threshold = _RECOMPUTE_SHARE * (x2.max() + y2.max())
    step, pairs = max(_FINISH_BLOCK // target.n, 1), max(_FINISH_BLOCK // target.dim, 1)
    for start in range(0, source.n, step):
        block = D[start:start + step]
        if block.min() <= threshold:
            flat = np.flatnonzero(block <= threshold)
            for k in range(0, flat.size, pairs):
                rows, cols = np.divmod(flat[k:k + pairs], target.n)
                diff = X[rows + start]
                diff -= Y[cols]
                diff *= diff
                block[rows, cols] = np.add.reduce(diff, axis=1)
    if metric == EUCLIDEAN:
        np.sqrt(D, out=D)
    return CostMatrix(D)


# np.sum of a contiguous float64 array is a pairwise tree over its memory
# order: a span of more than this many terms splits at half its length,
# rounded down to a multiple of 8; a shorter one is a leaf that numpy adds
# with eight accumulators, which a block never cuts.
_PAIRWISE_LEAF = 128


def _tree_sum(terms, start, size):
    """np.sum of the `size` terms from `start` on, bit for bit: a span of
    numpy's pairwise tree that fits in one block is summed by np.add.reduce,
    which walks the same subtree, and the spans are added back up the tree.
    terms(start, stop) returns the terms [start, stop) as a contiguous
    array."""
    if size <= max(_FINISH_BLOCK, _PAIRWISE_LEAF):
        return np.add.reduce(terms(start, start + size))
    half = size // 2
    half -= half % 8
    return _tree_sum(terms, start, half) + _tree_sum(terms, start + half, size - half)


def entropy(gamma) -> float:
    """Shannon entropy -sum g log g of a coupling matrix, with 0 log 0 = 0.
    The terms g log g are made and summed a block at a time, in C order,
    which is the order of the masked sum; an F-ordered plan is copied for
    it. A zero entry makes the sum NaN, and only then is the masked sum
    taken; a negative, NaN or infinite entry raises ContractViolationError."""
    flat = np.ascontiguousarray(gamma, dtype=float).reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        total = _tree_sum(lambda s, e: _xlogx(flat[s:e]), 0, flat.size)
    if np.isfinite(total):
        return float(-total)
    # min() and max() check without a boolean temporary the size of the
    # plan; a NaN fails both comparisons.
    if not (flat.min() >= 0 and flat.max() < np.inf):
        raise ContractViolationError("plan entries must be finite and nonnegative")
    positive = flat[flat > 0]
    return float(-np.sum(positive * np.log(positive)))


def _xlogx(g):
    terms = np.log(g)
    terms *= g
    return terms


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


def require_converged(plan: TransportPlan, source: DiscreteDistribution, target: DiscreteDistribution) -> None:
    """Raise SinkhornConvergenceError, with the iteration count and both
    marginal residuals, when the solve that made plan hit its iteration cap."""
    if not plan.converged:
        row, col = marginal_residual(plan, source, target)
        raise SinkhornConvergenceError(
            f"Sinkhorn did not converge in {plan.iterations_used} iterations "
            f"(residuals row={row:.3e}, col={col:.3e})",
            iterations_used=plan.iterations_used,
            row_residual=row,
            col_residual=col,
        )


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


def _shrink(gamma, sums, target, axis):
    """Scale down, in place, the rows (axis=1) or columns (axis=0) of gamma
    whose sums exceed target. Returns whether gamma changed: a factor of
    exactly 1.0 changes no bit, so an all-ones factor is not applied. (After
    the row shrink, no column of a rounded training plan was found too
    large.)"""
    factor = np.minimum(1.0, target / np.where(sums > 0, sums, 1.0))
    if (factor == 1.0).all():
        return False
    gamma *= factor[:, None] if axis == 1 else factor[None, :]
    return True


def _round_to_feasible(gamma, a, b):
    """Project an almost-feasible plan onto the transport polytope, in place:
    shrink overfull rows and columns, then spread the leftover mass as a
    rank-one correction, added a block of whole rows at a time (see
    _FINISH_BLOCK). The result has exact marginals (to float addition), so
    its cost can never undercut the unregularized optimum."""
    rows = gamma.sum(axis=1)
    rows_moved = _shrink(gamma, rows, a, axis=1)
    cols = gamma.sum(axis=0)
    if _shrink(gamma, cols, b, axis=0):
        cols = gamma.sum(axis=0)
        rows_moved = True
    if rows_moved:
        rows = gamma.sum(axis=1)
    missing_a = np.maximum(a - rows, 0.0)
    missing_b = np.maximum(b - cols, 0.0)
    total = missing_a.sum()
    if total > 0:
        # np.outer's product over total
        step = max(_FINISH_BLOCK, _PAIRWISE_LEAF, gamma.shape[1]) // gamma.shape[1]
        for start in range(0, gamma.shape[0], step):
            correction = missing_a[start:start + step, None] * missing_b
            correction /= total
            gamma[start:start + step] += correction
    return gamma


def sinkhorn(
    cost: CostMatrix,
    source: DiscreteDistribution,
    target: DiscreteDistribution,
    config: SinkhornConfig = SinkhornConfig(),
) -> TransportPlan:
    """Alternating marginal scaling until both marginal residuals (max
    norm) drop below the tolerance or the iteration cap is reached. A
    converged plan is rounded onto the marginal polytope, so feasibility is
    exact.

    The scaling is stabilized: the kernel is built around dual potentials,
    and a scaling about to leave [1e-50, 1e50] (or whose kernel product
    underflowed) is absorbed into them, so any cost/epsilon ratio is safe.
    When the mean cost exceeds 10 eps, eps is annealed from the cost scale
    first. Solves longer than a 20-iteration probe are over-relaxed, with a
    factor taken from the observed rate and a fallback to plain steps;
    shorter solves take the plain iterates. iterations_used counts every
    iteration, annealing included, and each plain iteration tried from a
    relaxed iterate.
    """
    C = np.ascontiguousarray(cost.entries)
    if C.shape != (source.n, target.n):
        raise ContractViolationError(
            f"cost shape {C.shape} does not match marginals ({source.n}, {target.n})"
        )
    a = source.weights
    b = target.weights
    eps = config.resolve_epsilon(C)
    gamma, iters, converged = _sinkhorn_stabilized(C, a, b, eps, config.max_iterations, config.marginal_tolerance)
    if converged:
        gamma = _round_to_feasible(gamma, a, b)
    g, c = gamma.reshape(-1), C.reshape(-1)
    value_cost = float(_tree_sum(lambda s, e: g[s:e] * c[s:e], 0, g.size))
    value_reg = value_cost - eps * entropy(gamma)
    return TransportPlan(
        gamma=gamma,
        value_cost=value_cost,
        value_regularized=value_reg,
        iterations_used=iters,
        converged=converged,
    )


# Stabilized scaling (Schmitzer 2019). The plan is diag(u) K diag(v), with
# the Gibbs kernel K = exp((f ⊕ g - C) / eps) built around potentials f, g
# in cost units. A scaling that would leave [1 / _ABSORB_AT, _ABSORB_AT] is
# absorbed into its potential and K is rebuilt, so the mat-vecs stay finite
# however sharp eps is.
_ABSORB_AT = 1e50
# Annealing: when the mean cost exceeds 10 eps, stages from a third of the
# mean cost down by this ratio, of at most this many iterations each.
_ANNEAL_RATIO = 3.0
_ANNEAL_STAGE_ITERATIONS = 30
# Safeguarded over-relaxation (Thibault, Chizat, Dossal, Papadakis): plain
# iterations over a probe window, then omega = 2 / (1 + sqrt(1 - rho)) from
# the residual's contraction rate rho per iteration, capped below 2, in
# relaxed windows of at least _SETTLE / (2 - omega) iterations; see
# _next_omega.
_PROBE_WINDOW = 20
_OMEGA_CAP = 1.999
_SETTLE = 3.0


def _peaked_kernel(C, q, eps, out=None):
    """The Gibbs kernel around q and its c-transform p = min_j (C_ij - q_j):
    exp((p ⊕ q - C) / eps), built in one n x m buffer, whose rows peak at
    exactly 1. Returns (K, p)."""
    K = np.subtract(q, C, out=out)
    p = -K.max(axis=1)
    K += p[:, None]
    K /= eps
    return np.exp(K, out=K), p


def _half_step(M, C, p, q, x, y, w, eps, omega, product):
    """Scale one side of the plan: x = w / (M y), relaxed by omega
    (log x = (1 - omega) log x + omega log(w / (M y))), where M is K for the
    rows or K^T for the columns, p and x are this side's potential and
    scaling, q and y the other side's, and product is M @ y.

    If x would leave the safe range (or M y underflowed), y is absorbed into
    q, M is rebuilt in place around q and its c-transform, which becomes p,
    and the step is taken plainly there, where M @ 1 >= 1.
    Returns (x, y, product).
    """
    new = w / product
    if omega != 1.0:
        new = x ** (1.0 - omega) * new ** omega
    if new.max() <= _ABSORB_AT and (omega == 1.0 or new.min() >= 1.0 / _ABSORB_AT):
        return new, y, product
    q += eps * np.log(y)
    p[:] = _peaked_kernel(C, q, eps, out=M)[1]
    product = M.sum(axis=1)
    return w / product, np.ones_like(y), product


def _next_omega(residuals, omega, mark, best):
    """Safeguarded over-relaxation. Returns (omega, mark, best): the factor
    for the next iteration, the iteration count at which its window started,
    and the residual that a relaxed window has to beat.

    After a plain probe window, omega comes from the contraction rate rho of
    the window's second half. A relaxed iterate's residual is about
    1 / (2 - omega) times that of the plain iterate it stands for, and
    settles at rate omega - 1: so a relaxed window lasts at least
    _SETTLE / (2 - omega) iterations, the first one is not judged, and each
    later one either refines rho from its own rate or, if it left the
    residual no lower, falls back to a plain probe.
    """
    k = len(residuals)
    if omega == 1.0:
        if k - mark < _PROBE_WINDOW:
            return omega, mark, best
        half = _PROBE_WINDOW // 2
        rho = (residuals[-1] / residuals[-1 - half]) ** (1.0 / half)
        return (_optimal_omega(rho), k, np.inf) if rho < 1.0 else (omega, k, best)
    if k - mark < max(_PROBE_WINDOW, _SETTLE / (2.0 - omega)):
        return omega, mark, best
    if residuals[-1] >= best:
        return 1.0, k, np.inf
    if np.isfinite(best):
        # Young's relation between the relaxed rate lam and rho:
        # (lam + omega - 1)^2 = lam omega^2 rho.
        lam = (residuals[-1] / best) ** (1.0 / (k - mark))
        omega = _optimal_omega((lam + omega - 1.0) ** 2 / (lam * omega ** 2))
    return omega, k, residuals[-1]


def _optimal_omega(rho):
    return min(2.0 / (1.0 + np.sqrt(max(1.0 - rho, 0.0))), _OMEGA_CAP)


def _scaling_stage(C, a, b, eps, g, budget, tol):
    """Up to `budget` iterations at one eps, warm-started from the column
    potential g, updated in place. Returns (gamma, g, iterations, converged).

    Each iteration scales the rows, then the columns, and reads both
    marginal residuals of diag(u) K diag(v) from the products it holds:
    u * (K v) - a, with the K v that the next row step divides by, and
    v * (K^T u) - b.
    """
    K, f = _peaked_kernel(C, g, eps)
    u, v = np.ones_like(a), np.ones_like(b)
    Kv = K.sum(axis=1)
    residuals, omega, mark, best = [], 1.0, 0, np.inf
    checks, check_at = 0, tol
    converged = False
    # A product that underflows, or a power that overflows, makes an
    # infinite scaling, which _half_step absorbs.
    with np.errstate(divide="ignore", over="ignore"):
        while len(residuals) + checks < budget:
            u, v, Kv = _half_step(K, C, f, g, u, v, a, eps, omega, Kv)
            v, u, KTu = _half_step(K.T, C.T, g, f, v, u, b, eps, omega, K.T @ u)
            Kv = K @ v
            residual = np.abs(u * Kv - a).max()
            if omega != 1.0 or residual <= tol:
                # after a plain column step the column sums are b up to rounding
                residual = max(residual, np.abs(v * KTu - b).max())
            residuals.append(residual)
            if residual <= tol:
                converged = True
                break
            if omega != 1.0 and (2.0 - omega) * residual <= check_at:
                # A relaxed iterate stands for a plain one about
                # 1 / (2 - omega) times closer to the marginals: try the plain
                # iteration from it, at most once per halving of the residual.
                checks += 1
                check_at = (2.0 - omega) * residual / 2.0
                u_plain = a / Kv
                v_plain = b / (K.T @ u_plain)
                if np.abs(u_plain * (K @ v_plain) - a).max() <= tol:
                    u, v, converged = u_plain, v_plain, True
                    break
            omega, mark, best = _next_omega(residuals, omega, mark, best)
    g += eps * np.log(v)
    K *= u[:, None]
    K *= v
    return K, g, len(residuals) + checks, converged


def _sinkhorn_stabilized(C, a, b, eps, max_iterations, tol):
    """The solver behind `sinkhorn`: returns (gamma, iterations, converged)."""
    # Warm start by annealing eps geometrically from the mean cost down to
    # the target, carrying the column potential between stages. In the sharp
    # regime (eps far below the cost scale) this cuts the iteration count by
    # orders of magnitude; the answer is the same fixed point. At most half
    # the iteration budget goes to warm-up, so the last stage always runs.
    g = np.zeros_like(b)
    iters = 0
    mean_cost = float(np.mean(C))
    stage_eps = mean_cost / _ANNEAL_RATIO
    while (
        mean_cost > 10.0 * eps
        and stage_eps > _ANNEAL_RATIO * eps
        and iters + _ANNEAL_STAGE_ITERATIONS <= max_iterations // 2
    ):
        _, g, used, _ = _scaling_stage(C, a, b, stage_eps, g, _ANNEAL_STAGE_ITERATIONS, tol)
        iters += used
        stage_eps /= _ANNEAL_RATIO
    gamma, _, used, converged = _scaling_stage(C, a, b, eps, g, max_iterations - iters, tol)
    return gamma, iters + used, converged


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
    cost's dependence on the points; in the euclidean branch, pairs at or
    below a distance of 1e-12 get the zero subgradient, since the distance
    has no gradient at coincident points.
    """
    src = DiscreteDistribution.uniform(source_points)
    tgt = DiscreteDistribution.uniform(target_points)
    X, Y = src.points, tgt.points
    cost = cost_matrix(src, tgt, metric)
    plan = sinkhorn(cost, src, tgt, config)
    require_converged(plan, src, tgt)
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
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = gamma / distances
        if distances.min() <= _DISTANCE_FLOOR:
            weights[distances <= _DISTANCE_FLOOR] = 0.0
        grad_x = weights.sum(axis=1)[:, None] * X - weights @ Y
        grad_y = weights.sum(axis=0)[:, None] * Y - weights.T @ X
    return plan.value_regularized, grad_x, grad_y
