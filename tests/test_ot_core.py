"""Transport core: frozen examples, the brute-force oracle, and the solver
properties (oracle agreement, feasibility, symmetry, monotonicity, gradient
correctness, scale covariance)."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from helpers import central_diff, raises_exactly, rel_err
from otda import ot_core
from otda.da_train import _numeric_section
from otda.errors import (
    ContractViolationError,
    NumericError,
    SinkhornConvergenceError,
    UnsupportedInstanceError,
)
from otda.ot_core import (
    EUCLIDEAN,
    SQUARED_EUCLIDEAN,
    CostMatrix,
    DiscreteDistribution,
    SinkhornConfig,
    cost_matrix,
    entropy,
    exact_ot_bruteforce,
    marginal_residual,
    ot_value_and_point_grads,
    sinkhorn,
)


def uniform_pair(rng, n, d=8, m=None):
    src = DiscreteDistribution.uniform(rng.standard_normal((n, d)))
    tgt = DiscreteDistribution.uniform(rng.standard_normal((m or n, d)))
    return src, tgt


def tight_config(epsilon, tol=1e-9, cap=200000):
    return SinkhornConfig(epsilon=epsilon, relative_epsilon=False, max_iterations=cap, marginal_tolerance=tol)


def log_domain_reference(C, a, b, eps, tol=1e-9, cap=200000):
    """Textbook Sinkhorn on the dual potentials, with exact log-domain
    half-steps and the solver's stopping rule and rounding. It never
    overflows, but at sharp eps it needs hundreds of thousands of
    iterations."""
    f, g = np.zeros_like(a), np.zeros_like(b)
    for _ in range(cap):
        f = eps * (np.log(a) - logsumexp((g[None, :] - C) / eps, axis=1))
        g = eps * (np.log(b) - logsumexp((f[:, None] - C) / eps, axis=0))
        gamma = np.exp((f[:, None] + g[None, :] - C) / eps)
        if max(np.abs(gamma.sum(axis=1) - a).max(), np.abs(gamma.sum(axis=0) - b).max()) <= tol:
            break
    return reference_round_to_feasible(gamma, a, b)


def assert_matches_reference(plan, cost, reference):
    assert np.abs(plan.gamma - reference).max() <= 1e-8
    assert plan.value_cost == pytest.approx(float(np.sum(reference * cost.entries)), abs=1e-9)


_coordinate = st.floats(-3.0, 3.0, allow_subnormal=False)


@st.composite
def point_clouds(draw, max_n=6, max_d=4, width=None):
    """A (n, d) point cloud with 2 <= n <= max_n; width fixes d."""
    n = draw(st.integers(2, max_n))
    d = width or draw(st.integers(1, max_d))
    return draw(arrays(float, (n, d), elements=_coordinate))


@st.composite
def point_cloud_pairs(draw, max_n=6, max_d=4):
    X = draw(point_clouds(max_n, max_d))
    return X, draw(point_clouds(max_n, width=X.shape[1]))


def blurred_epsilon(cost, fraction):
    """An absolute epsilon of at least a quarter of the largest cost, so each
    iteration contracts the error by at least tanh(2)**2 (Birkhoff) and a
    solve takes a few hundred iterations. At the shipped 0.05 x mean cost,
    drawn 6-point instances exist that miss 1e-7 after 200 000 iterations
    (the slow tail in ROADMAP item 2c)."""
    return fraction * max(float(cost.entries.max()), 1e-12)


_fractions = st.floats(0.25, 1.0)
# The shipped finish block, and blocks far below it, so that small plans
# straddle many blocks and the splits of numpy's pairwise summation tree.
_finish_blocks = st.sampled_from([ot_core._FINISH_BLOCK, 8, 64, 136])
_sinkhorn_settings = settings(max_examples=100, deadline=None)


def _uniform(n):
    return DiscreteDistribution.uniform(np.zeros((n, 1)))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: DiscreteDistribution(np.zeros((2, 1)), np.full(3, 1 / 3)), ContractViolationError,
                 "weights shape (3,) does not match 2 points", id="weights-shape"),
    pytest.param(lambda: DiscreteDistribution(np.zeros((2, 1)), np.array([1.0, 0.0])), ContractViolationError,
                 "weights must be finite and positive", id="weights-zero"),
    pytest.param(lambda: CostMatrix(np.zeros(3)), ContractViolationError,
                 "cost entries must be 2-D, got shape (3,)", id="cost-not-2d"),
    pytest.param(lambda: cost_matrix(_uniform(2), _uniform(2), "manhattan"), ContractViolationError,
                 "unknown metric 'manhattan'", id="cost-matrix-metric"),
    pytest.param(lambda: SinkhornConfig(marginal_tolerance=0.0), ContractViolationError,
                 "marginal_tolerance must be positive", id="tolerance"),
    pytest.param(lambda: SinkhornConfig(max_iterations=0), ContractViolationError,
                 "max_iterations must be >= 1", id="iterations"),
    pytest.param(lambda: sinkhorn(CostMatrix(np.zeros((2, 3))), _uniform(2), _uniform(2), SinkhornConfig()),
                 ContractViolationError, "cost shape (2, 3) does not match marginals (2, 2)", id="sinkhorn-cost-shape"),
    pytest.param(lambda: exact_ot_bruteforce(CostMatrix(np.zeros((2, 3))), _uniform(2), _uniform(3)),
                 UnsupportedInstanceError, "need equal sizes, got 2 and 3", id="bruteforce-sizes"),
    pytest.param(lambda: exact_ot_bruteforce(CostMatrix(np.zeros((2, 3))), _uniform(2), _uniform(2)),
                 ContractViolationError, "cost shape (2, 3) does not match n=2", id="bruteforce-cost-shape"),
])
def test_library_guard_names_the_fault(call, error, message):
    # inputs the CLI never builds, so only library callers meet these guards
    with raises_exactly(error, message):
        call()


class TestDiscreteDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ContractViolationError):
            DiscreteDistribution(np.zeros((2, 2)), np.array([0.5, 0.6]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ContractViolationError):
            DiscreteDistribution(np.zeros((2, 2)), np.array([1.1, -0.1]))

    def test_nonfinite_point_rejected(self):
        with pytest.raises(ContractViolationError):
            DiscreteDistribution(np.array([[np.inf, 0.0]]), np.array([1.0]))

    @pytest.mark.parametrize("points", [np.zeros((0, 3)), np.array(1.0), np.ones(3)])
    def test_uniform_of_no_rows_rejected(self, points):
        with pytest.raises(ContractViolationError):
            DiscreteDistribution.uniform(points)


class TestCostMatrix:
    def test_three_four_five_triangle(self):
        src = DiscreteDistribution.uniform(np.array([[0.0, 0.0]]))
        tgt = DiscreteDistribution.uniform(np.array([[3.0, 4.0]]))
        assert cost_matrix(src, tgt, EUCLIDEAN).entries[0, 0] == pytest.approx(5.0)

    def test_identical_points_zero_diagonal(self):
        pts = np.random.default_rng(0).standard_normal((4, 3))
        dist = DiscreteDistribution.uniform(pts)
        for metric in (EUCLIDEAN, SQUARED_EUCLIDEAN):
            entries = cost_matrix(dist, dist, metric).entries
            assert np.allclose(np.diag(entries), 0.0)

    def test_hand_computed_squared_euclidean(self):
        src = DiscreteDistribution.uniform(np.array([[0.0, 0.0], [1.0, 0.0]]))
        tgt = DiscreteDistribution.uniform(np.array([[0.0, 1.0], [2.0, 0.0]]))
        entries = cost_matrix(src, tgt, SQUARED_EUCLIDEAN).entries
        assert np.allclose(entries, [[1.0, 4.0], [2.0, 1.0]])

    def test_swap_transpose_symmetry(self):
        rng = np.random.default_rng(1)
        src, tgt = uniform_pair(rng, 3, d=4, m=5)
        fwd = cost_matrix(src, tgt).entries
        back = cost_matrix(tgt, src).entries
        assert np.allclose(fwd, back.T)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 40),
        d=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        duplicates=st.integers(0, 40),
        metric=st.sampled_from([EUCLIDEAN, SQUARED_EUCLIDEAN]),
    )
    def test_zero_at_copies_and_cdist_within_rounding_bound(self, n, m, d, seed, scale, duplicates, metric):
        # target rows copied from the source cost exactly 0.0, with no sign
        # bit; every entry is within cost_matrix's bound of scipy's cdist,
        # which itself misses by at most (d + 3) u of its squared distance
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(seed)
        X = scale * rng.standard_normal((n, d))
        Y = scale * rng.standard_normal((m, d))
        copied = min(duplicates, n, m)
        sources = rng.choice(n, copied, replace=False)
        Y[:copied] = X[sources]
        entries = cost_matrix(DiscreteDistribution.uniform(X), DiscreteDistribution.uniform(Y), metric).entries
        assert not np.signbit(entries).any()
        assert (entries[sources, np.arange(copied)] == 0.0).all()
        u = 2.0**-53
        squared = cdist(X, Y, metric="sqeuclidean")
        bound = (2 * d + 6) * u * ((X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)) + (d + 3) * u * squared
        if metric == EUCLIDEAN:
            # the square root and squaring it back add at most
            # (1 + u)^3 - 1 < 4 u of the squared entry
            entries = entries * entries
            bound += 4 * u * (squared + bound)
        assert (np.abs(entries - squared) <= bound).all()

    def test_dimension_mismatch(self):
        src = DiscreteDistribution.uniform(np.zeros((2, 3)))
        tgt = DiscreteDistribution.uniform(np.zeros((2, 4)))
        with pytest.raises(ContractViolationError):
            cost_matrix(src, tgt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    def test_nonfinite_or_negative_entry_rejected(self, bad):
        entries = np.ones((3, 4))
        entries[1, 2] = bad
        with pytest.raises(ContractViolationError):
            CostMatrix(entries)

    def test_empty_entries_accepted(self):
        assert CostMatrix(np.zeros((0, 3))).entries.shape == (0, 3)

    def test_checks_hold_no_matrix_sized_temporary(self):
        # A boolean mask over a post-hoc sized cost matrix (600 x 1 800)
        # takes 1.08 MB; building and checking the matrix stays below half,
        # also where shared rows send entries to the exact recompute. Clouds
        # on one point send every entry there, and its temporaries stay below
        # four 512 KB blocks; gathering a block's pairs at once held 50 MB.
        rng = np.random.default_rng(11)
        apart = rng.standard_normal((600, 32)), rng.standard_normal((1800, 32))
        shared = apart[0], np.vstack([apart[0][:400], apart[1][400:]])
        one_point = np.ones((600, 32)), np.ones((1800, 32))
        for (X, Y), zeros, bound in ((apart, 0, 2**19), (shared, 400, 2**19), (one_point, 600, 2**21)):
            src, tgt = DiscreteDistribution.uniform(X), DiscreteDistribution.uniform(Y)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                cost = cost_matrix(src, tgt)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert (np.diag(cost.entries[:, :zeros]) == 0.0).all()
            assert peak - cost.entries.nbytes < bound, f"{zeros} zeros: peak {peak} bytes"

    @pytest.mark.parametrize("X, Y", [
        ([[1e155, 0.0]], [[1e155, 1.0]]),
        ([[1e155, 0.0], [0.0, 0.0]], [[1e155, 1.0], [1.0, 1.0]]),
    ])
    @pytest.mark.parametrize("metric", [EUCLIDEAN, SQUARED_EUCLIDEAN])
    def test_overflowing_squares_are_refused(self, X, Y, metric):
        # cdist gives these rows a squared distance of 1.0, but their squares
        # overflow the expansion: no cost comes out
        src, tgt = DiscreteDistribution.uniform(np.array(X)), DiscreteDistribution.uniform(np.array(Y))
        with np.errstate(over="ignore", invalid="ignore"), raises_exactly(
                ContractViolationError, "cost entries must be finite and nonnegative"):
            cost_matrix(src, tgt, metric)
        with raises_exactly(NumericError, "overflow encountered in multiply"), _numeric_section():
            cost_matrix(src, tgt, metric)


class TestEntropy:
    def test_single_atom(self):
        assert entropy(np.array([[1.0]])) == 0.0

    def test_uniform_two_by_two(self):
        assert entropy(np.full((2, 2), 0.25)) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_zero_entries_contribute_nothing(self):
        assert entropy(np.array([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_negative_entry_rejected(self):
        with pytest.raises(ContractViolationError):
            entropy(np.array([[-0.1, 1.1]]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, entry):
        # a NaN entry is not dropped like a zero, and an infinite one does
        # not make the entropy -inf
        with pytest.raises(ContractViolationError):
            entropy(np.array([[0.5, entry]]))

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        seed=st.integers(0, 2**32 - 1),
        zero_share=st.sampled_from([0.0, 0.0, 0.1, 0.9]),
        transposed=st.booleans(),
        block=_finish_blocks,
    )
    def test_matches_masked_sum_bytes(self, shape, seed, zero_share, transposed, block):
        # positive plans skip the mask; they must still sum in its order
        rng = np.random.default_rng(seed)
        gamma = rng.random(shape) * 10.0 ** rng.uniform(-12, 0)
        gamma[rng.random(shape) < zero_share] = 0.0
        if transposed:
            gamma = gamma.T
        positive = gamma[gamma > 0]
        expected = float(-np.sum(positive * np.log(positive)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ot_core, "_FINISH_BLOCK", block)
            assert np.float64(entropy(gamma)).tobytes() == np.float64(expected).tobytes()


class TestBruteForce:
    def test_zero_diagonal_identity_matching(self):
        src = DiscreteDistribution.uniform(np.zeros((2, 1)))
        cost = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        plan, value = exact_ot_bruteforce(cost, src, src)
        assert value == 0.0
        assert np.allclose(plan.gamma, [[0.5, 0.0], [0.0, 0.5]])

    def test_antidiagonal_matching(self):
        src = DiscreteDistribution.uniform(np.zeros((2, 1)))
        cost = CostMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        plan, value = exact_ot_bruteforce(cost, src, src)
        assert value == pytest.approx(1.0)
        assert np.allclose(plan.gamma, [[0.0, 0.5], [0.5, 0.0]])

    def test_single_pairing(self):
        src = DiscreteDistribution.uniform(np.zeros((1, 1)))
        _, value = exact_ot_bruteforce(CostMatrix(np.array([[7.0]])), src, src)
        assert value == pytest.approx(7.0)

    def test_rejects_nonuniform_weights(self):
        dist = DiscreteDistribution(np.zeros((2, 1)), np.array([0.7, 0.3]))
        cost = CostMatrix(np.zeros((2, 2)))
        with pytest.raises(UnsupportedInstanceError):
            exact_ot_bruteforce(cost, dist, dist)

    def test_rejects_large_instances(self):
        dist = DiscreteDistribution.uniform(np.zeros((9, 1)))
        cost = CostMatrix(np.zeros((9, 9)))
        with pytest.raises(UnsupportedInstanceError):
            exact_ot_bruteforce(cost, dist, dist)


class TestSinkhorn:
    def test_self_transport_is_near_free(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((6, 4))
        dist = DiscreteDistribution.uniform(pts)
        cost = cost_matrix(dist, dist)
        plan = sinkhorn(cost, dist, dist, tight_config(0.01, tol=1e-8))
        off_diagonal = cost.entries[~np.eye(6, dtype=bool)]
        assert plan.converged
        assert plan.value_cost <= 0.05 * off_diagonal.mean()

    def test_small_epsilon_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        src, tgt = uniform_pair(rng, 4)
        cost = cost_matrix(src, tgt)
        _, best = exact_ot_bruteforce(cost, src, tgt)
        plan = sinkhorn(cost, src, tgt, tight_config(1e-3, tol=1e-6, cap=100000))
        assert plan.converged
        assert plan.value_cost == pytest.approx(best, rel=0.01)

    def test_large_epsilon_outer_product_limit(self):
        rng = np.random.default_rng(4)
        src, tgt = uniform_pair(rng, 5, m=4)
        cost = cost_matrix(src, tgt)
        config = tight_config(100.0 * cost.entries.max(), tol=1e-9, cap=10000)
        plan = sinkhorn(cost, src, tgt, config)
        assert np.abs(plan.gamma - np.outer(src.weights, tgt.weights)).max() <= 1e-3

    def test_agrees_with_sinkhorn_knopp_reference(self):
        rng = np.random.default_rng(5)
        src, tgt = uniform_pair(rng, 4, d=3)
        cost = cost_matrix(src, tgt)
        plan = sinkhorn(cost, src, tgt, tight_config(0.5))
        # textbook Sinkhorn-Knopp: scalings of the Gibbs kernel, same stopping rule
        a, b = src.weights, tgt.weights
        K = np.exp(-cost.entries / 0.5)
        v = np.ones_like(b)
        for _ in range(200000):
            u = a / (K @ v)
            v = b / (K.T @ u)
            gamma = u[:, None] * K * v[None, :]
            if max(np.abs(gamma.sum(axis=1) - a).max(), np.abs(gamma.sum(axis=0) - b).max()) <= 1e-9:
                break
        reference = reference_round_to_feasible(gamma, a, b)
        assert np.abs(plan.gamma - reference).max() <= 1e-8
        assert plan.value_cost == pytest.approx(float(np.sum(reference * cost.entries)), abs=1e-9)

    def test_nonconvergence_reported(self):
        rng = np.random.default_rng(7)
        src, tgt = uniform_pair(rng, 5)
        cost = cost_matrix(src, tgt)
        plan = sinkhorn(cost, src, tgt, SinkhornConfig(epsilon=0.01, max_iterations=1))
        assert not plan.converged
        assert plan.iterations_used == 1

    @_sinkhorn_settings
    @given(point_cloud_pairs(), _fractions)
    def test_converged_plans_are_feasible(self, pair, fraction):
        src, tgt = (DiscreteDistribution.uniform(p) for p in pair)
        cost = cost_matrix(src, tgt)
        plan = sinkhorn(cost, src, tgt, tight_config(blurred_epsilon(cost, fraction), tol=1e-7))
        assert plan.converged
        row, col = marginal_residual(plan, src, tgt)
        assert row <= 1e-7 and col <= 1e-7

    def test_value_monotone_in_epsilon(self):
        rng = np.random.default_rng(9)
        src, tgt = uniform_pair(rng, 5)
        cost = cost_matrix(src, tgt)
        plans = [
            sinkhorn(cost, src, tgt, tight_config(float(eps), tol=1e-9, cap=300000))
            for eps in np.geomspace(1e-3, 1.0, 10)
        ]
        assert all(plan.converged for plan in plans)
        values = [plan.value_cost for plan in plans]
        # feasibility rounding perturbs each value by O(n * tol * max cost)
        assert np.all(np.diff(values) >= -1e-7)

    def test_near_degenerate_tail_is_short(self):
        # At the shipped epsilon plain scaling shrinks this instance's
        # residual by a factor of only about 1 - 1e-5 per iteration and stops
        # unconverged after 200 000 iterations (row residual 8.5e-7);
        # over-relaxation converges in a few thousand.
        src = DiscreteDistribution.uniform(np.array([[0.0], [1.0]]))
        tgt = DiscreteDistribution.uniform(np.array([[0.0], [0.0], [2.0], [0.5]]))
        cost = cost_matrix(src, tgt)
        plan = sinkhorn(cost, src, tgt, SinkhornConfig(marginal_tolerance=1e-7, max_iterations=200000))
        assert plan.converged
        assert plan.iterations_used <= 10000
        row, col = marginal_residual(plan, src, tgt)
        assert row <= 1e-7 and col <= 1e-7

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sharp_epsilon_is_the_optimal_permutation(self, seed):
        # At eps = 1e-3 on 8-d normals exp(-C / eps) underflows, and the
        # log-domain reference needs over 200 000 iterations. The entropic
        # plan is the optimal permutation up to mass of order exp(-gap / eps),
        # so the brute-force oracle serves as the reference.
        rng = np.random.default_rng(seed)
        src, tgt = uniform_pair(rng, 5)
        cost = cost_matrix(src, tgt)
        reference, _ = exact_ot_bruteforce(cost, src, tgt)
        plan = sinkhorn(cost, src, tgt, tight_config(1e-3))
        assert plan.converged
        assert_matches_reference(plan, cost, reference.gamma)

    @pytest.mark.parametrize("distance", [60.0, 1000.0])
    def test_far_target_column_is_absorbed(self, monkeypatch, distance):
        # One target far from every source. Against the c-transform start its
        # kernel column peaks near exp(-141) at distance 60 and underflows to
        # 0 at distance 1000 (exp(-1282)), so its first scaling leaves the
        # safe range: the solver absorbs it into the potentials and rebuilds
        # the kernel.
        rng = np.random.default_rng(4)
        X = rng.standard_normal((16, 8))
        Y = rng.standard_normal((256, 8))
        Y[0, 0] += distance
        src, tgt = DiscreteDistribution.uniform(X), DiscreteDistribution.uniform(Y)
        cost = cost_matrix(src, tgt)
        epsilon = 0.1 * float(cost.entries.mean())  # no annealing
        builds = []
        build = ot_core._peaked_kernel
        monkeypatch.setattr(ot_core, "_peaked_kernel", lambda *args, **kw: builds.append(1) or build(*args, **kw))
        plan = sinkhorn(cost, src, tgt, tight_config(epsilon))
        assert plan.converged
        assert len(builds) > 1
        assert_matches_reference(plan, cost, log_domain_reference(cost.entries, src.weights, tgt.weights, epsilon))

    @pytest.mark.parametrize("seed", range(20))
    def test_plan_does_not_depend_on_cost_layout(self, seed):
        rng = np.random.default_rng(seed)
        src, tgt = uniform_pair(rng, 37, d=5, m=53)
        cost = cost_matrix(src, tgt)
        config = SinkhornConfig(epsilon=0.1)
        plan = sinkhorn(cost, src, tgt, config)
        fortran = sinkhorn(CostMatrix(np.asfortranarray(cost.entries)), src, tgt, config)
        assert_same_plan_bytes(fortran, plan.gamma, plan.value_cost, plan.value_regularized)
        assert fortran.iterations_used == plan.iterations_used

    def test_rectangular_nonuniform_posthoc_sized(self):
        # the shape of a post-hoc alignment solve (600 target rows against
        # 1 800 source rows of 32-d features), with annealing at eps = 0.5
        rng = np.random.default_rng(5)
        X = rng.standard_normal((600, 32))
        Y = rng.standard_normal((1800, 32)) + 0.3
        a = rng.random(600) + 0.1
        b = rng.random(1800) + 0.1
        src, tgt = DiscreteDistribution(X, a / a.sum()), DiscreteDistribution(Y, b / b.sum())
        cost = cost_matrix(src, tgt)
        plan = sinkhorn(cost, src, tgt, tight_config(0.5))
        assert plan.converged
        assert_matches_reference(plan, cost, log_domain_reference(cost.entries, src.weights, tgt.weights, 0.5))

    @_sinkhorn_settings
    @given(point_cloud_pairs(), _fractions)
    def test_transposition_symmetry(self, pair, fraction):
        src, tgt = (DiscreteDistribution.uniform(p) for p in pair)
        cost = cost_matrix(src, tgt)
        config = tight_config(blurred_epsilon(cost, fraction), tol=1e-12, cap=300000)
        fwd = sinkhorn(cost, src, tgt, config)
        back = sinkhorn(CostMatrix(cost.entries.T), tgt, src, config)
        assert abs(fwd.value_cost - back.value_cost) <= 1e-9
        assert np.abs(fwd.gamma - back.gamma.T).max() <= 1e-9

    @_sinkhorn_settings
    @given(point_cloud_pairs(), _fractions, st.floats(0.25, 4.0))
    def test_scale_covariance(self, pair, fraction, scale):
        X, Y = pair
        for metric, power in ((EUCLIDEAN, 1.0), (SQUARED_EUCLIDEAN, 2.0)):
            src = DiscreteDistribution.uniform(X)
            tgt = DiscreteDistribution.uniform(Y)
            cost = cost_matrix(src, tgt, metric)
            epsilon = blurred_epsilon(cost, fraction)
            base = sinkhorn(cost, src, tgt, tight_config(epsilon, tol=1e-10))
            src_s = DiscreteDistribution.uniform(scale * X)
            tgt_s = DiscreteDistribution.uniform(scale * Y)
            scaled = sinkhorn(
                cost_matrix(src_s, tgt_s, metric), src_s, tgt_s,
                tight_config(epsilon * scale ** power, tol=1e-10),
            )
            assert scaled.value_cost == pytest.approx(base.value_cost * scale ** power, rel=1e-8)


def reference_round_to_feasible(gamma, a, b):
    """_round_to_feasible as it was before it worked in blocks: one
    plan-sized outer product."""
    rows = gamma.sum(axis=1)
    gamma *= np.minimum(1.0, a / np.where(rows > 0, rows, 1.0))[:, None]
    cols = gamma.sum(axis=0)
    gamma *= np.minimum(1.0, b / np.where(cols > 0, cols, 1.0))[None, :]
    missing_a = np.maximum(a - gamma.sum(axis=1), 0.0)
    missing_b = np.maximum(b - gamma.sum(axis=0), 0.0)
    total = missing_a.sum()
    if total > 0:
        gamma += np.outer(missing_a, missing_b) / total
    return gamma


def reference_entropy(gamma):
    """entropy as it was before it worked in blocks: the unmasked sum for
    positive plans, after a scan for the minimum."""
    if gamma.size and gamma.min() > 0:
        flat = gamma.reshape(-1)
        return float(-np.sum(flat * np.log(flat)))
    positive = gamma[gamma > 0]
    return float(-np.sum(positive * np.log(positive)))


@st.composite
def solver_outputs(draw):
    """(gamma, C, a, b, converged) as the kernel could hand them to sinkhorn's
    finish: a near-feasible C-ordered plan with zero entries, and a cost that
    is C-ordered or, as a library caller may pass it, F-ordered. A
    300-column plan has rows longer than the small finish blocks, so its
    rounding adds its correction a row at a time."""
    n, m = draw(st.integers(1, 30)), draw(st.integers(1, 30) | st.just(300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.random(n) + 0.01, rng.random(m) + 0.01
    a, b = a / a.sum(), b / b.sum()
    gamma = np.outer(a, b) * (1.0 + draw(st.sampled_from([0.0, 1e-7, 1e-2])) * rng.standard_normal((n, m)))
    gamma[rng.random((n, m)) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    C = rng.random((n, m)) * 10.0 ** rng.uniform(-3, 3)
    if draw(st.sampled_from(["C", "transposed cost"])) != "C":
        C = np.asfortranarray(C)
    return np.maximum(gamma, 0.0), C, a, b, draw(st.booleans())


def assert_same_plan_bytes(plan, gamma, value_cost, value_regularized):
    assert plan.gamma.tobytes() == gamma.tobytes()
    assert np.float64(plan.value_cost).tobytes() == np.float64(value_cost).tobytes()
    assert np.float64(plan.value_regularized).tobytes() == np.float64(value_regularized).tobytes()


def posthoc_sized_problem():
    """A post-hoc alignment solve's shape and settings: 600 target rows
    against 1 800 source rows of 32-d features, absolute eps 2."""
    rng = np.random.default_rng(11)
    src = DiscreteDistribution.uniform(rng.standard_normal((600, 32)))
    tgt = DiscreteDistribution.uniform(rng.standard_normal((1800, 32)) + 0.3)
    config = SinkhornConfig(epsilon=2.0, relative_epsilon=False, max_iterations=1000, marginal_tolerance=1e-6)
    return cost_matrix(src, tgt), src, tgt, config


class TestSinkhornFinish:
    @settings(max_examples=300, deadline=None)
    @given(case=solver_outputs(), block=_finish_blocks)
    def test_matches_reference_bytes(self, case, block):
        gamma, C, a, b, converged = case
        src = DiscreteDistribution(np.zeros((len(a), 1)), a)
        tgt = DiscreteDistribution(np.zeros((len(b), 1)), b)
        config = SinkhornConfig()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ot_core, "_FINISH_BLOCK", block)
            mp.setattr(ot_core, "_sinkhorn_stabilized", lambda *args: (gamma.copy(), 7, converged))
            plan = sinkhorn(CostMatrix(C), src, tgt, config)
        expected = reference_round_to_feasible(gamma.copy(), a, b) if converged else gamma
        C = np.ascontiguousarray(C)  # an F-ordered cost gives the C-ordered cost's bytes
        value_cost = float(np.sum(expected * C))
        value_regularized = value_cost - config.resolve_epsilon(C) * reference_entropy(expected)
        assert_same_plan_bytes(plan, expected, value_cost, value_regularized)

    @settings(max_examples=300, deadline=None)
    @given(
        terms=arrays(float, st.integers(0, 3000), elements=st.floats(-1e6, 1e6, allow_subnormal=False)),
        block=st.sampled_from([8, 64, 136, 1000, 1 << 16]),
    )
    def test_tree_sum_is_np_sum(self, terms, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ot_core, "_FINISH_BLOCK", block)
            total = ot_core._tree_sum(lambda start, stop: terms[start:stop].copy(), 0, terms.size)
        assert np.float64(total).tobytes() == np.float64(np.sum(terms)).tobytes()

    def test_posthoc_sized_plan_matches_full_size_reference(self):
        cost, src, tgt, config = posthoc_sized_problem()
        C, a, b = cost.entries, src.weights, tgt.weights
        plan = sinkhorn(cost, src, tgt, config)
        eps = config.resolve_epsilon(C)
        solved, _, converged = ot_core._sinkhorn_stabilized(C, a, b, eps, config.max_iterations, config.marginal_tolerance)
        assert converged
        expected = reference_round_to_feasible(solved.copy(), a, b)
        assert not np.array_equal(expected, solved), "the rounding's correction must be exercised"
        value_cost = float(np.sum(expected * C))
        assert_same_plan_bytes(plan, expected, value_cost, value_cost - eps * reference_entropy(expected))

    def test_posthoc_sized_solve_holds_one_plan(self):
        # The plan, two finish blocks and 1 MB for the solver's vectors and
        # numpy's bookkeeping; a second plan-sized array would not fit. With
        # the cyclic collector off, what a reference cycle keeps of the
        # solve outlives it.
        cost, src, tgt, config = posthoc_sized_problem()
        limit = cost.entries.nbytes + 2 * 8 * ot_core._FINISH_BLOCK + 2**20
        collecting = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            plan = sinkhorn(cost, src, tgt, config)
            peak = tracemalloc.get_traced_memory()[1] - before
            del plan
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            if collecting:
                gc.enable()
        assert peak < limit, f"peak {peak} bytes, limit {limit}"
        assert kept < 2**20, f"{kept} bytes outlive the solve"


class TestMarginalResidual:
    def test_permutation_plan_exact(self):
        src = DiscreteDistribution.uniform(np.zeros((3, 1)))
        gamma = np.eye(3) / 3
        plan_args = dict(value_cost=0.0, value_regularized=0.0, iterations_used=0, converged=True)
        from otda.ot_core import TransportPlan

        plan = TransportPlan(gamma=gamma, **plan_args)
        assert marginal_residual(plan, src, src) == (0.0, 0.0)

    def test_outer_product_exact(self):
        from otda.ot_core import TransportPlan

        rng = np.random.default_rng(12)
        w = rng.random(4)
        w /= w.sum()
        src = DiscreteDistribution(np.zeros((4, 1)), w)
        tgt = DiscreteDistribution.uniform(np.zeros((3, 1)))
        plan = TransportPlan(np.outer(w, tgt.weights), 0.0, 0.0, 0, True)
        row, col = marginal_residual(plan, src, tgt)
        assert row <= 1e-12 and col <= 1e-12

    def test_zero_plan_residuals(self):
        from otda.ot_core import TransportPlan

        src = DiscreteDistribution.uniform(np.zeros((2, 1)))
        plan = TransportPlan(np.zeros((2, 2)), 0.0, 0.0, 0, False)
        assert marginal_residual(plan, src, src) == (0.5, 0.5)

    def test_shape_mismatch(self):
        from otda.ot_core import TransportPlan

        src = DiscreteDistribution.uniform(np.zeros((2, 1)))
        tgt = DiscreteDistribution.uniform(np.zeros((3, 1)))
        plan = TransportPlan(np.zeros((2, 2)), 0.0, 0.0, 0, False)
        with pytest.raises(ContractViolationError):
            marginal_residual(plan, src, tgt)


class TestPointGradients:
    @pytest.mark.parametrize("metric", [EUCLIDEAN, SQUARED_EUCLIDEAN])
    def test_matches_finite_differences(self, metric):
        rng = np.random.default_rng(13)
        config = tight_config(0.8, tol=1e-9)
        for _ in range(20):
            X = rng.standard_normal((int(rng.integers(3, 6)), 3))
            Y = rng.standard_normal((int(rng.integers(3, 6)), 3))
            _, grad_x, grad_y = ot_value_and_point_grads(X, Y, config, metric)
            fd_x = central_diff(lambda: ot_value_and_point_grads(X, Y, config, metric)[0], X)
            fd_y = central_diff(lambda: ot_value_and_point_grads(X, Y, config, metric)[0], Y)
            assert rel_err(grad_x, fd_x).max() <= 1e-4
            assert rel_err(grad_y, fd_y).max() <= 1e-4

    def test_self_coupling_gradients_tiny(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((8, 5))
        config = tight_config(1e-3, tol=1e-9, cap=100000)
        value, grad_x, grad_y = ot_value_and_point_grads(X, X.copy(), config, EUCLIDEAN)
        assert abs(value) <= 0.01
        assert max(np.abs(grad_x).max(), np.abs(grad_y).max()) <= 1e-4

    def test_translation_identity(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((6, 4))
        Y = rng.standard_normal((6, 4))
        shift = np.array([0.3, -0.2, 0.1, 0.5])
        config = tight_config(1.0, tol=1e-10)
        _, base, _ = ot_value_and_point_grads(X, Y, config, SQUARED_EUCLIDEAN)
        _, moved, _ = ot_value_and_point_grads(X, Y + shift, config, SQUARED_EUCLIDEAN)
        observed = moved.mean(axis=0) - base.mean(axis=0)
        assert np.abs(observed - (-2.0 * shift / 6.0)).max() <= 1e-7

    @settings(max_examples=100, deadline=None)
    @given(point_cloud_pairs(), _fractions, st.data())
    def test_euclidean_matches_reference_bytes(self, pair, fraction, data):
        # coincident points put pairs at zero distance, where the gradient
        # takes the zero subgradient
        X, Y = pair
        copies = data.draw(st.lists(st.tuples(st.integers(0, len(X) - 1), st.integers(0, len(Y) - 1)), max_size=3))
        for i, j in copies:
            Y[j] = X[i]
        src, tgt = DiscreteDistribution.uniform(X), DiscreteDistribution.uniform(Y)
        cost = cost_matrix(src, tgt)
        config = tight_config(blurred_epsilon(cost, fraction), tol=1e-7)
        value, grad_x, grad_y = ot_value_and_point_grads(X, Y, config, EUCLIDEAN)
        plan = sinkhorn(cost, src, tgt, config)
        # the quotient as it was computed before the floor was checked first
        distances = cost.entries
        weights = np.where(distances > 1e-12, plan.gamma / np.maximum(distances, 1e-12), 0.0)
        assert value == plan.value_regularized
        assert grad_x.tobytes() == (weights.sum(axis=1)[:, None] * X - weights @ Y).tobytes()
        assert grad_y.tobytes() == (weights.sum(axis=0)[:, None] * Y - weights.T @ X).tobytes()

    def test_empty_source_rejected(self):
        with pytest.raises(ContractViolationError):
            ot_value_and_point_grads(np.zeros((0, 3)), np.ones((4, 3)))

    def test_nonconvergence_raises_with_diagnostics(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((5, 3))
        Y = rng.standard_normal((5, 3))
        config = SinkhornConfig(epsilon=0.01, max_iterations=1)
        with pytest.raises(SinkhornConvergenceError) as info:
            ot_value_and_point_grads(X, Y, config)
        assert info.value.iterations_used == 1
        assert info.value.row_residual > 0
