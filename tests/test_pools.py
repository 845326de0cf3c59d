from __future__ import annotations

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localpools.densities import Mixture, PoolWeights
from localpools.history import History, caliper_rows
from localpools import pools
from localpools.local_elpd import LocalElpdEstimate
from localpools.pools import (
    NATURAL,
    FixedScaling,
    PoolQuery,
    equal_weights,
    local_opt_weights,
    optimize_pool_weights,
    pooled_log_scores,
    softmax_grid,
    softmax_weights,
)
from oracles import _certified_fit as numpy_certified_fit
from oracles import Gaussian, pooled_objective, refined_grid_best, softmax_cell


def _estimate(values, n=10, width=1.0):
    return LocalElpdEstimate(np.asarray(values, dtype=float), n, width)


class TestScalingRules:
    def test_natural_factor_is_count(self):
        assert NATURAL.factor(17) == 17.0
        assert NATURAL.label() == "natural"

    def test_fixed_factor_ignores_count(self):
        rule = FixedScaling(2.5)
        assert rule.factor(0) == 2.5
        assert rule.factor(1000) == 2.5
        assert rule.label() == "tau=2.5"

    def test_fixed_rejects_bad_tau(self):
        for bad in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                FixedScaling(bad)


class TestEqualWeights:
    def test_values(self):
        np.testing.assert_array_equal(equal_weights(1).values, [1.0])
        np.testing.assert_array_equal(equal_weights(4).values, [0.25] * 4)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            equal_weights(0)


class TestSoftmaxWeights:
    def test_frozen_two_expert_value(self):
        w = softmax_weights(_estimate([-1.0, -2.0]), FixedScaling(1.0))
        assert w[0] == pytest.approx(0.7310585786300049, abs=1e-15)
        assert w[1] == pytest.approx(0.2689414213699951, abs=1e-15)

    def test_tau_zero_is_exactly_equal(self):
        w = softmax_weights(_estimate([-1.0, -50.0, 3.0]), FixedScaling(0.0))
        np.testing.assert_array_equal(w.values, [1.0 / 3.0] * 3)

    def test_empty_neighborhood_natural_is_exactly_equal(self):
        est = LocalElpdEstimate(np.zeros(4), neighbor_count=0, width=0.5)
        w = softmax_weights(est, NATURAL)
        np.testing.assert_array_equal(w.values, [0.25] * 4)

    def test_identical_estimates_are_exactly_equal(self):
        w = softmax_weights(_estimate([-3.7, -3.7]), FixedScaling(5.0))
        np.testing.assert_array_equal(w.values, [0.5, 0.5])

    def test_huge_tau_selects_model(self):
        w = softmax_weights(_estimate([-1.0, -1.01]), FixedScaling(1e6))
        assert w[0] > 1.0 - 1e-9

    def test_natural_equals_fixed_at_count(self):
        est = _estimate([-1.0, -1.5, -0.2], n=37)
        natural = softmax_weights(est, NATURAL)
        fixed = softmax_weights(est, FixedScaling(37.0))
        np.testing.assert_array_equal(natural.values, fixed.values)

    def test_extreme_magnitudes_stay_finite(self):
        w = softmax_weights(_estimate([-1e8, -2e8]), FixedScaling(1.0))
        assert w[0] == 1.0 and w[1] == 0.0

    def test_all_minus_inf_estimates_fall_back_to_equal(self):
        est = LocalElpdEstimate(np.array([-np.inf, -np.inf]), 3, 1.0)
        np.testing.assert_array_equal(
            softmax_weights(est, FixedScaling(1.0)).values, [0.5, 0.5]
        )

    def test_scaled_estimates_that_overflow_stay_on_the_simplex(self):
        """Estimates of +-1e308 times a factor overflow to +-inf: the experts
        at a maximum of +inf share the weight, and no NaN or warning arises."""
        cases = [
            ([-1e308, 1e308], NATURAL, [0.0, 1.0]),
            ([1e308, 1e308, -3.0], NATURAL, [0.5, 0.5, 0.0]),
            ([1e308, -1e308], FixedScaling(2.0), [1.0, 0.0]),
            ([-1e308, 1e308], FixedScaling(0.0), [0.5, 0.5]),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for estimates, scaling, expected in cases:
                w = softmax_weights(_estimate(estimates, n=7), scaling)
                np.testing.assert_array_equal(w.values, expected)


@given(
    st.lists(st.floats(min_value=-30, max_value=5), min_size=2, max_size=5),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=200, deadline=None)
def test_softmax_shift_invariance(estimates, tau, shift):
    """Adding a constant to every estimate cannot change the weights."""
    base = softmax_weights(_estimate(estimates), FixedScaling(tau))
    moved = softmax_weights(
        _estimate(np.asarray(estimates) + shift), FixedScaling(tau)
    )
    np.testing.assert_allclose(moved.values, base.values, rtol=0, atol=1e-11)


@given(
    st.lists(
        st.floats(min_value=-20, max_value=0), min_size=2, max_size=5, unique=True
    ),
    st.floats(min_value=0.05, max_value=20.0),
)
@settings(max_examples=200, deadline=None)
def test_softmax_preserves_estimate_ordering(estimates, tau):
    est = np.asarray(estimates)
    if np.min(np.abs(np.subtract.outer(est, est)[~np.eye(len(est), dtype=bool)])) < 1e-6:
        return  # too close to resolve in floating point
    w = softmax_weights(_estimate(est), FixedScaling(tau)).values
    order_est = np.argsort(est)
    order_w = np.argsort(w)
    np.testing.assert_array_equal(order_est, order_w)


@st.composite
def _grids(draw):
    """Counts, estimates and scaling rules of a grid of 1-120 cells, with
    infinite, huge and tied estimates, empty calipers and zero factors."""
    widths, k = draw(st.integers(1, 20)), draw(st.integers(1, 6))
    estimate = st.one_of(
        st.floats(min_value=-50.0, max_value=5.0),
        st.sampled_from([-np.inf, np.inf, -1e308, 1e308, -1.0, 0.0]),
    )
    estimates = np.array(draw(st.lists(estimate, min_size=widths * k, max_size=widths * k)))
    counts = draw(st.lists(st.integers(0, 5000), min_size=widths, max_size=widths))
    rule = st.one_of(
        st.just(NATURAL), st.builds(FixedScaling, st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e6]))
    )
    scalings = tuple(draw(st.lists(rule, min_size=1, max_size=6)))
    return counts, estimates.reshape(widths, k), scalings


@given(_grids())
@settings(max_examples=300, deadline=None)
def test_softmax_grid_is_the_one_cell_oracle_bitwise(grid):
    """Every cell of ``softmax_grid``, on grids small enough for ``fsum``
    rows and large enough for certified ones, is the bits of
    ``oracles.softmax_cell``: one ``rule.factor`` and one ``math.fsum``."""
    counts, estimates, scalings = grid
    cells = softmax_grid(counts, estimates, scalings)
    want = [
        softmax_cell(estimates[j], float(rule.factor(count)))
        for j, count in enumerate(counts)
        for rule in scalings
    ]
    assert cells.tobytes() == np.array(want).tobytes()


_U = 2.0**-53
# Rows whose first chain's errors do not sum exactly: ``lost`` > 0.  The
# first rounds to 1.0 from 2**-54 (1 + 2**-6) away, more than the gap
# test allows at a power of two, so the certificate cannot clear it; the
# second is far from any midpoint and is cleared.
_UNCLEARED = [1.0, 2.0**-54 * (1 + 2 * _U), 2.0**-60 * (1 + 2 * _U), 0.0]
_CLEARED_LOSSY = [1.0, 2.0**-56 * (1 + 2 * _U), 2.0**-62 * (1 + 2 * _U), 0.0]
# ``s + e`` is the midpoint just below 2.0, where the gap is halved; it
# rounds up to 2.0, but what the error sum rounded away takes the exact
# sum below the midpoint, to 2 - 2**-52.  A gap not halved would clear 2.0.
_BELOW_TWO = [1.0, 1.0 - 2 * _U, 2.0**-54, 2.0**-54 - 2.0**-107]
_SPECIAL_TILTS = [
    0.0, 5e-324, 1e-310, 2.0**-1022, _U, 2.0**-54, _U * (1 + 2 * _U), 0.5, 0.25, 1.0 - _U, 1.0,
]


@st.composite
def _tilt_rows(draw):
    """An (m, K) array of tilts, K from 1 to 8: each row has an exact 1.0
    (its maximum), and the rest are exponentials of nonpositive numbers,
    underflowed ones, or values that make ties and powers of two."""
    k, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    tilt = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from(_SPECIAL_TILTS))
    rows = np.array(draw(st.lists(st.lists(tilt, min_size=k, max_size=k), min_size=m, max_size=m)))
    rows[np.arange(m), draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))] = 1.0
    # Enough rows for the certified path; fewer are summed by fsum alone.
    return np.tile(rows, (draw(st.sampled_from([1, pools._FSUM_ROWS])), 1))


@given(_tilt_rows())
@settings(max_examples=300, deadline=None)
def test_certified_row_sums_are_fsum_bitwise(rows):
    """Each row sum of the softmax is ``math.fsum``'s, bitwise, whichever
    path takes it, and every row the certificate clears is right."""
    fsums = np.array([math.fsum(row) for row in rows.tolist()])
    assert pools._exact_row_sums(rows).tobytes() == fsums.tobytes()
    sums, cleared = pools._certified_sums(rows)
    assert sums[cleared].tobytes() == fsums[cleared].tobytes()


def test_ties_and_powers_of_two_are_certified_exactly():
    """A row whose error sum is exact needs no gap test: ``fl(s + e)`` is
    the sum rounded to nearest, ties to even, as ``fsum`` rounds it."""
    rows = np.array([[1.0, _U, 0.0], [1.0, 3 * _U, 0.0], [1.0, 0.5, 0.5], [1.0, 1.0 - _U, _U]])
    sums, cleared = pools._certified_sums(rows)
    assert cleared.all()
    assert sums.tolist() == [1.0, 1.0 + 4 * _U, 2.0, 2.0]
    assert sums.tolist() == [math.fsum(row) for row in rows.tolist()]


def test_rows_the_certificate_cannot_clear_go_to_fsum():
    """Where the error sum is inexact, the gap test clears a row far from
    a midpoint; one that it cannot clear is summed by ``math.fsum``, and
    only such rows are."""
    rows = np.array([_UNCLEARED, _CLEARED_LOSSY, _BELOW_TWO, [1.0, 0.5, 0.0, 0.0]] * pools._FSUM_ROWS)
    sums, cleared = pools._certified_sums(rows)
    assert cleared.tolist() == [False, True, False, True] * pools._FSUM_ROWS
    assert sums[2] == 2.0 != math.fsum(_BELOW_TWO) == 2.0 - 2 * _U
    with mock.patch.object(pools.math, "fsum", wraps=math.fsum) as fsum:
        exact = pools._exact_row_sums(rows)
    assert fsum.call_count == 2 * pools._FSUM_ROWS
    assert exact.tolist() == [math.fsum(row) for row in rows.tolist()]


class TestOptimizePoolWeights:
    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            optimize_pool_weights(np.empty((0, 2)))
        with pytest.raises(ValueError):
            optimize_pool_weights(np.array([-1.0, -2.0]))  # 1-D
        # A NaN or +inf entry anywhere, beside dead rows or not, is refused.
        for bad in ([[0.0, np.nan]], [[np.nan, 0.0]], [[-np.inf, np.nan]], [[0.0, -1.0], [np.inf, 0.0]],
                    [[-np.inf, -np.inf], [-np.inf, np.inf]], [[np.nan], [-1.0]]):
            with pytest.raises(ValueError, match="NaN-free and below"):
                optimize_pool_weights(np.array(bad))

    def test_rows_with_every_expert_dead_are_dropped(self):
        rng = np.random.default_rng(8)
        live = rng.normal(-2.0, 1.0, size=(30, 3))
        dead = np.full(3, -np.inf)
        with_dead = np.vstack([live[:10], dead, live[10:], dead])
        w, trace = optimize_pool_weights(with_dead, return_history=True)
        w_live, trace_live = optimize_pool_weights(live, return_history=True)
        np.testing.assert_array_equal(w.values, w_live.values)
        np.testing.assert_array_equal(trace, trace_live)

    def test_no_live_row_gives_exactly_equal(self):
        w, trace = optimize_pool_weights(
            np.full((4, 3), -np.inf), return_history=True
        )
        np.testing.assert_array_equal(w.values, equal_weights(3).values)
        np.testing.assert_array_equal(trace, [-np.inf])
        w = optimize_pool_weights(np.array([[-np.inf, -np.inf]]))
        np.testing.assert_array_equal(w.values, [0.5, 0.5])

    def test_single_expert(self):
        w = optimize_pool_weights(np.array([[-1.0], [-2.0]]))
        np.testing.assert_array_equal(w.values, [1.0])

    def test_symmetric_two_row_case(self):
        w = optimize_pool_weights(np.array([[0.0, -10.0], [-10.0, 0.0]]))
        np.testing.assert_allclose(w.values, [0.5, 0.5], rtol=0, atol=1e-9)

    def test_dominant_expert_takes_everything(self):
        rng = np.random.default_rng(5)
        base = rng.normal(-2.0, 1.0, size=50)
        scores = np.column_stack([base, base - rng.uniform(0.3, 1.0, size=50)])
        w = optimize_pool_weights(scores)
        assert w[0] > 1.0 - 1e-6
        assert w[1] < 1e-6

    def test_objective_monotone_every_iteration(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(-2.0, 1.5, size=(30, 3))
        _, trace = optimize_pool_weights(scores, return_history=True)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-12)

    def test_beats_every_vertex(self):
        rng = np.random.default_rng(12)
        scores = rng.normal(-1.0, 2.0, size=(25, 4))
        w = optimize_pool_weights(scores)
        pool_obj = pooled_objective(scores, w.values)
        for k in range(4):
            assert pool_obj >= scores[:, k].mean() - 1e-12

    def test_matches_refined_grid_oracle(self):
        """EM lands on the brute-force optimum for a few random matrices."""
        rng = np.random.default_rng(3)
        for _ in range(3):
            scores = rng.normal(-2.0, 1.0, size=(20, 3))
            w = optimize_pool_weights(scores)
            em_obj = pooled_objective(scores, w.values)
            coarse_obj, fine_obj = refined_grid_best(scores)
            assert em_obj >= coarse_obj - 1e-6
            assert abs(em_obj - fine_obj) <= 1e-6

    def test_weights_are_valid_simplex_points(self):
        rng = np.random.default_rng(44)
        for k in (2, 3, 5):
            scores = rng.normal(-3.0, 2.0, size=(15, k))
            w = optimize_pool_weights(scores)
            assert isinstance(w, PoolWeights)
            assert math.fsum(w.values.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_stops_with_a_warning_when_iterates_run_out(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(-2.0, 1.5, size=(30, 3))
        with pytest.warns(RuntimeWarning, match=r"duality gap of [0-9.e+-]+ nats"):
            w, trace = optimize_pool_weights(scores, max_iter=1, return_history=True)
        assert len(trace) == 2
        assert math.fsum(w.values.tolist()) == pytest.approx(1.0, abs=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            optimize_pool_weights(scores)


def _independent_gap(scores: np.ndarray, w: np.ndarray) -> float:
    """log max_k mean_t(A_tk / A_t.w) over the rows some expert scores on."""
    live = scores[np.any(scores > -np.inf, axis=1)]
    A = np.exp(live - live.max(axis=1, keepdims=True))
    return math.log(np.max(np.mean(A / (A @ w)[:, None], axis=0)))


@st.composite
def _score_blocks(draw, max_experts=5, dead_rows=False):
    """(n, K) log-score blocks with dead entries, dominated and duplicated columns.

    With ``dead_rows`` some rows score ``-inf`` for every expert.
    """
    k = draw(st.integers(1, max_experts))
    n = draw(st.integers(1, 60))
    cells = st.one_of(
        st.floats(min_value=-40.0, max_value=5.0), st.just(-np.inf)
    )
    scores = np.array(draw(st.lists(cells, min_size=n * k, max_size=n * k))).reshape(n, k)
    if dead_rows:
        scores[draw(st.lists(st.integers(0, n - 1), max_size=3))] = -np.inf
    if k > 1:
        src, dst = draw(st.permutations(range(k)))[:2]
        shape = draw(st.sampled_from(["as drawn", "duplicated", "dominated"]))
        if shape == "duplicated":
            scores[:, dst] = scores[:, src]
        elif shape == "dominated":
            scores[:, dst] = scores[:, src] - draw(st.floats(min_value=1e-3, max_value=5.0))
    return scores


_INF = -np.inf


@given(_score_blocks())
@settings(max_examples=300, deadline=None)
# Blocks on which SQUAREM alone stalled short of the certificate: a
# degenerate optimum (expert 3's weight tends to 0 with its gradient
# tending to 1), a non-unique optimum between near-duplicate experts,
# and a vertex optimum approached with weights far below rounding.
@example(np.array([[0.0, 0.0, _INF, -1.0, _INF], [_INF, _INF, _INF, 0.0, 0.0],
                   [-10.0, _INF, 0.0, _INF, -1.0]]))
@example(np.array([[0.0, 0.0, _INF, _INF, _INF], [_INF] * 5, [_INF] * 5,
                   [_INF, -22.75, -6.0, _INF, -6.0]]))
@example(np.array([[_INF] * 4, [0.0, 0.0, _INF, 0.0], [0.5, -13.0, _INF, 0.0],
                   [_INF, _INF, -6.0, 0.0]]))
def test_optimizer_is_certified_and_monotone(scores):
    gap_tol = 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, trace = optimize_pool_weights(scores, gap_tol=gap_tol, return_history=True)
        plain = optimize_pool_weights(scores, gap_tol=gap_tol)
    np.testing.assert_array_equal(plain.values, w.values)
    assert np.all(np.diff(trace) >= 0.0)
    if not np.any(scores > -np.inf):
        np.testing.assert_array_equal(w.values, equal_weights(scores.shape[1]).values)
        return
    # The gap is recomputed here in another order of operations, so allow
    # for rounding in the last bits of its logarithm.
    assert _independent_gap(scores, w.values) <= gap_tol + 1e-14


# The package's kernel, taken before any test patches it.
_KERNEL = pools._certified_fit


def _canonical_bits(values) -> bytes:
    """The bytes of a float vector, with every NaN written as one NaN."""
    x = np.array(values, dtype=float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


def _fit_through(kernel, scores, gap_tol, max_iter, history):
    """``optimize_pool_weights`` run on ``kernel``: (its result or error, the kernel's outputs)."""
    seen = []

    def spy(A, gap_tol, max_iter, gains):
        w, gap = kernel(A, gap_tol, max_iter, gains)
        gains = None if gains is None else _canonical_bits(gains)
        seen.append((_canonical_bits(w), _canonical_bits(gap), gains))
        return w, gap

    with mock.patch.object(pools, "_certified_fit", spy), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            out = optimize_pool_weights(
                scores, gap_tol=gap_tol, max_iter=max_iter, return_history=history
            )
        except ValueError as exc:
            return str(exc), seen
    if history:
        weights, trace = out
        return (weights.values.tobytes(), _canonical_bits(trace)), seen
    return out.values.tobytes(), seen


@given(
    _score_blocks(max_experts=10, dead_rows=True),
    st.one_of(
        st.tuples(st.sampled_from([1e-8, 1e-12]), st.one_of(st.integers(1, 40), st.just(5000))),
        st.tuples(st.just(-1.0), st.integers(21, 40)),
    ),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
@example(np.array([[0.0, 0.0, _INF, -1.0, _INF], [_INF, _INF, _INF, 0.0, 0.0],
                   [-10.0, _INF, 0.0, _INF, -1.0]]), (1e-8, 5000), True)
@example(np.array([[0.0, 0.0, _INF, _INF, _INF], [_INF] * 5, [_INF] * 5,
                   [_INF, -22.75, -6.0, _INF, -6.0]]), (1e-8, 5000), False)
@example(np.array([[_INF] * 4, [0.0, 0.0, _INF, 0.0], [0.5, -13.0, _INF, 0.0],
                   [_INF, _INF, -6.0, 0.0]]), (1e-8, 5000), True)
def test_the_kernel_is_bitwise_the_numpy_kernel(scores, stop, history):
    """Weights, gap, gains, iterate count and trace equal those of the
    all-NumPy kernel in ``oracles``, with the history on and off.  A
    negative gap tolerance runs every block past the SQUAREM iterates into
    Newton steps."""
    gap_tol, max_iter = stop
    got = _fit_through(_KERNEL, scores, gap_tol, max_iter, history)
    want = _fit_through(numpy_certified_fit, scores, gap_tol, max_iter, history)
    assert got == want


@given(st.lists(st.one_of(st.floats(allow_nan=False), st.just(-0.0)), max_size=7))
@settings(max_examples=300, deadline=None)
def test_add_reduce_of_fewer_than_eight_is_left_to_right(values):
    """``np.add.reduce`` adds fewer than eight doubles one at a time from 0.0,
    as ``pools._total`` does for such vectors; longer ones it sums in
    another order."""
    total = 0.0
    for x in values:
        total += x
    with np.errstate(over="ignore", invalid="ignore"):
        reduced = np.add.reduce(np.array(values, dtype=float))
    assert _canonical_bits(reduced) == _canonical_bits(total)
    assert _canonical_bits(pools._total(values)) == _canonical_bits(reduced)


@given(st.lists(st.one_of(st.floats(min_value=0.0), st.just(math.nan)), min_size=1, max_size=10))
def test_the_largest_gradient_passes_nan_on_as_np_max_does(g):
    """``pools._top``, the gap's ``max g``, is NaN when any entry is NaN,
    wherever it sits; Python's ``max`` is not."""
    assert _canonical_bits(pools._top(g)) == _canonical_bits(np.max(np.array(g)))


@given(st.integers(1, 700), st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_ndarray_dot_is_the_product_matmul_makes(n, k, seed):
    """``A.dot(w)``, ``x.dot(A)`` and ``r.dot(r)``, as the kernel writes its
    BLAS products, give the bits of ``A @ w``, ``x @ A`` and ``r @ r``."""
    rng = np.random.default_rng(seed)
    A = np.exp(rng.normal(0.0, 3.0, size=(n, k)))
    w = rng.dirichlet(np.ones(k))
    x = 1.0 / (A @ w)
    r = rng.normal(0.0, 1e-3, size=k)
    assert A.dot(w).tobytes() == (A @ w).tobytes()
    assert x.dot(A).tobytes() == (x @ A).tobytes()
    assert r.dot(r) == r @ r


class TestLocalOptWeights:
    def _history(self):
        # left region: expert 1 dominates; right region: expert 2 dominates
        offsets = 0.1 * np.arange(10)
        points = np.concatenate([-2.0 + offsets, 2.0 + offsets])[:, None]
        scores = np.repeat([[-1.0, -4.0], [-4.0, -1.0]], 10, axis=0)
        return History.from_arrays(np.arange(20), points, np.zeros(20), scores)

    def test_empty_caliper_gives_equal(self):
        h = self._history()
        w = local_opt_weights(h, (0.0,), 1e-9)
        np.testing.assert_array_equal(w.values, [0.5, 0.5])

    def test_one_sided_caliper_selects_local_winner(self):
        h = self._history()
        w = local_opt_weights(h, (-1.5,), 0.5)
        assert w[0] > 1.0 - 1e-6

    def test_full_caliper_matches_global_optimizer(self):
        h = self._history()
        full = local_opt_weights(h, (0.0,), np.inf)
        direct = optimize_pool_weights(h.score_matrix)
        np.testing.assert_array_equal(full.values, direct.values)

    def test_query_fits_each_distinct_block_once(self, monkeypatch):
        """Widths with equal counts, and a full caliper beside global_opt,
        share one fit, and every row equals its grid-of-one rebuild."""
        h = self._history()
        point, widths = (-1.55,), (1e-9, 0.5, 0.5 + 1e-9, 1.0, 4.0, np.inf)
        counts = [idx.size for idx in caliper_rows(h.distances(point), widths)]
        assert counts[0] == 0 and counts[1] == counts[2] and counts[-1] == len(h)
        fitted = []

        fit = pools._certified_fit

        def counting(A, *args):
            fitted.append(len(A))
            return fit(A, *args)

        monkeypatch.setattr(pools, "_certified_fit", counting)
        query = PoolQuery(h, point, widths)
        whole = query.global_opt()
        cells = query.local_opt()
        assert sorted(fitted) == sorted(set(counts) - {0})
        monkeypatch.undo()
        np.testing.assert_array_equal(whole[0], optimize_pool_weights(h.score_matrix).values)
        for width, row in zip(widths, cells):
            np.testing.assert_array_equal(row, local_opt_weights(h, point, width).values)


    def test_at_shares_only_the_whole_history_fit(self):
        """Calipers of equal count around two points hold different rows, so
        queries made with ``at`` must not share their fits."""
        h = self._history()
        widths = (0.5, np.inf)
        left_point, right_point = (-1.55,), (2.45,)
        counts = [h.caliper_neighbors(p, widths[0]).size for p in (left_point, right_point)]
        assert counts[0] == counts[1] > 0
        shared = PoolQuery(h)
        left = shared.at(left_point, widths).local_opt()
        right = shared.at(right_point, widths).local_opt()
        np.testing.assert_array_equal(left, PoolQuery(h, left_point, widths).local_opt())
        np.testing.assert_array_equal(right, PoolQuery(h, right_point, widths).local_opt())
        assert left[0, 0] > 0.5 > right[0, 0]

    def test_shared_fits_are_read_only(self):
        """A fit the query caches, and the whole-history fit it shares with
        ``at``, cannot be written through the rows a rule returns."""
        h = self._history()
        dead = History.from_arrays(np.arange(2), np.zeros((2, 1)), np.zeros(2), np.full((2, 2), -np.inf))
        for history in (h, dead, History(1, 2)):
            query = PoolQuery(history, (0.0,), (0.5, np.inf))
            whole = query.global_opt()
            assert not whole.flags.writeable
            with pytest.raises(ValueError):
                whole[0, 0] = 0.0
            np.testing.assert_array_equal(query.at((1.0,), (np.inf,)).global_opt(), whole)


@given(_score_blocks(dead_rows=True), st.data())
@settings(max_examples=60, deadline=None)
def test_query_fits_are_the_optimizer_on_the_live_rows_alone(scores, data):
    """``global_opt`` and every ``local_opt`` cell of a history with dead
    rows are, bitwise, ``optimize_pool_weights`` on the caliper's live rows
    gathered beforehand, and exactly ``1/K`` where none is live."""
    n, k = scores.shape
    points = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))[:, None]
    history = History.from_arrays(np.arange(n), points, np.zeros(n), scores)
    point, widths = (data.draw(st.floats(-3.0, 3.0)),), (math.ulp(0.0), 0.5, 1.0, np.inf)
    live = np.any(scores > -np.inf, axis=1)

    def on_live_rows(rows):
        rows = rows[live[rows]]
        return optimize_pool_weights(scores[rows]).values if rows.size else np.full(k, 1.0 / k)

    query = PoolQuery(history, point, widths)
    assert query.global_opt()[0].tobytes() == on_live_rows(np.arange(n)).tobytes()
    for rows, cell in zip(caliper_rows(history.distances(point), widths), query.local_opt()):
        assert cell.tobytes() == on_live_rows(rows).tobytes()


def test_a_caliper_of_dead_rows_gives_exactly_equal_weights():
    scores = np.array([[-np.inf] * 3, [-np.inf] * 3, [-1.0, -2.0, -np.inf], [-3.0, -1.0, -2.0]])
    points = np.array([[0.0], [0.1], [5.0], [5.1]])
    history = History.from_arrays(np.arange(4), points, np.zeros(4), scores)
    query = PoolQuery(history, (0.05,), (0.1, np.inf))
    assert [idx.tolist() for idx in query.calipers[0]] == [[0, 1], [0, 1, 2, 3]]
    cells = query.local_opt()
    assert cells[0].tolist() == [1.0 / 3] * 3
    assert cells[1].tobytes() == optimize_pool_weights(scores[2:]).values.tobytes()
    assert query.global_opt()[0].tobytes() == cells[1].tobytes()


class TestPooledLogScores:
    def test_rows_match_one_row_matrices(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(-2.0, 1.0, size=(12, 3))
        w = PoolWeights(np.array([0.2, 0.5, 0.3]))
        rows = pooled_log_scores(w, scores)
        for i in range(12):
            assert rows[i] == pooled_log_scores(w, scores[i : i + 1])[0]

    def test_shape_validation(self):
        w = PoolWeights(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            pooled_log_scores(w, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            pooled_log_scores(w, np.zeros(3))


class TestAssemblePool:
    def test_matches_componentwise_pooling(self):
        w = PoolWeights(np.array([0.3, 0.7]))
        comps = (Gaussian(-1.0, 1.0), Gaussian(1.0, 2.0))
        mix = Mixture(weights=w, components=comps)
        for y in (-2.0, 0.0, 3.0):
            lp = np.array([c.log_density(y) for c in comps])
            assert mix.log_density(y) == pytest.approx(
                pooled_log_scores(w, lp[None, :])[0], abs=1e-12
            )

    def test_degenerate_weight_reduces_to_component(self):
        w = PoolWeights(np.array([1.0, 0.0]))
        comps = (Gaussian(0.0, 1.0), Gaussian(5.0, 1.0))
        mix = Mixture(weights=w, components=comps)
        assert mix.log_density(0.0) == comps[0].log_density(0.0)
