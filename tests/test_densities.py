from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm, t as student_t

from localpools.densities import (
    Gaussian,
    Mixture,
    PoolWeights,
    StudentT,
    _row_reduce,
    check_simplex_rows,
)
from localpools.pools import pooled_log_scores

STANDARD_NORMAL_AT_ZERO = -0.9189385332046727  # -log(sqrt(2*pi))


def _pooled(weights: PoolWeights, lp) -> float:
    """Pooled log density at one outcome: ``pooled_log_scores`` on a one-row matrix."""
    return float(pooled_log_scores(weights, np.asarray(lp, dtype=float)[None, :])[0])


class TestPoolWeights:
    def test_valid_pair(self):
        w = PoolWeights(np.array([0.3, 0.7]))
        assert len(w) == 2
        assert list(w) == [0.3, 0.7]
        assert w[1] == 0.7

    def test_equal_thirds_sum_exactly(self):
        # fsum of k copies of 1/k rounds to exactly 1.0 for any k, so the
        # canonical equal-weight vector always validates.
        for k in range(1, 40):
            PoolWeights(np.full(k, 1.0 / k))

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0.5, 0.6]),
            np.array([-0.1, 1.1]),
            np.array([0.5, np.nan]),
            np.array([0.5, np.inf]),
            np.array([]),
            np.array([[0.5, 0.5]]),
            np.array([1.5, -0.5]),
        ],
    )
    def test_rejects_bad_vectors(self, bad):
        with pytest.raises(ValueError):
            PoolWeights(bad)

    def test_frozen_array(self):
        w = PoolWeights(np.array([1.0]))
        with pytest.raises(ValueError):
            w.values[0] = 0.5

    def test_rows_are_checked_together(self):
        good = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
        check_simplex_rows(good)
        for row, message in (
            ([0.5, 0.6], "sum to 1"),
            ([1.5, -0.5], r"\[0, 1\]"),
            ([np.nan, 1.0], "finite"),
            ([0.5, np.inf], "finite"),
            ([-np.inf, 1.0], "finite"),
        ):
            bad = good.copy()
            bad[1] = row
            with pytest.raises(ValueError, match=message):
                check_simplex_rows(bad)


class TestGaussian:
    def test_standard_normal_at_zero(self):
        assert Gaussian(0.0, 1.0).log_density(0.0) == STANDARD_NORMAL_AT_ZERO

    def test_matches_scipy(self):
        y = np.linspace(-8, 8, 33)
        d = Gaussian(1.3, 0.4)
        np.testing.assert_allclose(
            d.log_density(y), norm.logpdf(y, 1.3, 0.4), rtol=0, atol=1e-12
        )

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            Gaussian(0.0, -1.0)
        with pytest.raises(ValueError):
            Gaussian(np.nan, 1.0)


class TestStudentT:
    def test_matches_scipy(self):
        y = np.linspace(-12, 12, 49)
        d = StudentT(location=0.7, scale=1.9, dof=3.5)
        np.testing.assert_allclose(
            d.log_density(y),
            student_t.logpdf(y, df=3.5, loc=0.7, scale=1.9),
            rtol=0,
            atol=1e-12,
        )

    def test_heavy_tail_beats_gaussian_far_out(self):
        t = StudentT(0.0, 1.0, 3.0)
        g = Gaussian(0.0, 1.0)
        assert t.log_density(10.0) > g.log_density(10.0)

    def test_rejects_bad_parameters(self):
        for bad in [dict(scale=0.0), dict(dof=0.0), dict(dof=-2.0), dict(scale=np.inf)]:
            kwargs = dict(location=0.0, scale=1.0, dof=2.0)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                StudentT(**kwargs)


class TestMixture:
    def test_density_is_weighted_sum(self):
        mix = Mixture(
            weights=PoolWeights(np.array([0.25, 0.75])),
            components=(Gaussian(-1.0, 1.0), Gaussian(2.0, 0.5)),
        )
        y = np.linspace(-5, 5, 21)
        direct = np.log(
            0.25 * norm.pdf(y, -1.0, 1.0) + 0.75 * norm.pdf(y, 2.0, 0.5)
        )
        np.testing.assert_allclose(mix.log_density(y), direct, rtol=0, atol=1e-12)

    def test_scalar_input_returns_float(self):
        mix = Mixture(
            weights=PoolWeights(np.array([0.5, 0.5])),
            components=(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)),
        )
        out = mix.log_density(0.3)
        assert isinstance(out, float)

    def test_zero_weight_component_ignored(self):
        # The dead component would contribute -inf * 0 if it were not masked.
        mix = Mixture(
            weights=PoolWeights(np.array([1.0, 0.0])),
            components=(Gaussian(0.0, 1.0), Gaussian(1e6, 1e-3)),
        )
        assert mix.log_density(0.0) == STANDARD_NORMAL_AT_ZERO

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Mixture(
                weights=PoolWeights(np.array([0.5, 0.5])),
                components=(Gaussian(0.0, 1.0),),
            )


class TestPooledLogDensity:
    def test_half_half_with_dead_expert(self):
        # exp(-700) underflows against exp(0); the pool is log(0.5) exactly.
        w = PoolWeights(np.array([0.5, 0.5]))
        got = _pooled(w, np.array([0.0, -700.0]))
        assert got == math.log(0.5)

    def test_all_equal_scores_come_back_exactly(self):
        w = PoolWeights(np.array([0.2, 0.3, 0.5]))
        for c in (-1234.5, -1.0, 0.0, 700.0):
            assert _pooled(w, np.array([c, c, c])) == c

    def test_degenerate_single_expert(self):
        w = PoolWeights(np.array([1.0]))
        assert _pooled(w, np.array([-3.25])) == -3.25

    def test_all_minus_inf(self):
        w = PoolWeights(np.array([0.5, 0.5]))
        assert _pooled(w, np.array([-np.inf, -np.inf])) == -np.inf

    def test_rejects_nan_and_plus_inf(self):
        w = PoolWeights(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            _pooled(w, np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            _pooled(w, np.array([0.0, np.inf]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            _pooled(PoolWeights(np.array([1.0])), np.array([0.0, 1.0]))

    def test_matches_direct_formula_moderate_values(self):
        w = PoolWeights(np.array([0.1, 0.6, 0.3]))
        lp = np.array([-1.0, -2.0, -0.5])
        direct = math.log(float(np.sum(w.values * np.exp(lp))))
        assert abs(_pooled(w, lp) - direct) < 1e-14

    def test_mixture_consistency(self):
        # Mixture.log_density(y) must agree with pooling the component
        # log densities at y.
        w = PoolWeights(np.array([0.4, 0.6]))
        comps = (Gaussian(0.0, 1.0), StudentT(1.0, 2.0, 4.0))
        mix = Mixture(weights=w, components=comps)
        for y in (-3.0, 0.0, 0.5, 8.0):
            lp = np.array([c.log_density(y) for c in comps])
            assert abs(mix.log_density(y) - _pooled(w, lp)) <= 1e-12


@st.composite
def weights_and_scores(draw, max_experts=5):
    k = draw(st.integers(min_value=2, max_value=max_experts))
    raw = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3),
            min_size=k,
            max_size=k,
        )
    )
    w = np.asarray(raw) / np.asarray(raw).sum()
    lp = draw(
        st.lists(
            st.floats(min_value=-60.0, max_value=10.0),
            min_size=k,
            max_size=k,
        )
    )
    return PoolWeights(w), np.asarray(lp)


@given(weights_and_scores())
@settings(max_examples=200, deadline=None)
def test_pooled_between_worst_and_best(case):
    w, lp = case
    pooled = _pooled(w, lp)
    assert pooled <= lp.max() + 1e-12
    assert pooled >= lp.min() - 1e-12
    # it also dominates every guaranteed lower bound w_k e^{lp_k}
    lower = max(
        math.log(wk) + lk for wk, lk in zip(w.values, lp) if wk > 0
    )
    assert pooled >= lower - 1e-12


@given(weights_and_scores(), st.floats(min_value=-200.0, max_value=200.0))
@settings(max_examples=200, deadline=None)
def test_pooled_shift_equivariance(case, shift):
    w, lp = case
    base = _pooled(w, lp)
    shifted = _pooled(w, lp + shift)
    assert abs(shifted - (base + shift)) <= 1e-9 * max(1.0, abs(base + shift))


@given(weights_and_scores(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_pooled_permutation_invariance(case, rnd):
    w, lp = case
    perm = list(range(len(lp)))
    rnd.shuffle(perm)
    base = _pooled(w, lp)
    permuted = _pooled(
        PoolWeights(w.values[perm]), lp[np.asarray(perm)]
    )
    assert abs(base - permuted) <= 1e-12 * max(1.0, abs(base))


# Entries that exercise the edges of a reduction: signed zeros, infinities,
# NaN, and magnitudes whose sums overflow.
_EDGE_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 1.7e308, 5e-324]),
)


@st.composite
def _short_rows(draw):
    """A float array of 1-10 columns in some layout a caller can pass:
    C-ordered, transposed, or broadcast along a leading axis."""
    c = draw(st.integers(1, 10))
    rows = draw(st.integers(1, 6))
    values = np.array(draw(st.lists(_EDGE_ENTRIES, min_size=rows * c, max_size=rows * c)))
    x = values.reshape(rows, c)
    layout = draw(st.sampled_from(["c-order", "fortran", "broadcast-rows", "broadcast-cells"]))
    if layout == "fortran":
        x = np.asfortranarray(x)
    elif layout == "broadcast-rows":
        x = np.broadcast_to(x[:1], (3, c))
    elif layout == "broadcast-cells":
        x = np.broadcast_to(x[:, None, :], (rows, 4, c))
    return x


def _bits(x) -> bytes:
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


@given(_short_rows())
@settings(max_examples=400, deadline=None)
def test_short_row_reductions_are_numpys_bitwise(x):
    """``_row_reduce`` gives the bits of ``np.sum`` and ``np.max`` along the
    last axis: one column at a time from +0.0 below eight columns, NumPy's
    own reduce from eight on, with NaN, infinities, signed zeros and
    overflowing sums kept as NumPy has them."""
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(_row_reduce(np.add, x)) == _bits(np.sum(x, axis=-1))
        assert _bits(_row_reduce(np.maximum, x)) == _bits(np.max(x, axis=-1))


def test_numpy_sums_eight_or_more_columns_in_another_order():
    """Why ``_row_reduce`` hands rows of eight or more to NumPy: there
    NumPy sums pairwise, and a left-to-right sum rounds differently."""
    u = 2.0**-53
    row = np.array([[1.0, 1.0, 1.0, u, u, u, u, u]])
    left_to_right = 0.0
    for value in row[0]:
        left_to_right += value
    assert left_to_right == 3.0
    assert np.sum(row, axis=-1)[0] == 3.0 + 4 * u
    assert _row_reduce(np.add, row)[0] == 3.0 + 4 * u
    # Seven of them are summed left to right, as NumPy does.
    assert _row_reduce(np.add, row[:, 1:])[0] == np.sum(row[:, 1:], axis=-1)[0] == 2.0
