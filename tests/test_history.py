from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localpools.evaluation import EvaluationStream
from localpools.history import History, PredictionRecord


def _record(t, z, scores, y=0.0):
    return PredictionRecord(
        time_index=t,
        pooling_point=np.asarray(z, dtype=float),
        outcome=y,
        log_scores=np.asarray(scores, dtype=float),
    )


def _filled_history():
    h = History(n_pooling_dims=2, n_experts=2)
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (-1.0, -1.0), (3.0, 1.0)]
    for t, p in enumerate(pts):
        h.append(_record(t, p, (-float(t), -1.0 - t)))
    return h


class TestRecordValidation:
    def test_basic(self):
        r = _record(3, (1.0, 2.0), (-0.5, -0.7), y=1.5)
        assert r.time_index == 3
        assert r.outcome == 1.5

    def test_rejects_nan_score_and_nonfinite_point(self):
        with pytest.raises(ValueError):
            _record(0, (np.inf, 0.0), (-1.0,))
        with pytest.raises(ValueError):
            _record(0, (0.0,), (np.nan,))
        with pytest.raises(ValueError):
            _record(0, (0.0,), (np.inf,))

    def test_minus_inf_score_allowed(self):
        r = _record(0, (0.0,), (-np.inf,))
        assert r.log_scores[0] == -np.inf


class TestAppend:
    def test_lengths_and_matrices(self):
        h = _filled_history()
        assert len(h) == 5
        assert h.score_matrix.shape == (5, 2)
        assert h.pooling_points.shape == (5, 2)
        np.testing.assert_array_equal(h.time_indices, np.arange(5))

    def test_time_must_increase(self):
        h = _filled_history()
        with pytest.raises(ValueError):
            h.append(_record(4, (0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(ValueError):
            h.append(_record(2, (0.0, 0.0), (0.0, 0.0)))
        h.append(_record(17, (0.0, 0.0), (0.0, 0.0)))  # gaps are fine

    def test_dimension_checks(self):
        h = History(2, 2)
        with pytest.raises(ValueError):
            h.append(_record(0, (1.0,), (0.0, 0.0)))
        with pytest.raises(ValueError):
            h.append(_record(0, (1.0, 2.0), (0.0,)))



class TestFromArrays:
    def test_from_arrays_roundtrip(self):
        t = np.arange(4)
        points = np.column_stack([t, -t]).astype(float)
        scores = np.column_stack([-t, np.zeros(4)]).astype(float)
        h = History.from_arrays(t, points, 0.5 * t, scores)
        assert len(h) == 4
        assert (h.n_pooling_dims, h.n_experts) == (2, 2)
        np.testing.assert_array_equal(h.time_indices, t)
        np.testing.assert_array_equal(h.pooling_points, points)
        np.testing.assert_array_equal(h.outcomes, 0.5 * t)
        np.testing.assert_array_equal(h.score_matrix, scores)
        # the history owns copies: the caller's arrays can change freely
        points[0, 0] = 99.0
        assert h.pooling_points[0, 0] == 0.0
        with pytest.raises(ValueError, match="a block needs at least one record"):
            History.from_arrays([], np.empty((0, 2)), [], np.empty((0, 2)))

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda b: b["points"].__setitem__((1, 0), np.inf),
                         "pooling_point must be finite", id="inf-point"),
            pytest.param(lambda b: b["points"].__setitem__((1, 1), np.nan),
                         "pooling_point must be finite", id="nan-point"),
            pytest.param(lambda b: b["scores"].__setitem__((2, 0), np.nan),
                         "log_scores must be NaN-free", id="nan-score"),
            pytest.param(lambda b: b["scores"].__setitem__((2, 1), np.inf),
                         "log_scores must be NaN-free", id="plus-inf-score"),
            pytest.param(lambda b: b["times"].__setitem__(2, 1),
                         "time_index 1 not after last recorded 1", id="repeated-time"),
            pytest.param(lambda b: b["times"].__setitem__(2, 0),
                         "time_index 0 not after last recorded 1", id="decreasing-time"),
            pytest.param(lambda b: b.update(points=b["points"][:, 0]), "2-D", id="1-d-points"),
            pytest.param(lambda b: b.update(scores=b["scores"][:2]),
                         "one row per record", id="short-scores"),
            pytest.param(lambda b: b.update(outcomes=b["outcomes"][:2]),
                         "one row per record", id="short-outcomes"),
        ],
    )
    def test_rejects_bad_blocks(self, edit, message):
        block = {
            "times": np.arange(3),
            "points": np.zeros((3, 2)),
            "outcomes": np.zeros(3),
            "scores": np.full((3, 2), -1.0),
        }
        edit(block)
        with pytest.raises(ValueError, match=message):
            History.from_arrays(**block)

    def test_later_growth_keeps_append_checks(self):
        h = History.from_arrays([0, 1], np.zeros((2, 2)), [0.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="pooling point has 1 dims, history expects 2"):
            h.append(_record(2, (1.0,), (0.0, 0.0)))
        with pytest.raises(ValueError, match="record scores 1 experts, history expects 2"):
            h.append(_record(2, (1.0, 2.0), (0.0,)))
        with pytest.raises(ValueError, match="time_index 1 not after last recorded 1"):
            h.append(_record(1, (1.0, 2.0), (0.0, 0.0)))
        assert len(h) == 2


def _set(key, index, value):
    return lambda b: b[key].__setitem__(index, value)


# One bad record (or a block whose rows disagree) per case, and the message
# the record rule gives for it at every entry point.
BAD_BLOCKS = [
    pytest.param(_set("points", (1, 0), np.inf), "pooling_point must be finite", id="inf-point"),
    pytest.param(_set("outcomes", 1, np.nan), "outcome must be finite", id="nan-outcome"),
    pytest.param(_set("outcomes", 2, -np.inf), "outcome must be finite", id="inf-outcome"),
    pytest.param(_set("scores", (2, 0), np.nan), "log_scores must be NaN-free and below +inf",
                 id="nan-score"),
    pytest.param(_set("scores", (1, 1), np.inf), "log_scores must be NaN-free and below +inf",
                 id="plus-inf-score"),
    pytest.param(_set("times", 1, 0.5), "time_index must be an integer, got 0.5",
                 id="fractional-time"),
    pytest.param(_set("times", 2, 1.0), "time_index 1 not after last recorded 1",
                 id="repeated-time"),
    pytest.param(lambda b: b.update(outcomes=np.zeros((3, 2))),
                 "times, points, outcomes and scores need one row per record",
                 id="mismatched-lengths"),
]


def _rows_as_records(times, points, outcomes, scores):
    history = History(points.shape[1], scores.shape[1])
    for row in zip(times, points, outcomes, scores):
        history.append(PredictionRecord(*row))


@pytest.mark.parametrize("edit, message", BAD_BLOCKS)
@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda b: History.from_arrays(**b), id="from_arrays"),
        pytest.param(
            lambda b: EvaluationStream(
                b["points"], b["outcomes"], b["scores"], ("a", "b"), b["times"]
            ),
            id="EvaluationStream",
        ),
        pytest.param(lambda b: _rows_as_records(**b), id="PredictionRecord"),
    ],
)
def test_every_entry_point_refuses_a_bad_block_with_one_message(entry, edit, message):
    """The record rules are one function; each entry point says the same."""
    block = {
        "times": np.arange(3.0),
        "points": np.zeros((3, 2)),
        "outcomes": np.zeros(3),
        "scores": np.full((3, 2), -1.0),
    }
    entry({key: value.copy() for key, value in block.items()})  # the good block passes
    edit(block)
    with pytest.raises(ValueError) as raised:
        entry(block)
    assert str(raised.value).startswith(message)


class TestStandardization:
    def test_moments_are_population_moments(self):
        h = _filled_history()
        pts = h.pooling_points
        np.testing.assert_allclose(h.standardizing_mean, pts.mean(axis=0))
        np.testing.assert_allclose(h.standardizing_std, pts.std(axis=0))

    def test_standardize_centers_and_scales(self):
        h = _filled_history()
        z = h.standardize((1.0, 0.5))
        expected = (np.array([1.0, 0.5]) - h.standardizing_mean) / h.standardizing_std
        np.testing.assert_allclose(z, expected)

    def test_degenerate_dimension_falls_back_to_unit_scale(self):
        h = History(2, 1)
        for t in range(3):
            h.append(_record(t, (5.0, float(t)), (-1.0,)))
        assert h.standardizing_std[0] == 1.0
        # constant dimension contributes nothing to distances
        d = h.distances((5.0, h.standardizing_mean[1]))
        manual = np.abs(
            (h.pooling_points[:, 1] - h.standardizing_mean[1])
            / h.standardizing_std[1]
        )
        np.testing.assert_allclose(d, manual)
        # np.std of a constant column is rounding noise that grows with the
        # constant: exactly 0 at 3.3, about 1e-9 at 1e6 + 0.1.
        t = np.arange(100)
        for constant in (3.3, 1e6 + 0.1):
            points = np.column_stack([np.full(100, constant), 0.01 * t])
            h = History.from_arrays(t, points, np.zeros(100), np.full((100, 1), -1.0))
            assert h.standardizing_std[0] == 1.0
            assert h.caliper_neighbors((constant + 0.5, 0.5), 1.0).size == 49

    def test_stats_refresh_after_growth(self):
        h = History(1, 1)
        h.append(_record(0, (0.0,), (0.0,)))
        h.append(_record(1, (2.0,), (0.0,)))
        assert h.standardizing_mean[0] == 1.0
        h.append(_record(2, (10.0,), (0.0,)))
        assert h.standardizing_mean[0] == 4.0


class TestCaliper:
    def test_distances_match_manual_loop(self):
        h = _filled_history()
        q = (0.5, -0.5)
        mu, sd = h.standardizing_mean, h.standardizing_std
        manual = [
            np.sqrt(np.sum(((p - mu) / sd - (np.asarray(q) - mu) / sd) ** 2))
            for p in h.pooling_points
        ]
        np.testing.assert_allclose(h.distances(q), manual, rtol=0, atol=1e-12)

    def test_boundary_is_inclusive(self):
        h = History(1, 1)
        h.append(_record(0, (0.0,), (0.0,)))
        h.append(_record(1, (2.0,), (0.0,)))
        # standardized coordinates are -1 and +1; query at the left point
        d = h.distances((0.0,))
        assert d[1] == 2.0
        inside = h.caliper_neighbors((0.0,), 2.0)
        np.testing.assert_array_equal(inside, [0, 1])
        tight = h.caliper_neighbors((0.0,), 2.0 - 1e-12)
        np.testing.assert_array_equal(tight, [0])

    def test_narrowest_width_catches_exact_matches_only(self):
        h = _filled_history()
        np.testing.assert_array_equal(h.caliper_neighbors((1.0, 0.0), math.ulp(0.0)), [1])

    def test_empty_history(self):
        h = History(2, 2)
        assert h.distances((0.0, 0.0)).size == 0
        assert h.caliper_neighbors((0.0, 0.0), 10.0).size == 0

    def test_negative_width_rejected(self):
        h = _filled_history()
        with pytest.raises(ValueError):
            h.caliper_neighbors((0.0, 0.0), -0.1)

    def test_infinite_width_includes_everything(self):
        h = _filled_history()
        np.testing.assert_array_equal(
            h.caliper_neighbors((100.0, -100.0), np.inf), np.arange(5)
        )


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-50, max_value=50),
            st.floats(min_value=-50, max_value=50),
        ),
        min_size=2,
        max_size=20,
    ),
    st.floats(min_value=0, max_value=5, exclude_min=True),
    st.floats(min_value=0.01, max_value=4.9),
)
@settings(max_examples=150, deadline=None)
def test_neighbor_sets_grow_with_width(points, width, extra):
    """Caliper membership is monotone: widening never drops a neighbour."""
    h = History(2, 1)
    for t, p in enumerate(points):
        h.append(_record(t, p, (-1.0,)))
    q = (0.0, 0.0)
    narrow = set(h.caliper_neighbors(q, width).tolist())
    wide = set(h.caliper_neighbors(q, width + extra).tolist())
    assert narrow <= wide


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _blocks(draw):
    """A block of n <= 60 records with repeated points, -inf scores and,
    sometimes, a constant pooling dimension, plus a query point."""
    n, d, k = draw(st.integers(1, 60)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    coord = st.floats(min_value=-50, max_value=50)
    distinct = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=distinct, max_size=distinct))
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    points = np.array(rows)[picks]
    if draw(st.booleans()):
        column = draw(st.integers(0, d - 1))
        points[:, column] = draw(st.sampled_from([0.0, 3.3, -7.25, 1e6 + 0.1]))
    score = st.one_of(st.floats(min_value=-40, max_value=5), st.just(-np.inf))
    scores = np.array(draw(st.lists(st.lists(score, min_size=k, max_size=k), min_size=n, max_size=n)))
    times = draw(st.integers(-10, 10)) + np.cumsum(
        draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    )
    outcomes = np.array(draw(st.lists(st.floats(min_value=-10, max_value=10), min_size=n, max_size=n)))
    if draw(st.booleans()):
        query = points[draw(st.integers(0, n - 1))]
    else:
        query = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
    return times, points, outcomes, scores, query


@given(_blocks(), st.floats(min_value=0, max_value=5, exclude_min=True))
@settings(max_examples=100, deadline=None)
def test_from_arrays_matches_appending_row_by_row(block, width):
    """One block and the same rows appended one by one give the same bits,
    and an array read before later appends never changes.  The live flags,
    set one row at a time as the history grows or all at once, mark the
    rows on which some expert scores above -inf."""
    times, points, outcomes, scores, query = block
    whole = History.from_arrays(times, points, outcomes, scores)
    grown = History(points.shape[1], scores.shape[1])
    read = []
    for i in range(len(times)):
        grown.append(_record(times[i], points[i], scores[i], y=outcomes[i]))
        views = (
            grown.time_indices,
            grown.pooling_points,
            grown.outcomes,
            grown.score_matrix,
            grown.live_rows,
        )
        read.append((views, [view.copy() for view in views]))
    for views, copies in read:
        for view, copy in zip(views, copies):
            assert not view.flags.writeable
            assert _same_bits(view, copy)
    pairs = [
        (whole.time_indices, grown.time_indices),
        (whole.pooling_points, grown.pooling_points),
        (whole.outcomes, grown.outcomes),
        (whole.score_matrix, grown.score_matrix),
        (whole.standardizing_mean, grown.standardizing_mean),
        (whole.standardizing_std, grown.standardizing_std),
        (whole.distances(query), grown.distances(query)),
    ]
    pairs += [
        (whole.caliper_neighbors(query, w), grown.caliper_neighbors(query, w))
        for w in (math.ulp(0.0), width, np.inf)
    ]
    for a, b in pairs:
        assert _same_bits(a, b)
    assert whole.caliper_neighbors(query, np.inf).size == len(times)

    live = np.any(scores > -np.inf, axis=1)
    for history in (whole, grown):
        assert not history.live_rows.flags.writeable
        assert _same_bits(history.live_rows, live)
