from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localpools.evaluation import EvaluationStream
from localpools.history import (
    History, PredictionRecord, RecordError, _running_sums, check_records, settle_score_sums,
)
from localpools.io import ScoreCsvError, format_real, load_score_csv
from localpools.pools import PoolQuery
from oracles import standardizing_moments


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
    # Python ints beyond int64 make an object array, not an int64 one.
    pytest.param(lambda b: b.update(times=[0, 10**20, 2]),
                 "time_index must be an integer, got 1e+20", id="huge-time"),
    pytest.param(lambda b: b.update(outcomes=np.zeros((3, 2))),
                 "times, points, outcomes and scores need one row per record",
                 id="mismatched-lengths"),
]


def _good_block():
    return {
        "times": np.arange(3.0),
        "points": np.zeros((3, 2)),
        "outcomes": np.zeros(3),
        "scores": np.full((3, 2), -1.0),
    }


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
    block = _good_block()
    entry(_good_block())  # the good block passes
    edit(block)
    with pytest.raises(ValueError) as raised:
        entry(block)
    assert str(raised.value).startswith(message)


def _csv_lines(times, points, outcomes, scores):
    rows = zip(times, points, outcomes, scores)
    return [",".join(format_real(v) for v in (t, y, *z, *lp)) for t, z, y, lp in rows]


# A CSV row carries one of each field, so a block whose rows disagree in
# number has no CSV form; every other bad block does.
@pytest.mark.parametrize("edit, message", [p for p in BAD_BLOCKS if p.id != "mismatched-lengths"])
def test_the_score_csv_loader_refuses_every_bad_block_at_its_line(tmp_path, edit, message):
    """``load_score_csv`` leaves the record rules to ``check_records``; it
    refuses each bad block with the rule's message, after the bad cell's
    line and column."""
    block = _good_block()
    good = _csv_lines(**block)
    edit(block)
    lines = _csv_lines(**block)
    (bad_row,) = [r for r in range(3) if lines[r] != good[r]]
    header = ["t", "y", "z_1", "z_2", "lp_a", "lp_b"]
    cells = zip(header, good[bad_row].split(","), lines[bad_row].split(","))
    (column,) = [name for name, before, after in cells if before != after]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([",".join(header), *lines]) + "\n")
    with pytest.raises(RecordError) as rule:
        check_records(**block)
    assert str(rule.value).startswith(message)
    with pytest.raises(ScoreCsvError) as raised:
        load_score_csv(path)
    assert str(raised.value) == f"{path}: line {bad_row + 2}, column {column!r}: {rule.value}"


class TestStandardization:
    def test_moments_are_population_moments(self):
        h = _filled_history()
        pts = h.pooling_points
        z = h.standardize((1.0, 0.5))
        np.testing.assert_allclose(z, ([1.0, 0.5] - pts.mean(axis=0)) / pts.std(axis=0))

    def test_standardize_centers_and_scales(self):
        h = _filled_history()
        mean, std = standardizing_moments(h.pooling_points)
        np.testing.assert_array_equal(h.standardize(mean), [0.0, 0.0])
        np.testing.assert_allclose(h.standardize(mean + std), [1.0, 1.0])

    def test_degenerate_dimension_falls_back_to_unit_scale(self):
        h = History(2, 1)
        for t in range(3):
            h.append(_record(t, (5.0, float(t)), (-1.0,)))
        assert h.standardize((6.0, 0.0))[0] == 1.0
        # constant dimension contributes nothing to distances
        mean, std = standardizing_moments(h.pooling_points)
        d = h.distances((5.0, mean[1]))
        manual = np.abs((h.pooling_points[:, 1] - mean[1]) / std[1])
        np.testing.assert_allclose(d, manual)
        # np.std of a constant column is rounding noise that grows with the
        # constant: exactly 0 at 3.3, about 1e-9 at 1e6 + 0.1.
        t = np.arange(100)
        for constant in (3.3, 1e6 + 0.1):
            points = np.column_stack([np.full(100, constant), 0.01 * t])
            h = History.from_arrays(t, points, np.zeros(100), np.full((100, 1), -1.0))
            assert h.standardize((constant + 0.5, 0.0))[0] == pytest.approx(0.5)
            assert h.caliper_neighbors((constant + 0.5, 0.5), 1.0).size == 49

    def test_stats_refresh_after_growth(self):
        h = History(1, 1)
        h.append(_record(0, (0.0,), (0.0,)))
        h.append(_record(1, (2.0,), (0.0,)))
        assert h.standardize((1.0,))[0] == 0.0
        h.append(_record(2, (10.0,), (0.0,)))
        assert h.standardize((4.0,))[0] == 0.0


class TestCaliper:
    def test_distances_match_manual_loop(self):
        h = _filled_history()
        q = (0.5, -0.5)
        mu, sd = standardizing_moments(h.pooling_points)
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


@given(_blocks(), st.floats(min_value=0, max_value=5, exclude_min=True), st.booleans())
@settings(max_examples=100, deadline=None)
def test_from_arrays_matches_appending_row_by_row(block, width, by_column):
    """One block and the same rows appended one by one give the same bits,
    whether the block is laid out row by row or column by column, and an
    array read before later appends never changes.  The live flags, set one
    row at a time as the history grows or all at once, mark the rows on
    which some expert scores above -inf."""
    times, points, outcomes, scores, query = block
    layout = np.asfortranarray if by_column else np.ascontiguousarray
    whole = History.from_arrays(times, layout(points), outcomes, layout(scores))
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
        (whole.standardize(query), grown.standardize(query)),
        (whole.standardize(query + 1.0), grown.standardize(query + 1.0)),
        (whole.distances(query), grown.distances(query)),
    ]
    widths = (math.ulp(0.0), width, np.inf)
    pairs += [
        (whole.caliper_neighbors(query, w), grown.caliper_neighbors(query, w))
        for w in widths
    ]
    pairs.append((PoolQuery(whole, query, widths).calipers[1], PoolQuery(grown, query, widths).calipers[1]))
    for a, b in pairs:
        assert _same_bits(a, b)
    assert whole.caliper_neighbors(query, np.inf).size == len(times)

    # Both are NumPy's whole-array moments and means, bitwise.
    mean = points.mean(axis=0)
    std = np.sqrt(((points - mean) ** 2).mean(axis=0))
    std = np.where(std < 1e-12 * np.maximum(1.0, np.abs(points).max(axis=0)), 1.0, std)
    assert _same_bits(grown.standardize(query), (query - mean) / std)
    with np.errstate(over="ignore", invalid="ignore"):
        score_means = settle_score_sums(scores.mean(axis=0))
    assert _same_bits(PoolQuery(grown, query, (np.inf,)).calipers[1][0], score_means)

    live = np.any(scores > -np.inf, axis=1)
    for history in (whole, grown):
        assert not history.live_rows.flags.writeable
        assert _same_bits(history.live_rows, live)


_SUM_ENTRIES = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 0.0, -np.inf, 1e308, -1e308, 2.0**-53]),
)


@given(st.integers(1, 40), st.integers(2, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_numpy_sums_two_or_more_columns_along_axis_0_row_by_row(n, c, data):
    """``History``'s running sums rest on this: ``np.add.reduce(axis=0)``
    and ``mean(axis=0)`` of a C-ordered (n, c >= 2) array add its rows one
    at a time, so a sum kept row by row, or block by block, has their bits."""
    x = np.array(data.draw(st.lists(_SUM_ENTRIES, min_size=n * c, max_size=n * c))).reshape(n, c)
    cut = data.draw(st.integers(1, n))
    with np.errstate(over="ignore", invalid="ignore"):
        by_row = None
        for row in x:
            by_row = _running_sums(by_row, row[None, :])
        by_block = _running_sums(_running_sums(None, x[:cut]), x[cut:])
        whole, mean = np.add.reduce(x, axis=0), x.mean(axis=0)
    for sums in (by_row, by_block):
        assert _same_bits(sums, whole)
        assert _same_bits(sums / n, mean)
    # A block laid out column by column, as the scores of a history: its
    # running sums are NumPy's sums of the C-ordered rows.
    scores = np.where(x < np.inf, x, -np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        want = settle_score_sums(np.add.reduce(scores, axis=0) / n)
        history = History.from_arrays(np.arange(n), np.zeros((n, 1)), np.zeros(n), scores.T.copy().T)
        assert _same_bits(history._score_means(), want)


@pytest.mark.parametrize("c", [2, 3, 4, 7])
def test_long_columns_are_summed_row_by_row_too(c):
    """The same at the lengths of long streams, against ``np.add.accumulate``,
    which adds one row at a time by definition."""
    x = np.random.default_rng(c).normal(size=(20000, c)) * 10.0 ** np.arange(c)
    assert _same_bits(np.add.reduce(x, axis=0), np.add.accumulate(x, axis=0)[-1])
    assert _same_bits(x.mean(axis=0), np.add.accumulate(x, axis=0)[-1] / len(x))


def test_a_block_laid_out_column_by_column_keeps_numpys_row_order():
    """NumPy sums the columns of a Fortran-ordered array pairwise, so
    ``History`` takes its running sums over the rows it has copied into its
    C-ordered buffers, not over the caller's block."""
    u = 2.0**-53
    rows = np.ascontiguousarray(np.array([[1.0, 1.0, 1.0, u, u, u, u, u]] * 2).T)
    by_column = np.asfortranarray(rows)
    assert not _same_bits(np.add.reduce(by_column, axis=0), np.add.reduce(rows, axis=0))
    times, outcomes = np.arange(len(rows)), np.zeros(len(rows))
    history = History.from_arrays(times, by_column, outcomes, by_column)
    by_row = History.from_arrays(times, rows, outcomes, rows)
    assert _same_bits(history.standardize((0.0, 0.0)), by_row.standardize((0.0, 0.0)))
    assert _same_bits(history._score_means(), rows.mean(axis=0))
    assert _same_bits(history._mean, history.pooling_points.mean(axis=0))


def test_one_column_falls_back_to_numpys_pairwise_mean():
    """NumPy sums one column pairwise, so a history of one pooling
    dimension or one expert takes ``mean`` over every row instead of a
    running sum, which would round this column differently."""
    u = 2.0**-53
    column = [1.0, 1.0, 1.0, u, u, u, u, u]
    running = 0.0
    for x in column:
        running += x
    mean, std = np.mean(column), np.std(column)
    assert running / len(column) != mean
    h = History(1, 1)
    for t, x in enumerate(column):
        h.append(_record(t, (x,), (x,)))
    assert _same_bits(h.standardize((0.0,)), [(0.0 - mean) / std])
    assert _same_bits(PoolQuery(h, (0.0,), (np.inf,)).calipers[1], [[mean]])
    # With a second column the same values are summed row by row.
    h = History(2, 2)
    for t, x in enumerate(column):
        h.append(_record(t, (x, 0.5 * t), (x, -x)))
    assert PoolQuery(h, (0.0, 0.0), (np.inf,)).calipers[1][0, 0] == running / len(column)


def test_settled_score_sums_are_minus_inf_where_nan_and_unchanged_elsewhere():
    """A NaN sum of log scores is +inf meeting -inf, exactly -inf; every
    other value keeps its bits, -0.0 and the infinities included."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.array([[1e308, -np.inf], [1e308, 0.0], [-np.inf, -0.0]]).sum(axis=0)
    sums = np.concatenate([sums, [np.inf, -np.inf, -0.0, 5e-324, -1.5]])
    assert np.isnan(sums[0])
    before = sums.copy()
    out = settle_score_sums(sums)
    assert out is sums
    assert sums[0] == -np.inf
    assert sums[1:].tobytes() == before[1:].tobytes()
