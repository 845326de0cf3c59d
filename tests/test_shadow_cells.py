"""Shadow cells of ``rolling_evaluate``, rebuilt one cell at a time.

The harness scores every grid cell of every step together, through one
``PoolQuery``.  These tests rebuild each cell alone on the records before
its step with the one-cell oracles of ``tests/oracles.py``: the prefix
moments, a distance per record, an inclusive cut, an explicit caliper
mean and a direct softmax, none of which calls ``History.distances``,
``caliper_rows``, the caliper means, ``softmax_grid`` or ``PoolQuery``.
The optimal pools are one ``optimize_pool_weights`` call on the oracle's
block of each caliper, so the harness's block gathering, live-row filter
and per-block fit cache are checked too.  Every caliper of ``PoolQuery``
must hold the oracle's rows, and every cell must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localpools.densities import WEIGHT_SUM_TOL, PoolWeights
from localpools.evaluation import (
    ALL_SCHEMES,
    SCHEME_EQUAL,
    SCHEME_GLOBAL_OPT,
    SCHEME_LOCAL_OPT,
    SCHEME_LOCAL_SOFTMAX,
    EvaluationConfig,
    EvaluationStream,
    rolling_evaluate,
)
from localpools.history import History
from localpools.pools import NATURAL, FixedScaling, PoolQuery, optimize_pool_weights, pooled_log_scores
from oracles import (
    caliper,
    caliper_mean,
    softmax_cell,
    standardized_distance,
    standardizing_moments,
)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _on_simplex(w: np.ndarray) -> bool:
    return bool(
        np.all(np.isfinite(w))
        and np.all((w >= 0.0) & (w <= 1.0))
        and abs(math.fsum(w.tolist()) - 1.0) <= WEIGHT_SUM_TOL
    )


def _history_before(stream: EvaluationStream, start: int, t: int) -> History:
    """The records the harness holds when it scores step ``t``."""
    if t == start:
        return History(stream.n_pooling_dims, stream.n_experts)
    rows = slice(start, t)
    return History.from_arrays(
        stream.time_indices[rows],
        stream.pooling_points[rows],
        stream.outcomes[rows],
        stream.log_scores[rows],
    )


def _distances_before(stream: EvaluationStream, start: int, t: int) -> list[float]:
    """Oracle distance from step ``t``'s point to each record the harness holds then."""
    points = stream.pooling_points[start:t]
    if len(points) == 0:
        return []
    mean, std = standardizing_moments(points)
    z = stream.pooling_points[t]
    return [standardized_distance(p, z, mean, std) for p in points]


def _reference_cells(stream: EvaluationStream, start: int, t: int, config: EvaluationConfig):
    """The rows of each width's caliper at step ``t``, and per scheme one
    (weights, is-a-1/K-fallback) pair per grid cell, in ledger order."""
    k = stream.n_experts
    equal = np.full(k, 1.0 / k)
    scores = stream.log_scores[start:t]
    distances = _distances_before(stream, start, t)
    calipers = [caliper(distances, width) for width in config.width_grid]
    softmax = []
    local_opt = []
    for rows in calipers:
        estimates = caliper_mean(scores, rows)
        for scaling in config.scaling_grid:
            factor = float(scaling.factor(len(rows)))
            softmax.append((softmax_cell(estimates, factor), not rows or factor == 0.0))
        # An empty caliper, or one of dead rows only, is exactly 1/K.
        block = scores[rows]
        fit = optimize_pool_weights(block).values if rows else equal
        local_opt.append((fit, not np.any(block > -np.inf)))
    whole = optimize_pool_weights(scores).values if len(scores) else equal
    return calipers, {
        SCHEME_LOCAL_SOFTMAX: softmax,
        SCHEME_LOCAL_OPT: local_opt,
        SCHEME_EQUAL: [(equal, True)],
        SCHEME_GLOBAL_OPT: [(whole, len(scores) == 0)],
    }


def _chosen_cell(res, scheme: str, r: int, config: EvaluationConfig) -> int:
    """Where the cell chosen at reported step ``r`` sits in ``_reference_cells`` order."""
    width, scaling = res.cells[scheme][res.chosen_cells[scheme][r]]
    widths = config.width_grid
    if scheme == SCHEME_LOCAL_OPT:
        return widths.index(width)
    labels = [s.label() for s in config.scaling_grid]
    return widths.index(width) * len(labels) + labels.index(scaling.label())


def check_against_per_cell_reference(stream: EvaluationStream, config: EvaluationConfig) -> None:
    """Every caliper holds the oracle's rows, and every ledger entry and
    reported weight equals its one-cell rebuild, bitwise."""
    res = rolling_evaluate(stream, config)
    start = config.warmup_size
    report_from = start + config.history_size
    k = stream.n_experts
    for i, t in enumerate(range(start, stream.n_steps)):
        row = stream.log_scores[t][None, :]
        calipers, cells = _reference_cells(stream, start, t, config)
        query = PoolQuery(_history_before(stream, start, t), stream.pooling_points[t], config.width_grid)
        assert [idx.tolist() for idx in query.calipers[0]] == calipers, (t, calipers)
        for scheme, reference in cells.items():
            for weights, fallback in reference:
                assert _on_simplex(weights), (scheme, t, weights)
                if fallback:
                    assert np.all(weights == 1.0 / k), (scheme, t, weights)
            if scheme in res.candidate_log_scores:
                ledger = res.candidate_log_scores[scheme][i]
                expected = [pooled_log_scores(PoolWeights(w), row)[0] for w, _ in reference]
                assert _same_bits(ledger, expected), (scheme, t, ledger, expected)
        if t < report_from:
            continue
        r = t - report_from
        assert res.reported_times[r] == stream.time_indices[t]
        for scheme in config.schemes:
            pick = _chosen_cell(res, scheme, r, config) if scheme in res.candidate_log_scores else 0
            weights = cells[scheme][pick][0]
            reported = res.weights[scheme][r]
            assert _on_simplex(reported)
            assert _same_bits(reported, weights), (scheme, t, reported, weights)
            assert _same_bits(res.pooled_log_scores[scheme][r], pooled_log_scores(PoolWeights(weights), row)[0])


def check_no_lookahead(stream: EvaluationStream, config: EvaluationConfig, cut: int, seed: int) -> None:
    """Changing rows ``cut`` onward changes nothing the harness did before ``cut``."""
    rng = np.random.default_rng(seed)
    points = np.array(stream.pooling_points)
    outcomes = np.array(stream.outcomes)
    scores = np.array(stream.log_scores)
    tail = slice(cut, None)
    points[tail] += rng.normal(0.0, 3.0, size=points[tail].shape)
    outcomes[tail] = rng.normal(size=outcomes[tail].shape)
    scores[tail] = np.where(
        rng.random(scores[tail].shape) < 0.2, -np.inf, rng.normal(-2.0, 3.0, size=scores[tail].shape)
    )
    changed = EvaluationStream(points, outcomes, scores, stream.expert_names, stream.time_indices)
    a = rolling_evaluate(stream, config)
    b = rolling_evaluate(changed, config)
    before = cut - config.warmup_size
    for scheme in a.candidate_log_scores:
        assert _same_bits(a.candidate_log_scores[scheme][:before], b.candidate_log_scores[scheme][:before])
    reported = a.reported_times < stream.time_indices[cut]
    for scheme in config.schemes:
        assert _same_bits(a.chosen_cells[scheme][reported], b.chosen_cells[scheme][reported])
        assert _same_bits(a.weights[scheme][reported], b.weights[scheme][reported])
        assert _same_bits(a.pooled_log_scores[scheme][reported], b.pooled_log_scores[scheme][reported])


WIDTHS = (1e-6, 0.05, 0.5, 1.0, 2.5, math.inf)
SCALINGS = (FixedScaling(0.0), FixedScaling(0.5), FixedScaling(3.0), NATURAL)


@st.composite
def streams(draw):
    """A stream of T <= 60 steps with repeated points, -inf scores, whole
    -inf rows and sometimes a constant pooling dimension, a config over
    every scheme with a record on a caliper boundary, and a step to
    perturb from."""
    n, d, k = draw(st.integers(2, 60)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    coord = st.floats(min_value=-20, max_value=20)
    distinct = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=distinct, max_size=distinct))
    points = np.array(rows)[draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))]
    if draw(st.booleans()):
        points[:, draw(st.integers(0, d - 1))] = draw(st.sampled_from([0.0, 3.3, 1e6 + 0.1]))
    score = st.one_of(st.floats(min_value=-40, max_value=5), st.just(-np.inf))
    scores = np.array(draw(st.lists(st.lists(score, min_size=k, max_size=k), min_size=n, max_size=n)))
    for t in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        scores[t] = -np.inf
    outcomes = np.arange(n, dtype=float)
    stream = EvaluationStream(points, outcomes, scores, tuple(f"m{j}" for j in range(k)))
    warmup = draw(st.integers(0, n - 2))
    widths = draw(st.sets(st.sampled_from(WIDTHS), min_size=1, max_size=4))
    # A width that some record's distance equals exactly puts that record
    # on the inclusive boundary of the caliper.
    t = draw(st.integers(warmup, n - 1))
    distances = _distances_before(stream, warmup, t)
    if distances:
        exact = distances[draw(st.integers(0, len(distances) - 1))]
        if exact > 0.0:
            widths.add(exact)
    config = EvaluationConfig(
        warmup_size=warmup,
        history_size=draw(st.integers(0, n - 1 - warmup)),
        width_grid=tuple(sorted(widths)),
        scaling_grid=tuple(draw(st.lists(st.sampled_from(SCALINGS), min_size=1, max_size=3, unique=True))),
        schemes=tuple(draw(st.permutations(ALL_SCHEMES))),
    )
    cut = draw(st.integers(warmup, n - 1))
    return stream, config, cut


@given(streams(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_shadow_cells_match_one_cell_rebuilds(case, seed):
    stream, config, cut = case
    check_against_per_cell_reference(stream, config)
    check_no_lookahead(stream, config, cut, seed)


def _trap_stream(history_rows: np.ndarray, last_row) -> EvaluationStream:
    scores = np.vstack([history_rows, last_row])
    n = len(scores)
    points = np.linspace(-1.0, 1.0, n)[:, None]
    return EvaluationStream(points, np.zeros(n), scores, ("a", "b"))


@pytest.mark.parametrize(
    "stream, scaling",
    [
        # A -inf in the caliper gives expert a an estimate of -inf.
        (_trap_stream(np.array([[-np.inf, -1.0]]), [0.0, -800.0]), FixedScaling(1.0)),
        # Natural scaling at 800 neighbours turns a 1-nat gap into exp(-800) == 0.
        (_trap_stream(np.tile([-2.0, -1.0], (800, 1)), [0.0, -800.0]), NATURAL),
    ],
    ids=["minus-inf-estimate", "natural-at-800"],
)
def test_zero_weight_on_the_best_current_expert(stream, scaling):
    """A cell that gives weight 0 to the expert with the best current score
    must score as ``pooled_log_scores`` does, over positive weights only."""
    config = EvaluationConfig(
        width_grid=(math.inf,), scaling_grid=(scaling,), schemes=(SCHEME_LOCAL_SOFTMAX,)
    )
    res = rolling_evaluate(stream, config)
    weights = res.weights[SCHEME_LOCAL_SOFTMAX][-1]
    assert weights[0] == 0.0
    expected = pooled_log_scores(PoolWeights(weights), stream.log_scores[-1:])[0]
    assert expected == -800.0
    assert _same_bits(res.candidate_log_scores[SCHEME_LOCAL_SOFTMAX][-1, 0], expected)
    assert _same_bits(res.pooled_log_scores[SCHEME_LOCAL_SOFTMAX][-1], expected)
