"""Shadow cells of ``rolling_evaluate``, rebuilt one cell at a time.

The harness scores every grid cell of every step together.  These tests
rebuild each cell alone from the public builders (``caliper_elpd``,
``softmax_weights``, ``optimize_pool_weights`` on the caliper's rows of
the score matrix, and ``pooled_log_scores``) on the history before its
step, and ask for the same bits.  None of them goes through ``PoolQuery``,
so the harness's block gathering, live-row filter and per-block fit cache
are checked against one optimizer call on each caliper's whole block.
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
from localpools.local_elpd import caliper_elpd
from localpools.pools import (
    NATURAL,
    FixedScaling,
    equal_weights,
    optimize_pool_weights,
    pooled_log_scores,
    softmax_weights,
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


def _reference_cells(history: History, point, config: EvaluationConfig) -> dict:
    """Per scheme: one (weights, is-a-1/K-fallback) pair per grid cell, in ledger order."""
    k = history.n_experts
    cells = {}
    softmax = []
    local_opt = []
    for width in config.width_grid:
        estimate = caliper_elpd(history, point, width)
        for scaling in config.scaling_grid:
            fallback = estimate.neighbor_count == 0 or scaling.factor(estimate.neighbor_count) == 0.0
            softmax.append((softmax_weights(estimate, scaling), fallback))
        # An empty caliper, or one of dead rows only, is exactly 1/K.
        block = history.score_matrix[history.caliper_neighbors(point, width)]
        fit = optimize_pool_weights(block) if len(block) else equal_weights(k)
        local_opt.append((fit, not np.any(block > -np.inf)))
    cells[SCHEME_LOCAL_SOFTMAX] = softmax
    cells[SCHEME_LOCAL_OPT] = local_opt
    cells[SCHEME_EQUAL] = [(equal_weights(k), True)]
    if len(history) == 0:
        cells[SCHEME_GLOBAL_OPT] = [(equal_weights(k), True)]
    else:
        cells[SCHEME_GLOBAL_OPT] = [(optimize_pool_weights(history.score_matrix), False)]
    return cells


def _chosen_cell(res, scheme: str, r: int, config: EvaluationConfig) -> int:
    """Where the cell chosen at reported step ``r`` sits in ``_reference_cells`` order."""
    width, scaling = res.cells[scheme][res.chosen_cells[scheme][r]]
    widths = config.width_grid
    if scheme == SCHEME_LOCAL_OPT:
        return widths.index(width)
    labels = [s.label() for s in config.scaling_grid]
    return widths.index(width) * len(labels) + labels.index(scaling.label())


def check_against_per_cell_reference(stream: EvaluationStream, config: EvaluationConfig) -> None:
    """Every ledger entry and reported weight equals its one-cell rebuild, bitwise."""
    res = rolling_evaluate(stream, config)
    start = config.warmup_size
    report_from = start + config.history_size
    k = stream.n_experts
    for i, t in enumerate(range(start, stream.n_steps)):
        history = _history_before(stream, start, t)
        point = stream.pooling_points[t]
        row = stream.log_scores[t][None, :]
        cells = _reference_cells(history, point, config)
        for scheme, reference in cells.items():
            for weights, fallback in reference:
                assert _on_simplex(weights.values), (scheme, t, weights.values)
                if fallback:
                    assert np.all(weights.values == 1.0 / k), (scheme, t, weights.values)
            if scheme in res.candidate_log_scores:
                ledger = res.candidate_log_scores[scheme][i]
                expected = [pooled_log_scores(w, row)[0] for w, _ in reference]
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
            assert _same_bits(reported, weights.values), (scheme, t, reported, weights.values)
            assert _same_bits(res.pooled_log_scores[scheme][r], pooled_log_scores(weights, row)[0])


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
    every scheme, and a step to perturb from."""
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
    config = EvaluationConfig(
        warmup_size=warmup,
        history_size=draw(st.integers(0, n - 1 - warmup)),
        width_grid=tuple(sorted(draw(st.sets(st.sampled_from(WIDTHS), min_size=1, max_size=4)))),
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
