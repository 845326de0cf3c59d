from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localpools import evaluation
from localpools.evaluation import (
    ALL_SCHEMES,
    SCHEME_EQUAL,
    SCHEME_GLOBAL_OPT,
    SCHEME_LOCAL_OPT,
    SCHEME_LOCAL_SOFTMAX,
    SCHEMES,
    EvaluationConfig,
    EvaluationStream,
    rolling_evaluate,
    select_hyperparameters,
)
from localpools.history import History, PredictionRecord
from localpools.local_elpd import caliper_elpd
from localpools.pools import (
    NATURAL,
    FixedScaling,
    PoolQuery,
    equal_weights,
    local_opt_weights,
    optimize_pool_weights,
    pooled_log_scores,
    softmax_weights,
)
from localpools.simulation import (
    DgpConfig,
    generate_dgp,
    nig_evaluation_stream,
    replication_studies,
)
from oracles import stepwise_selection


def _synthetic_stream(T=60, k=3, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(T, 2))
    outcomes = rng.normal(size=T)
    scores = rng.normal(-1.5, 0.8, size=(T, k))
    names = tuple(f"m{j}" for j in range(k))
    return EvaluationStream(points, outcomes, scores, names)


def _chosen(res, scheme, i):
    """The (width, scaling) cell ``scheme`` chose at reported step ``i``."""
    return res.cells[scheme][res.chosen_cells[scheme][i]]


def _reported_expert_scores(res):
    """Expert log scores of the reported steps: history rows from history_size on."""
    return res.history.score_matrix[res.config.history_size :]


SMALL_CONFIG = EvaluationConfig(
    warmup_size=5,
    history_size=15,
    width_grid=(0.5, 2.0, math.inf),
    scaling_grid=(FixedScaling(1.0), NATURAL),
)


class TestConfigValidation:
    def test_defaults_are_usable(self):
        cfg = EvaluationConfig()
        assert cfg.schemes == ALL_SCHEMES
        assert math.isinf(cfg.width_grid[-1])

    def test_negative_batches(self):
        with pytest.raises(ValueError):
            EvaluationConfig(warmup_size=-1)
        with pytest.raises(ValueError):
            EvaluationConfig(history_size=-2)

    def test_scheme_checks(self):
        with pytest.raises(ValueError, match="unknown"):
            EvaluationConfig(schemes=("equal", "bogus"))
        with pytest.raises(ValueError, match="unique"):
            EvaluationConfig(schemes=("equal", "equal"))
        with pytest.raises(ValueError):
            EvaluationConfig(schemes=())

    def test_width_grid_checks_only_for_local_schemes(self):
        with pytest.raises(ValueError):
            EvaluationConfig(schemes=("local_opt",), width_grid=())
        with pytest.raises(ValueError):
            EvaluationConfig(schemes=("local_softmax",), width_grid=(1.0, 0.0))
        # global/equal schemes do not care about the caliper grid
        cfg = EvaluationConfig(schemes=("equal", "global_opt"), width_grid=())
        assert cfg.width_grid == ()

    def test_one_width_rule_for_the_config_the_studies_and_every_caliper(self):
        """Width 0 and NaN are refused with one message wherever a width enters."""
        history = History.from_arrays(
            np.arange(4), np.arange(8.0).reshape(4, 2), np.zeros(4), np.zeros((4, 2))
        )
        study = dict(replications=100, config=DgpConfig(sample_size=200))
        for bad in (0.0, math.nan):
            refusals = [
                lambda: EvaluationConfig(schemes=("local_opt",), width_grid=(1.0, bad)),
                lambda: replication_studies(error_widths=(bad,), pool_widths=None, **study),
                lambda: replication_studies(error_widths=None, pool_widths=(1.0, bad), **study),
                lambda: history.caliper_neighbors((0.0, 0.0), bad),
                lambda: caliper_elpd(history, (0.0, 0.0), bad),
                lambda: local_opt_weights(history, (0.0, 0.0), bad),
            ]
            for refuse in refusals:
                with pytest.raises(ValueError) as raised:
                    refuse()
                assert str(raised.value) == f"caliper widths must be positive, got {bad!r}"

    def test_scaling_rule_duck_check(self):
        with pytest.raises(ValueError):
            EvaluationConfig(schemes=("local_softmax",), scaling_grid=(1.0,))


class TestStreamValidation:
    def test_one_dim_points_are_promoted(self):
        s = EvaluationStream(np.zeros(4), np.zeros(4), np.zeros((4, 2)), ("a", "b"))
        assert s.pooling_points.shape == (4, 1)
        assert s.n_pooling_dims == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="one row per record"):
            EvaluationStream(np.zeros((4, 1)), np.zeros(3), np.zeros((4, 2)), ("a", "b"))

    def test_empty_stream(self):
        with pytest.raises(ValueError):
            EvaluationStream(np.zeros((0, 1)), np.zeros(0), np.zeros((0, 2)), ("a", "b"))

    def test_name_checks(self):
        with pytest.raises(ValueError):
            EvaluationStream(np.zeros((2, 1)), np.zeros(2), np.zeros((2, 2)), ("a",))
        with pytest.raises(ValueError):
            EvaluationStream(np.zeros((2, 1)), np.zeros(2), np.zeros((2, 2)), ("a", "a"))

    def test_value_checks(self):
        good = dict(
            pooling_points=np.zeros((2, 1)),
            outcomes=np.zeros(2),
            log_scores=np.zeros((2, 2)),
            expert_names=("a", "b"),
        )
        with pytest.raises(ValueError):
            EvaluationStream(**{**good, "log_scores": np.array([[0.0, np.nan]] * 2)})
        with pytest.raises(ValueError):
            EvaluationStream(**{**good, "log_scores": np.array([[0.0, np.inf]] * 2)})
        with pytest.raises(ValueError):
            EvaluationStream(**{**good, "outcomes": np.array([0.0, np.inf])})
        with pytest.raises(ValueError):
            EvaluationStream(**{**good, "pooling_points": np.array([[np.nan], [0.0]])})

    def test_time_indices_must_increase(self):
        with pytest.raises(ValueError):
            EvaluationStream(
                np.zeros((2, 1)),
                np.zeros(2),
                np.zeros((2, 2)),
                ("a", "b"),
                time_indices=[3, 3],
            )

    def test_arrays_are_read_only(self):
        s = _synthetic_stream(T=5)
        with pytest.raises(ValueError):
            s.outcomes[0] = 1.0


class TestSelectHyperparameters:
    def test_single_candidate(self):
        assert select_hyperparameters([-10.0]) == 0

    def test_picks_larger(self):
        assert select_hyperparameters([-12.0, -10.0]) == 1

    def test_tie_goes_to_earlier_cell(self):
        assert select_hyperparameters([-5.0, -5.0, -6.0]) == 0

    def test_cold_start_zeros_pick_first(self):
        assert select_hyperparameters(np.zeros(6)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            select_hyperparameters([])
        with pytest.raises(ValueError):
            select_hyperparameters([[1.0, 2.0]])
        with pytest.raises(ValueError):
            select_hyperparameters([0.0, np.nan])


class TestRollingEvaluate:
    def test_stream_too_short(self):
        stream = _synthetic_stream(T=10)
        with pytest.raises(ValueError, match="nothing to evaluate"):
            rolling_evaluate(stream, EvaluationConfig(warmup_size=5, history_size=5))

    def test_reported_step_count_and_times(self):
        stream = _synthetic_stream()
        res = rolling_evaluate(stream, SMALL_CONFIG)
        expected = stream.n_steps - SMALL_CONFIG.warmup_size - SMALL_CONFIG.history_size
        assert res.reported_times.tolist() == list(range(20, 60))
        for scheme in SMALL_CONFIG.schemes:
            assert res.weights[scheme].shape == (expected, stream.n_experts)
            assert res.pooled_log_scores[scheme].shape == (expected,)
            assert res.chosen_cells[scheme].shape == (expected,)
        # history-batch steps are scored for candidates but never reported
        scored = stream.n_steps - SMALL_CONFIG.warmup_size
        np.testing.assert_array_equal(res.history.time_indices, range(5, 60))
        for table in res.candidate_log_scores.values():
            assert table.shape[0] == scored

    def test_per_step_payload_keys(self):
        res = rolling_evaluate(_synthetic_stream(), SMALL_CONFIG)
        for columns in (res.weights, res.pooled_log_scores, res.chosen_cells, res.cells):
            assert set(columns) == set(ALL_SCHEMES)
        assert set(res.candidate_log_scores) == {SCHEME_LOCAL_SOFTMAX, SCHEME_LOCAL_OPT}
        widths, scalings = SMALL_CONFIG.width_grid, SMALL_CONFIG.scaling_grid
        assert res.cells[SCHEME_LOCAL_SOFTMAX] == tuple((w, s) for w in widths for s in scalings)
        assert res.cells[SCHEME_LOCAL_OPT] == tuple((w, None) for w in widths)
        # Schemes without axes have one cell and always use it.
        for scheme in (SCHEME_EQUAL, SCHEME_GLOBAL_OPT):
            assert res.cells[scheme] == ((None, None),)
            assert np.all(res.chosen_cells[scheme] == 0)

    def test_reported_arrays_are_read_only(self):
        res = rolling_evaluate(_synthetic_stream(), SMALL_CONFIG)
        columns = (res.weights, res.pooled_log_scores, res.chosen_cells, res.candidate_log_scores)
        for table in columns:
            for array in table.values():
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_single_expert_all_schemes_match_the_expert(self):
        rng = np.random.default_rng(1)
        stream = EvaluationStream(
            rng.normal(size=(30, 1)),
            rng.normal(size=30),
            rng.normal(-1.0, 0.5, size=(30, 1)),
            ("only",),
        )
        res = rolling_evaluate(
            stream, EvaluationConfig(warmup_size=0, history_size=5)
        )
        expert = _reported_expert_scores(res)[:, 0]
        for scheme in ALL_SCHEMES:
            assert np.all(res.weights[scheme][:, 0] == 1.0)
            np.testing.assert_array_equal(res.pooled_log_scores[scheme], expert)

    def test_identical_experts_make_schemes_agree_exactly(self):
        rng = np.random.default_rng(2)
        col = rng.normal(-2.0, 1.0, size=40)
        stream = EvaluationStream(
            rng.normal(size=(40, 1)),
            rng.normal(size=40),
            np.column_stack([col, col]),
            ("a", "b"),
        )
        res = rolling_evaluate(stream, EvaluationConfig(warmup_size=0, history_size=8))
        expert = _reported_expert_scores(res)[:, 0]
        for scores in res.pooled_log_scores.values():
            np.testing.assert_array_equal(scores, expert)

    def test_totals_match_cumulative_tail(self):
        res = rolling_evaluate(_synthetic_stream(), SMALL_CONFIG)
        totals = res.totals()
        cum = {s: np.cumsum(scores) for s, scores in res.pooled_log_scores.items()}
        for scheme in SMALL_CONFIG.schemes:
            assert totals[scheme] == cum[scheme][-1]
            assert len(cum[scheme]) == res.reported_times.size

    def test_totals_sum_left_to_right_on_every_python(self):
        """These scores total 0.0 left to right; from Python 3.12 the
        compensated builtin ``sum`` gives 2.0."""
        res = rolling_evaluate(_synthetic_stream(), SMALL_CONFIG)
        scores = np.array([0.1] * 10 + [1e16, 1.0, -1e16])
        res = dataclasses.replace(res, pooled_log_scores={SCHEME_EQUAL: scores})
        assert res.totals() == {SCHEME_EQUAL: 0.0}

    def test_equal_scheme_total_recomputes(self):
        stream = _synthetic_stream()
        res = rolling_evaluate(stream, SMALL_CONFIG)
        k = stream.n_experts
        direct = sum(
            pooled_log_scores(equal_weights(k), stream.log_scores[t : t + 1])[0]
            for t in range(20, 60)
        )
        assert res.totals()[SCHEME_EQUAL] == pytest.approx(direct, abs=1e-12)

    def test_deterministic_replay_is_bitwise(self):
        stream = _synthetic_stream()
        a = rolling_evaluate(stream, SMALL_CONFIG)
        b = rolling_evaluate(stream, SMALL_CONFIG)
        assert a.totals() == b.totals()
        for scheme in a.candidate_log_scores:
            np.testing.assert_array_equal(
                a.candidate_log_scores[scheme], b.candidate_log_scores[scheme]
            )
        for scheme in ALL_SCHEMES:
            np.testing.assert_array_equal(a.weights[scheme], b.weights[scheme])
            np.testing.assert_array_equal(a.chosen_cells[scheme], b.chosen_cells[scheme])


class TestNoLookahead:
    """Weights at step t must be reproducible from data strictly before t."""

    def _history_before(self, stream, upto):
        h = History(stream.n_pooling_dims, stream.n_experts)
        for t in range(SMALL_CONFIG.warmup_size, upto):
            h.append(
                PredictionRecord(
                    time_index=int(stream.time_indices[t]),
                    pooling_point=stream.pooling_points[t],
                    outcome=float(stream.outcomes[t]),
                    log_scores=stream.log_scores[t],
                )
            )
        return h

    def test_weights_rebuild_bitwise(self):
        stream = _synthetic_stream()
        res = rolling_evaluate(stream, SMALL_CONFIG)
        for i in (0, 7, -1):
            t = res.reported_times[i]
            h = self._history_before(stream, t)
            z = stream.pooling_points[t]

            np.testing.assert_array_equal(
                res.weights[SCHEME_EQUAL][i], equal_weights(3).values
            )
            np.testing.assert_array_equal(
                res.weights[SCHEME_GLOBAL_OPT][i],
                optimize_pool_weights(h.score_matrix).values,
            )
            width, rule = _chosen(res, SCHEME_LOCAL_SOFTMAX, i)
            np.testing.assert_array_equal(
                res.weights[SCHEME_LOCAL_SOFTMAX][i],
                softmax_weights(caliper_elpd(h, z, width), rule).values,
            )
            width, _ = _chosen(res, SCHEME_LOCAL_OPT, i)
            np.testing.assert_array_equal(
                res.weights[SCHEME_LOCAL_OPT][i],
                local_opt_weights(h, z, width).values,
            )

    def test_selection_audit_from_candidate_ledger(self):
        """Chosen grid cells re-derive from shadow scores strictly before t."""
        stream = _synthetic_stream()
        res = rolling_evaluate(stream, SMALL_CONFIG)
        times = res.history.time_indices
        for scheme in (SCHEME_LOCAL_SOFTMAX, SCHEME_LOCAL_OPT):
            rows = res.candidate_log_scores[scheme]
            labels = res.candidate_labels[scheme]
            for r, time_index in enumerate(res.reported_times):
                cum = np.zeros(rows.shape[1])
                for i, ti in enumerate(times):
                    if ti >= time_index:
                        break
                    cum = cum + rows[i]
                assert times[i] == time_index
                pick = select_hyperparameters(cum)
                assert res.chosen_cells[scheme][r] == pick
                # The reported score is the chosen cell's own shadow entry.
                assert res.pooled_log_scores[scheme][r] == rows[i, pick]
                width, scaling = _chosen(res, scheme, r)
                expected = f"width={width:g}"
                if scheme == SCHEME_LOCAL_SOFTMAX:
                    expected += f",{scaling.label()}"
                assert labels[pick] == expected


class TestDeadRows:
    """A row where every expert scores -inf carries no weight information."""

    SMALL_GRIDS = dict(width_grid=(1.0, math.inf), scaling_grid=(NATURAL,))

    def test_dead_row_is_skipped_by_the_optimizers(self):
        base = nig_evaluation_stream(generate_dgp(DgpConfig(sample_size=400, seed=3)))
        scores = base.log_scores.copy()
        scores[150] = -np.inf
        stream = EvaluationStream(
            base.pooling_points, base.outcomes, scores, base.expert_names
        )
        res = rolling_evaluate(
            stream, EvaluationConfig(warmup_size=50, history_size=50, **self.SMALL_GRIDS)
        )
        assert set(res.totals()) == set(ALL_SCHEMES)
        dead = res.reported_times.tolist().index(150)
        assert {float(s[dead]) for s in res.pooled_log_scores.values()} == {-np.inf}
        later = res.reported_times[-1]
        live_history = np.delete(scores[50:later], 150 - 50, axis=0)
        np.testing.assert_array_equal(
            res.weights[SCHEME_GLOBAL_OPT][-1],
            optimize_pool_weights(live_history).values,
        )

    def test_dead_row_stays_out_of_the_shadow_totals(self):
        """After a dead row the totals stay finite and selection still works."""
        base = nig_evaluation_stream(generate_dgp(DgpConfig(sample_size=400, seed=3)))
        scores = base.log_scores.copy()
        scores[150] = -np.inf
        config = EvaluationConfig(
            warmup_size=50,
            history_size=50,
            width_grid=(0.5, 1.0, math.inf),
            scaling_grid=(FixedScaling(1.0), NATURAL),
        )
        res = rolling_evaluate(
            EvaluationStream(base.pooling_points, base.outcomes, scores, base.expert_names),
            config,
        )
        times = res.history.time_indices
        live = np.any(scores[times] > -np.inf, axis=1)
        assert not live[times == 150].any() and live.sum() == live.size - 1
        for scheme in (SCHEME_LOCAL_SOFTMAX, SCHEME_LOCAL_OPT):
            rows = res.candidate_log_scores[scheme]
            assert np.all(rows[~live] == -np.inf)
            assert np.all(np.isfinite(rows[live].sum(axis=0)))
            labels = res.candidate_labels[scheme]
            for r, time_index in enumerate(res.reported_times):
                cum = np.zeros(rows.shape[1])
                for i, ti in enumerate(times):
                    if ti >= time_index:
                        break
                    if live[i]:
                        cum = cum + rows[i]
                width, scaling = _chosen(res, scheme, r)
                chosen = f"width={width:g}"
                if scheme == SCHEME_LOCAL_SOFTMAX:
                    chosen += f",{scaling.label()}"
                assert labels[select_hyperparameters(cum)] == chosen
        # Were the dead row counted, every total would be -inf from step 151
        # on and the first cell (width=0.5, tau=1) would win every step.
        # The softmax picks match the stream without the dead row instead.
        clean = rolling_evaluate(base, config)
        softmax = SCHEME_LOCAL_SOFTMAX
        np.testing.assert_array_equal(clean.reported_times, res.reported_times)
        after = res.reported_times > 150
        np.testing.assert_array_equal(
            res.chosen_cells[softmax][after], clean.chosen_cells[softmax][after]
        )

    def test_all_dead_history_gives_exactly_equal_weights(self):
        rng = np.random.default_rng(4)
        stream = EvaluationStream(
            rng.normal(size=(12, 2)),
            rng.normal(size=12),
            np.full((12, 3), -np.inf),
            ("a", "b", "c"),
        )
        config = EvaluationConfig(warmup_size=0, history_size=4, **self.SMALL_GRIDS)
        res = rolling_evaluate(stream, config)
        for scheme in (SCHEME_GLOBAL_OPT, SCHEME_LOCAL_OPT):
            for weights in res.weights[scheme]:
                np.testing.assert_array_equal(weights, equal_weights(3).values)
        for scores in res.pooled_log_scores.values():
            assert np.all(scores == -np.inf)


class TestSoftmaxGlobalLimit:
    def test_infinite_width_natural_matches_hand_rolled_run(self):
        stream = _synthetic_stream(T=40, seed=9)
        cfg = EvaluationConfig(
            warmup_size=0,
            history_size=10,
            width_grid=(math.inf,),
            scaling_grid=(NATURAL,),
            schemes=(SCHEME_LOCAL_SOFTMAX,),
        )
        res = rolling_evaluate(stream, cfg)
        for i in (0, -1):
            t = res.reported_times[i]
            past = stream.log_scores[:t]
            est = caliper_elpd(
                _history_from(stream, t), stream.pooling_points[t], math.inf
            )
            np.testing.assert_array_equal(est.estimates, past.mean(axis=0))
            assert est.neighbor_count == t
            np.testing.assert_array_equal(
                res.weights[SCHEME_LOCAL_SOFTMAX][i],
                softmax_weights(est, NATURAL).values,
            )
            width, scaling = _chosen(res, SCHEME_LOCAL_SOFTMAX, i)
            assert width == math.inf
            assert scaling.label() == "natural"


def _history_from(stream, upto):
    return History.from_arrays(
        stream.time_indices[:upto],
        stream.pooling_points[:upto],
        stream.outcomes[:upto],
        stream.log_scores[:upto],
    )


def _result_bits(res) -> dict:
    """Every array of an ``EvaluationResult`` as (shape, dtype, bytes), by name."""
    arrays = {
        "times": res.history.time_indices,
        "points": res.history.pooling_points,
        "outcomes": res.history.outcomes,
        "scores": res.history.score_matrix,
        "live": res.history.live_rows,
        "reported_times": res.reported_times,
    }
    for field in ("weights", "pooled_log_scores", "chosen_cells", "candidate_log_scores"):
        for scheme, array in getattr(res, field).items():
            arrays[f"{field}[{scheme}]"] = array
    return {name: (a.shape, a.dtype.str, a.tobytes()) for name, a in arrays.items()}


def test_the_block_length_changes_no_bit(monkeypatch):
    """Blocks of 1, 3, the default and more than the stream give the same bits.

    The history batch is longer than a default block, so blocks of every
    length start inside it, and dead rows fall in both batches.
    """
    base = _synthetic_stream(T=300, k=3, seed=11)
    scores = base.log_scores.copy()
    scores[[40, 150, 151, 290]] = -np.inf
    scores[60, 1] = -np.inf
    stream = EvaluationStream(base.pooling_points, base.outcomes, scores, base.expert_names)
    config = EvaluationConfig(
        warmup_size=10,
        history_size=140,
        width_grid=(0.5, 2.0, math.inf),
        scaling_grid=(FixedScaling(0.0), FixedScaling(1.0), NATURAL),
    )
    assert config.history_size > evaluation._BLOCK_STEPS
    runs = {}
    for block in (1, 3, evaluation._BLOCK_STEPS, stream.n_steps + 1):
        monkeypatch.setattr(evaluation, "_BLOCK_STEPS", block)
        runs[block] = _result_bits(rolling_evaluate(stream, config))
    # Six history arrays, four per scheme, less the ledgers equal and global_opt lack.
    assert len(runs[1]) == 6 + 4 * len(ALL_SCHEMES) - 2
    for block, bits in runs.items():
        assert bits == runs[1], block


# Scores that stress the running totals: -0.0, -1e308 (two of them sum to
# -inf) and -inf; one +1e308 at most, so that no total reaches +inf and
# meets a -inf (the NaN that selection refuses).
_SCORE = st.one_of(st.floats(-30, 2), st.sampled_from([-0.0, -1e308, -np.inf]))


@st.composite
def selection_cases(draw):
    """A stream with dead rows, extreme and signed-zero scores and, at
    times, a duplicated expert (so that cells tie), a config over the
    schemes that select, and a block length shorter than, about as long
    as, or longer than the history batch."""
    n, k = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    points = np.array(draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
    scores = np.array(draw(st.lists(st.lists(_SCORE, min_size=k, max_size=k), min_size=n, max_size=n)))
    if draw(st.booleans()):
        scores[draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))] = 1e308
    if draw(st.booleans()):
        scores = np.hstack([scores, scores[:, :1]])
    for t in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        scores[t] = -np.inf
    names = tuple(f"m{j}" for j in range(scores.shape[1]))
    stream = EvaluationStream(points, np.zeros(n), scores, names)
    warmup = draw(st.integers(0, n - 2))
    config = EvaluationConfig(
        warmup_size=warmup,
        history_size=draw(st.integers(0, n - 1 - warmup)),
        width_grid=(0.5, 1.0, math.inf),
        scaling_grid=(FixedScaling(0.0), FixedScaling(1.0), NATURAL),
        schemes=(SCHEME_LOCAL_SOFTMAX, SCHEME_LOCAL_OPT, SCHEME_EQUAL),
    )
    block = draw(st.sampled_from([1, 2, 5, evaluation._BLOCK_STEPS]))
    return stream, config, block


@given(selection_cases())
@settings(max_examples=60, deadline=None)
def test_batched_selection_matches_the_stepwise_oracle(case):
    """Picks, reported scores and reported weights equal a step-at-a-time
    replay bitwise: the picks from ``stepwise_selection`` on the ledger,
    the weights from that step's own ``PoolQuery``."""
    stream, config, block = case
    with mock.patch.object(evaluation, "_BLOCK_STEPS", block):
        res = rolling_evaluate(stream, config)
    w, first = config.warmup_size, config.history_size
    for scheme, ledger in res.candidate_log_scores.items():
        picks, scores = stepwise_selection(ledger, res.history.live_rows, first)
        assert np.array_equal(res.chosen_cells[scheme], picks), scheme
        assert res.pooled_log_scores[scheme].tobytes() == scores.tobytes(), scheme
    for r, t in enumerate(range(w + first, stream.n_steps)):
        history = History(stream.n_pooling_dims, stream.n_experts)
        if t > w:
            rows = slice(w, t)
            history = History.from_arrays(
                stream.time_indices[rows], stream.pooling_points[rows],
                stream.outcomes[rows], stream.log_scores[rows],
            )
        query = PoolQuery(history, stream.pooling_points[t], config.width_grid, config.scaling_grid)
        for scheme in config.schemes:
            cell = res.chosen_cells[scheme][r]
            expected = SCHEMES[scheme].grid(query)[cell]
            assert res.weights[scheme][r].tobytes() == expected.tobytes(), (scheme, r)
