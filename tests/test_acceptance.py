"""Release checklist for the package, one test per criterion.

Run ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  Each test prints the measured quantities it judges, so a red
line comes with the numbers that produced it.  Criteria 6-8 rerun the
replication studies at full size and together take a few minutes.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from localpools.densities import PoolWeights
from localpools.evaluation import (
    ALL_SCHEMES,
    SCHEME_EQUAL,
    SCHEME_GLOBAL_OPT,
    SCHEME_LOCAL_OPT,
    SCHEME_LOCAL_SOFTMAX,
    EvaluationConfig,
    EvaluationStream,
    rolling_evaluate,
    select_hyperparameters,
)
from localpools.experts import (
    design_matrix,
    diffuse_nig,
    nig_predictive,
    nig_update,
)
from localpools.history import History, PredictionRecord
from localpools.io import (
    ScoreCsvError,
    emit_results,
    load_score_csv,
    write_score_csv,
)
from localpools.local_elpd import LocalElpdEstimate, caliper_elpd
from localpools.pools import (
    NATURAL,
    FixedScaling,
    equal_weights,
    local_opt_weights,
    optimize_pool_weights,
    pooled_log_scores,
    softmax_weights,
)
from localpools.simulation import (
    DEFAULT_POOL_WIDTHS,
    DgpConfig,
    estimator_error_study,
    generate_dgp,
    nig_evaluation_stream,
    pool_comparison_study,
)
from oracles import (
    paired_contrast,
    pooled_objective,
    refined_grid_best,
    sample_nig_predictive,
    softmax_polarization_rate,
)

ONE_SIDED_95 = scipy.stats.norm.ppf(0.95)  # 1.6448...
FULL_SIZE = DgpConfig(sample_size=2000, seed=0)


# --------------------------------------------------------------------------
# 1. weight optimizer agrees with a brute-force simplex grid search
# --------------------------------------------------------------------------

def test_criterion_01_optimizer_matches_grid_oracle():
    """The 10 s budget is the optimizer's alone; the grid oracles are
    deliberately slow and are not what the criterion times."""
    rng = np.random.default_rng(2025)
    optimizer_time = 0.0
    start = time.perf_counter()
    worst_coarse_shortfall = 0.0
    worst_fine_gap = 0.0
    for _ in range(50):
        scores = rng.normal(-2.0, 1.0, size=(20, 3))
        tick = time.perf_counter()
        weights = optimize_pool_weights(scores)
        optimizer_time += time.perf_counter() - tick
        em_obj = pooled_objective(scores, weights.values)
        coarse_obj, fine_obj = refined_grid_best(scores)
        worst_coarse_shortfall = max(worst_coarse_shortfall, coarse_obj - em_obj)
        worst_fine_gap = max(worst_fine_gap, abs(em_obj - fine_obj))
    elapsed = time.perf_counter() - start
    print(
        f"\n  50 matrices: optimizer {optimizer_time:.2f} s "
        f"(with grid oracles {elapsed:.2f} s); "
        f"worst shortfall vs 1e-3 grid {worst_coarse_shortfall:.3g} nats; "
        f"worst |gap| vs refined grid {worst_fine_gap:.3g} nats"
    )
    assert worst_coarse_shortfall < 1e-6  # grid never beats the optimizer
    assert worst_fine_gap < 1e-6  # and a refined grid pins the same optimum
    assert optimizer_time < 10.0


# --------------------------------------------------------------------------
# 2. optimizer dominance properties
# --------------------------------------------------------------------------

def test_criterion_02_optimizer_dominance_properties():
    rng = np.random.default_rng(7)
    for k in (2, 3, 5):
        for _ in range(10):
            scores = rng.normal(-2.0, 1.5, size=(25, k))
            w, trace = optimize_pool_weights(scores, return_history=True)
            obj = pooled_objective(scores, w.values)
            assert obj >= scores.mean(axis=0).max() - 1e-12
            assert np.all(np.diff(trace) >= -1e-12)

    worst_dominated = 0.0
    for _ in range(10):
        base = rng.normal(-2.0, 1.0, size=40)
        scores = np.column_stack(
            [
                base,
                base - rng.uniform(0.3, 1.0, size=40),
                base - rng.uniform(0.3, 1.0, size=40),
            ]
        )
        w = optimize_pool_weights(scores)
        worst_dominated = max(worst_dominated, w[1], w[2])
    print(f"\n  largest weight left on a dominated expert: {worst_dominated:.3g}")
    assert worst_dominated < 1e-6


# --------------------------------------------------------------------------
# 3. softmax limiting behavior
# --------------------------------------------------------------------------

def test_criterion_03_softmax_limits():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        est = LocalElpdEstimate(rng.normal(-2.0, 1.0, size=k), 25, 1.0)
        np.testing.assert_array_equal(
            softmax_weights(est, FixedScaling(0.0)).values, np.full(k, 1.0 / k)
        )
        empty = LocalElpdEstimate(np.zeros(k), 0, 1.0)
        np.testing.assert_array_equal(
            softmax_weights(empty, NATURAL).values, np.full(k, 1.0 / k)
        )

    est = LocalElpdEstimate(np.array([-1.40, -1.41, -2.0]), 25, 1.0)
    w = softmax_weights(est, FixedScaling(1e6))
    print(f"\n  max weight at temperature 1e6 with 0.01 gap: {w[0]!r}")
    assert w[0] > 1.0 - 1e-9


# --------------------------------------------------------------------------
# 4. caliper neighborhoods and in-caliper averaging
# --------------------------------------------------------------------------

def test_criterion_04_caliper_correctness():
    h = History(1, 2)
    # four points; population mean 1.5, population sd sqrt(1.25)
    raw = [0.0, 1.0, 2.0, 3.0]
    scores = [(-1.0, -2.0), (-3.0, -5.0), (-2.0, -4.0), (-10.0, -20.0)]
    for t, (x, lp) in enumerate(zip(raw, scores)):
        h.append(
            PredictionRecord(
                time_index=t,
                pooling_point=np.array([x]),
                outcome=0.0,
                log_scores=np.array(lp),
            )
        )

    # math.ulp(0.0), the narrowest positive width, holds the exact matches only
    widths = [math.ulp(0.0), 0.5, 1.0, 1.5, 2.0, np.inf]
    previous: set[int] = set()
    for width in widths:
        members = set(h.caliper_neighbors(np.array([1.0]), width).tolist())
        assert previous <= members  # neighbor sets nest as the caliper grows
        previous = members
    assert previous == {0, 1, 2, 3}  # infinite caliper holds everything

    # caliper of width 1 around x=1.0 catches x in {0, 1, 2}:
    # mean of (-1,-3,-2) and of (-2,-5,-4)
    est = caliper_elpd(h, np.array([1.0]), 1.0)
    np.testing.assert_array_equal(est.estimates, [-2.0, -11.0 / 3.0])
    assert est.neighbor_count == 3

    # boundary inclusion, checked on exactly representable distances:
    # history {0, 2} has unit sd, so x=0 sits exactly 2.0 away from x=2
    h2 = History(1, 2)
    for t, x in enumerate([0.0, 2.0]):
        h2.append(
            PredictionRecord(
                time_index=t,
                pooling_point=np.array([x]),
                outcome=0.0,
                log_scores=np.array([-1.0 - t, -2.0]),
            )
        )
    d = h2.distances(np.array([0.0]))
    assert d[1] == 2.0
    at_boundary = caliper_elpd(h2, np.array([0.0]), 2.0)
    inside_only = caliper_elpd(h2, np.array([0.0]), 2.0 * (1 - 1e-15))
    print(
        f"\n  neighbor counts at/below the boundary: "
        f"{at_boundary.neighbor_count}/{inside_only.neighbor_count}"
    )
    assert at_boundary.neighbor_count == 2  # distance == width is inside
    assert inside_only.neighbor_count == 1
    np.testing.assert_array_equal(at_boundary.estimates, [-1.5, -2.0])


# --------------------------------------------------------------------------
# 5. conjugate regression experts produce valid predictive densities
# --------------------------------------------------------------------------

def test_criterion_05_nig_expert_validity():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 1))
    y = 1.5 * x[:, 0] - 0.5 + rng.normal(scale=0.8, size=30)
    prior = diffuse_nig((0,))
    X = design_matrix(prior, x)
    fitted = nig_update(prior, X, y)

    x_new = np.array([1.0, 0.7])
    predictive = nig_predictive(fitted, x_new)

    total, quad_err = scipy.integrate.quad(
        lambda v: math.exp(predictive.log_density(v)),
        predictive.location - 60 * predictive.scale,
        predictive.location + 60 * predictive.scale,
        limit=200,
    )
    draws = sample_nig_predictive(
        fitted.coefficient_mean,
        fitted.precision_matrix,
        fitted.shape_a,
        fitted.rate_b,
        x_new,
        np.random.default_rng(99),
        100_000,
    )
    ks = scipy.stats.kstest(
        draws,
        scipy.stats.t(
            df=predictive.dof, loc=predictive.location, scale=predictive.scale
        ).cdf,
    ).statistic

    sequential = prior
    for row, obs in zip(X, y):
        sequential = nig_update(sequential, row, float(obs))
    batch_gap = max(
        np.max(np.abs(sequential.coefficient_mean - fitted.coefficient_mean)),
        np.max(np.abs(sequential.precision_matrix - fitted.precision_matrix)),
        abs(sequential.shape_a - fitted.shape_a),
        abs(sequential.rate_b - fitted.rate_b),
    )
    print(
        f"\n  predictive mass {total:.9f} (quad err {quad_err:.1e}); "
        f"sup CDF distance to 1e5 posterior draws {ks:.4f}; "
        f"batch-vs-sequential gap {batch_gap:.2e}"
    )
    assert abs(total - 1.0) < 1e-6
    assert ks < 0.01
    assert batch_gap < 1e-10


# --------------------------------------------------------------------------
# 6. estimator error trends across caliper widths, full-size study
# --------------------------------------------------------------------------

def test_criterion_06_estimator_error_trends():
    start = time.perf_counter()
    off_center = estimator_error_study((2.0, 0.0), replications=500, config=FULL_SIZE)
    center = estimator_error_study((0.0, 0.0), replications=500, config=FULL_SIZE)
    elapsed = time.perf_counter() - start

    R = 500
    # expert 2 (sees only the second covariate) at the off-center point
    mean_off = off_center.mean_errors()[:, 1]
    sd_off = off_center.sd_errors()[:, 1]
    t_off = mean_off[-1] / (sd_off[-1] / math.sqrt(R))
    mean_ctr = center.mean_errors()[:, 1]
    sd_ctr = center.sd_errors()[:, 1]
    t_ctr = mean_ctr[-1] / (sd_ctr[-1] / math.sqrt(R))
    print(
        f"\n  runtime {elapsed:.1f} s"
        f"\n  z=(2,0): expert-2 mean errors {np.round(mean_off, 4)}"
        f" sd {np.round(sd_off, 4)} t(largest width) {t_off:.2f}"
        f"\n  z=(0,0): expert-2 mean errors {np.round(mean_ctr, 4)}"
        f" sd {np.round(sd_ctr, 4)} t(largest width) {t_ctr:.2f}"
    )
    assert np.all(np.diff(mean_off) > 0)  # bias grows with the caliper
    assert t_off > ONE_SIDED_95  # significantly positive off center
    assert t_ctr < -ONE_SIDED_95  # significantly negative at the center
    assert np.all(np.diff(sd_off) < 0)  # variance shrinks with the caliper
    assert np.all(np.diff(sd_ctr) < 0)
    assert elapsed < 600.0


# --------------------------------------------------------------------------
# 7-8. pooled skill by scheme and weight polarization, shared study
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def full_pool_study():
    start = time.perf_counter()
    study = pool_comparison_study(
        ((2.0, 0.0), (0.0, 0.0)),
        width_grid=DEFAULT_POOL_WIDTHS,
        replications=200,
        config=FULL_SIZE,
    )
    print(f"\n  [pool study: R=200 in {time.perf_counter() - start:.1f} s]")
    return study


def test_criterion_07_local_pool_beats_benchmarks_off_center(full_pool_study):
    """Local pools win where skill varies and cost nothing where it does not.

    Off center, x1's expert is locally far better, and the local softmax
    must beat both benchmarks by more than 2 paired SEs at some width.

    At the center both experts are equally skilled, so there is nothing
    local to exploit and the schemes should tell the same story.  That is
    an equivalence claim, not a zero-difference claim: the local pool
    keeps a small real edge there (about 0.003 nats at width 0.5, fading
    as the caliper widens), and even equal vs global opt differ by a
    nonzero amount, so "within k paired SEs" fails for any k once the
    replication count is large enough.  Instead every center contrast,
    inflated by 3 paired SEs, must stay within delta = 5% of the
    off-center gain at the width where the local pool clears both
    benchmarks best.  The paper gives no margin; 5% is this checklist's
    choice of "negligible next to the effect the method exists for".
    """
    study = full_pool_study
    assert np.array_equal(study.query_points[0], (2.0, 0.0))

    mean_eq, _, z_eq = paired_contrast(study, "local_softmax", "equal")
    mean_gl, _, z_gl = paired_contrast(study, "local_softmax", "global_opt")
    both_clear = np.minimum(z_eq[0], z_gl[0])
    print(
        f"\n  z=(2,0) paired z by width {DEFAULT_POOL_WIDTHS}:"
        f"\n    vs equal  {np.round(z_eq[0], 2)}"
        f"\n    vs global {np.round(z_gl[0], 2)}"
    )
    assert np.any(both_clear > 2.0)

    best = int(np.argmax(both_clear))
    gain = float(min(mean_eq[0, best], mean_gl[0, best]))
    delta = 0.05 * gain
    worst = 0.0
    for a, b in (("local_softmax", "equal"), ("local_softmax", "global_opt"),
                 ("equal", "global_opt")):
        mean_d, se_d, _ = paired_contrast(study, a, b)
        upper = np.abs(mean_d[1]) + 3.0 * se_d[1]
        worst = max(worst, float(np.max(upper)))
        print(f"  z=(0,0) |mean|+3se for {a} vs {b}: {np.round(upper, 5)} nats")
    bar = (
        f"delta = 5% of the off-center gain {gain:.4f} nats "
        f"at width {DEFAULT_POOL_WIDTHS[best]} = {delta:.5f} nats; "
        f"worst center |mean|+3se = {worst:.5f} nats"
    )
    print(f"  {bar}")
    assert worst <= delta, f"schemes disagree at the center: {bar}"


def test_criterion_08_full_data_caliper_polarizes(full_pool_study):
    """With the caliper covering all records the count-scaled softmax
    polarizes at the rate the process dictates.

    Natural scaling makes the max weight pass 0.99 exactly when the summed
    score gap over the history exceeds ln 99 in size.  The experts are
    equally skilled overall, so that sum is centred on zero and its spread
    fixes the rate p* (``softmax_polarization_rate``): about 87% at this
    1000-record history, short of any fixed 90% bar.  The observed rate
    must sit within 3 binomial SEs of p*.
    """
    max_weight = full_pool_study.full_data_max_weight
    replications = max_weight.size
    n_history = FULL_SIZE.sample_size // 2  # the held-out half of each draw
    p_star = softmax_polarization_rate(FULL_SIZE, n_history)
    half_band = 3.0 * math.sqrt(p_star * (1.0 - p_star) / replications)
    frac = float(np.mean(max_weight > 0.99))
    bar = (
        f"max weight > 0.99 in {frac:.1%} of {replications} replications; "
        f"closed-form p* = {p_star:.3f} for {n_history} records, "
        f"band p* +/- 3 SE = [{p_star - half_band:.3f}, {p_star + half_band:.3f}]"
    )
    print(f"\n  {bar}")
    assert abs(frac - p_star) <= half_band, f"polarization rate off: {bar}"


# --------------------------------------------------------------------------
# 9. rolling protocol integrity on a simulated stream
# --------------------------------------------------------------------------

def test_criterion_09_protocol_integrity(tmp_path):
    stream = nig_evaluation_stream(generate_dgp(DgpConfig(sample_size=300, seed=4)))
    config = EvaluationConfig(
        warmup_size=50,
        history_size=100,
        width_grid=(0.5, 2.0, math.inf),
        scaling_grid=(FixedScaling(1.0), NATURAL),
    )
    result = rolling_evaluate(stream, config)
    assert result.reported_times.size == 150

    # replay every reported step from a truncated history
    k = stream.n_experts
    history = History(stream.n_pooling_dims, k)
    for t in range(config.warmup_size, config.warmup_size + config.history_size):
        history.append(
            PredictionRecord(
                time_index=int(stream.time_indices[t]),
                pooling_point=stream.pooling_points[t],
                outcome=float(stream.outcomes[t]),
                log_scores=stream.log_scores[t],
            )
        )
    cum = {
        scheme: np.zeros(len(result.candidate_labels[scheme]))
        for scheme in result.candidate_log_scores
    }
    rows_before = config.history_size  # candidate rows already scored
    for scheme in cum:
        for i in range(rows_before):
            cum[scheme] = cum[scheme] + result.candidate_log_scores[scheme][i]

    softmax_cells = [(w, s) for w in config.width_grid for s in config.scaling_grid]
    for step_idx, t in enumerate(result.reported_times.tolist()):
        z = stream.pooling_points[t]
        replayed: dict[str, PoolWeights] = {
            SCHEME_EQUAL: equal_weights(k),
            SCHEME_GLOBAL_OPT: optimize_pool_weights(history.score_matrix),
        }
        pick = select_hyperparameters(cum[SCHEME_LOCAL_SOFTMAX])
        width, rule = softmax_cells[pick]
        chosen = {
            scheme: result.cells[scheme][result.chosen_cells[scheme][step_idx]]
            for scheme in cum
        }
        assert chosen[SCHEME_LOCAL_SOFTMAX][0] == width
        assert chosen[SCHEME_LOCAL_SOFTMAX][1].label() == rule.label()
        replayed[SCHEME_LOCAL_SOFTMAX] = softmax_weights(
            caliper_elpd(history, z, width), rule
        )
        pick = select_hyperparameters(cum[SCHEME_LOCAL_OPT])
        opt_width = config.width_grid[pick]
        assert chosen[SCHEME_LOCAL_OPT][0] == opt_width
        replayed[SCHEME_LOCAL_OPT] = local_opt_weights(history, z, opt_width)

        for scheme in ALL_SCHEMES:
            np.testing.assert_array_equal(
                result.weights[scheme][step_idx], replayed[scheme].values
            )
            lp = pooled_log_scores(replayed[scheme], stream.log_scores[t][None, :])[0]
            assert result.pooled_log_scores[scheme][step_idx] == lp

        row_idx = rows_before + step_idx
        for scheme in cum:
            cum[scheme] = cum[scheme] + result.candidate_log_scores[scheme][row_idx]
        history.append(
            PredictionRecord(
                time_index=t,
                pooling_point=z,
                outcome=float(stream.outcomes[t]),
                log_scores=stream.log_scores[t],
            )
        )

    # emitted artifacts agree with in-memory results
    paths = emit_results(result, tmp_path)
    summary = json.loads(paths["summary"].read_text())
    final_cumulative = {s: np.cumsum(arr)[-1] for s, arr in result.pooled_log_scores.items()}
    for scheme, value in summary["total_log_score"].items():
        assert value == pytest.approx(final_cumulative[scheme], abs=1e-9)

    lines = paths["steps"].read_text().splitlines()
    header = lines[0].split(",")
    worst_row_sum = 0.0
    for scheme in config.schemes:
        cols = [i for i, c in enumerate(header) if c.startswith(f"w_{scheme}_")]
        assert len(cols) == k
        for line in lines[1:]:
            cells = line.split(",")
            worst_row_sum = max(
                worst_row_sum, abs(sum(float(cells[i]) for i in cols) - 1.0)
            )
    print(
        f"\n  replayed all 150 steps bit-for-bit; "
        f"worst |weight row sum - 1| = {worst_row_sum:.2e}"
    )
    assert worst_row_sum < 1e-9


# --------------------------------------------------------------------------
# 10. score CSV ingestion round-trip and diagnostics
# --------------------------------------------------------------------------

def test_criterion_10_ingestion_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    stream = EvaluationStream(
        rng.normal(size=(40, 3)),
        rng.normal(size=40),
        np.column_stack(
            [rng.normal(-2, 1, size=40), np.full(40, -np.inf), rng.normal(-1, 2, 40)]
        ),
        ("a", "b", "c"),
    )
    back = load_score_csv(write_score_csv(tmp_path / "round.csv", stream))
    np.testing.assert_allclose(
        back.pooling_points, stream.pooling_points, rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(back.outcomes, stream.outcomes, rtol=0, atol=1e-12)
    np.testing.assert_allclose(back.log_scores, stream.log_scores, rtol=0, atol=1e-12)

    cases = {
        "nan.csv": ("t,y,z_1,lp_a\n0,1.0,0.5,nan\n", ["line 2", "lp_a"]),
        "ragged.csv": ("t,y,z_1,lp_a\n0,1.0,0.5,-1.0\n1,2.0,0.5\n", ["line 3"]),
        "text.csv": ("t,y,z_1,lp_a\n0,1.0,abc,-1.0\n", ["line 2", "z_1"]),
    }
    for name, (text, fragments) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ScoreCsvError) as exc:
            load_score_csv(path)
        for fragment in fragments:
            assert fragment in str(exc.value)
    print("\n  round-trip exact; all three malformed files named line and column")
