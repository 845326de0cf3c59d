from __future__ import annotations

import math

import numpy as np
import pytest

from localpools import pools
from localpools.densities import Mixture
from localpools.evaluation import EvaluationConfig
from localpools.experts import design_vector, nig_predictive, nig_update
from localpools.history import caliper_rows
from localpools.local_elpd import LocalElpdEstimate, true_local_elpd
from localpools.pools import NATURAL, local_opt_weights, softmax_weights
from localpools.simulation import (
    DEFAULT_ERROR_WIDTHS,
    DEFAULT_POOL_SCHEMES,
    DgpConfig,
    _fit_and_score_split,
    _generate,
    _replication_seeds,
    default_experts,
    estimator_error_study,
    generate_dgp,
    nig_evaluation_stream,
    pool_comparison_study,
)
from oracles import paired_contrast, score_gap_variance, softmax_polarization_rate

FAST = DgpConfig(sample_size=200, seed=3)


class TestDgpConfig:
    def test_defaults(self):
        cfg = DgpConfig()
        assert cfg.coefficients == (1.0, 1.0)
        assert cfg.n_covariates == 2
        assert cfg.sample_size == 2000

    def test_conditional_mean(self):
        cfg = DgpConfig(coefficients=(1.0, -2.0))
        assert cfg.conditional_mean((3.0, 1.0)) == 1.0
        with pytest.raises(ValueError):
            cfg.conditional_mean((1.0,))

    def test_validation(self):
        with pytest.raises(ValueError):
            DgpConfig(noise_sd=0.0)
        with pytest.raises(ValueError):
            DgpConfig(noise_sd=np.inf)
        with pytest.raises(ValueError):
            DgpConfig(sample_size=1)


class TestGenerateDgp:
    def test_shapes_and_determinism(self):
        data = generate_dgp(FAST)
        again = generate_dgp(FAST)
        assert data.covariates.shape == (200, 2)
        assert data.outcomes.shape == (200,)
        np.testing.assert_array_equal(data.covariates, again.covariates)
        np.testing.assert_array_equal(data.outcomes, again.outcomes)
        other = generate_dgp(DgpConfig(sample_size=200, seed=4))
        assert not np.array_equal(data.outcomes, other.outcomes)

    def test_outcome_variance(self):
        # y = x1 + x2 + noise with three unit-variance independent pieces
        data = generate_dgp(DgpConfig(sample_size=100_000, seed=0))
        assert data.outcomes.var() == pytest.approx(3.0, abs=0.08)
        assert data.outcomes.mean() == pytest.approx(0.0, abs=0.03)

    def test_tiny_noise_limit(self):
        data = generate_dgp(DgpConfig(noise_sd=1e-9, sample_size=500, seed=1))
        fitted = data.covariates.sum(axis=1)
        np.testing.assert_allclose(data.outcomes, fitted, rtol=0, atol=1e-6)


class TestDefaultExperts:
    def test_one_covariate_each(self):
        (name1, post1), (name2, post2) = default_experts()
        assert name1 == "expert_x1" and name2 == "expert_x2"
        assert post1.covariate_indices == (0,)
        assert post2.covariate_indices == (1,)


class TestNigEvaluationStream:
    def test_shape_and_names(self):
        data = generate_dgp(FAST)
        stream = nig_evaluation_stream(data)
        assert stream.n_steps == 200
        assert stream.expert_names == ("expert_x1", "expert_x2")
        assert np.all(np.isfinite(stream.log_scores))
        np.testing.assert_array_equal(stream.pooling_points, data.covariates)
        np.testing.assert_array_equal(stream.outcomes, data.outcomes)

    def test_scores_use_only_past_observations(self):
        data = generate_dgp(FAST)
        stream = nig_evaluation_stream(data)
        experts = default_experts()
        posteriors = {name: post for name, post in experts}
        for t in range(4):
            for j, (name, _) in enumerate(experts):
                post = posteriors[name]
                xd = design_vector(post, data.covariates[t])
                y_t = float(data.outcomes[t])
                lp = nig_predictive(post, xd).log_density(y_t)
                assert stream.log_scores[t, j] == lp
                posteriors[name] = nig_update(post, xd, y_t)


@pytest.fixture(scope="module")
def error_study():
    return estimator_error_study((2.0, 0.0), replications=100, config=FAST)


@pytest.fixture(scope="module")
def pool_study():
    return pool_comparison_study(
        ((2.0, 0.0), (0.0, 0.0)),
        width_grid=(0.5, 2.0),
        replications=100,
        config=FAST,
    )


class TestErrorStudy:
    @pytest.fixture
    def study(self, error_study):
        return error_study

    def test_shapes(self, study):
        assert study.errors.shape == (100, 3, 2)
        assert study.neighbor_counts.shape == (100, 3)
        assert study.true_elpd.shape == (100, 2)
        assert study.width_grid == DEFAULT_ERROR_WIDTHS
        assert study.expert_names == ("expert_x1", "expert_x2")
        assert np.all(np.isfinite(study.errors))

    def test_caliper_counts_grow_with_width(self, study):
        diffs = np.diff(study.neighbor_counts, axis=1)
        assert np.all(diffs >= 0)

    def test_covariate_owner_is_truly_better_off_center(self, study):
        # at (2, 0) the expert who sees x1 knows the mean is far from zero
        assert np.all(study.true_elpd[:, 0] > study.true_elpd[:, 1])

    def test_summaries(self, study):
        assert study.mean_errors().shape == (3, 2)
        assert study.sd_errors().shape == (3, 2)
        np.testing.assert_allclose(
            study.mean_errors(), study.errors.mean(axis=0), atol=1e-15
        )

    def test_determinism(self, study):
        again = estimator_error_study((2.0, 0.0), replications=100, config=FAST)
        np.testing.assert_array_equal(study.errors, again.errors)

    def test_replication_floor(self):
        with pytest.raises(ValueError, match="100"):
            estimator_error_study((2.0, 0.0), replications=50, config=FAST)

    def test_experts_agree_at_the_center(self):
        study = estimator_error_study((0.0, 0.0), replications=100, config=FAST)
        gap = study.true_elpd[:, 0] - study.true_elpd[:, 1]
        assert abs(gap.mean()) < 0.1


class TestPoolStudy:
    @pytest.fixture
    def study(self, pool_study):
        return pool_study

    def test_shapes(self, study):
        # axes: replication, query point, scheme, caliper width
        assert study.scores.shape == (100, 2, 3, 2)
        assert study.schemes == DEFAULT_POOL_SCHEMES
        assert study.full_data_max_weight.shape == (100,)

    def test_width_independent_schemes_are_constant_in_width(self, study):
        for s, scheme in enumerate(study.schemes):
            if scheme == "local_softmax":
                continue
            np.testing.assert_array_equal(
                study.scores[:, :, s, 0], study.scores[:, :, s, 1]
            )

    def test_polarization_is_a_weight(self, study):
        w = study.full_data_max_weight
        assert np.all(w >= 0.5)  # max of two weights
        assert np.all(w <= 1.0)

    def test_paired_comparison(self, study):
        mean, se, z = paired_contrast(study, "local_softmax", "equal")
        assert mean.shape == (2, 2) and se.shape == (2, 2) and z.shape == (2, 2)
        assert np.all(se > 0)
        same, _, zsame = paired_contrast(study, "equal", "equal")
        np.testing.assert_array_equal(same, np.zeros((2, 2)))
        np.testing.assert_array_equal(zsame, np.zeros((2, 2)))

    def test_determinism(self, study):
        again = pool_comparison_study(
            ((2.0, 0.0), (0.0, 0.0)),
            width_grid=(0.5, 2.0),
            replications=100,
            config=FAST,
        )
        np.testing.assert_array_equal(study.scores, again.scores)

    def test_replication_floor(self):
        with pytest.raises(ValueError, match="100"):
            pool_comparison_study(replications=10, config=FAST)

    def test_local_opt_scores_the_caliper_optimal_mixture(self):
        widths = (0.5, 2.0)
        study = pool_comparison_study(
            ((2.0, 0.0), (0.0, 0.0)),
            width_grid=widths,
            replications=100,
            config=FAST,
            schemes=("equal", "local_opt"),
        )
        # Rebuild replication 0 and score local_opt_weights' mixture directly.
        data = _generate(np.random.default_rng(_replication_seeds(FAST.seed, 100)[0]), FAST)
        fitted, history = _fit_and_score_split(data, default_experts(), 100)
        s = study.schemes.index("local_opt")
        for m, z in enumerate(study.query_points):
            predictives = tuple(nig_predictive(p, design_vector(p, z)) for p in fitted)
            for w, width in enumerate(widths):
                mix = Mixture(
                    weights=local_opt_weights(history, z, width), components=predictives
                )
                assert study.scores[0, m, s, w] == true_local_elpd(FAST, mix, z)

    def test_local_opt_fits_each_distinct_block_once_per_replication(self, monkeypatch):
        """A caliper holding the whole history shares the replication's one
        fit of that block across points; other blocks are fitted per point."""
        points, widths = ((2.0, 0.0), (0.0, 0.0)), (0.5, 2.0, 50.0)
        fitted = []

        fit = pools._certified_fit

        def counting(A, *args):
            fitted.append(len(A))
            return fit(A, *args)

        monkeypatch.setattr(pools, "_certified_fit", counting)
        pool_comparison_study(
            points, widths, 100, FAST, schemes=("global_opt", "local_opt")
        )
        monkeypatch.undo()
        expected = []
        for child in _replication_seeds(FAST.seed, 100):
            data = _generate(np.random.default_rng(child), FAST)
            _, history = _fit_and_score_split(data, default_experts(), 100)
            expected.append(len(history))
            for z in points:
                counts = {idx.size for idx in caliper_rows(history.distances(z), widths)}
                expected.extend(sorted(counts - {0, len(history)}))
        assert fitted.count(100) == 100
        assert sorted(fitted) == sorted(expected)

    def test_scheme_list_rule_is_the_configs(self):
        """An empty, unknown or repeated scheme is refused before the first
        draw, with the message ``EvaluationConfig`` gives."""
        for schemes in ((), ("equal", "nope"), ("equal", "equal")):
            with pytest.raises(ValueError) as config_error:
                EvaluationConfig(schemes=schemes)
            with pytest.raises(ValueError) as study_error:
                pool_comparison_study(replications=100, config=FAST, schemes=schemes)
            assert str(study_error.value) == str(config_error.value)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            pool_comparison_study(
                replications=100, config=FAST, schemes=("equal", "nope")
            )


def _true_expert_log_scores(config: DgpConfig, rng, shape):
    """Log scores of the two true-parameter one-covariate experts."""
    c = config.coefficients[0]
    x1, x2, e = (rng.standard_normal(shape) for _ in range(3))
    y = c * x1 + c * x2 + config.noise_sd * e
    s2 = c**2 + config.noise_sd**2
    const = -0.5 * math.log(2.0 * math.pi * s2)
    return const - (y - c * x1) ** 2 / (2 * s2), const - (y - c * x2) ** 2 / (2 * s2)


class TestPolarizationOracle:
    """The closed form behind acceptance criterion 08, against brute force."""

    @pytest.mark.parametrize(
        "config", [DgpConfig(), DgpConfig(coefficients=(2.0, 2.0), noise_sd=0.5)]
    )
    def test_gap_variance_matches_monte_carlo(self, config):
        n = 200_000
        lp1, lp2 = _true_expert_log_scores(config, np.random.default_rng(12), n)
        gap = lp1 - lp2
        centred_sq = (gap - gap.mean()) ** 2
        se = centred_sq.std(ddof=1) / math.sqrt(n)
        assert abs(gap.mean()) < 4 * gap.std(ddof=1) / math.sqrt(n)
        assert abs(centred_sq.mean() - score_gap_variance(config)) < 4 * se

    def test_rate_matches_simulated_softmax(self):
        config = DgpConfig()
        reps, n = 1000, 1000
        lp1, lp2 = _true_expert_log_scores(
            config, np.random.default_rng(13), (reps, n)
        )
        estimates = np.column_stack([lp1.mean(axis=1), lp2.mean(axis=1)])
        max_weight = np.array(
            [np.max(softmax_weights(LocalElpdEstimate(row, n, math.inf), NATURAL).values)
             for row in estimates]
        )
        rate = float(np.mean(max_weight > 0.99))
        p = softmax_polarization_rate(config, n)
        assert abs(rate - p) < 4 * math.sqrt(p * (1 - p) / reps)

    def test_asymmetric_process_rejected(self):
        config = DgpConfig(coefficients=(1.0, 2.0))
        with pytest.raises(ValueError, match="equal"):
            score_gap_variance(config)
        with pytest.raises(ValueError, match="equal"):
            softmax_polarization_rate(config, 1000)
