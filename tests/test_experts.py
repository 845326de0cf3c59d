from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, t as student_t

from localpools.experts import (
    NigPosterior,
    design_matrix,
    design_vector,
    diffuse_nig,
    nig_log_scores,
    nig_predictive,
    nig_update,
)
from localpools.simulation import DgpConfig, generate_dgp, nig_evaluation_stream
from oracles import nig_predictive_logpdf_by_evidence_ratio, sample_nig_predictive


def _toy_fit(n=40, seed=2, indices=(0,)):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = x[:, 0] * 2.0 - 1.0 + 0.5 * rng.standard_normal(n)
    prior = diffuse_nig(indices)
    return nig_update(prior, design_matrix(prior, x), y), x, y


class TestPosteriorValidation:
    def test_diffuse_prior_shape(self):
        prior = diffuse_nig((0, 1))
        assert prior.n_coefficients == 3
        assert prior.covariate_indices == (0, 1)
        np.testing.assert_array_equal(prior.coefficient_mean, np.zeros(3))

    def test_rejects_asymmetric_precision(self):
        with pytest.raises(ValueError):
            NigPosterior(
                coefficient_mean=np.zeros(2),
                precision_matrix=np.array([[1.0, 0.5], [0.0, 1.0]]),
                shape_a=1.0,
                rate_b=1.0,
                covariate_indices=(0,),
            )

    def test_rejects_indefinite_precision(self):
        with pytest.raises(ValueError):
            NigPosterior(
                coefficient_mean=np.zeros(2),
                precision_matrix=np.diag([1.0, -1.0]),
                shape_a=1.0,
                rate_b=1.0,
                covariate_indices=(0,),
            )

    def test_rejects_nonpositive_ig_parameters(self):
        for a, b in [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, np.nan)]:
            with pytest.raises(ValueError):
                NigPosterior(
                    coefficient_mean=np.zeros(1),
                    precision_matrix=np.eye(1),
                    shape_a=a,
                    rate_b=b,
                    covariate_indices=(),
                )

    def test_index_count_must_match_coefficients(self):
        with pytest.raises(ValueError):
            NigPosterior(
                coefficient_mean=np.zeros(2),
                precision_matrix=np.eye(2),
                shape_a=1.0,
                rate_b=1.0,
                covariate_indices=(0, 1),
            )


class TestDesign:
    def test_design_vector_subsets_and_prepends_intercept(self):
        post = diffuse_nig((2,))
        np.testing.assert_array_equal(
            design_vector(post, np.array([9.0, 8.0, 7.0])), np.array([1.0, 7.0])
        )

    def test_design_matrix_stacks_rows(self):
        post = diffuse_nig((1,))
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(
            design_matrix(post, x), np.array([[1.0, 2.0], [1.0, 4.0]])
        )


class TestUpdates:
    def test_batch_equals_sequential(self):
        """Conjugate updating must not care whether rows arrive together."""
        rng = np.random.default_rng(10)
        prior = diffuse_nig((0, 1))
        X = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
        y = rng.standard_normal(30)
        batch = nig_update(prior, X, y)
        seq = prior
        for i in range(30):
            seq = nig_update(seq, X[i], y[i])
        np.testing.assert_allclose(
            batch.coefficient_mean, seq.coefficient_mean, rtol=0, atol=1e-10
        )
        np.testing.assert_allclose(
            batch.precision_matrix, seq.precision_matrix, rtol=0, atol=1e-10
        )
        assert abs(batch.shape_a - seq.shape_a) <= 1e-10
        assert abs(batch.rate_b - seq.rate_b) <= 1e-10 * max(1.0, seq.rate_b)

    def test_recovers_coefficients(self):
        rng = np.random.default_rng(4)
        n = 20_000
        x = rng.standard_normal(n)
        y = 3.0 - 2.0 * x + 0.3 * rng.standard_normal(n)
        prior = diffuse_nig((0,))
        X = np.column_stack([np.ones(n), x])
        post = nig_update(prior, X, y)
        np.testing.assert_allclose(post.coefficient_mean, [3.0, -2.0], atol=0.02)
        # noise variance posterior mean b/(a-1) near 0.09
        assert abs(post.rate_b / (post.shape_a - 1.0) - 0.09) < 0.01

    def test_update_counts_observations(self):
        post, _, _ = _toy_fit(n=40)
        assert post.shape_a == pytest.approx(0.01 + 20.0)

    def test_rejects_mismatched_shapes(self):
        prior = diffuse_nig((0,))
        with pytest.raises(ValueError):
            nig_update(prior, np.ones((3, 2)), np.ones(2))
        with pytest.raises(ValueError):
            nig_update(prior, np.ones(3), 1.0)
        with pytest.raises(ValueError):
            nig_update(prior, np.array([1.0, np.inf]), 1.0)


class TestDerivedPosteriors:
    """``nig_update`` checks its observations; the posterior it derives is
    not copied, re-checked for symmetry or factorised again."""

    def test_a_stream_factorises_only_the_priors(self, monkeypatch):
        factorised = []
        cholesky = np.linalg.cholesky

        def counting(a, *args, **kwargs):
            factorised.append(np.array(a))
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        nig_evaluation_stream(generate_dgp(DgpConfig(sample_size=30, seed=1)))
        assert len(factorised) == 2  # the two diffuse priors, nothing else
        for precision in factorised:
            np.testing.assert_array_equal(precision, 1e-6 * np.eye(2))

    def test_derived_arrays_are_read_only_and_those_of_the_checked_constructor(self):
        post, _, _ = _toy_fit(n=25, indices=(0, 1))
        checked = NigPosterior(
            coefficient_mean=post.coefficient_mean,
            precision_matrix=post.precision_matrix,
            shape_a=post.shape_a,
            rate_b=post.rate_b,
            covariate_indices=post.covariate_indices,
        )
        for name in ("coefficient_mean", "precision_matrix"):
            derived, rebuilt = getattr(post, name), getattr(checked, name)
            assert not derived.flags.writeable
            assert derived.dtype == rebuilt.dtype and derived.shape == rebuilt.shape
            assert derived.tobytes() == rebuilt.tobytes()
        for name in ("shape_a", "rate_b", "covariate_indices"):
            assert getattr(post, name) == getattr(checked, name)
            assert type(getattr(post, name)) is type(getattr(checked, name))

    def test_a_derived_rate_at_or_below_zero_still_raises(self):
        # The exact rate increment (y - m0)^2 P0 / (P0 + 1) / 2 is 0 here;
        # rounding in m1' P1 m1 at this magnitude makes it -32.
        m0, p0 = 183899064.39653343, 8.645471331263877
        prior = NigPosterior(np.array([m0]), np.array([[p0]]), 1.0, 1.0, ())
        with pytest.raises(ValueError, match="rate_b must be a finite positive real, got -31.0"):
            nig_update(prior, np.array([1.0]), m0)

    def test_a_derived_rate_that_overflows_still_raises(self):
        # y^2 and m1' P1 m1 both overflow, so the rate is inf - inf = NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="rate_b must be a finite positive real, got nan"):
                nig_update(diffuse_nig(()), np.array([1.0]), 1e200)


class TestPredictive:
    def test_integrates_to_one(self):
        post, _, _ = _toy_fit()
        pred = nig_predictive(post, np.array([1.0, 0.4]))
        mass, _ = quad(
            lambda v: np.exp(pred.log_density(v)),
            pred.location - 60 * pred.scale,
            pred.location + 60 * pred.scale,
            limit=200,
        )
        assert abs(mass - 1.0) < 1e-6

    def test_dof_is_twice_shape(self):
        post, _, _ = _toy_fit(n=40)
        pred = nig_predictive(post, np.array([1.0, 0.0]))
        assert pred.dof == pytest.approx(2.0 * post.shape_a)

    def test_matches_evidence_ratio_oracle(self):
        """The Student-t closed form equals the marginal-likelihood ratio."""
        rng = np.random.default_rng(21)
        m0 = np.array([0.3, -0.2])
        P0 = np.array([[2.0, 0.3], [0.3, 1.0]])
        a0, b0 = 1.5, 2.0
        X = np.column_stack([np.ones(12), rng.standard_normal(12)])
        y = rng.standard_normal(12)
        post = nig_update(
            NigPosterior(m0, P0, a0, b0, covariate_indices=(0,)), X, y
        )
        x_new = np.array([1.0, 0.7])
        pred = nig_predictive(post, x_new)
        for y_new in (-2.0, 0.0, 1.3):
            oracle = nig_predictive_logpdf_by_evidence_ratio(
                m0, P0, a0, b0, X, y, x_new, y_new
            )
            assert pred.log_density(y_new) == pytest.approx(oracle, abs=1e-9)

    def test_matches_posterior_sampling(self):
        """CDF of explicit posterior-parameter draws matches the Student-t."""
        post, _, _ = _toy_fit(n=60, seed=9)
        x = np.array([1.0, -0.8])
        pred = nig_predictive(post, x)
        draws = sample_nig_predictive(
            post.coefficient_mean,
            post.precision_matrix,
            post.shape_a,
            post.rate_b,
            x,
            np.random.default_rng(123),
            size=40_000,
        )
        stat = kstest(
            draws, lambda v: student_t.cdf(v, pred.dof, pred.location, pred.scale)
        ).statistic
        assert stat < 0.012

    def test_vectorised_scores_match_pointwise(self):
        post, x, y = _toy_fit(n=25, seed=14, indices=(0, 1))
        X = design_matrix(post, x)
        fast = nig_log_scores(post, X, y)
        slow = np.array(
            [nig_predictive(post, X[i]).log_density(y[i]) for i in range(25)]
        )
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)

