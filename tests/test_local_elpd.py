from __future__ import annotations

import math

import numpy as np
import pytest

from localpools.densities import StudentT
from localpools.history import History
from localpools.local_elpd import LocalElpdEstimate, caliper_elpd, true_local_elpd
from localpools.simulation import DgpConfig
from oracles import Gaussian, expected_log_score_quad

# E[log N(y; m, 1)] under y ~ N(m, 1): -log(sqrt(2 pi)) - 1/2
PERFECT_GAUSSIAN_ELPD = -1.4189385332046727


def _history_with(points, score_rows):
    n = len(points)
    return History.from_arrays(np.arange(n), points, np.zeros(n), score_rows)


class TestEstimateContainer:
    def test_fields(self):
        est = LocalElpdEstimate(np.array([-1.0, -2.0]), neighbor_count=3, width=0.5)
        assert est.n_experts == 2
        assert est.neighbor_count == 3
        assert est.width == 0.5

    def test_rejects_nan_and_negative_count(self):
        with pytest.raises(ValueError):
            LocalElpdEstimate(np.array([np.nan]), 1, 0.5)
        with pytest.raises(ValueError):
            LocalElpdEstimate(np.array([-1.0]), -1, 0.5)


class TestCaliperEstimate:
    def test_equals_in_caliper_mean_hand_fixture(self):
        # Points on a line; standardized spacing is known, so the caliper
        # membership can be enumerated by hand.
        h = _history_with(
            [(0.0,), (1.0,), (2.0,), (3.0,)],
            [(-1.0, -4.0), (-2.0, -3.0), (-3.0, -2.0), (-4.0, -1.0)],
        )
        # mean 1.5, population std ~1.118; query at 1.0: standardized
        # distances are about (0.894, 0, 0.894, 1.789), so width 1.0
        # catches the first three points.
        est = caliper_elpd(h, (1.0,), 1.0)
        assert est.neighbor_count == 3
        np.testing.assert_allclose(est.estimates, [-2.0, -3.0])

    def test_empty_caliper_returns_exact_zeros(self):
        h = _history_with([(0.0,), (10.0,)], [(-1.0,), (-2.0,)])
        est = caliper_elpd(h, (5.0,), 1e-6)
        assert est.neighbor_count == 0
        assert est.estimates[0] == 0.0

    def test_full_caliper_is_column_mean(self):
        rows = [(-1.0, -2.0), (-3.0, -5.0), (-2.0, -8.0)]
        h = _history_with([(0.0, 0.0), (1.0, 1.0), (2.0, -1.0)], rows)
        est = caliper_elpd(h, (0.5, 0.5), np.inf)
        np.testing.assert_allclose(est.estimates, np.mean(rows, axis=0))
        assert est.neighbor_count == 3

    def test_minus_inf_scores_propagate(self):
        h = _history_with([(0.0,)], [(-np.inf,)])
        est = caliper_elpd(h, (0.0,), 1.0)
        assert est.estimates[0] == -np.inf


class TestQuadratureTruth:
    def test_perfectly_matched_gaussian(self):
        cfg = DgpConfig()
        z = (0.7, -0.7)
        d = Gaussian(cfg.conditional_mean(z), 1.0)
        assert true_local_elpd(cfg, d, z) == pytest.approx(
            PERFECT_GAUSSIAN_ELPD, abs=1e-13
        )

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_mean_shift_costs_half_delta_squared(self, delta):
        cfg = DgpConfig()
        z = (1.0, 0.0)
        d = Gaussian(cfg.conditional_mean(z) + delta, 1.0)
        expected = PERFECT_GAUSSIAN_ELPD - 0.5 * delta * delta
        assert true_local_elpd(cfg, d, z) == pytest.approx(expected, abs=1e-12)

    def test_wrong_scale_gaussian_closed_form(self):
        # E[log N(y; m, s)] under y~N(m,1) = -log(s sqrt(2 pi)) - 1/(2 s^2)
        cfg = DgpConfig()
        z = (0.0, 0.0)
        s = 1.7
        d = Gaussian(0.0, s)
        expected = -math.log(s * math.sqrt(2 * math.pi)) - 0.5 / (s * s)
        assert true_local_elpd(cfg, d, z) == pytest.approx(expected, abs=1e-12)

    def test_student_t_matches_adaptive_quadrature(self):
        cfg = DgpConfig(coefficients=(1.0, 1.0), noise_sd=1.3)
        z = (2.0, -0.5)
        d = StudentT(location=1.2, scale=1.1, dof=7.0)
        oracle = expected_log_score_quad(
            lambda y: d.log_density(float(y)), cfg.conditional_mean(z), 1.3
        )
        assert true_local_elpd(cfg, d, z) == pytest.approx(oracle, abs=1e-9)

    def test_node_count_converged(self):
        cfg = DgpConfig()
        d = StudentT(0.5, 1.4, 5.0)
        a = true_local_elpd(cfg, d, (1.0, 1.0), n_nodes=64)
        b = true_local_elpd(cfg, d, (1.0, 1.0), n_nodes=128)
        assert a == pytest.approx(b, abs=1e-10)

    def test_rejects_processes_without_gaussian_conditional(self):
        with pytest.raises(TypeError):
            true_local_elpd(object(), Gaussian(0.0, 1.0), (0.0,))

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            true_local_elpd(DgpConfig(), Gaussian(0.0, 1.0), (0.0, 0.0), n_nodes=1)
