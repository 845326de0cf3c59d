"""Independent oracles the test suite checks the package against.

Everything here deliberately avoids the package's own algorithms:
brute-force simplex grids instead of EM, adaptive quadrature instead of
Gauss-Hermite, posterior sampling and marginal-likelihood ratios instead
of the closed-form predictive, a pencil-and-paper law of the score gap
instead of running the softmax, and the caliper method one record and
one cell at a time instead of ``History`` and ``PoolQuery``.  Slow and
dumb on purpose.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import norm


def pooled_objective(score_matrix: np.ndarray, w: np.ndarray) -> float:
    """Mean over rows of log sum_k w_k exp(score_tk), max-stabilised."""
    row_max = score_matrix.max(axis=1)
    return float(np.mean(np.log(np.exp(score_matrix - row_max[:, None]) @ w) + row_max))


def _objective_many(score_matrix: np.ndarray, W: np.ndarray) -> np.ndarray:
    """pooled_objective for every weight row in W, chunked to bound memory."""
    row_max = score_matrix.max(axis=1)
    A = np.exp(score_matrix - row_max[:, None])  # (T, K)
    out = np.empty(W.shape[0])
    chunk = 200_000
    for lo in range(0, W.shape[0], chunk):
        block = W[lo : lo + chunk]
        out[lo : lo + chunk] = np.log(block @ A.T).mean(axis=1)
    return out + row_max.mean()


def simplex_grid(n_experts: int, resolution: float) -> np.ndarray:
    """All weight vectors on the simplex lattice with the given step."""
    m = int(round(1.0 / resolution))
    if n_experts == 2:
        w1 = np.arange(m + 1) / m
        return np.column_stack([w1, 1.0 - w1])
    if n_experts == 3:
        i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
        keep = (i + j) <= m
        w1 = i[keep] / m
        w2 = j[keep] / m
        return np.column_stack([w1, w2, 1.0 - w1 - w2])
    raise NotImplementedError("grid oracle covers K = 2 or 3")


def grid_search_best(score_matrix: np.ndarray, resolution: float = 1e-3):
    """Best objective on the simplex lattice: (objective, weights)."""
    W = simplex_grid(score_matrix.shape[1], resolution)
    vals = _objective_many(score_matrix, W)
    best = int(np.argmax(vals))
    return float(vals[best]), W[best]


def refined_grid_best(
    score_matrix: np.ndarray,
    coarse_resolution: float = 1e-3,
    fine_resolution: float = 2e-5,
) -> tuple[float, float]:
    """Two-stage grid search: coarse lattice, then a fine lattice around
    the coarse argmax (one coarse cell in every direction).  The fine
    stage shrinks the lattice-vs-optimum gap by (fine/coarse)^2, far
    below 1e-6 nats for the matrices used in the tests.

    Returns ``(coarse_objective, refined_objective)`` so that callers
    comparing against both lattices evaluate the coarse one only once.
    """
    k = score_matrix.shape[1]
    coarse_val, coarse_w = grid_search_best(score_matrix, coarse_resolution)
    steps = int(round(2 * coarse_resolution / fine_resolution))
    offsets = (np.arange(steps + 1) * fine_resolution) - coarse_resolution
    if k == 2:
        w1 = np.clip(coarse_w[0] + offsets, 0.0, 1.0)
        W = np.column_stack([w1, 1.0 - w1])
    elif k == 3:
        o1, o2 = np.meshgrid(offsets, offsets, indexing="ij")
        w1 = (coarse_w[0] + o1).ravel()
        w2 = (coarse_w[1] + o2).ravel()
        keep = (w1 >= 0.0) & (w2 >= 0.0) & (w1 + w2 <= 1.0)
        W = np.column_stack([w1[keep], w2[keep], 1.0 - w1[keep] - w2[keep]])
    else:
        raise NotImplementedError
    fine_val = float(np.max(_objective_many(score_matrix, W)))
    return coarse_val, max(fine_val, coarse_val)


def expected_log_score_quad(log_density, mean: float, sd: float) -> float:
    """E[log_density(y)] for y ~ N(mean, sd^2), by adaptive quadrature."""
    value, _ = quad(
        lambda y: log_density(y) * norm.pdf(y, mean, sd),
        mean - 12 * sd,
        mean + 12 * sd,
        limit=200,
    )
    return value


def score_gap_variance(config) -> float:
    """Variance of the per-record log-score gap between the two
    true-parameter one-covariate experts of a symmetric process.

    For y = c*x1 + c*x2 + sigma*e, expert k predicts N(c*x_k, s^2) with
    s^2 = c^2 + sigma^2.  With u = c*x1 + sigma*e and v = c*x2 + sigma*e,
    the gap log p_1(y) - log p_2(y) is (u^2 - v^2) / (2 s^2).  u and v are
    N(0, s^2) with covariance sigma^2, so Var(u^2) = Var(v^2) = 2 s^4 and
    Cov(u^2, v^2) = 2 sigma^4: the gap has mean 0 and variance
    1 - sigma^4 / s^4.  Asymmetric processes (c1 != c2) give the gap a
    nonzero mean and are rejected.
    """
    coefficients = tuple(config.coefficients)
    if len(coefficients) != 2 or coefficients[0] != coefficients[1]:
        raise ValueError(
            f"closed form needs two equal coefficients, got {coefficients}"
        )
    sigma2 = config.noise_sd**2
    s2 = coefficients[0] ** 2 + sigma2
    return 1.0 - (sigma2 / s2) ** 2


def softmax_polarization_rate(config, n_history: int, threshold: float = 0.99) -> float:
    """Chance that the count-scaled softmax over all ``n_history`` records
    puts more than ``threshold`` on one of the two experts.

    Natural scaling gives w_1 / w_2 = exp(S), S the summed per-record
    score gap, so the max weight passes ``threshold`` exactly when
    |S| > log(threshold / (1 - threshold)).  S is a sum of iid mean-zero
    gaps (``score_gap_variance``), taken as normal by the central limit
    theorem.  Fitted experts differ from true-parameter ones by an
    estimation error of order 1/n_train nats per record, which is small
    next to the sd of S.
    """
    if not 0.5 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0.5, 1), got {threshold!r}")
    sd_sum = math.sqrt(n_history * score_gap_variance(config))
    bar = math.log(threshold / (1.0 - threshold))
    return float(2.0 * norm.cdf(-bar / sd_sum))


def nig_predictive_logpdf_by_evidence_ratio(
    m0, P0, a0: float, b0: float, X, y, x_new, y_new: float
) -> float:
    """log p(y_new | x_new, data) as a ratio of NIG model evidences.

    Uses its own posterior algebra (residual form of the rate update)
    and the marginal-likelihood identity
    p(y*) = Z(data + y*) / Z(data), so it shares no code with the
    package's Student-t predictive.
    """

    def posterior(m_prior, P_prior, a_prior, b_prior, X_obs, y_obs):
        P_post = P_prior + X_obs.T @ X_obs
        m_post = np.linalg.solve(P_post, P_prior @ m_prior + X_obs.T @ y_obs)
        resid = y_obs - X_obs @ m_post
        a_post = a_prior + 0.5 * y_obs.size
        b_post = b_prior + 0.5 * (resid @ y_obs + (m_prior - m_post) @ P_prior @ m_prior)
        return m_post, P_post, a_post, b_post

    def log_evidence(P_prior, a_prior, b_prior, P_post, a_post, b_post, n_obs):
        sign0, logdet0 = np.linalg.slogdet(P_prior)
        sign1, logdet1 = np.linalg.slogdet(P_post)
        assert sign0 > 0 and sign1 > 0
        return (
            -0.5 * n_obs * math.log(2.0 * math.pi)
            + 0.5 * (logdet0 - logdet1)
            + a_prior * math.log(b_prior)
            - a_post * math.log(b_post)
            + gammaln(a_post)
            - gammaln(a_prior)
        )

    m_n, P_n, a_n, b_n = posterior(m0, P0, a0, b0, X, y)
    X_aug = np.vstack([X, x_new])
    y_aug = np.append(y, y_new)
    m_a, P_a, a_a, b_a = posterior(m0, P0, a0, b0, X_aug, y_aug)
    ev_n = log_evidence(P0, a0, b0, P_n, a_n, b_n, y.size)
    ev_a = log_evidence(P0, a0, b0, P_a, a_a, b_a, y_aug.size)
    return ev_a - ev_n


def sample_nig_predictive(
    coefficient_mean,
    precision_matrix,
    shape_a: float,
    rate_b: float,
    x,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Draws from the posterior predictive by explicit parameter sampling."""
    cov_unscaled = np.linalg.inv(precision_matrix)
    chol = np.linalg.cholesky(cov_unscaled)
    sigma2 = 1.0 / rng.gamma(shape=shape_a, scale=1.0 / rate_b, size=size)
    p = coefficient_mean.size
    beta = (
        coefficient_mean[None, :]
        + np.sqrt(sigma2)[:, None] * (rng.standard_normal((size, p)) @ chol.T)
    )
    return beta @ x + np.sqrt(sigma2) * rng.standard_normal(size)


# -- the caliper method, one cell at a time ---------------------------------
#
# Straight from the definitions, sharing no code with ``History`` or
# ``pools``.  The property that uses these asks for the package's bits, so
# each step is the same IEEE arithmetic in the same order: neighbour sets
# and 1/K fallbacks must match exactly, and then the weights do too.


def standardizing_moments(points) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and population std of the records, constant rule applied.

    A dimension whose std is below 1e-12 of its largest magnitude
    (floored at 1) is constant, carries no distance information, and is
    given a std of 1.
    """
    points = np.asarray(points, dtype=float)
    mean = np.mean(points, axis=0)
    std = np.std(points, axis=0)
    magnitude = np.maximum(1.0, np.abs(points).max(axis=0))
    return mean, np.where(std < 1e-12 * magnitude, 1.0, std)


def standardized_distance(record, point, mean, std) -> float:
    """Euclidean distance between one record and the point, both standardised."""
    gap = (np.asarray(record) - mean) / std - (np.asarray(point) - mean) / std
    return float(np.sqrt(np.sum(gap * gap)))


def caliper(distances, width: float) -> list[int]:
    """The records at most ``width`` away; a record exactly on it counts."""
    return [i for i, distance in enumerate(distances) if distance <= width]


def caliper_mean(scores, rows) -> np.ndarray:
    """Each expert's log scores summed over ``rows``, record by record, over their count.

    Zeros when ``rows`` is empty.  With two or more experts NumPy sums a
    block's columns record by record from zero too, so the bits agree; a
    lone expert's column is summed pairwise and may differ in the last
    bits, but a lone expert's weight is 1 whatever its mean.
    """
    scores = np.asarray(scores, dtype=float)
    total = np.zeros(scores.shape[1])
    for i in rows:
        total = total + scores[i]
    return total / len(rows) if len(rows) else total


def softmax_cell(estimates, factor: float) -> np.ndarray:
    """Weights proportional to ``exp(factor * estimate)``, divided by their exact sum.

    A zero factor, or no finite scaled estimate, gives exactly ``1/K``.
    Each tilt is taken relative to the largest scaled estimate, and one
    at that maximum is exp(0) = 1 even when the maximum is ``+inf``.
    """
    k = len(estimates)
    scaled = [factor * float(e) for e in estimates] if factor != 0.0 else [0.0] * k
    top = max(scaled)
    if top == -math.inf:
        return np.full(k, 1.0 / k)
    tilts = np.array([1.0 if x == top else float(np.exp(x - top)) for x in scaled])
    return tilts / math.fsum(tilts.tolist())
