"""Pool weight construction: equal, softmax-over-skill, and log-score optimal.

Three ways to turn expert track records into simplex weights:

* ``equal_weights`` — the 1/K fallback.
* ``softmax_weights`` — exponentiate local skill estimates, sharpened
  either by a fixed temperature or by the neighbour count itself
  ("natural" scaling, where more local evidence means more decisive
  weights).
* ``optimize_pool_weights`` — maximise the average pooled log score over
  a block of realised expert scores with a multiplicative EM update.
  The objective is concave on the simplex, so the fixed point reached is
  the global optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import PoolWeights, _weighted_logsumexp
from .history import History
from .local_elpd import LocalElpdEstimate

__all__ = [
    "NaturalScaling",
    "FixedScaling",
    "NATURAL",
    "equal_weights",
    "softmax_weights",
    "optimize_pool_weights",
    "pooled_log_scores",
    "local_opt_weights",
]


@dataclass(frozen=True)
class NaturalScaling:
    """Sharpness tied to evidence: the factor is the neighbour count itself."""

    def factor(self, neighbor_count: int) -> float:
        return float(neighbor_count)

    def label(self) -> str:
        return "natural"


@dataclass(frozen=True)
class FixedScaling:
    """Constant sharpness ``tau``; zero gives equal weights regardless of skill."""

    tau: float

    def __post_init__(self) -> None:
        if not (float(self.tau) >= 0.0 and math.isfinite(float(self.tau))):
            raise ValueError(f"tau must be a finite nonnegative real, got {self.tau!r}")
        object.__setattr__(self, "tau", float(self.tau))

    def factor(self, neighbor_count: int) -> float:
        return self.tau

    def label(self) -> str:
        return f"tau={self.tau:g}"


NATURAL = NaturalScaling()


def equal_weights(n_experts: int) -> PoolWeights:
    """Uniform simplex point, exact: entries are literally ``1 / n_experts``."""
    if n_experts < 1:
        raise ValueError("need at least one expert")
    return PoolWeights(np.full(n_experts, 1.0 / n_experts))


def softmax_weights(estimate: LocalElpdEstimate, scaling=NATURAL) -> PoolWeights:
    """Exponentially tilt weights toward locally better experts.

    ``w_k`` is proportional to ``exp(factor * estimate_k)`` with the factor
    supplied by the scaling rule (neighbour count for natural scaling, a
    fixed temperature otherwise).  A zero factor — temperature zero, or an
    empty neighbourhood under natural scaling — returns exactly equal
    weights, and identical estimates do too: the shared maximum is
    subtracted before exponentiating, so every tilt is exp(0) = 1.
    """
    factor = float(scaling.factor(estimate.neighbor_count))
    if not (factor >= 0.0 and math.isfinite(factor)):
        raise ValueError(f"scaling factor must be finite and nonnegative, got {factor!r}")
    k = estimate.n_experts
    if factor == 0.0:
        return equal_weights(k)
    scaled = factor * estimate.estimates
    top = np.max(scaled)
    if top == -np.inf:
        # Every expert was infinitely bad; nothing to discriminate on.
        return equal_weights(k)
    tilts = np.exp(scaled - top)
    return PoolWeights(tilts / math.fsum(tilts))


def _pool_objective(shifted_exp: np.ndarray, row_max: np.ndarray, w: np.ndarray) -> float:
    """Mean pooled log score, computed in shifted space for stability."""
    return float(np.mean(np.log(shifted_exp @ w) + row_max))


def optimize_pool_weights(
    log_scores,
    *,
    rel_tol: float = 1e-10,
    max_iter: int = 5000,
    return_history: bool = False,
):
    """Weights maximising the mean pooled log score of historical rows.

    ``log_scores`` is an (n, K) matrix of realised expert log predictive
    densities.  Starting from equal weights, iterate the multiplicative
    update

        w_k  <-  mean_t [ w_k * exp(E_tk) / sum_j w_j * exp(E_tj) ],

    which never decreases the objective, until the improvement falls
    below ``rel_tol`` (relative, guarded near zero) or ``max_iter``
    sweeps.  Weights that collapse below 1e-300 are snapped to zero so
    the simplex stays free of denormals.

    A row on which every expert scores ``-inf`` gives every pool a score
    of ``-inf``, so it carries no information about the weights: such
    rows are dropped before the update, and the objective is the mean
    over the rows that remain.  When none remains the weights are exactly
    ``1/K``.

    Returns the ``PoolWeights``, or ``(weights, objective_history)`` when
    ``return_history`` is set; the history is the objective value at the
    start and after every sweep (just the start, ``-inf``, when no row
    remains).
    """
    E = np.asarray(log_scores, dtype=float)
    if E.ndim != 2 or E.size == 0:
        raise ValueError("log_scores must be a nonempty (rows, experts) matrix")
    if np.any(np.isnan(E)) or np.any(E == np.inf):
        raise ValueError("log scores must be NaN-free and below +inf")
    k = E.shape[1]
    row_max = E.max(axis=1)
    dead = row_max == -np.inf
    if np.all(dead):
        weights = equal_weights(k)
        return (weights, np.array([-np.inf])) if return_history else weights
    if np.any(dead):
        E, row_max = E[~dead], row_max[~dead]
    A = np.exp(E - row_max[:, None])

    w = np.full(k, 1.0 / k)
    trace = [_pool_objective(A, row_max, w)]
    for _ in range(max_iter):
        pooled = A @ w
        w_new = (A / pooled[:, None]).mean(axis=0) * w
        w_new[w_new < 1e-300] = 0.0
        w_new /= w_new.sum()
        trace.append(_pool_objective(A, row_max, w_new))
        w = w_new
        if abs(trace[-1] - trace[-2]) <= rel_tol * max(1.0, abs(trace[-2])):
            break
    weights = PoolWeights(w)
    if return_history:
        return weights, np.array(trace)
    return weights


def pooled_log_scores(weights: PoolWeights, log_scores) -> np.ndarray:
    """Pooled log score of each row of an (n, K) expert log-score matrix."""
    E = np.asarray(log_scores, dtype=float)
    if E.ndim != 2:
        raise ValueError("log_scores must be a 2-D (rows, experts) matrix")
    if E.shape[1] != len(weights):
        raise ValueError(
            f"score matrix has {E.shape[1]} experts, weights have {len(weights)}"
        )
    if np.any(np.isnan(E)) or np.any(E == np.inf):
        raise ValueError("log scores must be NaN-free and below +inf")
    w = weights.values
    active = w > 0.0
    return _weighted_logsumexp(w[active], E.T[active])


def local_opt_weights(
    history: History,
    point,
    width: float,
    *,
    rel_tol: float = 1e-10,
    max_iter: int = 5000,
) -> PoolWeights:
    """Log-score-optimal weights fit only to records inside the caliper.

    An empty neighbourhood leaves nothing to optimise and falls back to
    equal weights.
    """
    idx = history.caliper_neighbors(point, width)
    if idx.size == 0:
        return equal_weights(history.n_experts)
    return optimize_pool_weights(
        history.score_matrix[idx], rel_tol=rel_tol, max_iter=max_iter
    )
