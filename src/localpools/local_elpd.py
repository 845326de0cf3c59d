"""Local expected log predictive density: caliper estimates and ground truth.

An expert's *local* skill at a pooling point z is its expected log
predictive density conditional on being there.  The caliper estimator
averages realised log scores over the historical records whose
standardised distance to z is at most the caliper width; ``pools.PoolQuery``
cuts and averages the calipers of a whole width grid, and ``caliper_elpd``
is its grid of one.  The quadrature routine computes the exact value for
data-generating processes with a Gaussian conditional outcome, which is
what the simulation studies score estimators against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .history import History
from .pools import PoolQuery

__all__ = [
    "LocalElpdEstimate",
    "caliper_elpd",
    "quadrature_rule",
    "true_local_elpd",
]


@dataclass(frozen=True, eq=False)
class LocalElpdEstimate:
    """Per-expert local skill estimates at one pooling point.

    ``estimates[k]`` is the caliper average of expert k's historical log
    scores; ``neighbor_count`` is how many records fell inside the
    caliper.  An empty neighbourhood yields estimates that are exactly
    zero, which downstream weighting turns into an equal-weight pool.
    """

    estimates: np.ndarray
    neighbor_count: int
    width: float

    def __post_init__(self) -> None:
        est = np.array(self.estimates, dtype=float).reshape(-1)
        if est.size == 0:
            raise ValueError("need estimates for at least one expert")
        if np.any(np.isnan(est)):
            raise ValueError("estimates must be NaN-free")
        if int(self.neighbor_count) < 0:
            raise ValueError("neighbor_count cannot be negative")
        est.flags.writeable = False
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "neighbor_count", int(self.neighbor_count))
        object.__setattr__(self, "width", float(self.width))

    @property
    def n_experts(self) -> int:
        return self.estimates.size


def caliper_elpd(history: History, point, width: float) -> LocalElpdEstimate:
    """Average each expert's log scores over records within the caliper.

    Distances are standardised-Euclidean in pooling space and the caliper
    boundary is inclusive.  With no history inside the caliper the
    estimate vector is all zeros by convention.  This is
    ``PoolQuery.calipers`` with a grid of one width.
    """
    neighbors, estimates = PoolQuery(history, point, (width,)).calipers
    return LocalElpdEstimate(
        estimates=estimates[0],
        neighbor_count=neighbors[0].size,
        width=width,
    )


@lru_cache(maxsize=8)
def _hermite_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    return nodes, weights / math.sqrt(2.0 * math.pi)


def quadrature_rule(dgp, point, n_nodes: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite outcomes and weights for the true law of y at point z.

    The process's conditional outcome law must be Gaussian: it has to
    expose ``conditional_mean(z)`` and ``noise_sd``.  Returns the
    probabilists' Hermite nodes mapped onto the outcome scale and their
    weights, which sum to one, so the expectation of any function of y
    is ``weights @ f(outcomes)``.
    """
    if not (hasattr(dgp, "conditional_mean") and hasattr(dgp, "noise_sd")):
        raise TypeError(
            "quadrature needs a process with a Gaussian conditional law "
            "(conditional_mean(z) and noise_sd); got "
            f"{type(dgp).__name__}"
        )
    if n_nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    center = float(dgp.conditional_mean(point))
    sd = float(dgp.noise_sd)
    if not (sd > 0.0 and math.isfinite(sd)):
        raise ValueError(f"noise_sd must be a positive real, got {sd!r}")
    nodes, weights = _hermite_rule(int(n_nodes))
    return center + sd * nodes, weights


def true_local_elpd(dgp, density, point, *, n_nodes: int = 64) -> float:
    """Exact local expected log score of ``density`` at pooling point z.

    Integrates ``density.log_density(y)`` against the true conditional
    outcome law, which must be Gaussian (see ``quadrature_rule``).  Uses
    probabilists' Gauss-Hermite quadrature, exact for polynomial
    integrands and accurate to near machine precision for the smooth log
    densities used here.
    """
    outcomes, weights = quadrature_rule(dgp, point, n_nodes)
    return float(weights @ density.log_density(outcomes))
