"""Synthetic two-expert study: data generation and replication experiments.

The process is a linear model y = c1*x1 + c2*x2 + noise with independent
standard-normal covariates.  Two deliberately misspecified regression
experts each see only one covariate, so each is good exactly where its
missing covariate happens to be near zero — local skill varies over the
covariate plane even though global skill is symmetric.

Two replication studies quantify the machinery against the quadrature
ground truth, both served by one pass over the replications
(``replication_studies``) that draws and fits each replication once:

* ``estimator_error_study`` — sampling distribution of the caliper
  estimator's error (estimate minus that replication's true local skill)
  across caliper widths, exposing the width's bias/variance trade-off.
* ``pool_comparison_study`` — expected log score of pooled predictions
  under several weighting schemes at chosen query points, plus the
  all-data softmax max weight that documents the estimator's polarizing
  behaviour when the caliper stops being local.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evaluation import (
    SCHEME_EQUAL,
    SCHEME_GLOBAL_OPT,
    SCHEME_LOCAL_SOFTMAX,
    SCHEMES,
    EvaluationStream,
    _pool_cells,
    check_schemes,
)
from .experts import (
    NigPosterior,
    design_matrix,
    design_vector,
    diffuse_nig,
    nig_log_scores,
    nig_predictive,
    nig_update,
)
from .history import History, check_widths
from .local_elpd import quadrature_rule
from .pools import NATURAL, PoolQuery, softmax_grid

__all__ = [
    "DgpConfig",
    "SimulatedData",
    "generate_dgp",
    "default_experts",
    "nig_evaluation_stream",
    "ErrorStudyResult",
    "estimator_error_study",
    "PoolStudyResult",
    "pool_comparison_study",
    "replication_studies",
    "DEFAULT_ERROR_WIDTHS",
    "DEFAULT_POOL_WIDTHS",
    "DEFAULT_POOL_SCHEMES",
    "DEFAULT_QUERY_POINTS",
]

# Error-study widths sit on the rising part of the bias curve so both the
# bias growth and the variance shrinkage are visible before saturation.
DEFAULT_ERROR_WIDTHS = (0.4, 0.8, 1.6)
# Pool-study widths span genuinely-local through effectively-global.
DEFAULT_POOL_WIDTHS = (0.5, 1.0, 2.0, 4.0, 8.0, 50.0)
DEFAULT_POOL_SCHEMES = (SCHEME_LOCAL_SOFTMAX, SCHEME_EQUAL, SCHEME_GLOBAL_OPT)
DEFAULT_QUERY_POINTS = ((2.0, 0.0), (0.0, 0.0))


@dataclass(frozen=True, eq=False)
class DgpConfig:
    """Linear-Gaussian data-generating process with iid N(0,1) covariates."""

    coefficients: tuple[float, ...] = (1.0, 1.0)
    noise_sd: float = 1.0
    sample_size: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs or not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be a nonempty finite vector")
        if not (float(self.noise_sd) > 0.0 and math.isfinite(float(self.noise_sd))):
            raise ValueError(f"noise_sd must be a positive real, got {self.noise_sd!r}")
        if int(self.sample_size) < 2:
            raise ValueError("sample_size must be at least 2")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "noise_sd", float(self.noise_sd))
        object.__setattr__(self, "sample_size", int(self.sample_size))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n_covariates(self) -> int:
        return len(self.coefficients)

    def conditional_mean(self, point) -> float:
        """E[y | covariates = point]; the quadrature oracle integrates around it."""
        z = np.asarray(point, dtype=float).reshape(-1)
        if z.size != self.n_covariates:
            raise ValueError(f"point has {z.size} dims, process has {self.n_covariates}")
        return float(np.dot(self.coefficients, z))


@dataclass(frozen=True, eq=False)
class SimulatedData:
    """One realisation: (n, d) covariates and the n outcomes."""

    covariates: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.covariates, dtype=float)
        y = np.array(self.outcomes, dtype=float).reshape(-1)
        if x.ndim != 2 or x.shape[0] != y.size:
            raise ValueError("covariates must be (n, d) with one outcome per row")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "outcomes", y)

    @property
    def n_obs(self) -> int:
        return self.outcomes.size


def _generate(rng: np.random.Generator, config: DgpConfig) -> SimulatedData:
    x = rng.standard_normal((config.sample_size, config.n_covariates))
    noise = rng.standard_normal(config.sample_size)
    y = x @ np.asarray(config.coefficients) + config.noise_sd * noise
    return SimulatedData(covariates=x, outcomes=y)


def generate_dgp(config: DgpConfig) -> SimulatedData:
    """Draw one reproducible realisation of the process."""
    return _generate(np.random.default_rng(config.seed), config)


def default_experts() -> tuple[tuple[str, NigPosterior], ...]:
    """The two one-covariate regression experts, with diffuse priors."""
    return (
        ("expert_x1", diffuse_nig((0,))),
        ("expert_x2", diffuse_nig((1,))),
    )


def nig_evaluation_stream(data: SimulatedData) -> EvaluationStream:
    """Score the ``default_experts`` through the data, one step ahead.

    At each step every expert's current posterior predictive is scored
    against the realised outcome, and only then is the observation used
    to update that expert — the stream is safe for rolling evaluation.
    Pooling points are the raw covariate vectors.
    """
    names, priors = zip(*default_experts())
    posteriors = list(priors)
    n = data.n_obs
    scores = np.empty((n, len(posteriors)))
    for t in range(n):
        x_t = data.covariates[t]
        y_t = float(data.outcomes[t])
        for k, posterior in enumerate(posteriors):
            xd = design_vector(posterior, x_t)
            scores[t, k] = nig_predictive(posterior, xd).log_density(y_t)
            posteriors[k] = nig_update(posterior, xd, y_t)
    return EvaluationStream(
        pooling_points=data.covariates,
        outcomes=data.outcomes,
        log_scores=scores,
        expert_names=names,
    )


def _fit_and_score_split(
    data: SimulatedData, experts, train_size: int
) -> tuple[list[NigPosterior], History]:
    """Fit each expert on the first ``train_size`` rows, score the rest.

    The posterior is frozen after the training batch; the held-out rows
    are scored under that single posterior and collected into a
    ``History`` keyed by the raw covariates.
    """
    names = [name for name, _ in experts]
    x_train = data.covariates[:train_size]
    y_train = data.outcomes[:train_size]
    x_held = data.covariates[train_size:]
    y_held = data.outcomes[train_size:]
    fitted: list[NigPosterior] = []
    held_scores = np.empty((x_held.shape[0], len(names)))
    for k, (_, prior) in enumerate(experts):
        posterior = nig_update(prior, design_matrix(prior, x_train), y_train)
        fitted.append(posterior)
        held_scores[:, k] = nig_log_scores(
            posterior, design_matrix(posterior, x_held), y_held
        )
    times = np.arange(train_size, train_size + x_held.shape[0])
    return fitted, History.from_arrays(times, x_held, y_held, held_scores)


def _replication_seeds(seed: int, replications: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(replications)


@dataclass(frozen=True, eq=False)
class ErrorStudyResult:
    """Sampling distribution of the caliper estimator's error at one point.

    ``errors[r, w, k]`` is (caliper estimate − that replication's true
    local skill) for expert k at width ``width_grid[w]`` in replication
    r.  ``true_elpd[r, k]`` is the per-replication quadrature truth and
    ``neighbor_counts[r, w]`` the caliper occupancy.
    """

    query_point: np.ndarray
    width_grid: tuple[float, ...]
    expert_names: tuple[str, ...]
    errors: np.ndarray
    neighbor_counts: np.ndarray
    true_elpd: np.ndarray

    def mean_errors(self) -> np.ndarray:
        """(widths, experts) mean error — the bias picture."""
        return self.errors.mean(axis=0)

    def sd_errors(self) -> np.ndarray:
        """(widths, experts) error standard deviation — the variance picture."""
        return self.errors.std(axis=0, ddof=1)


def estimator_error_study(
    query_point,
    width_grid=DEFAULT_ERROR_WIDTHS,
    replications: int = 500,
    config: DgpConfig | None = None,
    *,
    train_fraction: float = 0.5,
) -> ErrorStudyResult:
    """Monte Carlo error distribution of the caliper estimator.

    Each replication draws a fresh realisation, fits the experts on the
    first half, scores the second half under the frozen posteriors, and
    compares the caliper estimate at ``query_point`` with the
    replication's own true local skill from quadrature.  This is
    ``replication_studies`` at one point with the pool study off.
    """
    z = np.asarray(query_point, dtype=float).reshape(1, -1)
    errors, _ = replication_studies(
        z,
        replications,
        config,
        error_widths=width_grid,
        pool_widths=None,
        train_fraction=train_fraction,
    )
    return errors[0]


@dataclass(frozen=True, eq=False)
class PoolStudyResult:
    """Expected pooled log scores per scheme across replications.

    ``scores[r, m, s, w]`` is the quadrature expected log score of the
    scheme-``s`` pool at query point ``m`` with caliper width
    ``width_grid[w]`` in replication r.  Schemes without a width (equal,
    global opt) repeat the same value across the width axis.
    ``full_data_max_weight[r]`` is the largest softmax weight under
    natural scaling when the caliper covers the whole history.
    """

    query_points: np.ndarray
    width_grid: tuple[float, ...]
    schemes: tuple[str, ...]
    scores: np.ndarray
    full_data_max_weight: np.ndarray

    def mean_scores(self) -> np.ndarray:
        return self.scores.mean(axis=0)


def pool_comparison_study(
    query_points=DEFAULT_QUERY_POINTS,
    width_grid=DEFAULT_POOL_WIDTHS,
    replications: int = 500,
    config: DgpConfig | None = None,
    *,
    schemes=DEFAULT_POOL_SCHEMES,
    train_fraction: float = 0.5,
) -> PoolStudyResult:
    """Monte Carlo comparison of pooling schemes at fixed query points.

    Shares the split-fit design of the error study; each scheme's pooled
    mixture of the fitted posterior predictives is scored by quadrature
    against the true conditional law, so differences between schemes are
    purely about the weights.  Every scheme is an entry of
    ``evaluation.SCHEMES``; local softmax uses natural scaling.  This is
    ``replication_studies`` with the error study off.
    """
    _, pool = replication_studies(
        query_points,
        replications,
        config,
        error_widths=None,
        pool_widths=width_grid,
        schemes=schemes,
        train_fraction=train_fraction,
    )
    return pool


def replication_studies(
    query_points=DEFAULT_QUERY_POINTS,
    replications: int = 500,
    config: DgpConfig | None = None,
    *,
    error_widths=DEFAULT_ERROR_WIDTHS,
    pool_widths=DEFAULT_POOL_WIDTHS,
    schemes=DEFAULT_POOL_SCHEMES,
    train_fraction: float = 0.5,
) -> tuple[tuple[ErrorStudyResult, ...], PoolStudyResult | None]:
    """Both replication studies from one pass over the replications.

    Returns one ``ErrorStudyResult`` per query point and the
    ``PoolStudyResult`` over all of them; a study whose widths are
    ``None`` is not run (no error results, or ``None`` for the pool).
    Every input is checked before the first draw.  Each replication is
    drawn, fitted and scored once.  At each query point the fitted
    experts' log densities at the quadrature outcomes form one
    (K, nodes) table: an expert's true local skill is its row dotted with
    the quadrature weights, and every scheme x width pool is checked on
    the simplex, pooled against the table and dotted with them too.
    Schemes without a width ignore the point, so their weights are built
    once per replication, and ``local_opt`` shares the whole-history fit
    across points (``PoolQuery.at``).  Both studies' calipers at a point
    come from that point's one distance pass.
    """
    if replications < 100:
        raise ValueError("need at least 100 replications for a stable picture")
    config = config if config is not None else DgpConfig()
    experts = default_experts()
    names = tuple(name for name, _ in experts)
    k = len(names)
    z_points = np.atleast_2d(np.asarray(query_points, dtype=float))
    n_points = z_points.shape[0]
    run_errors = error_widths is not None
    run_pool = pool_widths is not None
    if run_errors:
        error_widths = check_widths(error_widths)
    if run_pool:
        pool_widths = check_widths(pool_widths)
        schemes = check_schemes(schemes)
    train_size = int(round(train_fraction * config.sample_size))
    if not 1 <= train_size < config.sample_size:
        raise ValueError("train fraction leaves an empty batch")
    rules = [quadrature_rule(config, z) for z in z_points]

    if run_errors:
        shape = (n_points, replications, len(error_widths))
        errors = np.empty(shape + (k,))
        counts = np.empty(shape, dtype=int)
        truths = np.empty((n_points, replications, k))
    if run_pool:
        scores = np.empty((replications, n_points, len(schemes), len(pool_widths)))
        polarization = np.empty(replications)

    for r, child in enumerate(_replication_seeds(config.seed, replications)):
        data = _generate(np.random.default_rng(child), config)
        fitted, history = _fit_and_score_split(data, experts, train_size)
        whole = PoolQuery(history)
        if run_pool:
            # A scheme without a caliper width ignores the query point, so
            # its weights are built once per replication, a row per width.
            global_cells = {
                scheme: np.repeat(SCHEMES[scheme].grid(whole), len(pool_widths), axis=0)
                for scheme in schemes
                if "width" not in SCHEMES[scheme].axes
            }
            # Polarizing-behaviour diagnostic: natural-scaling softmax with
            # the caliper covering every record, so the factor is the full
            # history length.
            all_data = history.score_matrix.mean(axis=0)[None, :]
            polarization[r] = float(softmax_grid([len(history)], all_data, (NATURAL,)).max())

        for m, (z, (outcomes, quad_weights)) in enumerate(zip(z_points, rules)):
            table = np.stack(
                [
                    nig_predictive(post, design_vector(post, z)).log_density(outcomes)
                    for post in fitted
                ]
            )
            # One query per point: both studies' calipers share its distances.
            query = whole.at(z, pool_widths or (), (NATURAL,))
            if run_errors:
                truths[m, r] = [float(quad_weights @ row) for row in table]
                neighbors, estimates = query.caliper_grid(error_widths)
                errors[m, r] = estimates - truths[m, r]
                counts[m, r] = [idx.size for idx in neighbors]
            if run_pool:
                cells = np.concatenate(
                    [
                        global_cells[s] if s in global_cells else SCHEMES[s].grid(query)
                        for s in schemes
                    ]
                )
                pooled = _pool_cells(cells[:, None, :], table.T)
                expected = [float(quad_weights @ row) for row in pooled]
                scores[r, m] = np.reshape(expected, scores.shape[2:])

    error_results = tuple(
        ErrorStudyResult(
            query_point=z_points[m],
            width_grid=error_widths,
            expert_names=names,
            errors=errors[m],
            neighbor_counts=counts[m],
            true_elpd=truths[m],
        )
        for m in range(n_points if run_errors else 0)
    )
    pool_result = None
    if run_pool:
        pool_result = PoolStudyResult(
            query_points=z_points,
            width_grid=pool_widths,
            schemes=schemes,
            scores=scores,
            full_data_max_weight=polarization,
        )
    return error_results, pool_result
