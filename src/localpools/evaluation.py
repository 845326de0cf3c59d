"""Rolling one-step-ahead evaluation of pooling schemes.

The harness walks a scored prediction stream in time order, finds each
step's calipers and fits on the history *strictly before* that step, and
only then lets the step join the history; a batched pass then pools and
selects over blocks of steps.  Nothing at time >= t ever influences the
weights used at t.

The stream is split into three consecutive batches:

* warmup — expert training only; steps are skipped entirely,
* history — predictions enter the history and candidate pools are scored
  (to seed hyperparameter selection) but no scheme results are reported,
* evaluation — reported results: each scheme's weights, pooled score and
  chosen grid cell at every step.

Every scheme is one entry of ``SCHEMES``: the hyperparameter axes it
takes from the config and the rule that turns the history into the
weights of every grid cell at a point.  Schemes with hyperparameters pick
them afresh at every reported step by running one shadow pool per grid
cell over the whole scored stretch and selecting the cell whose *own*
cumulative log score so far is highest (ties fall to the earlier grid
entry).  The reported weights and score are that cell's shadow entry for
the step.  Each shadow pool keeps its own frozen trajectory; past shadow
scores are never revised.

One ``PoolQuery`` per step shares the caliper distances and the
optimizer fits among the schemes.  The cells of a block of steps are
checked on the simplex and pooled at once, bitwise as one step at a time.

Inputs are checked once, where they enter: a stream's records by
``history.check_records``, a config's widths by ``history.check_widths``
and its scheme list by ``check_schemes``, which the studies share.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .densities import check_simplex_rows, pooled_rows
from .history import History, PredictionRecord, check_records, check_widths, settle_score_sums
from .pools import NATURAL, FixedScaling, PoolQuery, softmax_grid

__all__ = [
    "SCHEME_LOCAL_SOFTMAX", "SCHEME_EQUAL", "SCHEME_GLOBAL_OPT", "SCHEME_LOCAL_OPT",
    "Scheme", "SCHEMES", "ALL_SCHEMES", "DEFAULT_WIDTH_GRID", "DEFAULT_SCALING_GRID",
    "EvaluationConfig", "EvaluationStream", "check_schemes", "EvaluationResult",
    "rolling_evaluate", "select_hyperparameters",
]

SCHEME_LOCAL_SOFTMAX = "local_softmax"
SCHEME_EQUAL = "equal"
SCHEME_GLOBAL_OPT = "global_opt"
SCHEME_LOCAL_OPT = "local_opt"

DEFAULT_WIDTH_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, math.inf)
DEFAULT_SCALING_GRID = (
    FixedScaling(0.5),
    FixedScaling(1.0),
    FixedScaling(2.0),
    FixedScaling(5.0),
    FixedScaling(10.0),
    NATURAL,
)


@dataclass(frozen=True)
class Scheme:
    """One pooling scheme: the config grids it searches and its weight rule.

    ``axes`` names the hyperparameters the scheme takes, a subset of
    ``("width", "scaling")`` read from the config's ``width_grid`` and
    ``scaling_grid``.  ``grid(query)`` builds the weights of every cell
    of those axes at the query's point from its history alone, as a
    (cells, K) array laid out width-major; a scheme without axes has one
    cell.  A scheme without a width axis has no caliper, so its weights
    do not depend on the point either.
    """

    axes: tuple[str, ...]
    grid: Callable[[PoolQuery], np.ndarray]


# The rules fit through ``optimize_pool_weights`` in the pools module's
# globals and find calipers through ``History.distances``, so wrapping
# either from outside (as the benchmark's tracer does) reaches every fit
# and every caliper of every scheme.
SCHEMES = {
    SCHEME_LOCAL_SOFTMAX: Scheme(("width", "scaling"), PoolQuery.softmax),
    SCHEME_EQUAL: Scheme((), PoolQuery.equal),
    SCHEME_GLOBAL_OPT: Scheme((), PoolQuery.global_opt),
    SCHEME_LOCAL_OPT: Scheme(("width",), PoolQuery.local_opt),
}
ALL_SCHEMES = tuple(SCHEMES)


@dataclass(frozen=True, eq=False)
class EvaluationConfig:
    """Batch sizes, hyperparameter grids, and scheme selection for one run."""

    warmup_size: int = 0
    history_size: int = 0
    width_grid: tuple[float, ...] = DEFAULT_WIDTH_GRID
    scaling_grid: tuple = DEFAULT_SCALING_GRID
    schemes: tuple[str, ...] = ALL_SCHEMES
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "warmup_size", int(self.warmup_size))
        object.__setattr__(self, "history_size", int(self.history_size))
        object.__setattr__(self, "seed", int(self.seed))
        if self.warmup_size < 0 or self.history_size < 0:
            raise ValueError("batch sizes cannot be negative")
        object.__setattr__(self, "schemes", check_schemes(self.schemes))
        widths = tuple(float(w) for w in self.width_grid)
        scalings = tuple(self.scaling_grid)
        axes = {axis for scheme in self.schemes for axis in SCHEMES[scheme].axes}
        if "width" in axes:
            if not widths:
                raise ValueError("local schemes need a nonempty caliper width grid")
            check_widths(widths)
        if "scaling" in axes:
            if not scalings:
                raise ValueError("the softmax scheme needs a nonempty scaling grid")
            for rule in scalings:
                if not hasattr(rule, "factor"):
                    raise ValueError(f"{rule!r} is not a scaling rule")
        object.__setattr__(self, "width_grid", widths)
        object.__setattr__(self, "scaling_grid", scalings)


def check_schemes(schemes) -> tuple[str, ...]:
    """The scheme names as a tuple; raise ``ValueError`` unless nonempty, known and unique."""
    schemes = tuple(map(str, schemes))
    if not schemes:
        raise ValueError("at least one scheme is required")
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        raise ValueError(f"unknown schemes {unknown}; valid: {list(ALL_SCHEMES)}")
    if len(set(schemes)) != len(schemes):
        raise ValueError("schemes must be unique")
    return schemes


@dataclass(frozen=True, eq=False)
class EvaluationStream:
    """Time-ordered scored predictions ready for rolling evaluation.

    ``log_scores[t, k]`` is expert k's log predictive density of the
    outcome realised at step t, computed using only information before t
    (the stream producer is responsible for that discipline).
    """

    pooling_points: np.ndarray
    outcomes: np.ndarray
    log_scores: np.ndarray
    expert_names: tuple[str, ...]
    time_indices: np.ndarray | None = None

    def __post_init__(self) -> None:
        z = np.asarray(self.pooling_points, dtype=float)
        if z.ndim == 1:
            z = z[:, None]
        times = self.time_indices
        if times is None:
            times = np.arange(z.shape[0] if z.ndim else 0)
        times, z, y, scores = check_records(times, z, self.outcomes, self.log_scores)
        names = tuple(str(s) for s in self.expert_names)
        if len(names) != scores.shape[1]:
            raise ValueError(
                f"{len(names)} expert names for {scores.shape[1]} score columns"
            )
        if len(set(names)) != len(names):
            raise ValueError("expert names must be unique")
        object.__setattr__(self, "pooling_points", z)
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "log_scores", scores)
        object.__setattr__(self, "expert_names", names)
        object.__setattr__(self, "time_indices", times)

    @property
    def n_steps(self) -> int:
        return self.pooling_points.shape[0]

    @property
    def n_experts(self) -> int:
        return self.log_scores.shape[1]

    @property
    def n_pooling_dims(self) -> int:
        return self.pooling_points.shape[1]


@dataclass(frozen=True, eq=False)
class EvaluationResult:
    """Reported results per scheme plus the bookkeeping needed to audit them.

    The history holds every scored step (history batch and evaluation
    batch alike, in time order); the reported steps are its rows from
    ``config.history_size`` on.  Per scheme, row ``i`` of ``weights``
    (n_reported, K), ``pooled_log_scores`` (n_reported,) and
    ``chosen_cells`` (n_reported,) belong to the ``i``-th reported step;
    a chosen cell indexes the scheme's entry of ``cells``, its
    (width, scaling) grid with ``None`` on an axis the scheme does not
    take.  These arrays are read-only.

    ``candidate_log_scores[scheme]`` holds one shadow-pool log score per
    history row and per grid cell, so the selection made at any reported
    step can be re-derived by summing rows strictly before it.  Rows of
    steps on which every expert scored ``-inf`` are kept in the ledger
    (every cell scores ``-inf`` there) but left out of those sums;
    ``history.live_rows`` marks the rows that count.
    """

    config: EvaluationConfig
    expert_names: tuple[str, ...]
    history: History
    cells: dict[str, tuple[tuple, ...]]
    weights: dict[str, np.ndarray]
    pooled_log_scores: dict[str, np.ndarray]
    chosen_cells: dict[str, np.ndarray]
    candidate_log_scores: dict[str, np.ndarray]

    @property
    def reported_times(self) -> np.ndarray:
        """Time indices of the reported steps."""
        return self.history.time_indices[self.config.history_size :]

    @property
    def candidate_labels(self) -> dict[str, tuple[str, ...]]:
        """Cell labels of every scheme that keeps shadow pools, in ledger order."""
        return {
            scheme: tuple(_cell_label(*cell) for cell in self.cells[scheme])
            for scheme in self.candidate_log_scores
        }

    def totals(self) -> dict[str, float]:
        """Total reported log score per scheme (the headline comparison)."""
        sums = [_in_order_sum(scores.tolist()) for scores in self.pooled_log_scores.values()]
        return dict(zip(self.pooled_log_scores, settle_score_sums(np.array(sums)).tolist()))


def _in_order_sum(values) -> float:
    """Left-to-right sum from 0.0: ``np.sum`` is pairwise and builtin ``sum``
    is compensated from Python 3.12, and each rounds differently."""
    total = 0.0
    for value in values:
        total += value
    return total


def select_hyperparameters(candidate_cumulative) -> int:
    """Index of the best-scoring grid cell; ties fall to the earliest one.

    With no scored steps yet every cumulative score is zero and the
    first grid cell wins, which is the declared cold-start choice.  This
    is ``_best_cells`` on one row.
    """
    arr = np.asarray(candidate_cumulative, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a nonempty 1-D vector of candidate scores")
    return int(_best_cells(arr))


def _best_cells(totals: np.ndarray):
    """The selection rule: the best cell of each row of totals, the earliest on a tie."""
    if np.isnan(totals).any():
        raise ValueError("candidate scores must be NaN-free")
    return np.argmax(totals, axis=-1)


def _grid_cells(scheme: str, config: EvaluationConfig) -> tuple[tuple, ...]:
    """(width, scaling) cells, width-major; ``None`` on an axis not taken."""
    axes = SCHEMES[scheme].axes
    widths = config.width_grid if "width" in axes else (None,)
    scalings = config.scaling_grid if "scaling" in axes else (None,)
    return tuple((width, scaling) for width in widths for scaling in scalings)


def _cell_label(width, scaling) -> str:
    parts = [] if width is None else [f"width={width:g}"]
    if scaling is not None:
        parts.append(scaling.label())
    return ",".join(parts)


def _pool_cells(cells: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Check every cell on the simplex, then pool it against the expert scores.

    ``cells`` holds one weight vector per leading index, (..., K), and
    broadcasts against ``scores`` as ``pooled_rows`` describes.  The
    harness and the replication studies score their cells here.
    """
    check_simplex_rows(cells.reshape(-1, cells.shape[-1]))
    return pooled_rows(cells, scores)


# Scored steps per batched pass: enough to amortise each numpy call, few
# enough that a block's softmax cells and their list copy stay small.
_BLOCK_STEPS = 128


def rolling_evaluate(stream: EvaluationStream, config: EvaluationConfig) -> EvaluationResult:
    """Run the three-batch rolling protocol over a scored stream.

    The walk keeps only the work that needs the history before each step:
    the calipers (neighbour counts and means, for the softmax) and the
    fits (``local_opt`` at every scored step, ``global_opt`` at reported
    ones).  The pass takes blocks of up to ``_BLOCK_STEPS`` steps, none
    straddling the first reported one: one ``softmax_grid`` call, one
    ``_pool_cells`` call per scheme, then selection from running totals
    carried across blocks.  Weights at step t still come only from rows
    before t, and every value is bitwise that of one step at a time.

    Requires ``warmup_size + history_size < len(stream)`` so that at
    least one step is reported.  Returns the per-scheme reported arrays
    together with the final history and the full shadow-pool score ledger.
    """
    T, k, w, first = stream.n_steps, stream.n_experts, config.warmup_size, config.history_size
    if w + first >= T:
        raise ValueError(
            f"stream has {T} steps; warmup {w} + history {first} leaves nothing to evaluate"
        )
    history = History(stream.n_pooling_dims, k)
    schemes = config.schemes
    n_scored = T - w
    n_reported = n_scored - first
    times, points = stream.time_indices[w:], stream.pooling_points[w:]
    outcomes, scores = stream.outcomes[w:], stream.log_scores[w:]

    # One shadow pool per grid cell, per scheme that takes hyperparameters,
    # scored from the first scored step on so that selection has something
    # to go on when reporting starts.  Cells are laid out width-major /
    # scaling-minor, matching the declared tie-break order.
    cells = {scheme: _grid_cells(scheme, config) for scheme in schemes}
    ledger = {s: np.empty((n_scored, len(cells[s]))) for s in schemes if SCHEMES[s].axes}
    softmax = SCHEME_LOCAL_SOFTMAX in schemes
    counts = np.zeros((n_scored, len(config.width_grid)), dtype=int)
    means = np.zeros((n_scored, len(config.width_grid), k))
    fitted = {s: np.empty((n_scored, len(cells[s]), k)) for s in schemes if s != SCHEME_LOCAL_SOFTMAX}
    weights = {scheme: np.empty((n_reported, k)) for scheme in schemes}
    pooled = {scheme: np.empty(n_reported) for scheme in schemes}
    chosen = {scheme: np.zeros(n_reported, dtype=int) for scheme in schemes}

    # Shadow totals of scores near 1e308 overflow to +inf, which selection
    # compares as any other total; one errstate for the whole run.
    with np.errstate(over="ignore"):
        for row in range(n_scored):
            query = PoolQuery(history, points[row], config.width_grid, config.scaling_grid)
            if softmax:
                neighbors, means[row] = query.calipers
                counts[row] = [idx.size for idx in neighbors]
            for scheme, grid in fitted.items():
                if row >= first or scheme in ledger:
                    grid[row] = SCHEMES[scheme].grid(query)
            history.append(PredictionRecord(times[row], points[row], outcomes[row], scores[row]))

        # Step ``row`` is history row ``row`` now.
        live = history.live_rows
        totals = {name: np.zeros((1, table.shape[1])) for name, table in ledger.items()}
        bounds = [*range(0, first, _BLOCK_STEPS), *range(first, n_scored, _BLOCK_STEPS), n_scored]
        for start, stop in zip(bounds, bounds[1:]):
            reporting = start >= first
            grids = {s: grid[start:stop] for s, grid in fitted.items() if reporting or s in ledger}
            if softmax:
                flat = softmax_grid(
                    counts[start:stop].ravel(), means[start:stop].reshape(-1, k), config.scaling_grid
                )
                grids[SCHEME_LOCAL_SOFTMAX] = flat.reshape(stop - start, -1, k)
            for scheme, grid in grids.items():
                shadow = _pool_cells(grid, scores[start:stop, None, :])
                picks = np.zeros(stop - start, dtype=int)
                if scheme in ledger:
                    ledger[scheme][start:stop] = shadow
                    # A dead row adds 0.0, and a total is never -0.0, so each
                    # sum is bitwise ``total + row`` over the live rows.
                    rows = np.where(live[start:stop, None], shadow, 0.0)
                    with np.errstate(invalid="ignore"):
                        sums = np.cumsum(np.concatenate([totals[scheme], rows]), axis=0)
                    settle_score_sums(sums)
                    totals[scheme] = sums[-1:]
                    if reporting:
                        # Selection sees the totals before each step's row.
                        picks[:] = _best_cells(sums[:-1])
                if reporting:
                    steps, out = np.arange(stop - start), slice(start - first, stop - first)
                    weights[scheme][out] = grid[steps, picks]
                    pooled[scheme][out] = shadow[steps, picks]
                    chosen[scheme][out] = picks

    for arrays in (weights, pooled, chosen, ledger):
        for array in arrays.values():
            array.flags.writeable = False
    return EvaluationResult(
        config=config,
        expert_names=stream.expert_names,
        history=history,
        cells=cells,
        weights=weights,
        pooled_log_scores=pooled,
        chosen_cells=chosen,
        candidate_log_scores=ledger,
    )
