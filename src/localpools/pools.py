"""Pool weight construction: equal, softmax-over-skill, and log-score optimal.

Three ways to turn expert track records into simplex weights:

* ``equal_weights`` — the 1/K fallback.
* ``softmax_weights`` — exponentiate local skill estimates, sharpened
  either by a fixed temperature or by the neighbour count itself
  ("natural" scaling, where more local evidence means more decisive
  weights).
* ``optimize_pool_weights`` — maximise the average pooled log score over
  a block of realised expert scores: the multiplicative EM update,
  accelerated by SQUAREM, with Newton steps to finish the rare blocks
  where EM crawls.  The objective is concave on the simplex, and the
  gradient each EM step computes bounds the distance to the optimum, so
  the returned weights are certified to within ``gap_tol`` nats of the
  global optimum.

``PoolQuery`` is the one place a pooling point becomes calipers, caliper
means and cell weights: it builds them for every cell of a width x
scaling grid at one point in one pass.  The evaluation harness keeps a
query's caliper counts and means and builds the softmax cells of a block
of steps with one ``softmax_grid`` call.  The single-cell builders
``softmax_weights``, ``local_opt_weights`` and
``local_elpd.caliper_elpd`` are grids of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .densities import PoolWeights, _in_order_sum, _row_reduce, pooled_rows
from .history import History, caliper_rows, settle_score_sums

if TYPE_CHECKING:
    from .local_elpd import LocalElpdEstimate

__all__ = [
    "NaturalScaling",
    "FixedScaling",
    "NATURAL",
    "PoolQuery",
    "equal_weights",
    "softmax_weights",
    "softmax_grid",
    "optimize_pool_weights",
    "pooled_log_scores",
    "local_opt_weights",
]


@dataclass(frozen=True)
class NaturalScaling:
    """Sharpness tied to evidence: the factor is the neighbour count itself."""

    def factor(self, neighbor_count):
        """The factor of one neighbour count, or of each of an array of them."""
        return np.asarray(neighbor_count, dtype=float)

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

    def factor(self, neighbor_count) -> float:
        """``tau``, for one neighbour count or, broadcast, for an array of them."""
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
    subtracted before exponentiating, so every tilt is exp(0) = 1.  This
    is ``softmax_grid`` with a grid of one cell.
    """
    cells = softmax_grid([estimate.neighbor_count], estimate.estimates[None, :], (scaling,))
    return PoolWeights(cells[0])


def softmax_grid(counts, estimates, scalings) -> np.ndarray:
    """Softmax weights for every width x scaling cell, width-major.

    ``estimates`` is (widths, K), row ``j`` the caliper averages of a
    caliper holding ``counts[j]`` records.  Row ``j * len(scalings) + s``
    of the (widths * scalings, K) result tilts ``estimates[j]`` under
    ``scalings[s]`` as ``softmax_weights`` describes: the factor times the
    estimates, less their maximum, exponentiated and divided by the
    row's exact sum.  A zero factor, or a maximum of ``-inf``, gives a row
    of exactly ``1/K``; a maximum of ``+inf`` splits the row evenly among
    the entries that reach it.
    """
    factors = np.empty((len(counts), len(scalings)))
    for s, rule in enumerate(scalings):
        factors[:, s] = rule.factor(counts)
    factors = factors.reshape(-1)
    bad = np.flatnonzero(~((factors >= 0.0) & np.isfinite(factors)))
    if bad.size:
        raise ValueError(
            f"scaling factor must be finite and nonnegative, got {float(factors[bad[0]])!r}"
        )
    scaled = np.repeat(np.asarray(estimates, dtype=float), len(scalings), axis=0)
    # 0 * -inf is NaN, and a large factor can take an estimate to +-inf.
    with np.errstate(invalid="ignore", over="ignore"):
        scaled *= factors[:, None]
        top = _row_reduce(np.maximum, scaled)
        # Every tilt of a flattened row is exp(0) = 1, and 1 / K is exact.
        flat = (factors == 0.0) | (top == -np.inf)
        scaled[flat] = 0.0
        top[flat] = 0.0
        tilts = np.exp(scaled - top[:, None])
    # So is the tilt of every entry at the maximum, even one at +inf,
    # where the shift gives inf - inf = NaN.
    tilts[scaled == top[:, None]] = 1.0
    return tilts / _exact_row_sums(tilts)[:, None]


# Grids of fewer rows are summed by ``math.fsum`` row by row.  The
# certificate costs about 20 us at K = 2 and 34 us at K = 4 whatever the
# grid's height, fsum 0.2-0.3 us a row; the two meet near 128 rows for
# K = 2 to 4 (a 2-core Xeon, NumPy 2.4.6).  One query's grid, as
# ``pool-once`` and the one-cell builders make, is far below that.
_FSUM_ROWS = 128


def _exact_row_sums(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of an (m, K) array of tilts, bitwise.

    Tilts are finite and nonnegative, never ``-0.0``.  Rows that
    ``_certified_sums`` clears keep its sum; ``fsum`` sums the others.
    """
    if len(rows) < _FSUM_ROWS:
        return np.array([math.fsum(row) for row in rows.tolist()])
    sums, cleared = _certified_sums(rows)
    for i in np.flatnonzero(~cleared).tolist():
        sums[i] = math.fsum(rows[i].tolist())
    return sums


def _two_sum(a, b):
    """``a + b`` rounded, and its rounding error, exactly (Knuth's TwoSum)."""
    total = a + b
    z = total - a
    return total, (a - (total - z)) + (b - z)


def _certified_sums(rows: np.ndarray):
    """Each row's correctly rounded sum, and where that is certified: ``(sums, cleared)``.

    A TwoSum chain along each row gives a rounded sum ``s`` and errors
    that add up to the rest; a second TwoSum chain sums those errors to
    ``e``, and ``lost`` adds up the magnitudes of what it rounded away.
    The exact row sum is then ``r + d + F``, where ``r = fl(s + e)``,
    ``r + d = s + e`` exactly and ``|F| <= 2 lost``.  When nothing was lost
    the exact sum is ``s + e``, and ``r`` is its correctly rounded value,
    ties to even, as ``math.fsum`` returns.  Otherwise ``r`` is certified
    when ``|d| + 2 lost`` is below half the gap to the next double on
    either side, a gap halved just below a power of two.  Rows left
    uncleared need ``fsum``; after Ogita, Rump & Oishi 2005, "Accurate sum
    and dot product".
    """
    s, e, lost = rows[:, 0], 0.0, 0.0
    for j in range(1, rows.shape[1]):
        s, error = _two_sum(s, rows[:, j])
        e, f = _two_sum(e, error)
        lost = lost + np.abs(f)
    r, d = _two_sum(s, e)
    half_gap = np.spacing(np.abs(r)) * np.where(np.abs(np.frexp(r)[0]) == 0.5, 0.25, 0.5)
    cleared = (lost == 0.0) | (np.abs(d) + 2.0 * lost < half_gap)
    return r, cleared


# SQUAREM iterates before the remaining ones become Newton steps.  Blocks
# without a degenerate optimum are certified well within this: the
# simulated evaluate streams need at most 11.
_SQUAREM_ITERATES = 20
# Relative ridge on the curvature of a Newton step (see ``_face_direction``).
_RIDGE = 1e-12

# The iterates keep ``w`` and ``g`` as lists of K Python floats: every
# K-length operation is then one IEEE operation per entry, the value NumPy
# gives, without a NumPy call's overhead.  Each n-length pass (``A @ w``,
# ``(1 / pooled) @ A`` and the gain's pass) stays in NumPy and BLAS, in the
# same order; ``ndarray.dot`` makes the BLAS call ``@`` makes, with less
# overhead.  The reductions keep NumPy's bits: ``_total`` is
# ``np.add.reduce``, ``_top`` passes NaN on as ``np.max`` does, and
# ``_norm`` stays a BLAS dot product.  ``tests/test_pools.py`` pins each of
# these facts.


def _total(w: list) -> float:
    """``np.add.reduce`` of the entries, bitwise: left to right below eight."""
    if len(w) < 8:
        return _in_order_sum(w)
    return float(np.add.reduce(np.array(w)))


def _top(g: list) -> float:
    """The largest entry, or NaN when any entry is NaN, as ``np.max`` has it."""
    top = g[0]
    for x in g:
        if not x <= top:
            if x != x:
                return x
            top = x
    return top


def _norm(x: list) -> float:
    """The Euclidean norm, its square a BLAS dot product.

    A Python loop rounds that dot product differently: its bits differ
    for some 400-500 of 3,000 random K = 2 vectors.
    """
    x = np.array(x)
    return math.sqrt(x.dot(x))


def _on_simplex(w: list) -> list:
    """Snap weights below 1e-300 to zero and renormalise."""
    w = [0.0 if x < 1e-300 else x for x in w]
    total = _total(w)
    try:
        return [x / total for x in w]
    except ZeroDivisionError:
        # Every weight snapped to zero: NumPy's 0 / 0, a NaN per entry.
        return (np.array(w) / total).tolist()


# Each helper below takes ``A``, the score block with every row shifted
# by its maximum and exponentiated, and ``pooled = A . w`` at the current
# weights; the objective is ``f(w) = mean_t log(A_t . w)``.  They run
# inside ``optimize_pool_weights``'s ``np.errstate``: a step that leaves
# some row with no pooled density has a gain of -inf or NaN, which is no
# gain.


def _gradient(A: np.ndarray, pooled: np.ndarray) -> list:
    """``g = mean_t A_t / (A_t . w)``."""
    n = len(A)
    return [x / n for x in (1.0 / pooled).dot(A).tolist()]


def _gain(A: np.ndarray, w_new: list, w: list, pooled: np.ndarray) -> float:
    """``f(w_new) - f(w)``, accurate relative to the difference itself.

    Both points are read as rays, ``f(w / sum(w))``, so that rounding in
    a sum to one does not pass for a change of ``f``.
    """
    step = [a - b for a, b in zip(w_new, w)]
    ratio = A.dot(np.array(step))
    np.divide(ratio, pooled, out=ratio)
    np.log1p(ratio, out=ratio)
    return float(np.add.reduce(ratio)) / len(A) - math.log1p(math.fsum(step) / math.fsum(w))


def _squarem_step(A, w, pooled, g):
    """One SQUAREM cycle from ``w``: ``(iterate, gain)``."""
    w1 = _on_simplex([a * b for a, b in zip(w, g)])
    w2 = _on_simplex([a * b for a, b in zip(w1, _gradient(A, A.dot(np.array(w1))))])
    r = [a - b for a, b in zip(w1, w)]
    v = [c - b - a for a, b, c in zip(r, w1, w2)]
    norm_v = _norm(v)
    alpha = -_norm(r) / norm_v if norm_v > 0.0 else -1.0
    while alpha < -1.01:
        twice, square = 2.0 * alpha, alpha * alpha
        w_new = [a - twice * b + square * c for a, b, c in zip(w, r, v)]
        # ``min(w_new) >= 0`` with NaN failing it, as np.min has it.
        if all(x >= 0.0 for x in w_new):
            w_new = _on_simplex(w_new)
            gain = _gain(A, w_new, w, pooled)
            if gain >= 0.0:
                return w_new, gain
        alpha = 0.5 * (alpha - 1.0)
    return w2, _gain(A, w2, w, pooled)


def _face_direction(A, face: np.ndarray, pooled, g) -> np.ndarray:
    """Newton direction for ``f`` within the face of the simplex ``face`` spans.

    The curvature ``B'B / n`` (``B = A / pooled``) is singular along
    duplicated experts and nearly so along near-duplicates; a ridge of
    ``_RIDGE`` times its largest diagonal entry keeps the solve regular.
    Along a flat direction the step is then the gradient over the ridge:
    zero between exact duplicates, and long enough to reach a face
    between near-duplicates that differ in gradient.
    """
    idx = np.flatnonzero(face)
    m = idx.size
    scaled = A[:, idx] / pooled[:, None]
    curvature = scaled.T @ scaled / len(A)
    kkt = np.ones((m + 1, m + 1))
    kkt[:m, :m] = curvature + _RIDGE * curvature.diagonal().max() * np.eye(m)
    kkt[m, m] = 0.0
    rhs = np.append(g[idx] - 1.0, 0.0)
    direction = np.zeros_like(g)
    direction[idx] = np.linalg.solve(kkt, rhs)[:m]
    return direction


def _newton_step(A, w, pooled, g):
    """One Newton step within a face of the simplex: ``(iterate, gain)``.

    The face is the support of ``w``, widened by the expert with the
    largest gradient when its weight is zero and the widened step would
    raise it.  Weights the step would take below zero stop it and are set
    to zero, leaving the face.  A weight below the rounding of the
    largest one cannot be stepped to zero while the others move, so when
    its gradient is below 1 it leaves the face at once.  The step is
    halved until ``f`` does not decrease.  The step runs on arrays; the
    iterates come and go as lists.
    """
    start, w, g = w, np.array(w), np.array(g)
    negligible = (w < np.finfo(float).eps * w.max()) & (g < 1.0)
    face = (w > 0.0) & ~negligible
    direction = _face_direction(A, face, pooled, g)
    best = int(np.argmax(g))
    if not face[best]:
        face[best] = True
        widened = _face_direction(A, face, pooled, g)
        if widened[best] > 0.0:
            direction = widened
    # The step length at which each falling weight reaches zero.
    zero_at = np.full_like(w, np.inf)
    falling = direction < 0.0
    zero_at[falling] = w[falling] / -direction[falling]
    length = min(1.0, zero_at.min())
    # 53 halvings take any step below the resolution of a double; a step
    # that never gains leaves ``w`` where it is.
    for _ in range(53):
        # The gain is judged before renormalising: rounding a sum to one
        # would swamp gains far below the rounding of ``w``.
        w_new = w + length * direction
        w_new[negligible | (zero_at <= length) | (w_new < 1e-300)] = 0.0
        w_new = w_new.tolist()
        gain = _gain(A, w_new, start, pooled)
        if gain >= 0.0:
            return _on_simplex(w_new), gain
        length *= 0.5
    return start, 0.0


def optimize_pool_weights(
    log_scores,
    *,
    gap_tol: float = 1e-8,
    max_iter: int = 5000,
    return_history: bool = False,
):
    """Weights maximising the mean pooled log score of historical rows.

    ``log_scores`` is an (n, K) matrix of realised expert log predictive
    densities; with ``A`` its rows scaled by ``exp(-row max)``, the
    objective is ``f(w) = mean_t log(A_t . w)`` plus the mean row max.
    The multiplicative EM map

        F(w)_k = w_k * g_k(w),    g(w) = mean_t [ A_t / (A_t . w) ],

    never decreases ``f``, and ``g`` certifies it: by concavity and
    Jensen, ``f* - f(w) <= log max_k g_k(w)``.  The iteration starts
    from equal weights and stops at the first iterate whose bound is at
    most ``gap_tol`` nats, so the result is within ``gap_tol`` of the
    optimum.

    Each iterate is one SQUAREM cycle (Varadhan & Roland 2008) on the
    EM map: from ``w0``, two EM steps give ``w1`` and ``w2``; with
    ``r = w1 - w0``, ``v = w2 - w1 - r`` and ``alpha = -|r| / |v|``,
    the cycle moves to ``w0 - 2 alpha r + alpha^2 v`` (renormalised), and
    ``alpha = -1`` would give ``w2`` itself.  An extrapolated point that
    leaves the simplex or scores below ``w0`` has its step halved toward
    ``-1``, ``alpha <- (alpha - 1) / 2``; a step within 1% of ``-1`` is
    taken as ``w2``.  Weights are never clipped onto the simplex: a
    weight set to zero can never revive under the multiplicative map.
    Weights that collapse below 1e-300 are snapped to zero so the simplex
    stays free of denormals.

    EM is sublinear at a degenerate optimum (an expert whose weight goes
    to zero while its gradient tends to exactly 1), and one SQUAREM step
    length cannot serve a slow mode and a fast one at once, so such
    blocks can stall short of the certificate.  Iterates after the first
    ``_SQUAREM_ITERATES`` are therefore Newton steps within a face of the
    simplex (an active-set method: weights can leave the support at zero
    and the best-gradient expert can re-enter it), each halved until
    ``f`` does not decrease.  Objective changes are computed as
    ``mean_t log1p(A_t . (w' - w) / A_t . w)``, so comparisons stay
    meaningful far below the rounding of ``f`` itself.  After
    ``max_iter`` iterates without the certificate the last one is
    returned with a ``RuntimeWarning`` that states the gap reached.

    A row on which every expert scores ``-inf`` gives every pool a score
    of ``-inf``, so it carries no information about the weights: such
    rows are dropped before the update, and the objective is the mean
    over the rows that remain.  When none remains the weights are exactly
    ``1/K``.

    Returns the ``PoolWeights``, or ``(weights, objective_history)`` when
    ``return_history`` is set.  The history holds ``f`` at the start and
    after every iterate, each entry the last plus the iterate's gain
    (just the start, ``-inf``, when no row remains).  It is built from
    the gains after the fit and only when asked; the iterates do not read
    it, so the weights are bitwise the same either way.

    This function is the checked boundary: the checks, the dead-row rule,
    the shift, the warning and the ``PoolWeights`` wrap.  The iterates
    run in ``_certified_fit``.  ``PoolQuery`` fits through this function
    too, so wrapping it from outside sees every fit.
    """
    E = np.asarray(log_scores, dtype=float)
    if E.ndim != 2 or E.size == 0:
        raise ValueError("log_scores must be a nonempty (rows, experts) matrix")
    # np.maximum passes NaN on, so the row maxima show every NaN or +inf
    # entry, and every dead row.
    row_max = _row_reduce(np.maximum, E)
    k = E.shape[1]
    if not np.isfinite(row_max).all():
        if not row_max.max() < np.inf:
            raise ValueError("log scores must be NaN-free and below +inf")
        live = row_max > -np.inf
        if not live.any():
            weights = equal_weights(k)
            return (weights, np.array([-np.inf])) if return_history else weights
        E, row_max = E[live], row_max[live]
    gains = [] if return_history else None
    # A score of -1e308 less a row maximum of 1e308 overflows to -inf, and
    # exp gives the 0 that a score so far below the row's best rounds to.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        A = np.exp(E - row_max[:, None])
        w, gap = _certified_fit(A, gap_tol, max_iter, gains)
    if gap > gap_tol:
        warnings.warn(
            f"optimize_pool_weights stopped after {max_iter} iterates at a "
            f"duality gap of {gap:.3g} nats, above gap_tol={gap_tol:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    weights = PoolWeights(w)
    if return_history:
        start = A @ np.full(k, 1.0 / k)
        trace = [float(np.log(start).sum()) / len(A) + float(np.mean(row_max))]
        for gain in gains:
            trace.append(trace[-1] + gain)
        return weights, np.array(trace)
    return weights


def _certified_fit(A: np.ndarray, gap_tol: float, max_iter: int, gains: list | None):
    """The iterates of ``optimize_pool_weights`` on its shifted live rows: ``(w, gap)``.

    ``A`` is an (n, K) block, n >= 1, of rows ``exp(E_t - max_t E_t)``
    with no row all zero.  Starting from exactly ``1/K``, the iterates run
    until the duality gap is at most ``gap_tol`` or ``max_iter`` of them
    have run; ``w`` is the last one, an unchecked array, and ``gap`` its
    certificate.  Each iterate's gain in ``f`` is appended to ``gains``
    when that is a list.  The caller holds the ``np.errstate``.
    """
    k = A.shape[1]
    w = [1.0 / k] * k
    iterates = 0
    pooled = A.dot(np.array(w))
    g = _gradient(A, pooled)
    while (gap := math.log(_top(g))) > gap_tol and iterates < max_iter:
        step = _squarem_step if iterates < _SQUAREM_ITERATES else _newton_step
        w, gain = step(A, w, pooled, g)
        pooled = A.dot(np.array(w))
        g = _gradient(A, pooled)
        iterates += 1
        if gains is not None:
            gains.append(gain)
    return np.array(w), gap


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
    return pooled_rows(weights.values, E)


def local_opt_weights(history: History, point, width: float) -> PoolWeights:
    """Log-score-optimal weights fit only to records inside the caliper.

    An empty neighbourhood leaves nothing to optimise and falls back to
    equal weights.  This is ``PoolQuery.local_opt`` with one width.
    """
    return PoolWeights(PoolQuery(history, point, (width,)).local_opt()[0])


class PoolQuery:
    """The pool weights of every grid cell at one point, sharing the work.

    Each rule returns a (cells, K) array of weights, width-major; a query
    with one width and one scaling is a grid of one.  The calipers of
    every width come from one distance pass (``distances``), and each
    distinct block of history rows is fitted once: calipers around one
    point are nested, so a neighbour count names its rows, and a caliper
    holding every record holds the block ``global_opt`` fits.  A query
    belongs to one state of its history; rules that need no caliper
    ignore the point and the grids.
    """

    def __init__(self, history: History, point=None, widths=(), scalings=()) -> None:
        self.history = history
        self.point = point
        self.widths = tuple(widths)
        self.scalings = tuple(scalings)
        self._fits: dict[int, np.ndarray] = {}
        self._whole: dict[int, np.ndarray] = {}

    def at(self, point, widths, scalings=()) -> PoolQuery:
        """A query of the same history at ``point`` that shares the whole-history fit.

        Only that block is shared: a neighbour count names its rows only
        around one point, but a caliper holding every record holds the
        same block around any point.
        """
        query = PoolQuery(self.history, point, widths, scalings)
        query._whole = self._whole
        return query

    @cached_property
    def distances(self) -> np.ndarray:
        """``History.distances`` of the point: the query's one distance pass."""
        return self.history.distances(self.point)

    def caliper_grid(self, widths) -> tuple[list[np.ndarray], np.ndarray]:
        """Caliper rows and per-expert average log scores for every width.

        Returns the row indices inside each caliper, cut from ``distances``,
        and a (widths, K) array whose row ``j`` averages the expert scores
        over ``widths[j]``'s rows (zeros when it holds none).
        """
        neighbors = caliper_rows(self.distances, widths)
        return neighbors, _caliper_means(self.history, neighbors)

    @cached_property
    def calipers(self) -> tuple[list[np.ndarray], np.ndarray]:
        """``caliper_grid`` over the query's widths."""
        return self.caliper_grid(self.widths)

    def equal(self) -> np.ndarray:
        k = self.history.n_experts
        return np.full((1, k), 1.0 / k)

    def softmax(self) -> np.ndarray:
        neighbors, estimates = self.calipers
        return softmax_grid([idx.size for idx in neighbors], estimates, self.scalings)

    def global_opt(self) -> np.ndarray:
        return self._fit(np.arange(len(self.history)))[None, :]

    def local_opt(self) -> np.ndarray:
        return np.array([self._fit(idx) for idx in self.calipers[0]])

    def _fit(self, rows: np.ndarray) -> np.ndarray:
        """``optimize_pool_weights`` on the history's ``rows``; 1/K on none.

        The optimizer drops dead rows itself.  The cached weights are
        read-only, as ``PoolWeights.values`` are.
        """
        whole = rows.size == len(self.history)
        fits = self._whole if whole else self._fits
        if rows.size not in fits:
            if rows.size == 0:
                weights = self.equal()[0]
                weights.flags.writeable = False
            else:
                # The whole history needs no gather.
                scores = self.history.score_matrix
                weights = optimize_pool_weights(scores if whole else scores[rows]).values
            fits[rows.size] = weights
        return fits[rows.size]


def _caliper_means(history: History, neighbors) -> np.ndarray:
    """Per-expert average log scores over each caliper's rows, zeros on none.

    Calipers around one point are nested, so two with the same neighbour
    count hold the same rows and share one average.
    """
    scores = history.score_matrix
    estimates = np.zeros((len(neighbors), history.n_experts))
    means: dict[int, np.ndarray] = {}
    # Scores of size near 1e308 can sum to an infinite mean, and one that
    # then meets a -inf score to NaN, settled to -inf below; the softmax
    # takes an estimate of -inf or +inf as it is.
    with np.errstate(over="ignore", invalid="ignore"):
        for row, idx in zip(estimates, neighbors):
            if idx.size:
                if idx.size not in means:
                    if idx.size == len(scores):
                        # The history's running sums; no gather.
                        means[idx.size] = history._score_means()
                    else:
                        # ``mean(axis=0)``'s own sum and division, bitwise,
                        # without its wrapper.
                        means[idx.size] = np.add.reduce(scores[idx], axis=0) / idx.size
                row[:] = means[idx.size]
    return settle_score_sums(estimates)
