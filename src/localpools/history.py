"""Append-only record of scored predictions, indexed by pooling point.

``History`` is the substrate the local skill estimates are built on: each
entry pairs the point in pooling space at which a prediction was issued
with every expert's realised log predictive score.  Neighbourhood lookups
standardise coordinates by the history's own per-dimension mean and
standard deviation, so calipers are expressed in comparable units
regardless of covariate scale.

``check_records`` and ``check_widths`` hold the record rules and the
caliper-width rule; every entry point that takes records or widths calls them.
``settle_score_sums`` holds the one rule for sums of log scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import _row_reduce

__all__ = [
    "PredictionRecord", "History", "RecordError", "caliper_rows", "check_records", "check_widths",
    "settle_score_sums",
]

# A pooling dimension that never varies carries no distance information;
# dividing by its (near-)zero spread would blow every distance up to inf.
# The spread of a constant column is rounding noise that grows with the
# column's magnitude, so the threshold is relative to its largest entry
# (floored at 1).
_DEGENERATE_STD = 1e-12


class RecordError(ValueError):
    """A record rule's refusal, naming the first record it refuses.

    That record is row ``row`` of the ``check_records`` argument ``field``
    ("times", "points", "outcomes" or "scores"), in ``column`` if it is 2-D.
    """

    def __init__(self, message: str, row: int, field: str, column: int | None = None) -> None:
        super().__init__(message)
        self.row, self.field, self.column = row, field, column


def _require(ok: np.ndarray, field: str, message: str) -> None:
    """Refuse the first record (row-major) at which ``ok`` is False."""
    if not ok.all():
        at = np.unravel_index(np.argmin(ok), ok.shape)
        raise RecordError(message, int(at[0]), field, int(at[1]) if ok.ndim == 2 else None)


def _late(time, last, row: int) -> RecordError:
    message = f"time_index {time} not after last recorded {last}; records must be sorted by time"
    return RecordError(message, row, "times")


def settle_score_sums(sums: np.ndarray) -> np.ndarray:
    """Sums of log scores, each NaN set to the ``-inf`` it stands for (in place).

    Scores are NaN-free and below ``+inf``, so a sum taken in order is NaN
    only where a total that overflowed to ``+inf`` met a ``-inf`` score,
    and the exact sum is then ``-inf``.  Sum with NumPy's ``invalid``
    warning off, then settle here.
    """
    return np.fmax(sums, -np.inf, out=sums)


def check_records(times, points, outcomes, scores):
    """Check a block of records against every record rule; return fresh read-only arrays.

    Row ``i`` of ``times`` (n,), ``points`` (n, d), ``outcomes`` (n,) and ``scores``
    (n, K) is record ``i``.  A ``-inf`` score is legal; a fractional time, or one
    beyond int64, is refused.  A refused record raises ``RecordError``.
    """
    times = np.asarray(times).reshape(-1)
    points = np.array(points, dtype=float)
    outcomes = np.array(outcomes, dtype=float).reshape(-1)
    scores = np.array(scores, dtype=float)
    if points.ndim != 2 or scores.ndim != 2:
        raise ValueError("points and scores must be 2-D, one row per record")
    if not (points.shape[0] == outcomes.size == scores.shape[0] == times.size):
        raise ValueError("times, points, outcomes and scores need one row per record")
    if times.size == 0:
        raise ValueError("a block needs at least one record")
    if points.shape[1] == 0:
        raise ValueError("need at least one pooling dimension")
    if scores.shape[1] == 0:
        raise ValueError("need at least one expert")
    _require(np.isfinite(points), "points", "pooling_point must be finite")
    _require(np.isfinite(outcomes), "outcomes", "outcome must be finite")
    # NaN fails the comparison too.
    _require(scores < np.inf, "scores", "log_scores must be NaN-free and below +inf")
    if times.dtype.kind == "i":
        times = times.astype(int)
    else:
        # NaN, inf and times beyond int64 fall outside; Python ints that large
        # arrive as an object array.
        inside = (times >= -(2.0**63)) & (times < 2.0**63)
        whole = np.where(inside, times, 0).astype(int)
        integral = inside & (whole == times)
        if not integral.all():
            i = int(np.argmin(integral))
            message = f"time_index must be an integer, got {float(times[i])!r}; times are int64"
            raise RecordError(message, i, "times")
        times = whole
    if times.size > 1:
        late = np.flatnonzero(times[1:] <= times[:-1])
        if late.size:
            i = int(late[0]) + 1
            raise _late(times[i], times[i - 1], i)
    for array in (times, points, outcomes, scores):
        array.flags.writeable = False
    return times, points, outcomes, scores


@dataclass(frozen=True, eq=False)
class PredictionRecord:
    """One scored prediction (a checked block of one): where it was made, how each expert did."""

    time_index: int
    pooling_point: np.ndarray
    outcome: float
    log_scores: np.ndarray

    def __post_init__(self) -> None:
        times, points, outcomes, scores = check_records(
            self.time_index,
            np.reshape(self.pooling_point, (1, -1)),
            self.outcome,
            np.reshape(self.log_scores, (1, -1)),
        )
        object.__setattr__(self, "time_index", int(times[0]))
        object.__setattr__(self, "pooling_point", points[0])
        object.__setattr__(self, "outcome", float(outcomes[0]))
        object.__setattr__(self, "log_scores", scores[0])


class History:
    """Time-ordered scored predictions with caliper neighbourhood queries.

    Records are held as four read-only arrays (times, pooling points,
    outcomes, expert scores) and a live flag per row, each a view of the
    first n rows of a buffer that doubles its capacity when full.  Growth
    writes rows only past every view already handed out, so an array read
    earlier never changes.  Appends must carry
    strictly increasing ``time_index`` values and a consistent pooling
    dimension / expert count.  Standardisation moments are recomputed
    whenever the history grows.
    """

    def __init__(self, n_pooling_dims: int, n_experts: int) -> None:
        if n_pooling_dims < 1:
            raise ValueError("need at least one pooling dimension")
        if n_experts < 1:
            raise ValueError("need at least one expert")
        self._n_dims = int(n_pooling_dims)
        self._n_experts = int(n_experts)
        self._buffers = (
            np.empty(0, dtype=int),
            np.empty((0, self._n_dims)),
            np.empty(0),
            np.empty((0, self._n_experts)),
            np.empty(0, dtype=bool),
        )
        self._times, self._points, self._outcomes, self._scores, self._live = self._buffers
        # Running column sums of the points and the scores; None while
        # empty, and for one column, which NumPy sums pairwise.
        self._point_sums = self._score_sums = None
        self._mean = np.zeros(self._n_dims)
        self._std = np.ones(self._n_dims)
        # The points less their mean, which the spread and ``distances`` share.
        self._centred = self._points
        # Largest magnitude per column (floored at 1), kept as a running max.
        self._magnitude = np.ones(self._n_dims)

    # -- growth -------------------------------------------------------

    def append(self, record: PredictionRecord) -> None:
        """Add one record after the last; ``PredictionRecord`` has checked its values."""
        self._add_block(
            np.array([record.time_index]),
            record.pooling_point[None, :],
            np.array([record.outcome]),
            record.log_scores[None, :],
        )

    @classmethod
    def from_arrays(cls, times, points, outcomes, scores) -> "History":
        """A history holding one block of records, checked by ``check_records``."""
        times, points, outcomes, scores = check_records(times, points, outcomes, scores)
        out = cls(points.shape[1], scores.shape[1])
        out._add_block(times, points, outcomes, scores)
        return out

    def _add_block(self, times, points, outcomes, scores) -> None:
        """Append rows ``check_records`` has passed and refresh the moments.

        Every growth passes here, so this checks the rows against the history:
        its dimensions and experts, and a first time after the last recorded one.
        """
        if points.shape[1] != self._n_dims:
            raise ValueError(
                f"pooling point has {points.shape[1]} dims, history expects {self._n_dims}"
            )
        if scores.shape[1] != self._n_experts:
            raise ValueError(
                f"record scores {scores.shape[1]} experts, history expects {self._n_experts}"
            )
        n = len(self)
        if n and times[0] <= self._times[-1]:
            raise _late(times[0], self._times[-1], 0)
        # A row on which every expert scores -inf is dead: every pool
        # scores -inf there, so it cannot rank pools or weights.
        live = _row_reduce(np.maximum, scores) > -np.inf
        blocks = (times, points, outcomes, scores, live)
        self._buffers = tuple(_grow(buf, n, block) for buf, block in zip(self._buffers, blocks))
        views = tuple(buf[: n + len(times)] for buf in self._buffers)
        for view in views:
            view.flags.writeable = False
        self._times, self._points, self._outcomes, self._scores, self._live = views
        start, n = n, n + len(times)
        # NumPy sums two or more C-ordered columns along axis 0 row by row,
        # which is the order of running sums; one column it sums pairwise.
        # The sums run over the rows as written to the buffers, not over
        # the caller's block, which may be laid out column by column.
        if self._n_dims > 1:
            self._point_sums = _running_sums(self._point_sums, self._points[start:])
            self._mean = self._point_sums / n
        else:
            self._mean = np.add.reduce(self._points, axis=0) / n
        if self._n_experts > 1:
            # As ``_caliper_means`` sums: an overflow or inf - inf is settled
            # where the sums are read.
            with np.errstate(over="ignore", invalid="ignore"):
                self._score_sums = _running_sums(self._score_sums, self._scores[start:])
        # np.std's own arithmetic, from the mean just taken instead of a second one.
        self._centred = self._points - self._mean
        std = np.sqrt(np.add.reduce(np.square(self._centred), axis=0) / n)
        self._magnitude = np.maximum(self._magnitude, np.abs(points).max(axis=0))
        self._std = np.where(std < _DEGENERATE_STD * self._magnitude, 1.0, std)

    def _score_means(self) -> np.ndarray:
        """Per-expert mean log score over every row, settled: bitwise
        ``settle_score_sums(score_matrix.mean(axis=0))``.  Not on an empty history."""
        sums = self._score_sums
        if sums is None:
            with np.errstate(over="ignore", invalid="ignore"):
                sums = np.add.reduce(self._scores, axis=0)
        return settle_score_sums(sums / len(self))

    # -- views --------------------------------------------------------

    def __len__(self) -> int:
        return self._times.size

    @property
    def n_pooling_dims(self) -> int:
        return self._n_dims

    @property
    def n_experts(self) -> int:
        return self._n_experts

    @property
    def time_indices(self) -> np.ndarray:
        return self._times

    @property
    def pooling_points(self) -> np.ndarray:
        """(n, d) read-only matrix of pooling points."""
        return self._points

    @property
    def score_matrix(self) -> np.ndarray:
        """(n, K) read-only matrix of realised expert log scores."""
        return self._scores

    @property
    def outcomes(self) -> np.ndarray:
        return self._outcomes

    @property
    def live_rows(self) -> np.ndarray:
        """(n,) read-only mask of the rows on which some expert scores above -inf."""
        return self._live

    # -- standardisation and neighbourhoods ----------------------------

    def standardize(self, point) -> np.ndarray:
        """Map a pooling point into the history's standardised coordinates."""
        z = np.asarray(point, dtype=float).reshape(-1)
        if z.size != self._n_dims:
            raise ValueError(f"point has {z.size} dims, history expects {self._n_dims}")
        return (z - self._mean) / self._std

    def distances(self, point) -> np.ndarray:
        """Standardised Euclidean distance from ``point`` to every record."""
        if len(self) == 0:
            return np.empty(0)
        target = self.standardize(point)
        diff = self._centred / self._std
        diff -= target
        return np.sqrt(_row_reduce(np.add, np.square(diff, out=diff)))

    def caliper_neighbors(self, point, width: float) -> np.ndarray:
        """Row indices whose standardised distance to ``point`` is <= width.

        The boundary is inclusive: a record exactly ``width`` away counts.
        """
        return caliper_rows(self.distances(point), (width,))[0]


def _grow(buffer: np.ndarray, n: int, block: np.ndarray) -> np.ndarray:
    """``buffer`` with ``block`` written from row ``n``, moved to a buffer of
    double capacity when it is full; rows before ``n`` are never written."""
    if n + len(block) > len(buffer):
        larger = np.empty((max(2 * len(buffer), n + len(block)), *buffer.shape[1:]), buffer.dtype)
        larger[:n] = buffer[:n]
        buffer = larger
    buffer[n : n + len(block)] = block
    return buffer


def _running_sums(sums, block: np.ndarray) -> np.ndarray:
    """Column sums of the rows summed so far (``sums``, None for none) and ``block``.

    ``np.add.reduce(axis=0)`` of all the rows at once, bitwise, when there
    are two or more columns and ``block`` is C-ordered: NumPy adds such rows
    one at a time.
    """
    if sums is None:
        return np.add.reduce(block, axis=0)
    for row in block:
        sums = sums + row
    return sums


def caliper_rows(dist: np.ndarray, widths) -> list[np.ndarray]:
    """Indices of the entries of ``dist`` at most each width away (inclusive).

    ``dist`` is one ``History.distances`` pass; this is how every caliper
    is cut from it.
    """
    return [np.nonzero(dist <= width)[0] for width in check_widths(widths)]


def check_widths(widths) -> tuple[float, ...]:
    """The caliper widths as floats; raise ``ValueError`` unless each is positive (``inf`` is)."""
    widths = tuple(map(float, widths))
    for width in widths:
        if not width > 0.0:
            raise ValueError(f"caliper widths must be positive, got {width!r}")
    return widths
