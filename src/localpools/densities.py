"""Univariate predictive distributions and stable log-domain pooling.

Everything downstream works with log densities, so the arithmetic here is
deliberately defensive: sums of exponentials are always max-subtracted,
log densities of exactly-zero density are ``-inf`` (never NaN), and a
weighted combination of identical log densities reproduces them bit for bit.

Only ``student_t_log_pdf`` needs scipy (``gammaln`` for the normaliser), and
it imports it at its first call, so a run that only pools existing score
rows never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PoolWeights",
    "check_simplex_rows",
    "PredictiveDensity",
    "StudentT",
    "Mixture",
    "pooled_rows",
    "student_t_log_pdf",
]

# Simplex membership is enforced to this absolute tolerance on the sum.
WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PoolWeights:
    """A point on the unit simplex: one nonnegative weight per expert.

    The vector is validated on construction (finite, each entry in [0, 1],
    sum within ``WEIGHT_SUM_TOL`` of one) and frozen so that a weight vector
    can be shared between pools without defensive copies.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("weights must form a nonempty 1-D vector")
        check_simplex_rows(values[None, :])
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, index):
        return self.values[index]


def check_simplex_rows(rows: np.ndarray) -> None:
    """Raise ``ValueError`` unless every row of a 2-D array is a simplex point.

    A row must be finite, lie entrywise in [0, 1] and sum to one within
    ``WEIGHT_SUM_TOL``.  ``PoolWeights`` checks its vector here as a row of
    one; the evaluation harness checks every grid cell of a step at once.
    """
    # The extremes answer both entrywise checks at once: a NaN or infinite
    # entry makes one of them fail the range too.
    if rows.size and not (rows.min() >= 0.0 and rows.max() <= 1.0):
        if not np.isfinite(rows).all():
            raise ValueError("weights must be finite")
        raise ValueError("each weight must lie in [0, 1]")
    totals = _row_reduce(np.add, rows)
    off = np.abs(totals - 1.0) > WEIGHT_SUM_TOL
    if off.any():
        raise ValueError(
            f"weights must sum to 1 within {WEIGHT_SUM_TOL:g}; got {float(totals[off.argmax()])!r}"
        )


class PredictiveDensity:
    """Base class for one-dimensional predictive distributions."""

    def log_density(self, y):
        """Log density at ``y`` (scalar or array); ``-inf`` where density is 0."""
        raise NotImplementedError


def _validate_finite_scalar(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def student_t_log_pdf(z, log_scale, dof: float):
    """Student-t log density at standardised residuals ``z``, vectorised.

    Callers take ``log_scale`` themselves: ``math.log`` and ``np.log`` can
    differ in the last bit, and each caller keeps the one it always used.
    scipy is imported here, at the first call, not with the package, so
    commands that only read score CSVs never load it.  ``math.lgamma``
    would need no scipy but differs from ``gammaln`` in the last bit at
    some half-integers.
    """
    from scipy.special import gammaln

    return (
        gammaln(0.5 * (dof + 1.0))
        - gammaln(0.5 * dof)
        - 0.5 * math.log(dof * math.pi)
        - log_scale
        - 0.5 * (dof + 1.0) * np.log1p(z * z / dof)
    )


@dataclass(frozen=True)
class StudentT(PredictiveDensity):
    """Location-scale Student-t with ``dof`` degrees of freedom."""

    location: float
    scale: float
    dof: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", _validate_finite_scalar("location", self.location))
        object.__setattr__(self, "scale", _validate_finite_scalar("scale", self.scale))
        object.__setattr__(self, "dof", _validate_finite_scalar("dof", self.dof))
        if self.scale <= 0.0:
            raise ValueError(f"scale must be > 0, got {self.scale!r}")
        if self.dof <= 0.0:
            raise ValueError(f"dof must be > 0, got {self.dof!r}")

    def log_density(self, y):
        z = (np.asarray(y, dtype=float) - self.location) / self.scale
        out = student_t_log_pdf(z, math.log(self.scale), self.dof)
        return float(out) if np.ndim(y) == 0 else out


@dataclass(frozen=True, eq=False)
class Mixture(PredictiveDensity):
    """Finite mixture of predictive densities with simplex weights."""

    weights: PoolWeights
    components: tuple[PredictiveDensity, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.weights, PoolWeights):
            object.__setattr__(self, "weights", PoolWeights(np.asarray(self.weights, dtype=float)))
        components = tuple(self.components)
        if len(components) != len(self.weights):
            raise ValueError(
                f"got {len(self.weights)} weights for {len(components)} components"
            )
        for c in components:
            if not isinstance(c, PredictiveDensity):
                raise TypeError(f"mixture component {c!r} is not a PredictiveDensity")
        object.__setattr__(self, "components", components)

    def log_density(self, y):
        w = self.weights.values
        active = np.flatnonzero(w > 0.0)
        arr = np.asarray(y, dtype=float)
        # Zero-weight components are skipped entirely.
        stacked = np.stack(
            [np.atleast_1d(self.components[k].log_density(arr)) for k in active]
        )
        out = pooled_rows(w[active], stacked.T)
        if np.ndim(y) == 0:
            return float(out[0])
        return out


def pooled_rows(weights: np.ndarray, log_scores: np.ndarray) -> np.ndarray:
    """``log(sum_k w_k exp(lp_k) / sum_k w_k)`` for each row, unchecked.

    ``weights`` and ``log_scores`` broadcast to (..., K), a row per
    leading index: one weight vector against many score rows, one score
    row against many weight vectors, or (cells, 1, K) weights against
    (rows, K) scores for every pair.  The row maximum and both sums run
    over the positive weights only: a zero weight is masked to ``-inf``
    before the maximum, so an expert the pool ignores cannot set the
    shift (and underflow the others' terms to 0), and it adds an exact 0
    to each sum.  A row whose weighted experts all score ``-inf`` pools
    to ``-inf``.  Dividing by the weight sum (one up to rounding) makes a
    row of identical log values ``c`` come back as exactly ``c``.
    """
    w, lp = np.broadcast_arrays(weights, log_scores)
    lp = np.where(w > 0.0, lp, -np.inf)
    top = _row_reduce(np.maximum, lp)
    shift = np.where(top > -np.inf, top, 0.0)
    # log(0) on rows that pool to -inf; a score of -1e308 less a shift of
    # 1e308 overflows to -inf, whose term is the exact 0 it would round to.
    with np.errstate(divide="ignore", over="ignore"):
        total = _row_reduce(np.add, w * np.exp(lp - shift[..., None]))
        return top + (np.log(total) - np.log(_row_reduce(np.add, w)))


def _row_reduce(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1)`` for ``np.add`` or ``np.maximum``, bitwise.

    Along fewer than eight columns NumPy adds one column at a time, left to
    right, from +0.0; so does this, with one call per column instead of
    NumPy's slow path for short rows.  ``np.maximum`` is exact in any order
    and passes NaN on as ``np.max`` does.  From eight columns on NumPy sums
    pairwise, and this is ``ufunc.reduce`` itself.  ``tests/test_densities.py``
    pins both facts.
    """
    if x.shape[-1] >= 8:
        return ufunc.reduce(x, axis=-1)
    # The one-column reduce: +0.0 plus the entry for a sum, the entry for a maximum.
    out = ufunc.reduce(x[..., :1], axis=-1)
    for j in range(1, x.shape[-1]):
        out = ufunc(out, x[..., j])
    return out


def _in_order_sum(values) -> float:
    """Left-to-right sum of floats from 0.0, ``np.add.reduce``'s order below eight.

    ``np.sum`` of more is pairwise, and builtin ``sum`` is compensated from
    Python 3.12; each rounds differently.
    """
    total = 0.0
    for value in values:
        total += value
    return total
