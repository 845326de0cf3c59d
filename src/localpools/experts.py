"""Conjugate Bayesian linear-regression experts.

The built-in expert is a normal-inverse-gamma (NIG) regression

    beta | s2  ~  N(m, s2 * P^{-1}),      s2 ~ InvGamma(a, b),

carried in precision form ``(m, P, a, b)``.  Conditioning on a design row
``x`` with outcome ``y`` updates the posterior in closed form:

    P' = P + x x',      m' = P'^{-1} (P m + x y),
    a' = a + 1/2,       b' = b + (y^2 + m' P m - m'' P' m') / 2,

(with the batch generalisation summing over rows), and the one-step-ahead
predictive is Student-t:

    y | x  ~  t_{2a}( x'm,  sqrt(b/a * (1 + x' P^{-1} x)) ).

A posterior a user builds is checked in full, its precision by a Cholesky
factorisation.  ``nig_update`` checks its observations; the posterior it
derives is checked only for overflow and a rate rounded to zero or below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .densities import StudentT, student_t_log_pdf

__all__ = [
    "NigPosterior",
    "diffuse_nig",
    "design_vector",
    "design_matrix",
    "nig_update",
    "nig_predictive",
    "nig_log_scores",
]

_SYMMETRY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class NigPosterior:
    """Normal-inverse-gamma posterior over regression coefficients and noise.

    Parameters
    ----------
    coefficient_mean : np.ndarray, shape (p,)
        Posterior mean of the coefficients (leading entry is the intercept).
    precision_matrix : np.ndarray, shape (p, p)
        Symmetric positive-definite coefficient precision (scaled by 1/s2).
    shape_a, rate_b : float
        Inverse-gamma parameters of the noise variance; both > 0.
    covariate_indices : tuple of int
        Which raw covariates this expert observes.  The design vector is
        ``[1, x[i] for i in covariate_indices]``; an expert never reads a
        covariate outside its indices.
    """

    coefficient_mean: np.ndarray
    precision_matrix: np.ndarray
    shape_a: float
    rate_b: float
    covariate_indices: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        m = np.array(self.coefficient_mean, dtype=float)
        P = np.array(self.precision_matrix, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("coefficient_mean must be a nonempty 1-D vector")
        if P.shape != (m.size, m.size):
            raise ValueError(
                f"precision_matrix shape {P.shape} does not match {m.size} coefficients"
            )
        if not (float(self.shape_a) > 0.0 and math.isfinite(float(self.shape_a))):
            raise ValueError(f"shape_a must be a finite positive real, got {self.shape_a!r}")
        indices = tuple(int(i) for i in self.covariate_indices)
        if any(i < 0 for i in indices):
            raise ValueError("covariate indices must be nonnegative")
        if len(indices) != m.size - 1:
            raise ValueError(
                f"{len(indices)} covariate indices imply {len(indices) + 1} coefficients "
                f"(intercept included), got {m.size}"
            )
        _settle(self, m, P, float(self.shape_a), float(self.rate_b), indices)
        # What nig_update's posteriors have by construction, checked here only.
        if np.max(np.abs(P - P.T)) > _SYMMETRY_TOL * max(1.0, np.max(np.abs(P))):
            raise ValueError("precision_matrix must be symmetric")
        try:
            np.linalg.cholesky(P)
        except np.linalg.LinAlgError:
            raise ValueError("precision_matrix must be positive definite") from None

    @property
    def n_coefficients(self) -> int:
        return self.coefficient_mean.size


def _settle(post: NigPosterior, m, P, a: float, b: float, indices) -> None:
    """Set ``post``'s fields from fresh arrays, refusing what arithmetic can break.

    Both ways to build a posterior end here, so both refuse it with one message.
    """
    if not (np.isfinite(m).all() and np.isfinite(P).all()):
        raise ValueError("posterior parameters must be finite")
    if not (b > 0.0 and math.isfinite(b)):
        raise ValueError(f"rate_b must be a finite positive real, got {b!r}")
    m.flags.writeable = False
    P.flags.writeable = False
    post.__dict__.update(
        coefficient_mean=m, precision_matrix=P, shape_a=a, rate_b=b, covariate_indices=indices
    )


def diffuse_nig(
    covariate_indices: tuple[int, ...],
    *,
    prior_precision: float = 1e-6,
    shape_a: float = 0.01,
    rate_b: float = 0.01,
) -> NigPosterior:
    """Near-flat NIG prior: zero mean, precision ``prior_precision * I``."""
    p = len(tuple(covariate_indices)) + 1
    return NigPosterior(
        coefficient_mean=np.zeros(p),
        precision_matrix=prior_precision * np.eye(p),
        shape_a=shape_a,
        rate_b=rate_b,
        covariate_indices=tuple(covariate_indices),
    )


def design_vector(posterior: NigPosterior, covariates) -> np.ndarray:
    """Design row ``[1, covariates[i] for i in posterior.covariate_indices]``."""
    x = np.asarray(covariates, dtype=float)
    if x.ndim != 1:
        raise ValueError("covariates must form a 1-D vector")
    return np.concatenate(([1.0], x[list(posterior.covariate_indices)]))


def design_matrix(posterior: NigPosterior, covariates) -> np.ndarray:
    """Stacked design rows for a (n, m) matrix of raw covariates."""
    x = np.asarray(covariates, dtype=float)
    if x.ndim != 2:
        raise ValueError("covariates must form a 2-D matrix")
    return np.column_stack([np.ones(x.shape[0]), x[:, list(posterior.covariate_indices)]])


def nig_update(posterior: NigPosterior, x, y) -> NigPosterior:
    """Condition the posterior on one observation or a batch.

    ``x`` is a design vector of length p (or an (n, p) matrix) whose leading
    entry/column is the intercept 1; ``y`` is the matching scalar (or
    (n,) vector).  Returns a new posterior; the input is untouched.
    Updating on a batch equals updating sequentially in any order, up to
    floating-point roundoff.
    """
    X = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
        yv = yv.reshape(-1)
        if yv.size != 1:
            raise ValueError("scalar design row requires a scalar outcome")
    elif X.ndim == 2:
        yv = yv.reshape(-1)
        if yv.size != X.shape[0]:
            raise ValueError(f"got {X.shape[0]} design rows but {yv.size} outcomes")
    else:
        raise ValueError("design must be a vector or matrix")
    if X.shape[1] != posterior.n_coefficients:
        raise ValueError(
            f"design width {X.shape[1]} does not match {posterior.n_coefficients} coefficients"
        )
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(yv))):
        raise ValueError("observations must be finite")

    P0 = posterior.precision_matrix
    m0 = posterior.coefficient_mean
    P1 = P0 + X.T @ X
    P1 = 0.5 * (P1 + P1.T)
    m1 = np.linalg.solve(P1, P0 @ m0 + X.T @ yv)
    a1 = posterior.shape_a + 0.5 * yv.size
    b1 = posterior.rate_b + 0.5 * (yv @ yv + m0 @ P0 @ m0 - m1 @ P1 @ m1)
    # P1 is symmetric positive definite by construction: no copies, no factorisation.
    out = object.__new__(NigPosterior)
    _settle(out, m1, P1, float(a1), float(b1), posterior.covariate_indices)
    return out


def nig_predictive(posterior: NigPosterior, x) -> StudentT:
    """One-step-ahead Student-t predictive at design vector ``x``."""
    xv = np.asarray(x, dtype=float)
    if xv.ndim != 1 or xv.size != posterior.n_coefficients:
        raise ValueError(
            f"design vector must have length {posterior.n_coefficients}, got shape {xv.shape}"
        )
    if not np.all(np.isfinite(xv)):
        raise ValueError("design vector must be finite")
    location = float(xv @ posterior.coefficient_mean)
    leverage = float(xv @ np.linalg.solve(posterior.precision_matrix, xv))
    scale = math.sqrt(posterior.rate_b / posterior.shape_a * (1.0 + leverage))
    return StudentT(location=location, scale=scale, dof=2.0 * posterior.shape_a)


def nig_log_scores(posterior: NigPosterior, X, y) -> np.ndarray:
    """Predictive log densities at many (design row, outcome) pairs at once.

    Equivalent to ``nig_predictive(post, X[i]).log_density(y[i])`` for each
    row, vectorised for scoring long held-out stretches.
    """
    Xm = np.asarray(X, dtype=float)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if Xm.ndim != 2 or Xm.shape[0] != yv.size:
        raise ValueError("X must be (n, p) with one outcome per row")
    location = Xm @ posterior.coefficient_mean
    leverage = np.einsum(
        "ij,ji->i", Xm, np.linalg.solve(posterior.precision_matrix, Xm.T)
    )
    scale = np.sqrt(posterior.rate_b / posterior.shape_a * (1.0 + leverage))
    dof = 2.0 * posterior.shape_a
    return student_t_log_pdf((yv - location) / scale, np.log(scale), dof)
