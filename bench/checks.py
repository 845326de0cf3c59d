"""Output checkers: recompute the program's results apart from it.

Nothing here imports localpools or compares against a stored copy of an
earlier output.  Each checker reads the artifacts of one CLI call, recomputes
what it can from the inputs with plain numpy and scipy, tests the properties
the method promises, and returns a list of failures (empty when all hold).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import special, stats

# Simplex contract of the package: weights sum to one within this.
SUM_TOL = 1e-12
# Recomputed pooled scores, weights and totals must agree to this (absolute).
VALUE_TOL = 1e-9
# Every reported global_opt / local_opt weight vector must be this close to
# optimal, certified by the duality gap log max_k mean_t(A_tk / A_t.w) over
# the rows it was fitted to.  The optimizer stops on a 1e-10 relative change
# in the objective, which leaves gaps of about 1e-5 nats.
GAP_TOL = 1e-4
# Dumped expert scores must match the batch conjugate regression to this.
NIG_TOL = 1e-7
# Quadrature truth (package: 64-node Gauss-Hermite; here: Gauss-Legendre).
QUAD_TOL = 1e-8
LEGENDRE_NODES, LEGENDRE_WEIGHTS = np.polynomial.legendre.leggauss(512)
QUAD_HALF_WIDTH = 14.0

# The package's diffuse prior for its built-in regression experts.
PRIOR_PRECISION, PRIOR_A, PRIOR_B = 1e-6, 0.01, 0.01
# Built-in expert name -> the one covariate it sees.
BUILTIN_EXPERTS = {"expert_x1": 0, "expert_x2": 1}
# The simulated process: y = x1 + x2 + N(0, 1) noise, x ~ N(0, I_2).
DGP_COEFFICIENTS = np.array([1.0, 1.0])
DGP_NOISE_SD = 1.0
DEGENERATE_STD = 1e-12


# -- reading -----------------------------------------------------------------


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty")
    return rows[0], rows[1:]


def read_stream(path: Path) -> dict:
    """A score CSV (t, y, z_1.., lp_<name>..) as arrays."""
    header, rows = read_table(path)
    d = sum(1 for h in header if h.startswith("z_"))
    names = [h[3:] for h in header if h.startswith("lp_")]
    data = np.array([[float(v) for v in row] for row in rows])
    return {
        "t": data[:, 0].astype(int),
        "y": data[:, 1],
        "z": data[:, 2 : 2 + d],
        "lp": data[:, 2 + d : 2 + d + len(names)],
        "names": names,
    }


# -- method pieces, written out afresh ---------------------------------------------


def standardized_distances(points: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Distance to every row, in units of the rows' own mean and sd."""
    mean = points.mean(axis=0)
    sd = points.std(axis=0)
    sd = np.where(sd < DEGENERATE_STD, 1.0, sd)
    return np.sqrt((((points - mean) / sd - (target - mean) / sd) ** 2).sum(axis=1))


def caliper_softmax(scores: np.ndarray, inside: np.ndarray, factor_of) -> np.ndarray:
    """Softmax of factor x in-caliper mean score; an empty caliper has mean 0."""
    k = scores.shape[1]
    count = int(inside.sum())
    factor = factor_of(count)
    if factor == 0.0:
        return np.full(k, 1.0 / k)
    scaled = factor * (scores[inside].mean(axis=0) if count else np.zeros(k))
    tilt = np.exp(scaled - scaled.max())
    return tilt / tilt.sum()


def scaling_factor(label: str):
    if label == "natural":
        return float
    if label.startswith("tau="):
        tau = float(label[4:])
        return lambda count: tau
    raise ValueError(f"unknown scaling label {label!r}")


def duality_gap(scores: np.ndarray, w: np.ndarray) -> float:
    """log max_k mean_t(A_tk / A_t.w) >= f* - f(w) for the mean pooled log score."""
    A = np.exp(scores - scores.max(axis=1, keepdims=True))
    return float(np.log((A / (A @ w)[:, None]).mean(axis=0).max()))


def nig_fit(X: np.ndarray, y: np.ndarray):
    """Batch conjugate update of the diffuse prior: (m, P, a, b)."""
    p = X.shape[1]
    P = PRIOR_PRECISION * np.eye(p) + X.T @ X
    m = np.linalg.solve(P, X.T @ y)
    return m, P, PRIOR_A + 0.5 * len(y), PRIOR_B + 0.5 * (y @ y - m @ P @ m)


def nig_predictive(m, P, a, b, x):
    """Student-t predictive (dof, loc, scale) at design row(s) x."""
    x = np.atleast_2d(x)
    leverage = np.einsum("ij,ji->i", x, np.linalg.solve(P, x.T))
    return 2.0 * a, x @ m, np.sqrt(b / a * (1.0 + leverage))


def expected_log_score(log_density, mean: float, sd: float) -> float:
    """E log p(Y) for Y ~ N(mean, sd^2), by a 512-node Gauss-Legendre rule on
    mean +- 14 sd; ``log_density`` takes an array."""
    u = QUAD_HALF_WIDTH * LEGENDRE_NODES
    density = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return float(QUAD_HALF_WIDTH * np.sum(LEGENDRE_WEIGHTS * density * log_density(mean + sd * u)))


# -- evaluate ----------------------------------------------------------------


def check_evaluate(out_dir: Path, stream: dict, *, warmup: int, history: int,
                   schemes: list[str], widths: list[float], scalings: list[str]) -> list[str]:
    """steps.csv and summary.json of one ``evaluate`` call, against its input stream."""
    fails: list[str] = []
    header, rows = read_table(out_dir / "steps.csv")
    names = stream["names"]
    k, d = len(names), stream["z"].shape[1]
    local = [s for s in schemes if s in ("local_softmax", "local_opt")]
    expected = ["t", "y"] + [f"z_{j + 1}" for j in range(d)] + [f"lp_{n}" for n in names]
    expected += [f"pooled_{s}" for s in schemes]
    for s in schemes:
        expected += [f"w_{s}_{n}" for n in names]
    expected += [f"width_{s}" for s in local]
    if "local_softmax" in schemes:
        expected.append("scaling_local_softmax")
    if header != expected:
        return [f"steps.csv header {header} != {expected}"]
    start = warmup + history
    if len(rows) != len(stream["t"]) - start:
        return [f"steps.csv has {len(rows)} rows, expected {len(stream['t']) - start}"]
    col = {name: i for i, name in enumerate(header)}

    def column(name):
        return np.array([float(row[col[name]]) for row in rows])

    given = np.column_stack(
        [column("t"), column("y")] + [column(f"z_{j + 1}") for j in range(d)]
        + [column(f"lp_{n}") for n in names]
    )
    source = np.column_stack([stream["t"], stream["y"], stream["z"], stream["lp"]])[start:]
    if not np.array_equal(given, source):
        fails.append("steps.csv inputs differ from the scored stream")

    lp = stream["lp"][start:]
    weights = {s: np.column_stack([column(f"w_{s}_{n}") for n in names]) for s in schemes}
    for s, w in weights.items():
        if (w < 0).any():
            fails.append(f"{s}: negative weight")
        worst = max(abs(math.fsum(row) - 1.0) for row in w.tolist())
        if worst > SUM_TOL:
            fails.append(f"{s}: weights sum off 1 by {worst:.3g}")
        pooled = column(f"pooled_{s}")
        recomputed = special.logsumexp(lp, b=w, axis=1)
        err = np.max(np.abs(pooled - recomputed))
        if not err <= VALUE_TOL:
            fails.append(f"{s}: pooled score differs from log sum w exp(lp) by {err:.3g}")
    if "equal" in weights and not (weights["equal"] == 1.0 / k).all():
        fails.append("equal: weights are not exactly 1/K")

    summary = json.loads((out_dir / "summary.json").read_text())
    for s in schemes:
        total = sum(column(f"pooled_{s}").tolist())
        got = summary["total_log_score"].get(s)
        if got is None or not abs(got - total) <= VALUE_TOL:
            fails.append(f"summary total for {s} is {got}, steps sum to {total!r}")
    facts = {
        "n_reported_steps": len(rows),
        "first_time_index": int(stream["t"][start]),
        "last_time_index": int(stream["t"][-1]),
        "schemes": list(schemes),
        "expert_names": list(names),
    }
    for key, value in facts.items():
        if summary.get(key) != value:
            fails.append(f"summary {key} is {summary.get(key)!r}, expected {value!r}")

    # Weights at step i use only the records before it: rows warmup .. t-1.
    width_of = {s: column(f"width_{s}") for s in local}
    labels = [row[col["scaling_local_softmax"]] for row in rows] if "local_softmax" in schemes else []
    off_grid = [f"{s}: widths {sorted(set(width_of[s].tolist()) - set(widths))} are not in the grid"
                for s in local if set(width_of[s].tolist()) - set(widths)]
    if set(labels) - set(scalings):
        off_grid.append(f"local_softmax: scalings {sorted(set(labels) - set(scalings))} are not in the grid")
    if off_grid:
        return fails + off_grid
    softmax_err = 0.0
    gaps = {s: 0.0 for s in ("global_opt", "local_opt") if s in schemes}
    for i in range(len(rows)):
        t = start + i
        past_z, past_lp = stream["z"][warmup:t], stream["lp"][warmup:t]
        dist = standardized_distances(past_z, stream["z"][t]) if t > warmup else np.empty(0)
        if "local_softmax" in schemes:
            inside = dist <= width_of["local_softmax"][i]
            w = caliper_softmax(past_lp, inside, scaling_factor(labels[i]))
            softmax_err = max(softmax_err, np.max(np.abs(w - weights["local_softmax"][i])))
        fitted = {}
        if "global_opt" in schemes:
            fitted["global_opt"] = past_lp
        if "local_opt" in schemes:
            fitted["local_opt"] = past_lp[dist <= width_of["local_opt"][i]]
        for s, block in fitted.items():
            w = weights[s][i]
            if len(block) == 0:
                if not (w == 1.0 / k).all():
                    fails.append(f"{s}: step {i} has no rows but weights are not 1/K")
            else:
                gaps[s] = max(gaps[s], duality_gap(block, w))
    if not softmax_err <= VALUE_TOL:
        fails.append(f"local_softmax: weights off the caliper softmax by up to {softmax_err:.3g}")
    for s, gap in gaps.items():
        if not gap <= GAP_TOL:
            fails.append(f"{s}: duality gap {gap:.3g} nats exceeds {GAP_TOL:g}")
    return fails


def check_nig_scores(stream: dict) -> list[str]:
    """Dumped expert scores against the conjugate regression refit from scratch.

    At step t each built-in expert's score is the Student-t predictive of the
    diffuse-prior regression on rows 0..t-1, evaluated by scipy.stats.t.
    """
    fails = []
    y, z = stream["y"], stream["z"]
    n = len(y)
    for k, name in enumerate(stream["names"]):
        if name not in BUILTIN_EXPERTS:
            return [f"unknown built-in expert {name!r}"]
        X = np.column_stack([np.ones(n), z[:, BUILTIN_EXPERTS[name]]])
        # Sufficient statistics of rows strictly before each step.
        xx = np.concatenate([np.zeros((1, 2, 2)), np.cumsum(X[:, :, None] * X[:, None, :], axis=0)[:-1]])
        xy = np.concatenate([np.zeros((1, 2)), np.cumsum(X * y[:, None], axis=0)[:-1]])
        yy = np.concatenate([[0.0], np.cumsum(y * y)[:-1]])
        P = PRIOR_PRECISION * np.eye(2) + xx
        m = np.linalg.solve(P, xy[:, :, None])[:, :, 0]
        a = PRIOR_A + 0.5 * np.arange(n)
        b = PRIOR_B + 0.5 * (yy - np.einsum("ti,tij,tj->t", m, P, m))
        leverage = np.einsum("ti,ti->t", X, np.linalg.solve(P, X[:, :, None])[:, :, 0])
        expected = stats.t.logpdf(
            y, 2.0 * a, loc=np.einsum("ti,ti->t", X, m), scale=np.sqrt(b / a * (1.0 + leverage))
        )
        err = np.abs(expected - stream["lp"][:, k])
        if not err.max() <= NIG_TOL:
            t = int(np.argmax(err))
            fails.append(f"{name}: dumped score at step {t} off the conjugate regression by {err[t]:.3g}")
    return fails


# -- simulate --study both ---------------------------------------------------


def polarization_rate(n_history: int, threshold: float = 0.99) -> float:
    """Closed-form share of replications whose all-data softmax passes ``threshold``.

    Natural scaling gives w1 / w2 = exp(S), S the summed per-record score gap
    between the two experts; S is near-normal with mean 0 (the process is
    symmetric) and per-record variance 1 - sigma^4 / s^4, s^2 = c^2 + sigma^2.
    """
    s2 = DGP_COEFFICIENTS[0] ** 2 + DGP_NOISE_SD**2
    variance = 1.0 - DGP_NOISE_SD**4 / s2**2
    bar = math.log(threshold / (1.0 - threshold))
    return float(2.0 * stats.norm.cdf(-bar / math.sqrt(n_history * variance)))


def replication_data(seed: int, replications: int, r: int, sample_size: int):
    """Replication r of the simulated process: its own spawned seed sequence,
    covariates drawn first, then the noise."""
    child = np.random.SeedSequence(seed).spawn(replications)[r]
    rng = np.random.default_rng(child)
    x = rng.standard_normal((sample_size, len(DGP_COEFFICIENTS)))
    y = x @ DGP_COEFFICIENTS + DGP_NOISE_SD * rng.standard_normal(sample_size)
    return x, y


def refit_replication(seed, replications, r, sample_size, train_fraction=0.5):
    """Fit each built-in expert on the first part, score the held-out rest."""
    x, y = replication_data(seed, replications, r, sample_size)
    n_train = int(round(train_fraction * sample_size))
    experts, held = [], []
    for k in sorted(BUILTIN_EXPERTS.values()):
        X = np.column_stack([np.ones(sample_size), x[:, k]])
        post = nig_fit(X[:n_train], y[:n_train])
        experts.append((k, post))
        held.append(stats.t.logpdf(y[n_train:], *nig_predictive(*post, X[n_train:])))
    return x[n_train:], np.column_stack(held), experts


def predictive_at(post, k, point):
    dof, loc, scale = nig_predictive(*post, np.array([1.0, point[k]]))
    return stats.t(dof, loc=loc[0], scale=scale[0])


def check_studies(out_dir: Path, *, seed: int, replications: int, sample_size: int,
                  sampled: tuple[int, ...]) -> list[str]:
    """Artifacts of ``simulate --study both``: method properties, plus a refit
    of the sampled replications."""
    fails: list[str] = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    points = [np.array(p, dtype=float) for p in manifest["query_points"]]
    n_history = sample_size - int(round(0.5 * sample_size))

    # Error study: neighbour counts never fall as the width grows.
    error_rows = {}
    for i, point in enumerate(points):
        header, rows = read_table(out_dir / manifest["files"][f"error_study_{i}"])
        if header != ["replication", "width", "expert", "error", "neighbor_count", "true_elpd"]:
            return [f"error study {i}: header {header}"]
        counts: dict[int, dict[float, set]] = {}
        for r, width, expert, error, count, truth in rows:
            counts.setdefault(int(r), {}).setdefault(float(width), set()).add(int(count))
            error_rows[(i, int(r), float(width), expert)] = (float(error), int(count), float(truth))
        if len(counts) != replications:
            fails.append(f"error study {i}: {len(counts)} replications, expected {replications}")
        for r, by_width in counts.items():
            if any(len(c) != 1 for c in by_width.values()):
                fails.append(f"error study {i}: replication {r} experts disagree on a neighbour count")
                break
            series = [next(iter(by_width[w])) for w in sorted(by_width)]
            if any(b < a for a, b in zip(series, series[1:])):
                fails.append(f"error study {i}: replication {r} neighbour counts fall as width grows: {series}")
                break

    # Pool study: at (2, 0) the local pool beats both benchmarks at the narrowest width.
    header, rows = read_table(out_dir / manifest["files"]["pool_study"])
    d = len(points[0])
    pool = {}
    for row in rows:
        key = (int(row[0]), row[1], float(row[2]), tuple(float(v) for v in row[3 : 3 + d]))
        pool[key] = float(row[3 + d])
    widths = sorted({key[2] for key in pool})
    off_centre = (2.0, 0.0)
    narrow = {
        s: np.mean([v for key, v in pool.items() if key[1] == s and key[2] == widths[0] and key[3] == off_centre])
        for s in ("local_softmax", "equal", "global_opt")
    }
    if not (narrow["local_softmax"] > narrow["equal"] and narrow["local_softmax"] > narrow["global_opt"]):
        fails.append(f"pool study at (2,0), width {widths[0]:g}: local_softmax does not beat both: {narrow}")

    # Polarization: share above 0.99 within 3 binomial SEs of the closed form.
    _, rows = read_table(out_dir / manifest["files"]["polarization"])
    max_weight = np.array([float(row[1]) for row in rows])
    p_star = polarization_rate(n_history)
    se = math.sqrt(p_star * (1.0 - p_star) / len(max_weight))
    share = float(np.mean(max_weight > 0.99))
    if len(max_weight) != replications or not abs(share - p_star) <= 3.0 * se:
        fails.append(f"polarization share {share:.3f} outside {p_star:.3f} +- 3 x {se:.3f}")

    # Refit the sampled replications from their seeds and recompute every number.
    names = {k: name for name, k in BUILTIN_EXPERTS.items()}
    for r in sampled:
        z_held, held, experts = refit_replication(seed, replications, r, sample_size)
        all_data = n_history * held.mean(axis=0)
        top = np.exp(all_data - all_data.max())
        if not abs(top.max() / top.sum() - max_weight[r]) <= VALUE_TOL:
            fails.append(f"polarization: replication {r} max weight {max_weight[r]!r} != {top.max() / top.sum()!r}")
        for i, point in enumerate(points):
            predictive = [predictive_at(post, k, point) for k, post in experts]
            mean = float(DGP_COEFFICIENTS @ point)
            dist = standardized_distances(z_held, point)
            error_widths = sorted({w for (i2, _, w, _) in error_rows if i2 == i})
            for k, dens in enumerate(predictive):
                truth = expected_log_score(dens.logpdf, mean, DGP_NOISE_SD)
                for width in error_widths:
                    row = error_rows.get((i, r, width, names[k]))
                    if row is None:
                        fails.append(f"error study {i}: no row for replication {r}, width {width:g}, {names[k]}")
                        continue
                    error, count, reported = row
                    inside = dist <= width
                    estimate = held[inside, k].mean() if inside.any() else 0.0
                    if count != int(inside.sum()):
                        fails.append(f"error study {i}: replication {r} width {width:g} count {count} != {int(inside.sum())}")
                    if not abs(reported - truth) <= QUAD_TOL or not abs(error - (estimate - truth)) <= QUAD_TOL:
                        fails.append(f"error study {i}: replication {r} width {width:g} {names[k]} off the refit")

            def pooled(w):
                return expected_log_score(
                    lambda y: special.logsumexp([dens.logpdf(y) for dens in predictive], b=w[:, None], axis=0),
                    mean, DGP_NOISE_SD)

            k = len(predictive)
            expected = {("equal", width): np.full(k, 1.0 / k) for width in widths}
            for width in widths:
                expected[("local_softmax", width)] = caliper_softmax(held, dist <= width, float)
            for (s, width), w in expected.items():
                key = (r, s, width, tuple(point))
                if key not in pool:
                    fails.append(f"pool study: no row for replication {r}, {s}, width {width:g} at {point.tolist()}")
                elif not abs(pool[key] - pooled(w)) <= QUAD_TOL:
                    fails.append(f"pool study: replication {r} {s} width {width:g} at {point.tolist()} off the refit")
    return fails
