"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed, so the same seed
gives byte-identical inputs.  The program under test sees only what these
functions produce: a score CSV, or a ``--seed`` value for its own
simulation.
"""

from __future__ import annotations

import math

import numpy as np

# Score CSV of the softmax_csv workload: three pooling dimensions on very
# different scales (standardisation must equalise them), four experts whose
# skill varies over the pooling space.
CSV_DIMS = 3
CSV_EXPERTS = ("north", "south", "east", "west")
_DIM_CENTRE = np.array([0.0, 50.0, -3.0])
_DIM_SCALE = np.array([1.0, 20.0, 0.05])
# Direction (in standardised coordinates) along which each expert's bias
# grows; an expert is sharp where its direction meets the point head-on.
_EXPERT_AXES = np.array(
    [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]]
)


def program_seeds(seed: int, count: int) -> list[int]:
    """``count`` program seeds derived from the workload seed."""
    state = np.random.SeedSequence([int(seed), 0x5EED]).generate_state(count)
    return [int(v) for v in state]


def score_stream(seed: int, n_steps: int):
    """(t, y, z, log_scores) of a stream with locally varying expert skill.

    The outcome is a smooth function of the standardised point plus unit
    Gaussian noise.  Expert k predicts a Gaussian whose mean is off by a
    bias that grows along its own axis and whose spread widens with it,
    so each expert is best in a different region.  Every log score is
    finite.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC5F]))
    u = rng.standard_normal((n_steps, CSV_DIMS))
    z = _DIM_CENTRE + _DIM_SCALE * u
    y = np.sin(u[:, 0]) + 0.5 * u[:, 1] * u[:, 2] + rng.standard_normal(n_steps)
    reach = u @ _EXPERT_AXES.T / np.linalg.norm(_EXPERT_AXES, axis=1)
    bias = 1.5 * np.tanh(-reach)
    sd = 1.0 + 0.5 * np.log1p(np.exp(-reach))
    mean = np.sin(u[:, 0])[:, None] + 0.5 * (u[:, 1] * u[:, 2])[:, None] + bias
    resid = (y[:, None] - mean) / sd
    log_scores = -0.5 * (math.log(2.0 * math.pi) + resid**2) - np.log(sd)
    t = 1000 + 3 * np.arange(n_steps)
    return t, y, z, log_scores


def write_score_csv(path, seed: int, n_steps: int) -> None:
    """Write ``score_stream`` in the package's score-CSV format."""
    t, y, z, log_scores = score_stream(seed, n_steps)
    header = ["t", "y"] + [f"z_{j + 1}" for j in range(CSV_DIMS)]
    header += [f"lp_{name}" for name in CSV_EXPERTS]
    lines = [",".join(header)]
    for i in range(n_steps):
        cells = [str(int(t[i])), f"{y[i]:.17g}"]
        cells += [f"{v:.17g}" for v in z[i]]
        cells += [f"{v:.17g}" for v in log_scores[i]]
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
