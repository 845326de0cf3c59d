"""Reading and writing the on-disk artefacts: score CSVs, results, configs.

The score CSV is the neutral interchange format for externally produced
experts: one row per time step with header ``t, y, z_1..z_d,
lp_<name1>..lp_<nameK>``.  Reals are serialised with 17 significant
digits so a write-then-read round-trip is lossless for doubles.  The
parser is strict — anything the writer would not produce is rejected
with an error naming the offending line and column.

Result emission produces three files per evaluation run: a per-step CSV
(scores, weights, and chosen hyperparameters per scheme), a summary JSON
with the per-scheme totals, and a manifest echoing the configuration and
seed so the run can be reproduced byte for byte.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .evaluation import SCHEMES, EvaluationResult, EvaluationStream
from .pools import NATURAL, FixedScaling
from .simulation import ErrorStudyResult, PoolStudyResult

__all__ = [
    "ScoreCsvError",
    "load_score_csv",
    "write_score_csv",
    "emit_results",
    "write_error_study_csv",
    "write_pool_study_csv",
    "write_polarization_csv",
    "read_config_file",
    "parse_scaling_token",
    "parse_width_grid",
    "parse_scaling_grid",
    "format_real",
]

ARTIFACT_VERSION = 1


class ScoreCsvError(ValueError):
    """A score CSV violated the format; the message names the first offence."""


def format_real(value: float) -> str:
    """17-significant-digit decimal text; lossless for double precision."""
    return f"{float(value):.17g}"


# -- score CSV ----------------------------------------------------------


def _parse_header(header: list[str], path: str) -> tuple[int, tuple[str, ...]]:
    if len(header) < 4 or header[0] != "t" or header[1] != "y":
        raise ScoreCsvError(
            f"{path}: header must start with 't, y, z_1, ..., lp_<name>, ...'; "
            f"got {header[:4]}"
        )
    i = 2
    n_dims = 0
    while i < len(header) and header[i] == f"z_{n_dims + 1}":
        n_dims += 1
        i += 1
    if n_dims == 0:
        raise ScoreCsvError(f"{path}: no pooling columns ('z_1', ...) after 't, y'")
    names: list[str] = []
    while i < len(header) and header[i].startswith("lp_"):
        names.append(header[i][3:])
        i += 1
    if not names:
        raise ScoreCsvError(f"{path}: no expert score columns ('lp_<name>')")
    if i != len(header):
        raise ScoreCsvError(f"{path}: unexpected column {header[i]!r} in header")
    if len(set(names)) != len(names):
        raise ScoreCsvError(f"{path}: duplicate expert names in header")
    return n_dims, tuple(names)


def _parse_cell(
    text: str, path: str, line_no: int, column: str, *, score: bool = False
) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ScoreCsvError(
            f"{path}: line {line_no}, column {column!r}: not a number: {text!r}"
        ) from None
    if math.isnan(value):
        raise ScoreCsvError(f"{path}: line {line_no}, column {column!r}: NaN cell")
    if score:
        if value == math.inf:
            raise ScoreCsvError(
                f"{path}: line {line_no}, column {column!r}: log score is +inf"
            )
    elif not math.isfinite(value):
        raise ScoreCsvError(
            f"{path}: line {line_no}, column {column!r}: non-finite value"
        )
    return value


def load_score_csv(path) -> EvaluationStream:
    """Parse a score CSV into an evaluation-ready stream.

    Enforces the exact writer format: full header, rectangular rows,
    integer strictly-increasing ``t``, finite ``y`` and pooling
    coordinates, and NaN-free log scores below +inf.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ScoreCsvError(f"{path}: empty file") from None
        n_dims, names = _parse_header([h.strip() for h in header], str(path))
        n_cols = 2 + n_dims + len(names)

        times: list[int] = []
        outcomes: list[float] = []
        points: list[list[float]] = []
        scores: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != n_cols:
                raise ScoreCsvError(
                    f"{path}: line {line_no}: expected {n_cols} cells, got {len(row)}"
                )
            t_val = _parse_cell(row[0], str(path), line_no, "t")
            if t_val != int(t_val):
                raise ScoreCsvError(
                    f"{path}: line {line_no}, column 't': not an integer: {row[0]!r}"
                )
            t = int(t_val)
            if times and t <= times[-1]:
                raise ScoreCsvError(
                    f"{path}: line {line_no}, column 't': {t} is not after {times[-1]}; "
                    "rows must be sorted by t"
                )
            times.append(t)
            outcomes.append(_parse_cell(row[1], str(path), line_no, "y"))
            points.append(
                [
                    _parse_cell(row[2 + j], str(path), line_no, f"z_{j + 1}")
                    for j in range(n_dims)
                ]
            )
            scores.append(
                [
                    _parse_cell(
                        row[2 + n_dims + k],
                        str(path),
                        line_no,
                        f"lp_{names[k]}",
                        score=True,
                    )
                    for k in range(len(names))
                ]
            )
    if not times:
        raise ScoreCsvError(f"{path}: no data rows")
    return EvaluationStream(
        pooling_points=np.array(points),
        outcomes=np.array(outcomes),
        log_scores=np.array(scores),
        expert_names=names,
        time_indices=np.array(times),
    )


def write_score_csv(path, stream: EvaluationStream) -> Path:
    """Write a stream in the exact format ``load_score_csv`` accepts."""
    path = Path(path)
    d = stream.n_pooling_dims
    header = (
        ["t", "y"]
        + [f"z_{j + 1}" for j in range(d)]
        + [f"lp_{name}" for name in stream.expert_names]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(stream.n_steps):
            writer.writerow(
                [str(int(stream.time_indices[i])), format_real(stream.outcomes[i])]
                + [format_real(v) for v in stream.pooling_points[i]]
                + [format_real(v) for v in stream.log_scores[i]]
            )
    return path


# -- evaluation results --------------------------------------------------


def emit_results(result: EvaluationResult, output_dir, *, metadata=None) -> dict[str, Path]:
    """Write steps.csv, summary.json, and manifest.json for one run.

    A steps.csv row joins a reported step's history row (time, outcome,
    point, expert scores) with each scheme's reported arrays and the
    (width, scaling) entry of its chosen cell.
    """
    times = result.reported_times.tolist()
    if not times:
        raise ValueError("no reported steps to emit")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    schemes = result.config.schemes
    names = result.expert_names
    history = result.history
    reported = slice(result.config.history_size, None)
    outcomes = history.outcomes[reported]
    points = history.pooling_points[reported]
    expert_scores = history.score_matrix[reported]
    chosen = {
        s: [result.cells[s][pick] for pick in result.chosen_cells[s].tolist()]
        for s in schemes
    }

    width_schemes = [s for s in schemes if "width" in SCHEMES[s].axes]
    scaling_schemes = [s for s in schemes if "scaling" in SCHEMES[s].axes]
    header = ["t", "y"] + [f"z_{j + 1}" for j in range(history.n_pooling_dims)]
    header += [f"lp_{n}" for n in names]
    header += [f"pooled_{s}" for s in schemes]
    for s in schemes:
        header += [f"w_{s}_{n}" for n in names]
    header += [f"width_{s}" for s in width_schemes]
    header += [f"scaling_{s}" for s in scaling_schemes]

    steps_path = out / "steps.csv"
    with open(steps_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, t in enumerate(times):
            row = [str(t), format_real(outcomes[i])]
            row += [format_real(v) for v in points[i]]
            row += [format_real(v) for v in expert_scores[i]]
            row += [format_real(result.pooled_log_scores[s][i]) for s in schemes]
            for s in schemes:
                row += [format_real(v) for v in result.weights[s][i]]
            row += [format_real(chosen[s][i][0]) for s in width_schemes]
            row += [chosen[s][i][1].label() for s in scaling_schemes]
            writer.writerow(row)

    summary_path = out / "summary.json"
    summary = {
        "total_log_score": result.totals(),
        "n_reported_steps": len(times),
        "first_time_index": times[0],
        "last_time_index": times[-1],
        "schemes": list(schemes),
        "expert_names": list(names),
    }
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    manifest_path = out / "manifest.json"
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "package": {"name": "localpools", "version": __version__},
        "config": {
            "warmup_size": result.config.warmup_size,
            "history_size": result.config.history_size,
            "width_grid": [format_real(w) for w in result.config.width_grid],
            "scaling_grid": [s.label() for s in result.config.scaling_grid],
            "schemes": list(schemes),
            "seed": result.config.seed,
        },
        "metadata": dict(metadata or {}),
        "files": {"steps": steps_path.name, "summary": summary_path.name},
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"steps": steps_path, "summary": summary_path, "manifest": manifest_path}


# -- study results -------------------------------------------------------


def write_error_study_csv(path, result: ErrorStudyResult) -> Path:
    """Tidy rows: one per (replication, width, expert)."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["replication", "width", "expert", "error", "neighbor_count", "true_elpd"]
        )
        for r in range(result.errors.shape[0]):
            for w, width in enumerate(result.width_grid):
                for k, name in enumerate(result.expert_names):
                    writer.writerow(
                        [
                            str(r),
                            format_real(width),
                            name,
                            format_real(result.errors[r, w, k]),
                            str(int(result.neighbor_counts[r, w])),
                            format_real(result.true_elpd[r, k]),
                        ]
                    )
    return path


def write_pool_study_csv(path, result: PoolStudyResult) -> Path:
    """Tidy rows: one per (replication, query point, scheme, width)."""
    path = Path(path)
    d = result.query_points.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["replication", "scheme", "width"]
            + [f"z_{j + 1}" for j in range(d)]
            + ["expected_log_score"]
        )
        for r in range(result.scores.shape[0]):
            for m in range(result.query_points.shape[0]):
                for s, scheme in enumerate(result.schemes):
                    for w, width in enumerate(result.width_grid):
                        writer.writerow(
                            [str(r), scheme, format_real(width)]
                            + [format_real(v) for v in result.query_points[m]]
                            + [format_real(result.scores[r, m, s, w])]
                        )
    return path


def write_polarization_csv(path, result: PoolStudyResult) -> Path:
    """All-data natural-softmax max weight, one row per replication."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replication", "max_weight"])
        for r, value in enumerate(result.full_data_max_weight):
            writer.writerow([str(r), format_real(value)])
    return path


# -- configuration -------------------------------------------------------


def read_config_file(path) -> dict[str, dict[str, str]]:
    """Flat sectioned key-value config (INI syntax) as nested dicts."""
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    return {section: dict(parser.items(section)) for section in parser.sections()}


def parse_scaling_token(token: str):
    """'natural' or a nonnegative real temperature."""
    token = token.strip().lower()
    if token == "natural":
        return NATURAL
    try:
        return FixedScaling(float(token))
    except ValueError:
        raise ValueError(
            f"scaling must be 'natural' or a nonnegative real, got {token!r}"
        ) from None


def parse_width_grid(text: str) -> tuple[float, ...]:
    """Comma-separated positive reals; 'inf' is allowed."""
    try:
        widths = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"bad width grid: {text!r}") from None
    if not widths:
        raise ValueError("width grid is empty")
    return widths


def parse_scaling_grid(text: str) -> tuple:
    """Comma-separated scaling tokens ('natural' or temperatures)."""
    rules = tuple(
        parse_scaling_token(tok) for tok in text.split(",") if tok.strip()
    )
    if not rules:
        raise ValueError("scaling grid is empty")
    return rules
