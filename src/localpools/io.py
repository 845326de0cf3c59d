"""Reading and writing the on-disk artefacts: score CSVs, results, configs.

Every file the package writes goes through one of two writers:
``write_csv`` (a header and rows, LF line ends, minimal quoting) and
``write_json`` (two-space indent, sorted keys, a final newline, the text
of ``json_text``).  Both write UTF-8 whatever the locale, and the
score-CSV loader and the config reader read UTF-8, so an artefact's bytes
do not depend on the locale it was written under.

The score CSV is the neutral interchange format for externally produced
experts: one row per time step with header ``t, y, z_1..z_d,
lp_<name1>..lp_<nameK>``.  Reals are serialised with 17 significant
digits so a write-then-read round-trip is lossless for doubles.  The
reader takes any cell Python's ``float()`` reads, more than the writer
produces; the record rules of ``history.check_records`` then apply, and
an error names the offending line and column.

Result emission produces three files per evaluation run: a per-step CSV
(scores, weights, and chosen hyperparameters per scheme), a summary JSON
with the per-scheme totals, and a manifest echoing the configuration and
seed so the run can be reproduced byte for byte.
"""

from __future__ import annotations

import configparser
import csv
import json
from io import StringIO
from pathlib import Path

import numpy as np

from . import __version__
from .evaluation import SCHEMES, EvaluationResult, EvaluationStream
from .history import RecordError
from .pools import NATURAL, FixedScaling
from .simulation import ErrorStudyResult, PoolStudyResult

__all__ = [
    "ScoreCsvError",
    "write_csv",
    "write_json",
    "json_text",
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


def write_csv(path, header, rows) -> Path:
    """Write ``header`` then each row of ``rows`` (lists of cell text) as UTF-8 CSV."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def json_text(payload) -> str:
    """The JSON layout of every artefact: indent 2, sorted keys, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload) -> Path:
    """Write ``json_text(payload)`` as UTF-8."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(json_text(payload))
    return path


# -- score CSV ----------------------------------------------------------


def _parse_header(header: list[str], path: str) -> tuple[int, tuple[str, ...]]:
    if len(header) < 4 or header[0] != "t" or header[1] != "y":
        raise ScoreCsvError(
            f"{path}: header must start with 't, y, z_1, ..., lp_<name>, ...'; "
            f"got {header[:4]}"
        )
    n_dims = 0
    while 2 + n_dims < len(header) and header[2 + n_dims] == f"z_{n_dims + 1}":
        n_dims += 1
    if n_dims == 0:
        raise ScoreCsvError(f"{path}: no pooling columns ('z_1', ...) after 't, y'")
    columns = header[2 + n_dims :]
    if not columns or not columns[0].startswith("lp_"):
        raise ScoreCsvError(f"{path}: no expert score columns ('lp_<name>')")
    stray = [c for c in columns if not c.startswith("lp_")]
    if stray:
        raise ScoreCsvError(f"{path}: unexpected column {stray[0]!r} in header")
    names = tuple(c[3:] for c in columns)
    if len(set(names)) != len(names):
        raise ScoreCsvError(f"{path}: duplicate expert names in header")
    return n_dims, names


def _read_utf8(path: Path, error: type[ValueError]) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 raises ``error`` naming its line."""
    # Decoded whole, so a bad byte can be traced to its line.
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line_no}: not UTF-8 text: byte 0x{raw[exc.start]:02x}") from None


def load_score_csv(path) -> EvaluationStream:
    """Parse a score CSV into an evaluation-ready stream.

    The loader checks the header, rectangular rows and that Python's
    ``float()`` reads every cell (so ``1_0``, `` 0.5 `` and ``-Infinity``
    are numbers too).  ``EvaluationStream`` then applies the record rules;
    a refusal names the record's line and column.
    """
    path = Path(path)
    reader = csv.reader(StringIO(_read_utf8(path, ScoreCsvError), newline=""))
    try:
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ScoreCsvError(f"{path}: empty file") from None
        n_dims, names = _parse_header(header, str(path))
        cells: list[float] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ScoreCsvError(
                    f"{path}: line {line_no}: expected {len(header)} cells, got {len(row)}"
                )
            for column, text in zip(header, row):
                try:
                    cells.append(float(text))
                except ValueError:
                    raise ScoreCsvError(
                        f"{path}: line {line_no}, column {column!r}: not a number: {text!r}"
                    ) from None
    except csv.Error as exc:
        # Raised, for one, by a cell longer than the csv module's field limit.
        raise ScoreCsvError(f"{path}: line {reader.line_num}: {exc}") from None
    if not cells:
        raise ScoreCsvError(f"{path}: no data rows")
    table = np.array(cells).reshape(-1, len(header))
    try:
        return EvaluationStream(
            pooling_points=table[:, 2 : 2 + n_dims],
            outcomes=table[:, 1],
            log_scores=table[:, 2 + n_dims :],
            expert_names=names,
            time_indices=table[:, 0],
        )
    except RecordError as exc:
        first = {"times": 0, "outcomes": 1, "points": 2, "scores": 2 + n_dims}[exc.field]
        column = header[first + (exc.column or 0)]
        raise ScoreCsvError(f"{path}: line {exc.row + 2}, column {column!r}: {exc}") from None


def _record_header(n_dims: int, names) -> list[str]:
    """The record columns ``t, y, z_1..z_d, lp_<name>..``: a score CSV's, steps.csv's first."""
    return ["t", "y", *(f"z_{j + 1}" for j in range(n_dims)), *(f"lp_{n}" for n in names)]


def _record_cells(t: int, y: float, point, scores) -> list[str]:
    """The cells of one record under ``_record_header``."""
    return [str(t), format_real(y), *map(format_real, point), *map(format_real, scores)]


def write_score_csv(path, stream: EvaluationStream) -> Path:
    """Write a stream in the exact format ``load_score_csv`` accepts."""
    header = _record_header(stream.n_pooling_dims, stream.expert_names)
    columns = (stream.time_indices.tolist(), stream.outcomes, stream.pooling_points, stream.log_scores)
    return write_csv(path, header, map(_record_cells, *columns))


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
    header = _record_header(history.n_pooling_dims, names)
    header += [f"pooled_{s}" for s in schemes]
    for s in schemes:
        header += [f"w_{s}_{n}" for n in names]
    header += [f"width_{s}" for s in width_schemes]
    header += [f"scaling_{s}" for s in scaling_schemes]

    def step_rows():
        for i, t in enumerate(times):
            row = _record_cells(t, outcomes[i], points[i], expert_scores[i])
            row += [format_real(result.pooled_log_scores[s][i]) for s in schemes]
            for s in schemes:
                row += [format_real(v) for v in result.weights[s][i]]
            row += [format_real(chosen[s][i][0]) for s in width_schemes]
            row += [chosen[s][i][1].label() for s in scaling_schemes]
            yield row

    steps_path = write_csv(out / "steps.csv", header, step_rows())
    summary = {
        "total_log_score": result.totals(),
        "n_reported_steps": len(times),
        "first_time_index": times[0],
        "last_time_index": times[-1],
        "schemes": list(schemes),
        "expert_names": list(names),
    }
    summary_path = write_json(out / "summary.json", summary)
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
    manifest_path = write_json(out / "manifest.json", manifest)
    return {"steps": steps_path, "summary": summary_path, "manifest": manifest_path}


# -- study results -------------------------------------------------------


def write_error_study_csv(path, result: ErrorStudyResult) -> Path:
    """Tidy rows: one per (replication, width, expert)."""
    rows = (
        [
            str(r),
            format_real(width),
            name,
            format_real(result.errors[r, w, k]),
            str(int(result.neighbor_counts[r, w])),
            format_real(result.true_elpd[r, k]),
        ]
        for r in range(result.errors.shape[0])
        for w, width in enumerate(result.width_grid)
        for k, name in enumerate(result.expert_names)
    )
    header = ["replication", "width", "expert", "error", "neighbor_count", "true_elpd"]
    return write_csv(path, header, rows)


def write_pool_study_csv(path, result: PoolStudyResult) -> Path:
    """Tidy rows: one per (replication, query point, scheme, width)."""
    d = result.query_points.shape[1]
    header = (
        ["replication", "scheme", "width"]
        + [f"z_{j + 1}" for j in range(d)]
        + ["expected_log_score"]
    )
    rows = (
        [str(r), scheme, format_real(width)]
        + [format_real(v) for v in result.query_points[m]]
        + [format_real(result.scores[r, m, s, w])]
        for r in range(result.scores.shape[0])
        for m in range(result.query_points.shape[0])
        for s, scheme in enumerate(result.schemes)
        for w, width in enumerate(result.width_grid)
    )
    return write_csv(path, header, rows)


def write_polarization_csv(path, result: PoolStudyResult) -> Path:
    """All-data natural-softmax max weight, one row per replication."""
    rows = (
        [str(r), format_real(value)] for r, value in enumerate(result.full_data_max_weight)
    )
    return write_csv(path, ["replication", "max_weight"], rows)


# -- configuration -------------------------------------------------------


def read_config_file(path) -> dict[str, dict[str, str]]:
    """Flat sectioned key-value config (INI syntax) as nested dicts.

    A file that is not UTF-8 text or not INI raises ``ValueError``
    naming the path, and the line where the parser gives one.
    """
    path = Path(path)
    # No header names a section holding a newline, so ``[DEFAULT]`` reads as
    # a section of its own, and its keys are not copied into every other.
    parser = configparser.ConfigParser(default_section="\n")
    try:
        # Universal newlines, as reading the file in text mode gives.
        parser.read_file(StringIO(_read_utf8(path, ValueError), newline=None), source=str(path))
        return {section: dict(parser.items(section)) for section in parser.sections()}
    except configparser.Error as exc:
        line, reason = getattr(exc, "lineno", None), exc.message
        if isinstance(exc, configparser.MissingSectionHeaderError):
            reason = "a key before the first [section] header"
        elif isinstance(exc, configparser.ParsingError):
            line, text = exc.errors[0]
            reason = f"not a [section] header or a key = value line: {text}"
        elif isinstance(exc, configparser.DuplicateOptionError):
            reason = f"duplicate key {exc.option!r} in section [{exc.section}]"
        elif isinstance(exc, configparser.DuplicateSectionError):
            reason = f"duplicate section [{exc.section}]"
        where = f"line {line}: " if line else ""
        raise ValueError(f"{path}: {where}{reason}") from None


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
