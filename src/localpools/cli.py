"""Command-line interface.

Subcommands:

* ``simulate``   — run the replication studies and write tidy CSVs.
* ``evaluate``   — rolling evaluation over a score CSV or a simulated
                   stream with the built-in regression experts.
* ``gridsearch`` — same run, but report every grid cell's shadow-pool
                   totals instead of the per-step results.
* ``pool-once``  — weights at a single query point given a history file.

Each setting is one entry of ``_SETTINGS``: it comes from its flag, else
from its key in the optional config file (``--config``, INI syntax), else
from its default.  A key that no command reads is refused.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from .densities import PoolWeights
from .evaluation import (
    ALL_SCHEMES,
    DEFAULT_SCALING_GRID,
    DEFAULT_WIDTH_GRID,
    SCHEMES,
    EvaluationConfig,
    rolling_evaluate,
)
from .history import History, settle_score_sums
from .io import (
    emit_results,
    format_real,
    json_text,
    load_score_csv,
    parse_scaling_grid,
    parse_scaling_token,
    parse_width_grid,
    read_config_file,
    write_csv,
    write_error_study_csv,
    write_json,
    write_polarization_csv,
    write_pool_study_csv,
    write_score_csv,
)
from .pools import NATURAL, PoolQuery
from .simulation import (
    DEFAULT_ERROR_WIDTHS,
    DEFAULT_POOL_SCHEMES,
    DEFAULT_POOL_WIDTHS,
    DEFAULT_QUERY_POINTS,
    DgpConfig,
    generate_dgp,
    nig_evaluation_stream,
    replication_studies,
)


def _parse_points(text: str) -> tuple[tuple[float, ...], ...]:
    """Semicolon-separated points, comma-separated coordinates: '2,0;0,0'."""
    chunks = [chunk for chunk in text.split(";") if chunk.strip()]
    points = tuple(tuple(float(tok) for tok in chunk.split(",")) for chunk in chunks)
    if not points:
        raise ValueError(f"no query points in {text!r}")
    if len({len(p) for p in points}) != 1:
        raise ValueError("query points must share a dimension")
    return points


def _parse_schemes(text: str) -> tuple[str, ...]:
    """Comma-separated scheme names; ``check_schemes`` applies the scheme-list rule."""
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


_STUDIES = ("error", "pool", "both")


def _parse_study(text: str) -> str:
    if text not in _STUDIES:
        raise ValueError(f"unknown study {text!r}; valid: {', '.join(_STUDIES)}")
    return text


def _parse_bool(text) -> bool:
    """configparser's boolean words: 1/yes/true/on and 0/no/false/off."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[str(text).lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# Every setting a command reads, keyed by its INI (section, key): the flag
# (argparse dest) that sets it, its default, and the one parser that the
# flag's value and the INI string both go through.
_SETTINGS = {
    ("run", "seed"): ("seed", 0, int),
    ("run", "output_dir"): ("out", Path("results"), Path),
    ("dgp", "sample_size"): ("sample_size", 2000, int),
    ("dgp", "train_fraction"): ("train_fraction", 0.5, float),
    ("data", "scores_csv"): ("scores", None, str),
    ("data", "simulate"): ("simulate", False, _parse_bool),
    ("simulate", "study"): ("study", "both", _parse_study),
    ("simulate", "replications"): ("replications", 500, int),
    ("simulate", "query_points"): ("query_points", DEFAULT_QUERY_POINTS, _parse_points),
    ("simulate", "error_widths"): ("widths", DEFAULT_ERROR_WIDTHS, parse_width_grid),
    ("simulate", "pool_widths"): ("widths", DEFAULT_POOL_WIDTHS, parse_width_grid),
    ("simulate", "schemes"): ("schemes", DEFAULT_POOL_SCHEMES, _parse_schemes),
    ("evaluation", "warmup_size"): ("warmup", 200, int),
    ("evaluation", "history_size"): ("history", 200, int),
    ("evaluation", "width_grid"): ("widths", DEFAULT_WIDTH_GRID, parse_width_grid),
    ("evaluation", "scaling_grid"): ("scalings", DEFAULT_SCALING_GRID, parse_scaling_grid),
    ("evaluation", "schemes"): ("schemes", ALL_SCHEMES, _parse_schemes),
    ("query", "width"): ("width", 1.0, float),
    ("query", "scaling"): ("scaling", NATURAL, parse_scaling_token),
}


class _Settings:
    """A setting of ``_SETTINGS`` from its flag, else the config file, else its default."""

    def __init__(self, args) -> None:
        self.args = args
        self.sections = read_config_file(args.config) if args.config else {}
        for section, keys in self.sections.items():
            for key in keys:
                if (section, key) not in _SETTINGS:
                    raise ValueError(
                        f"{args.config}: no command reads key {key!r} in section [{section}]"
                    )

    def __getitem__(self, name: tuple[str, str]):
        flag, default, parse = _SETTINGS[name]
        value = getattr(self.args, flag)
        if value is not None:
            return parse(value)
        value = self.sections.get(name[0], {}).get(name[1])
        if value is None:
            return default
        try:
            return parse(value)
        except ValueError as exc:
            section, key = name
            raise ValueError(f"{self.args.config}: key {key!r} in section [{section}]: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localpools",
        description="Locally weighted linear pools of predictive distributions.",
    )
    parser.add_argument("--config", help="INI config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="replication studies on the synthetic process")
    sim.add_argument("--study", choices=_STUDIES)
    sim.add_argument("--replications", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--sample-size", type=int)
    sim.add_argument("--train-fraction", type=float)
    sim.add_argument("--widths", help="comma-separated caliper widths")
    sim.add_argument("--query-points", help="semicolon-separated points, e.g. '2,0;0,0'")
    sim.add_argument("--schemes", help="pool-study schemes, comma-separated")
    sim.add_argument("--out", help="output directory")

    for name, helptext in (
        ("evaluate", "rolling one-step-ahead evaluation"),
        ("gridsearch", "shadow-pool totals for every hyperparameter grid cell"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        src = cmd.add_mutually_exclusive_group()
        src.add_argument("--scores", help="score CSV with external experts")
        # None, not store_true's False, when unset, as for every other flag.
        src.add_argument(
            "--simulate",
            action="store_true",
            default=None,
            help="simulate data and score the built-in regression experts",
        )
        cmd.add_argument("--warmup", type=int)
        cmd.add_argument("--history", type=int)
        cmd.add_argument("--widths")
        cmd.add_argument("--scalings", help="e.g. '0.5,1,2,natural'")
        cmd.add_argument("--schemes")
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--sample-size", type=int)
        cmd.add_argument("--out")
        if name == "evaluate":
            cmd.add_argument("--dump-scores", help="also write the scored stream as a score CSV")

    once = sub.add_parser("pool-once", help="weights at one query point from a history file")
    once.add_argument("--scores", required=True, help="score CSV treated as the history")
    once.add_argument("--point", required=True, help="query point, e.g. '2,0'")
    once.add_argument("--width", type=float)
    once.add_argument("--scaling", help="'natural' or a temperature")
    once.add_argument("--out", help="JSON output path (default: stdout)")
    return parser


def _cmd_simulate(args, settings: _Settings) -> int:
    study = settings["simulate", "study"]
    replications = settings["simulate", "replications"]
    config = DgpConfig(sample_size=settings["dgp", "sample_size"], seed=settings["run", "seed"])
    train_fraction = settings["dgp", "train_fraction"]
    out = settings["run", "output_dir"]
    points = settings["simulate", "query_points"]
    error_widths = None if study == "pool" else settings["simulate", "error_widths"]
    pool_widths = None if study == "error" else settings["simulate", "pool_widths"]
    schemes = settings["simulate", "schemes"]
    # One pass serves both studies; it checks every input before the
    # first draw, so a bad input leaves no output behind.
    error_results, pool_result = replication_studies(
        points,
        replications,
        config,
        error_widths=error_widths,
        pool_widths=pool_widths,
        schemes=schemes,
        train_fraction=train_fraction,
    )
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}

    for i, (point, result) in enumerate(zip(points, error_results)):
        name = f"error_study_{i}.csv"
        write_error_study_csv(out / name, result)
        files[f"error_study_{i}"] = name
        print(f"error study at z={point}: widths {error_widths}")
        for w, width in enumerate(error_widths):
            means = result.mean_errors()[w]
            sds = result.sd_errors()[w]
            pairs = ", ".join(
                f"{n}: {m:+.4f} (sd {s:.4f})"
                for n, m, s in zip(result.expert_names, means, sds)
            )
            print(f"  width {width:g}: {pairs}")

    if pool_result is not None:
        write_pool_study_csv(out / "pool_study.csv", pool_result)
        write_polarization_csv(out / "polarization.csv", pool_result)
        files["pool_study"] = "pool_study.csv"
        files["polarization"] = "polarization.csv"
        mean = pool_result.mean_scores()
        for m, point in enumerate(points):
            print(f"pool study at z={tuple(point)}:")
            for s, scheme in enumerate(schemes):
                row = ", ".join(
                    f"{width:g}: {mean[m, s, w]:.4f}" for w, width in enumerate(pool_widths)
                )
                print(f"  {scheme}: {row}")
        frac = float(np.mean(pool_result.full_data_max_weight > 0.99))
        print(f"all-data softmax max weight > 0.99 in {frac:.1%} of replications")

    manifest = {
        "command": "simulate",
        "study": study,
        "replications": replications,
        "seed": config.seed,
        "sample_size": config.sample_size,
        "train_fraction": train_fraction,
        "query_points": [list(p) for p in points],
        "files": files,
    }
    write_json(out / "manifest.json", manifest)
    print(f"wrote {out}/manifest.json")
    return 0


def _build_stream_and_config(args, settings: _Settings):
    config = EvaluationConfig(
        warmup_size=settings["evaluation", "warmup_size"],
        history_size=settings["evaluation", "history_size"],
        width_grid=settings["evaluation", "width_grid"],
        scaling_grid=settings["evaluation", "scaling_grid"],
        schemes=settings["evaluation", "schemes"],
        seed=settings["run", "seed"],
    )
    # A data source set by flag beats one set in the file, and within the
    # file ``simulate`` beats ``scores_csv``, as ``--simulate`` does.
    scores = settings["data", "scores_csv"]
    if args.scores is None and settings["data", "simulate"]:
        scores = None
    if scores is not None:
        return load_score_csv(scores), config, {"scores_csv": scores}
    sample_size = settings["dgp", "sample_size"]
    data = generate_dgp(DgpConfig(sample_size=sample_size, seed=config.seed))
    return nig_evaluation_stream(data), config, {"simulated": True, "sample_size": sample_size}


def _cmd_evaluate(args, settings: _Settings) -> int:
    stream, config, source = _build_stream_and_config(args, settings)
    out = settings["run", "output_dir"]
    if args.dump_scores is not None:
        write_score_csv(args.dump_scores, stream)
    result = rolling_evaluate(stream, config)
    paths = emit_results(result, out, metadata={"command": "evaluate", **source})
    for scheme, total in result.totals().items():
        print(f"{scheme}: total log score {total:.4f} over {result.reported_times.size} steps")
    print(f"wrote {paths['steps']}, {paths['summary']}, {paths['manifest']}")
    return 0


def _cmd_gridsearch(args, settings: _Settings) -> int:
    stream, config, source = _build_stream_and_config(args, settings)
    out = settings["run", "output_dir"]
    out.mkdir(parents=True, exist_ok=True)
    result = rolling_evaluate(stream, config)
    reported = np.arange(len(result.history)) >= config.history_size
    live = result.history.live_rows
    rows = []
    for family, labels in result.candidate_labels.items():
        table = result.candidate_log_scores[family]
        # Shadow scores near 1e308 sum to +inf, as rolling_evaluate's totals do.
        with np.errstate(over="ignore", invalid="ignore"):
            total_all = settle_score_sums(table[live].sum(axis=0))
            total_rep = settle_score_sums(table[live & reported].sum(axis=0))
        for j, label in enumerate(labels):
            rows.append([family, label, format_real(total_all[j]), format_real(total_rep[j])])
        best = int(np.argmax(total_all))
        print(f"{family}: best cell by shadow total is {labels[best]}")
    header = ["family", "cell", "shadow_total_all", "shadow_total_reported"]
    path = write_csv(out / "gridsearch.csv", header, rows)
    manifest = {
        "command": "gridsearch",
        "config": {
            "warmup_size": config.warmup_size,
            "history_size": config.history_size,
            "schemes": list(config.schemes),
            "seed": config.seed,
        },
        "source": source,
        "files": {"gridsearch": path.name},
    }
    write_json(out / "manifest.json", manifest)
    print(f"wrote {path}")
    return 0


def _cmd_pool_once(args, settings: _Settings) -> int:
    stream = load_score_csv(args.scores)
    point = np.asarray(_parse_points(args.point)[0])
    width = settings["query", "width"]
    scaling = settings["query", "scaling"]
    history = History.from_arrays(
        stream.time_indices, stream.pooling_points, stream.outcomes, stream.log_scores
    )
    query = PoolQuery(history, point, (width,), (scaling,))
    neighbors, estimates = query.calipers
    names = stream.expert_names
    payload = {
        "query_point": [float(v) for v in point],
        "width": float(width),
        "scaling": scaling.label(),
        "neighbor_count": neighbors[0].size,
        "local_estimates": dict(zip(names, map(float, estimates[0]))),
        "weights": {
            scheme: dict(zip(names, map(float, PoolWeights(entry.grid(query)[0]).values)))
            for scheme, entry in SCHEMES.items()
        },
    }
    if args.out:
        write_json(args.out, payload)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(json_text(payload))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = _Settings(args)
        if args.command == "simulate":
            return _cmd_simulate(args, settings)
        if args.command == "evaluate":
            return _cmd_evaluate(args, settings)
        if args.command == "gridsearch":
            return _cmd_gridsearch(args, settings)
        # argparse requires one of the four subcommands.
        return _cmd_pool_once(args, settings)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
