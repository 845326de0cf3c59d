"""Command-line interface.

Subcommands:

* ``simulate``   — run the replication studies and write tidy CSVs.
* ``evaluate``   — rolling evaluation over a score CSV or a simulated
                   stream with the built-in regression experts.
* ``gridsearch`` — same run, but report every grid cell's shadow-pool
                   totals instead of the per-step results.
* ``pool-once``  — weights at a single query point given a history file.

Values come from built-in defaults, overridden by an optional config
file (``--config``, INI syntax), overridden by explicit flags.
"""

from __future__ import annotations

import argparse
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
    ScoreCsvError,
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
from .pools import PoolQuery
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
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        points.append(tuple(float(tok) for tok in chunk.split(",")))
    if not points:
        raise ValueError(f"no query points in {text!r}")
    if len({len(p) for p in points}) != 1:
        raise ValueError("query points must share a dimension")
    return tuple(points)


def _parse_schemes(text: str) -> tuple[str, ...]:
    """Comma-separated scheme names; ``check_schemes`` applies the scheme-list rule."""
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


class _Settings:
    """Defaults < config file < explicit flags, resolved per key."""

    def __init__(self, config_path: str | None) -> None:
        self.sections = read_config_file(config_path) if config_path else {}

    def get(self, flag_value, section: str, key: str, fallback, parse=None):
        if flag_value is not None:
            return flag_value
        raw = self.sections.get(section, {}).get(key)
        if raw is None:
            return fallback
        return parse(raw) if parse else raw


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localpools",
        description="Locally weighted linear pools of predictive distributions.",
    )
    parser.add_argument("--config", help="INI config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="replication studies on the synthetic process")
    sim.add_argument("--study", choices=("error", "pool", "both"), default=None)
    sim.add_argument("--replications", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--sample-size", type=int, default=None)
    sim.add_argument("--train-fraction", type=float, default=None)
    sim.add_argument("--widths", default=None, help="comma-separated caliper widths")
    sim.add_argument(
        "--query-points", default=None, help="semicolon-separated points, e.g. '2,0;0,0'"
    )
    sim.add_argument("--schemes", default=None, help="pool-study schemes, comma-separated")
    sim.add_argument("--out", default=None, help="output directory")

    for name, helptext in (
        ("evaluate", "rolling one-step-ahead evaluation"),
        ("gridsearch", "shadow-pool totals for every hyperparameter grid cell"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        src = cmd.add_mutually_exclusive_group()
        src.add_argument("--scores", default=None, help="score CSV with external experts")
        src.add_argument(
            "--simulate",
            action="store_true",
            help="simulate data and score the built-in regression experts",
        )
        cmd.add_argument("--warmup", type=int, default=None)
        cmd.add_argument("--history", type=int, default=None)
        cmd.add_argument("--widths", default=None)
        cmd.add_argument("--scalings", default=None, help="e.g. '0.5,1,2,natural'")
        cmd.add_argument("--schemes", default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--sample-size", type=int, default=None)
        cmd.add_argument("--out", default=None)
        if name == "evaluate":
            cmd.add_argument(
                "--dump-scores",
                default=None,
                help="also write the scored stream as a score CSV",
            )

    once = sub.add_parser("pool-once", help="weights at one query point from a history file")
    once.add_argument("--scores", required=True, help="score CSV treated as the history")
    once.add_argument("--point", required=True, help="query point, e.g. '2,0'")
    once.add_argument("--width", type=float, default=None)
    once.add_argument("--scaling", default=None, help="'natural' or a temperature")
    once.add_argument("--out", default=None, help="JSON output path (default: stdout)")
    return parser


def _cmd_simulate(args, settings: _Settings) -> int:
    study = settings.get(args.study, "simulate", "study", "both")
    replications = settings.get(args.replications, "simulate", "replications", 500, int)
    seed = settings.get(args.seed, "run", "seed", 0, int)
    sample_size = settings.get(args.sample_size, "dgp", "sample_size", 2000, int)
    train_fraction = settings.get(args.train_fraction, "dgp", "train_fraction", 0.5, float)
    out = Path(settings.get(args.out, "run", "output_dir", "results"))
    config = DgpConfig(sample_size=sample_size, seed=seed)
    points = settings.get(
        args.query_points and _parse_points(args.query_points),
        "simulate",
        "query_points",
        DEFAULT_QUERY_POINTS,
        _parse_points,
    )
    if study not in ("error", "pool", "both"):
        raise ValueError(f"unknown study {study!r}; valid: error, pool, both")
    error_widths = pool_widths = None
    schemes = DEFAULT_POOL_SCHEMES
    if study in ("error", "both"):
        error_widths = settings.get(
            args.widths and parse_width_grid(args.widths),
            "simulate",
            "error_widths",
            DEFAULT_ERROR_WIDTHS,
            parse_width_grid,
        )
    if study in ("pool", "both"):
        pool_widths = settings.get(
            args.widths and parse_width_grid(args.widths),
            "simulate",
            "pool_widths",
            DEFAULT_POOL_WIDTHS,
            parse_width_grid,
        )
        schemes = settings.get(
            args.schemes and _parse_schemes(args.schemes),
            "simulate",
            "schemes",
            DEFAULT_POOL_SCHEMES,
            _parse_schemes,
        )
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
        "seed": seed,
        "sample_size": sample_size,
        "train_fraction": train_fraction,
        "query_points": [list(p) for p in points],
        "files": files,
    }
    write_json(out / "manifest.json", manifest)
    print(f"wrote {out}/manifest.json")
    return 0


def _build_stream_and_config(args, settings: _Settings):
    scores = settings.get(args.scores, "data", "scores_csv", None)
    simulate = args.simulate or (
        scores is None and settings.sections.get("data", {}).get("simulate") == "true"
    )
    seed = settings.get(args.seed, "run", "seed", 0, int)
    if scores is not None and not simulate:
        stream = load_score_csv(scores)
        source = {"scores_csv": str(scores)}
    else:
        sample_size = settings.get(args.sample_size, "dgp", "sample_size", 2000, int)
        data = generate_dgp(DgpConfig(sample_size=sample_size, seed=seed))
        stream = nig_evaluation_stream(data)
        source = {"simulated": True, "sample_size": sample_size}
    config = EvaluationConfig(
        warmup_size=settings.get(args.warmup, "evaluation", "warmup_size", 200, int),
        history_size=settings.get(args.history, "evaluation", "history_size", 200, int),
        width_grid=settings.get(
            args.widths and parse_width_grid(args.widths),
            "evaluation",
            "width_grid",
            DEFAULT_WIDTH_GRID,
            parse_width_grid,
        ),
        scaling_grid=settings.get(
            args.scalings and parse_scaling_grid(args.scalings),
            "evaluation",
            "scaling_grid",
            DEFAULT_SCALING_GRID,
            parse_scaling_grid,
        ),
        schemes=settings.get(
            args.schemes and _parse_schemes(args.schemes),
            "evaluation",
            "schemes",
            ALL_SCHEMES,
            _parse_schemes,
        ),
        seed=seed,
    )
    return stream, config, source


def _cmd_evaluate(args, settings: _Settings) -> int:
    stream, config, source = _build_stream_and_config(args, settings)
    out = Path(settings.get(args.out, "run", "output_dir", "results"))
    if getattr(args, "dump_scores", None):
        write_score_csv(args.dump_scores, stream)
    result = rolling_evaluate(stream, config)
    paths = emit_results(result, out, metadata={"command": "evaluate", **source})
    for scheme, total in result.totals().items():
        print(f"{scheme}: total log score {total:.4f} over {result.reported_times.size} steps")
    print(f"wrote {paths['steps']}, {paths['summary']}, {paths['manifest']}")
    return 0


def _cmd_gridsearch(args, settings: _Settings) -> int:
    stream, config, source = _build_stream_and_config(args, settings)
    out = Path(settings.get(args.out, "run", "output_dir", "results"))
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
    width = settings.get(args.width, "query", "width", 1.0, float)
    scaling = parse_scaling_token(
        settings.get(args.scaling, "query", "scaling", "natural")
    )
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _Settings(args.config)
        if args.command == "simulate":
            return _cmd_simulate(args, settings)
        if args.command == "evaluate":
            return _cmd_evaluate(args, settings)
        if args.command == "gridsearch":
            return _cmd_gridsearch(args, settings)
        if args.command == "pool-once":
            return _cmd_pool_once(args, settings)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError, ScoreCsvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
