"""Write the reference set of artifacts for one source tree and print their hashes.

Usage: ``python3 scripts/reference_set.py SRC OUT``

``SRC`` is a ``src/`` directory holding the ``localpools`` package and
``OUT`` a directory for the artifacts (created; it must not exist yet).
Each command runs in its own process, from ``OUT``, with ``SRC`` as the
only ``PYTHONPATH`` entry.  The script then prints one
``<sha256>  <path>`` line per file, sorted by path, so two source trees
(a change and its parent) are compared by diffing the two listings.

The set: the score CSV of ``bench/inputs.write_score_csv(..., 1, 800)``
(taken from the checkout holding this script, so both trees read the same
bytes); ``evaluate --simulate`` with its dumped stream; two ``evaluate``
runs and one ``gridsearch`` on the CSV; two ``pool-once`` calls;
``simulate --study both``; ``simulate --study pool`` with the schemes in
another order and an infinite width, and ``simulate --study error``, each
at two query points, one with a negative coordinate; ``dead.csv``, the
same CSV with every expert scoring ``-inf`` on a few rows and one expert
on every row, and one
``evaluate`` and one ``gridsearch`` run on it; ``overflow.csv``, a 60-step
CSV whose log scores reach ``-1e308`` and ``1e308`` (the one of
``tests/test_cli.py::test_scores_that_overflow_the_softmax_run_to_the_end``),
and one ``evaluate``, one ``gridsearch`` and one ``pool-once`` run on it;
``ev_ini.ini``, a config file that sets ``[run]``, ``[data] scores_csv``
and the ``[evaluation]`` keys with paths relative to ``OUT``, and one
``evaluate`` run that takes every setting from it; ``long.csv``, the
score CSV of ``bench/inputs.write_score_csv(..., 2, 3000)``, and one
``evaluate`` run of ``local_softmax`` and ``equal`` on it, whose history
grows through many buffer doublings; the standard output
of each of these commands as ``<name>.log``; and
``help.txt``, the ``--help`` text of the top level and of every subcommand.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402
import numpy as np  # noqa: E402

CSV_FLAGS = ["--scores", "scores.csv", "--warmup", "100", "--history", "100"]
DEAD_FLAGS = ["--scores", "dead.csv", "--warmup", "100", "--history", "100"]
# Rows of dead.csv on which every expert scores -inf: one in the history
# batch, two adjacent and one alone among the reported steps.
DEAD_ROWS = (150, 420, 421, 650)
# The expert (by column order) that scores -inf on every row of dead.csv.
DEAD_EXPERT = 1
OVERFLOW_FLAGS = ["--scores", "overflow.csv", "--warmup", "5", "--history", "10"]
CALLS = {
    "ev_sim": [
        "evaluate", "--simulate", "--sample-size", "750", "--warmup", "50", "--history", "50",
        "--seed", "1", "--dump-scores", "dump.csv", "--out", "ev_sim",
    ],
    "ev_csv": ["evaluate", *CSV_FLAGS, "--out", "ev_csv"],
    "ev_csv2": ["evaluate", *CSV_FLAGS, "--schemes", "local_softmax,equal", "--out", "ev_csv2"],
    "gs": ["gridsearch", *CSV_FLAGS, "--out", "gs"],
    "once1": ["pool-once", "--scores", "scores.csv", "--point", "0.5,40,-3.02", "--out", "once1.json"],
    "once2": [
        "pool-once", "--scores", "scores.csv", "--point=-1,70,-2.95", "--width", "0.5",
        "--scaling", "2", "--out", "once2.json",
    ],
    "sim": [
        "simulate", "--study", "both", "--replications", "100", "--sample-size", "1000",
        "--schemes", "local_softmax,equal,global_opt,local_opt", "--out", "sim",
    ],
    "ev_dead": ["evaluate", *DEAD_FLAGS, "--out", "ev_dead"],
    "gs_dead": ["gridsearch", *DEAD_FLAGS, "--out", "gs_dead"],
    "ev_overflow": ["evaluate", *OVERFLOW_FLAGS, "--out", "ev_overflow"],
    "gs_overflow": ["gridsearch", *OVERFLOW_FLAGS, "--out", "gs_overflow"],
    "once_overflow": [
        "pool-once", "--scores", "overflow.csv", "--point", "0,0", "--out", "once_overflow.json",
    ],
    "ev_ini": ["--config", "ev_ini.ini", "evaluate"],
    "ev_long": [
        "evaluate", "--scores", "long.csv", "--schemes", "local_softmax,equal", "--warmup", "100",
        "--history", "100", "--out", "ev_long",
    ],
    # Negative coordinates in the ``=`` form, which every tree reads.
    "sim_pool": [
        "simulate", "--study", "pool", "--replications", "100", "--sample-size", "400",
        "--schemes", "local_opt,equal,local_softmax,global_opt", "--widths", "0.5,2,inf",
        "--query-points=-1,0;1,1", "--seed", "5", "--out", "sim_pool",
    ],
    "sim_error": [
        "simulate", "--study", "error", "--replications", "100", "--sample-size", "400",
        "--widths", "0.3,1", "--query-points=0,0;-2,0", "--seed", "6", "--out", "sim_error",
    ],
}
# No [data] simulate: beside a scores_csv, older trees ignore it and newer
# ones simulate, so the file would not give both the same bytes.
CONFIG = """[run]
seed = 3
output_dir = ev_ini
[data]
scores_csv = scores.csv
[evaluation]
warmup_size = 100
history_size = 100
width_grid = 0.5, 2, inf
scaling_grid = 1, natural
schemes = local_softmax, local_opt, equal
"""
HELP = [[], ["simulate"], ["evaluate"], ["gridsearch"], ["pool-once"]]
MAIN = "import sys; from localpools.cli import main; sys.exit(main(sys.argv[1:]))"


def run_cli(argv: list[str], out: Path, src: Path) -> bytes:
    """Standard output of one CLI call in a fresh process; a nonzero exit raises."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", MAIN, *argv], cwd=out, env=env, stdout=subprocess.PIPE, check=True
    )
    return done.stdout


def write_dead_rows_csv(source: Path, path: Path) -> None:
    """``source`` with every score ``-inf`` on ``DEAD_ROWS`` and in ``DEAD_EXPERT``'s column."""
    header, *rows = source.read_text().splitlines()
    experts = [j for j, name in enumerate(header.split(",")) if name.startswith("lp_")]
    lines = [header]
    for i, row in enumerate(rows):
        cells = row.split(",")
        for j in experts if i in DEAD_ROWS else experts[DEAD_EXPERT : DEAD_EXPERT + 1]:
            cells[j] = "-inf"
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def write_overflow_csv(path: Path) -> None:
    """60 steps in 2 dims; ``alpha`` scores ``-1e308`` on every row, ``beta`` ``1e308`` on every 7th."""
    rng = np.random.default_rng(0)
    scores = rng.normal(-1.5, 1.0, size=(60, 2))
    scores[:, 0] = -1e308
    scores[::7, 1] = 1e308
    points, outcomes = rng.normal(size=(60, 2)), rng.normal(size=60)
    lines = ["t,y,z_1,z_2,lp_alpha,lp_beta"]
    for t in range(60):
        reals = (outcomes[t], *points[t], *scores[t])
        lines.append(",".join([str(t), *(f"{float(v):.17g}" for v in reals)]))
    path.write_text("\n".join(lines) + "\n")


def write_reference_set(src: Path, out: Path) -> None:
    out.mkdir(parents=True)
    inputs.write_score_csv(out / "scores.csv", 1, 800)
    inputs.write_score_csv(out / "long.csv", 2, 3000)
    write_dead_rows_csv(out / "scores.csv", out / "dead.csv")
    write_overflow_csv(out / "overflow.csv")
    (out / "ev_ini.ini").write_text(CONFIG)
    for name, argv in CALLS.items():
        (out / f"{name}.log").write_bytes(run_cli(argv, out, src))
    help_text = b"".join(run_cli([*cmd, "--help"], out, src) for cmd in HELP)
    (out / "help.txt").write_bytes(help_text)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "localpools" / "__init__.py").is_file():
        print(f"error: no localpools package under {src}", file=sys.stderr)
        return 2
    write_reference_set(src, out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
