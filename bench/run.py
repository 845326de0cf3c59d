"""Benchmark of the localpools command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package is imported from
``src/``; nothing needs installing.  Each run makes its inputs from the seed,
runs whole rounds of ``localpools.cli.main`` calls in a fresh single-threaded
Python process for about S seconds, checks the artifacts against independent
computations (``checks.py``), and prints one JSON object as the last line of
standard output.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it wraps the package's public functions (``tracer.py``) and
reports per-layer counts and self times.  Artifacts and a run record go to
``bench/out/``.  See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# A run, checks included, must end well inside three minutes.
RUN_LIMIT_S = 170.0
# Fresh processes that only import the package, for the set-up time; the
# measured process adds one more sample.
IMPORT_SAMPLES = 6
# Every process the benchmark starts gets one BLAS / OpenMP thread.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

EVALUATE_SIM = {"sample_size": 750, "warmup": 50, "history": 50}
SOFTMAX_CSV = {"steps": 800, "warmup": 100, "history": 100}
STUDIES = {"replications": 100, "sample_size": 1000, "query_points": 2, "sampled": (0, 50, 99)}


def workload(name: str, seed: int, run_dir: Path):
    """(calls of one round, units of work per call, checker of round artifacts)."""
    if name == "evaluate_sim":
        cfg = EVALUATE_SIM
        program_seed = inputs.program_seeds(seed, 1)[0]
        calls = [[
            "evaluate", "--simulate", "--sample-size", str(cfg["sample_size"]),
            "--warmup", str(cfg["warmup"]), "--history", str(cfg["history"]),
            "--seed", str(program_seed), "--out", "{out}", "--dump-scores", "{out}/scores.csv",
        ]]
        units = [cfg["sample_size"] - cfg["warmup"]]

        def check(out: Path) -> list[str]:
            stream = checks.read_stream(out / "scores.csv")
            if len(stream["t"]) != cfg["sample_size"]:
                return [f"dumped stream has {len(stream['t'])} steps"]
            return checks.check_nig_scores(stream) + check_evaluate_call(
                out, stream, cfg, ["local_softmax", "equal", "global_opt", "local_opt"])

    elif name == "softmax_csv":
        cfg = SOFTMAX_CSV
        scores = run_dir / "scores.csv"
        inputs.write_score_csv(scores, seed, cfg["steps"])
        calls = [[
            "evaluate", "--scores", str(scores), "--schemes", "local_softmax,equal",
            "--warmup", str(cfg["warmup"]), "--history", str(cfg["history"]), "--out", "{out}",
        ]]
        units = [cfg["steps"] - cfg["warmup"]]

        def check(out: Path) -> list[str]:
            return check_evaluate_call(out, checks.read_stream(scores), cfg, ["local_softmax", "equal"])

    elif name == "studies":
        cfg = STUDIES
        program_seed = inputs.program_seeds(seed, 1)[0]
        calls = [[
            "simulate", "--study", "both", "--replications", str(cfg["replications"]),
            "--sample-size", str(cfg["sample_size"]), "--seed", str(program_seed), "--out", "{out}",
        ]]
        # One unit per replication fit: each error-study query point, plus the pool study.
        units = [cfg["replications"] * (cfg["query_points"] + 1)]

        def check(out: Path) -> list[str]:
            return checks.check_studies(
                out, seed=program_seed, replications=cfg["replications"],
                sample_size=cfg["sample_size"], sampled=cfg["sampled"])

    else:
        raise ValueError(f"unknown workload {name!r}")
    return calls, units, check


def check_evaluate_call(out: Path, stream: dict, cfg: dict, schemes: list[str]) -> list[str]:
    """An evaluate call's artifacts, with the grids it ran as its manifest states them."""
    manifest = json.loads((out / "manifest.json").read_text())["config"]
    widths = [float(w) for w in manifest["width_grid"]]
    scalings = manifest["scaling_grid"]
    if len(widths) * len(scalings) != 42 or manifest["schemes"] != schemes:
        return [f"manifest grids or schemes differ from the CLI defaults: {manifest}"]
    return checks.check_evaluate(
        out, stream, warmup=cfg["warmup"], history=cfg["history"],
        schemes=schemes, widths=widths, scalings=scalings)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(spec: dict, run_dir: Path, tag: str, deadline: float) -> dict:
    """Start worker.py on ``spec``, wait for it, and return its result."""
    spec_path, result_path = run_dir / f"{tag}.spec.json", run_dir / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError(f"no time left to start {tag}")
    # subprocess.run kills the worker and waits for it if the timeout expires.
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=child_env(), cwd=run_dir, timeout=timeout, stdin=subprocess.DEVNULL,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{tag} exited with code {done.returncode}")
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("evaluate_sim", "softmax_csv", "studies"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "localpools" / "__init__.py").is_file():
        print(f"error: no localpools package under {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    calls, units, check = workload(args.workload, args.seed, run_dir)

    setup = []
    if not args.trace:
        for i in range(IMPORT_SAMPLES):
            spec = {"src": str(SRC), "import_only": True}
            setup.append(run_worker(spec, run_dir, f"import-{i}", deadline)["setup_s"])
    spec = {"src": str(SRC), "run_dir": str(run_dir), "calls": calls,
            "seconds": args.seconds, "trace": bool(args.trace)}
    result = run_worker(spec, run_dir, "measure", deadline)
    setup.append(result["setup_s"])

    rounds = result["rounds"]
    reference = result["reference"] or rounds[0]
    artifacts = run_dir / ("reference" if args.trace else "round-0")
    per_round = sum(units)
    failed = sum(u for r in rounds for u, c in zip(units, r["codes"]) if c != 0)
    attempted = per_round * (len(rounds) + bool(args.trace))
    if args.trace:
        failed += sum(u for u, c in zip(units, reference["codes"]) if c != 0)
    problems = []
    if any(r["digest"] != reference["digest"] for r in rounds):
        problems.append("round artifacts differ" + (" between traced and untraced runs" if args.trace else ""))
    if failed == 0:
        try:
            problems += check(artifacts)
        except Exception as exc:  # malformed artifacts: report, do not crash the run
            traceback.print_exc()
            problems.append(f"checker could not read the artifacts: {exc!r}")

    if args.trace:
        layers = result["layers"]
        metrics = {}
        for key in layers[0]:
            values = [layer[key] for layer in layers]
            if key.endswith("self_s"):
                metrics[key] = {"value": statistics.median(values), "unit": "s"}
            else:
                if any(v != values[0] for v in values):
                    problems.append(f"count {key} differs between rounds: {values}")
                unit = "nats" if key.endswith("gap_max") else "bytes" if key.startswith("io.bytes") else "count"
                metrics[key] = {"value": values[0], "unit": unit}
    else:
        rates = [per_round / sum(r["seconds"]) for r in rounds]
        metrics = {
            "work_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "calls": calls, "units_per_round": per_round, "round_seconds": [r["seconds"] for r in rounds],
        "reference_seconds": result["reference"] and result["reference"]["seconds"],
        "setup_samples": setup, "thread_env": THREAD_ENV, "python": sys.version,
        "problems": problems, "metrics": metrics,
    }
    (run_dir / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {per_round} units, "
        f"round seconds {[round(sum(r['seconds']), 3) for r in rounds]}, threads {THREAD_ENV['OPENBLAS_NUM_THREADS']}",
        file=sys.stderr,
    )
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
