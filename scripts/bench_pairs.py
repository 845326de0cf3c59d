"""Run the benchmark in alternating pairs of a base commit and the working tree.

Usage::

    python3 scripts/bench_pairs.py --base REF --number N \
        [--workloads evaluate_sim,softmax_csv,studies] [--seeds 1-10] [--seconds S]

``REF``'s committed files are unpacked (``git archive``) into a temporary
directory, the base tree.  Then, for each workload and each seed, the script
runs ``python3 bench/run.py --workload W --seed S --seconds SEC --trace 0``
once in the base tree and once in the working tree; the base runs first in
the first pair of a workload, the working tree in the second, and so on.
``SEC`` defaults to ``run_seconds`` of ``BENCHMARK.json``.  It writes
``BENCH_<N>.json`` at the root of the working tree: every run's result and,
per workload and end-to-end metric, each side's runs, median, quartiles and
IQR, the pairs the working tree won (ties count for neither), each pair's
change/base ratio with their minimum, median and maximum (drift of the
machine shared by a pair cancels in its ratio), the relative worsening of
the median against the metric's bound, and whether the gain rule holds: at
least nine tenths of the pairs won and a median gap larger than the base's
IQR.  Seeds are a comma list of integers and ``A-B``
ranges.  The base tree is removed when the script ends.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one untraced ``bench/run.py`` run in ``tree``, parsed."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides of one metric on one workload, and the verdicts on them."""
    sign = 1.0 if better == "higher" else -1.0
    b, c = summary(base), summary(change)
    gap = sign * (c["median"] - b["median"])
    worsening = -gap / b["median"]
    wins = sum(sign * (y - x) > 0.0 for x, y in zip(base, change))
    # Drift of the machine that both runs of a pair share cancels in their ratio.
    ratios = [y / x for x, y in zip(base, change)]
    return {
        "base": b,
        "change": c,
        "change_wins": wins,
        "pairs": len(base),
        "ratio_change_over_base": c["median"] / b["median"],
        "pair_ratios": {
            "min": min(ratios), "median": statistics.median(ratios), "max": max(ratios), "runs": ratios,
        },
        "relative_worsening": worsening,
        "within_bound": worsening <= bound,
        "gain_rule_met": wins >= 0.9 * len(base) and gap > b["iqr"],
    }


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {
        "cpu": cpu,
        "logical_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "os": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base tree")
    parser.add_argument("--number", required=True, type=int, help="N of the BENCH_<N>.json written")
    parser.add_argument("--workloads", default="evaluate_sim,softmax_csv,studies")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    base_sha = subprocess.run(
        ["git", "rev-parse", args.base], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    ).stdout.strip()

    out = {
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0",
        "base": {"ref": args.base, "sha": base_sha},
        "change": "working tree",
        "machine": machine(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_tree = Path(tmp) / "base"
        archive = subprocess.run(
            ["git", "archive", "--format=tar", base_sha], cwd=ROOT, stdout=subprocess.PIPE, check=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base_tree, filter="data")
        for workload in workloads:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    pair[side] = bench_run(tree, workload, seed, seconds)
                runs.append(pair)
                rates = [pair[s]["metrics"]["work_per_s"]["value"] for s in ("base", "change")]
                print(f"{workload} seed {seed} ({order[0]} first): work_per_s "
                      f"base {rates[0]:.1f} change {rates[1]:.1f}", file=sys.stderr)
            metrics = {}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                sides = [[r[s]["metrics"][name]["value"] for r in runs] for s in ("base", "change")]
                metrics[name] = {
                    "unit": metric["unit"],
                    "better": metric["better"],
                    "bound": metric["bound"],
                    **compare(*sides, metric["better"], metric["bound"]),
                }
            out["workloads"][workload] = {
                "seeds": seeds,
                "all_correct": all(r[s]["correct"] for r in runs for s in ("base", "change")),
                "failed_ops": {s: sum(r[s]["failed"] for r in runs) for s in ("base", "change")},
                "attempted_ops": {s: sum(r[s]["attempted"] for r in runs) for s in ("base", "change")},
                "metrics": metrics,
                "runs": runs,
            }
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for workload, entry in out["workloads"].items():
        for name, m in entry["metrics"].items():
            print(
                f"{workload} {name}: base {m['base']['median']:.4g} (IQR {m['base']['iqr']:.3g}) "
                f"change {m['change']['median']:.4g}, wins {m['change_wins']}/{m['pairs']}, "
                f"pair ratios {m['pair_ratios']['min']:.3g}-{m['pair_ratios']['max']:.3g} "
                f"(median {m['pair_ratios']['median']:.3g}), "
                f"within bound {m['within_bound']}, gain rule {m['gain_rule_met']}"
            )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
