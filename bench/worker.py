"""One measured process: import localpools, then run whole rounds of CLI calls.

Usage: ``python3 worker.py SPEC.json RESULT.json``.  The spec names the
package's source directory, the calls of one round (``localpools.cli.main``
argument lists, with ``{out}`` standing for the round's output directory),
the run length and whether to trace.  Only the standard library is imported
before the timed import of ``localpools.cli``, so the set-up time covers
numpy and scipy too.

Without tracing, rounds repeat while the next one is expected to end within
the run length (at least one round).  With tracing, one untraced reference
round runs first, then traced rounds; each traced round's artifacts must be
byte-identical to the reference round's.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def digest(directory: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file below ``directory``."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_round(main, calls, out_dir: Path) -> dict:
    """Call ``main`` once per argument list; time each call alone."""
    out_dir.mkdir(parents=True)
    seconds, codes = [], []
    for argv in calls:
        argv = [a.replace("{out}", str(out_dir)) for a in argv]
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
        seconds.append(time.perf_counter() - start)
        codes.append(int(code or 0))
    return {"seconds": seconds, "codes": codes, "digest": digest(out_dir)}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    start = time.perf_counter()
    import localpools.cli

    setup_s = time.perf_counter() - start
    src = Path(spec["src"]).resolve()
    origin = Path(localpools.cli.__file__).resolve()
    if src not in origin.parents:
        print(f"error: imported localpools from {origin}, not from {src}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s, "rounds": [], "reference": None, "layers": []}
    if spec.get("import_only"):
        Path(sys.argv[2]).write_text(json.dumps(result))
        return 0

    run_dir = Path(spec["run_dir"])
    calls, seconds = spec["calls"], float(spec["seconds"])
    tracer = None
    began = time.perf_counter()
    with open(run_dir / "program_stdout.txt", "w") as sink, contextlib.redirect_stdout(sink):
        if spec["trace"]:
            from tracer import Tracer

            result["reference"] = run_round(localpools.cli.main, calls, run_dir / "reference")
            tracer = Tracer()
            tracer.install()
        while True:
            index = len(result["rounds"])
            if tracer is not None:
                tracer.reset()
            out = run_dir / f"round-{index}"
            result["rounds"].append(run_round(localpools.cli.main, calls, out))
            if tracer is not None:
                result["layers"].append(tracer.metrics())
            if index > 0 or tracer is not None:
                shutil.rmtree(out)
            elapsed = time.perf_counter() - began
            per_round = elapsed / (index + 1 + (tracer is not None))
            if elapsed + per_round > seconds:
                break
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
