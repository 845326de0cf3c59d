"""Tests of the benchmark's checkers: each must pass real artifacts and reject
hand-perturbed copies of them.

    python3 bench/selftest.py

Run from the root of a source checkout (the package is imported from
``src/``).  The file name keeps it out of pytest's default collection, so the
package's own test suite does not run it.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from localpools.cli import main as localpools_main  # noqa: E402

ALL_SCHEMES = ["local_softmax", "equal", "global_opt", "local_opt"]


def run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = localpools_main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"localpools {argv} exited with {code}")


def edit_csv(path: Path, edit) -> None:
    """Rewrite a CSV after ``edit(header, rows)`` has changed its rows in place."""
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    edit(table[0], table[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)


def nudge(text: str, delta: float) -> str:
    return f"{float(text) + delta:.17g}"


class ArtifactCase(unittest.TestCase):
    """Makes the artifacts once per class; each test perturbs a fresh copy."""

    @classmethod
    def setUpClass(cls):
        cls.root = Path(tempfile.mkdtemp(prefix="bench-selftest-"))
        cls.pristine = cls.root / "pristine"
        cls.pristine.mkdir()
        cls.make(cls.pristine)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.root)

    def setUp(self):
        self.out = self.root / self.id().rsplit(".", 1)[-1]
        shutil.copytree(self.pristine, self.out)

    def tearDown(self):
        shutil.rmtree(self.out)

    def assertAccepted(self):
        self.assertEqual(self.failures(), [])

    def assertRejected(self):
        self.assertNotEqual(self.failures(), [])


class EvaluateChecks(ArtifactCase):
    """Perturbations shared by both evaluate workloads."""

    schemes: list[str] = []

    def evaluate_failures(self, stream_path: Path) -> list[str]:
        manifest = json.loads((self.out / "manifest.json").read_text())["config"]
        return checks.check_evaluate(
            self.out, checks.read_stream(stream_path), warmup=self.warmup, history=self.history,
            schemes=self.schemes, widths=[float(w) for w in manifest["width_grid"]],
            scalings=manifest["scaling_grid"])

    def test_accepts_untouched_artifacts(self):
        self.assertAccepted()

    def test_rejects_a_weight_nudged_by_1e_6(self):
        def edit(header, rows):
            j = header.index(f"w_{self.schemes[0]}_{self.names[0]}")
            rows[len(rows) // 2][j] = nudge(rows[len(rows) // 2][j], 1e-6)
        edit_csv(self.out / "steps.csv", edit)
        self.assertRejected()

    def test_rejects_a_total_shifted_by_1e_6(self):
        path = self.out / "summary.json"
        summary = json.loads(path.read_text())
        summary["total_log_score"][self.schemes[-1]] += 1e-6
        path.write_text(json.dumps(summary))
        self.assertRejected()

    def test_rejects_a_pooled_score_shifted_by_1e_6(self):
        def edit(header, rows):
            j = header.index("pooled_equal")
            rows[-1][j] = nudge(rows[-1][j], 1e-6)
        edit_csv(self.out / "steps.csv", edit)
        self.assertRejected()

    def test_rejects_a_swapped_width_label(self):
        stream = checks.read_stream(self.stream_path)
        grid = [float(w) for w in json.loads((self.out / "manifest.json").read_text())["config"]["width_grid"]]

        def edit(header, rows):
            jw, js = header.index("width_local_softmax"), header.index("scaling_local_softmax")
            # The first step where another grid width changes the softmax weights.
            for i, row in enumerate(rows):
                t = self.warmup + self.history + i
                dist = checks.standardized_distances(stream["z"][self.warmup:t], stream["z"][t])
                factor = checks.scaling_factor(row[js])
                chosen = checks.caliper_softmax(stream["lp"][self.warmup:t], dist <= float(row[jw]), factor)
                for other in grid:
                    swapped = checks.caliper_softmax(stream["lp"][self.warmup:t], dist <= other, factor)
                    if np.max(np.abs(swapped - chosen)) > 1e-6:
                        row[jw] = f"{other:.17g}"
                        return
            self.fail("no step where the width matters")
        edit_csv(self.out / "steps.csv", edit)
        self.assertRejected()

    def test_rejects_a_swapped_scaling_label(self):
        def edit(header, rows):
            j = header.index("scaling_local_softmax")
            for row in rows:
                row[j] = "tau=0.5" if row[j] == "natural" else "natural"
        edit_csv(self.out / "steps.csv", edit)
        self.assertRejected()


class EvaluateSimChecks(EvaluateChecks):
    schemes = ALL_SCHEMES
    warmup, history, sample_size, seed = 20, 20, 120, 7
    names = ["expert_x1", "expert_x2"]

    @classmethod
    def make(cls, out: Path):
        run_cli(["evaluate", "--simulate", "--sample-size", cls.sample_size, "--warmup", cls.warmup,
                 "--history", cls.history, "--seed", cls.seed, "--out", out,
                 "--dump-scores", out / "scores.csv"])

    def setUp(self):
        super().setUp()
        self.stream_path = self.out / "scores.csv"

    def failures(self):
        stream = checks.read_stream(self.stream_path)
        return checks.check_nig_scores(stream) + self.evaluate_failures(self.stream_path)

    def test_rejects_a_dumped_expert_score_shifted_by_1e_6(self):
        # A warmup row: steps.csv never shows it, so only the regression refit can tell.
        edit_csv(self.stream_path, lambda header, rows: rows[5].__setitem__(-1, nudge(rows[5][-1], 1e-6)))
        self.assertRejected()

    def test_rejects_optimizer_weights_without_a_certificate(self):
        # Move global_opt to a vertex and keep its pooled scores consistent, so
        # only the duality-gap certificate is left to object.
        lp = checks.read_stream(self.stream_path)["lp"][self.warmup + self.history:]

        def edit(header, rows):
            j = header.index("w_global_opt_expert_x1")
            p = header.index("pooled_global_opt")
            for i, row in enumerate(rows):
                row[j], row[j + 1] = "1", "0"
                row[p] = f"{lp[i, 0]:.17g}"
        edit_csv(self.out / "steps.csv", edit)
        summary = json.loads((self.out / "summary.json").read_text())
        summary["total_log_score"]["global_opt"] = sum(lp[:, 0].tolist())
        (self.out / "summary.json").write_text(json.dumps(summary))
        failures = self.failures()
        self.assertTrue(failures)
        self.assertTrue(all("duality gap" in f for f in failures), failures)


class SoftmaxCsvChecks(EvaluateChecks):
    schemes = ["local_softmax", "equal"]
    warmup, history, steps, seed = 50, 50, 300, 3
    names = list(inputs.CSV_EXPERTS)

    @classmethod
    def make(cls, out: Path):
        cls.stream_path = cls.root / "scores.csv"
        inputs.write_score_csv(cls.stream_path, cls.seed, cls.steps)
        run_cli(["evaluate", "--scores", cls.stream_path, "--schemes", ",".join(cls.schemes),
                 "--warmup", cls.warmup, "--history", cls.history, "--out", out])

    def failures(self):
        return self.evaluate_failures(self.stream_path)

    def test_inputs_repeat_for_a_seed_and_differ_across_seeds(self):
        a, b, c = (inputs.score_stream(s, 50)[3] for s in (self.seed, self.seed, self.seed + 1))
        self.assertTrue(np.array_equal(a, b))
        self.assertFalse(np.array_equal(a, c))


class StudiesChecks(ArtifactCase):
    replications, sample_size, seed, sampled = 100, 1000, 11, (0, 99)

    @classmethod
    def make(cls, out: Path):
        run_cli(["simulate", "--study", "both", "--replications", cls.replications,
                 "--sample-size", cls.sample_size, "--seed", cls.seed, "--out", out])

    def failures(self):
        return checks.check_studies(self.out, seed=self.seed, replications=self.replications,
                                    sample_size=self.sample_size, sampled=self.sampled)

    def test_accepts_untouched_artifacts(self):
        self.assertAccepted()

    def test_rejects_swapped_width_labels(self):
        def edit(header, rows):
            for row in rows:
                if row[0] == "3" and row[1] in ("0.40000000000000002", "1.6000000000000001"):
                    row[1] = "1.6000000000000001" if row[1] == "0.40000000000000002" else "0.40000000000000002"
        edit_csv(self.out / "error_study_0.csv", edit)
        self.assertRejected()

    def test_rejects_a_true_elpd_shifted_by_1e_6(self):
        edit_csv(self.out / "error_study_1.csv", lambda header, rows: rows[0].__setitem__(5, nudge(rows[0][5], 1e-6)))
        self.assertRejected()

    def test_rejects_an_error_shifted_by_1e_6(self):
        def edit(header, rows):
            rows[-1][3] = nudge(rows[-1][3], 1e-6)
        edit_csv(self.out / "error_study_0.csv", edit)
        self.assertRejected()

    def test_rejects_a_pool_score_shifted_by_1e_6(self):
        def edit(header, rows):
            for row in rows:
                if row[0] == "0" and row[1] == "local_softmax":
                    row[-1] = nudge(row[-1], 1e-6)
                    return
        edit_csv(self.out / "pool_study.csv", edit)
        self.assertRejected()

    def test_rejects_a_polarization_rate_off_the_closed_form(self):
        edit_csv(self.out / "polarization.csv",
                 lambda header, rows: [row.__setitem__(1, "0.5") for row in rows[1:-1]])
        self.assertRejected()

    def test_rejects_a_local_pool_that_loses_off_centre(self):
        def edit(header, rows):
            for row in rows:
                if row[1] in ("local_softmax", "equal"):
                    row[1] = "equal" if row[1] == "local_softmax" else "local_softmax"
        edit_csv(self.out / "pool_study.csv", edit)
        failures = self.failures()
        self.assertTrue(any("does not beat" in f for f in failures), failures)


class TracedWorker(unittest.TestCase):
    """A traced worker run on a short stream, in its own process as run.py starts it."""

    def test_traced_round_reports_every_named_metric_and_matches_the_reference(self):
        import run
        import tracer

        with tempfile.TemporaryDirectory(prefix="bench-selftest-") as tmp:
            spec = {"src": str(run.SRC), "run_dir": tmp, "seconds": 0, "trace": True, "calls": [[
                "evaluate", "--simulate", "--sample-size", "80", "--warmup", "10", "--history", "10",
                "--seed", "5", "--out", "{out}", "--dump-scores", "{out}/scores.csv"]]}
            result = run.run_worker(spec, Path(tmp), "measure", deadline=time.monotonic() + 120)
        layers = result["layers"][0]
        named = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
        self.assertEqual(sorted(layers), sorted(named))
        self.assertEqual(sorted(named), sorted(tracer.metric_names()))
        self.assertEqual([r["digest"] for r in result["rounds"]], [result["reference"]["digest"]])
        self.assertEqual(layers["cli.main.calls"], 1)
        self.assertEqual(layers["history.PredictionRecord.calls"], 70)
        self.assertEqual(layers["simulation.nig_evaluation_stream.calls"], 1)
        # global_opt and local_opt at each of the 60 reported steps, plus the shadow cells.
        self.assertGreater(layers["pools.optimize_pool_weights.calls"], 120)
        self.assertGreater(layers["pools.optimize_pool_weights.sweeps"], layers["pools.optimize_pool_weights.calls"])
        self.assertLess(layers["pools.optimize_pool_weights.gap_max"], checks.GAP_TOL)
        self.assertGreater(layers["cli.main.self_s"], 0.0)


del EvaluateChecks, ArtifactCase

if __name__ == "__main__":
    unittest.main()
