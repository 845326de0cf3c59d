"""End-to-end command-line checks, run in process through ``main``."""
from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import localpools
from localpools.cli import _SETTINGS, main
from localpools.evaluation import EvaluationConfig, EvaluationStream, rolling_evaluate
from localpools.history import History, PredictionRecord
from localpools.io import load_score_csv, write_score_csv
from localpools.local_elpd import caliper_elpd
from localpools.pools import (
    NATURAL,
    FixedScaling,
    equal_weights,
    local_opt_weights,
    optimize_pool_weights,
    softmax_weights,
)
from localpools.simulation import DgpConfig, generate_dgp, nig_evaluation_stream

EVAL_ARGS = [
    "--simulate",
    "--sample-size", "60",
    "--warmup", "5",
    "--history", "15",
    "--widths", "1,inf",
    "--scalings", "1,natural",
]


def _score_csv(tmp_path, T=40, seed=0):
    rng = np.random.default_rng(seed)
    stream = EvaluationStream(
        rng.normal(size=(T, 2)),
        rng.normal(size=T),
        rng.normal(-1.5, 1.0, size=(T, 2)),
        ("alpha", "beta"),
    )
    return write_score_csv(tmp_path / "scores.csv", stream)


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    assert "usage" in capsys.readouterr().err


def test_evaluate_simulated(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["evaluate", *EVAL_ARGS, "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "total log score" in stdout
    for name in ("steps.csv", "summary.json", "manifest.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_reported_steps"] == 40


def test_evaluate_scores_csv_round_trip_agrees(tmp_path):
    dump = tmp_path / "dump.csv"
    out1 = tmp_path / "direct"
    out2 = tmp_path / "reloaded"
    assert main(["evaluate", *EVAL_ARGS, "--out", str(out1), "--dump-scores", str(dump)]) == 0
    assert dump.exists()
    assert (
        main(
            [
                "evaluate",
                "--scores", str(dump),
                "--warmup", "5",
                "--history", "15",
                "--widths", "1,inf",
                "--scalings", "1,natural",
                "--out", str(out2),
            ]
        )
        == 0
    )
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["total_log_score"] == s2["total_log_score"]
    assert (out1 / "steps.csv").read_bytes() == (out2 / "steps.csv").read_bytes()


def test_gridsearch(tmp_path):
    out = tmp_path / "grid"
    rc = main(["gridsearch", *EVAL_ARGS, "--out", str(out)])
    assert rc == 0
    lines = (out / "gridsearch.csv").read_text().splitlines()
    assert lines[0] == "family,cell,shadow_total_all,shadow_total_reported"
    # 2 widths x 2 scalings softmax cells plus 2 width-only cells
    assert len(lines) == 1 + 4 + 2
    families = {line.split(",")[0] for line in lines[1:]}
    assert families == {"local_softmax", "local_opt"}


def test_gridsearch_leaves_dead_rows_out_of_the_totals(tmp_path, capsys):
    base = nig_evaluation_stream(generate_dgp(DgpConfig(sample_size=400, seed=3)))
    scores = base.log_scores.copy()
    scores[150] = -np.inf  # every expert dead on one row
    path = write_score_csv(
        tmp_path / "scores.csv",
        EvaluationStream(base.pooling_points, base.outcomes, scores, base.expert_names),
    )
    out = tmp_path / "grid"
    flags = ["--warmup", "50", "--history", "50", "--widths", "0.5,1,inf", "--scalings", "1,natural"]
    assert main(["gridsearch", "--scores", str(path), *flags, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    with open(out / "gridsearch.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))

    stream = load_score_csv(path)
    config = EvaluationConfig(
        warmup_size=50,
        history_size=50,
        width_grid=(0.5, 1.0, math.inf),
        scaling_grid=(FixedScaling(1.0), NATURAL),
    )
    result = rolling_evaluate(stream, config)
    live = np.any(stream.log_scores[50:] > -np.inf, axis=1)
    reported = result.history.time_indices >= 100
    assert live.sum() == live.size - 1
    np.testing.assert_array_equal(result.history.live_rows, live)
    for family, labels in result.candidate_labels.items():
        table = result.candidate_log_scores[family]
        written = [row for row in rows if row["family"] == family]
        assert [row["cell"] for row in written] == list(labels)
        total_all = np.array([float(row["shadow_total_all"]) for row in written])
        total_rep = np.array([float(row["shadow_total_reported"]) for row in written])
        assert np.all(np.isfinite(total_all)) and np.all(np.isfinite(total_rep))
        np.testing.assert_array_equal(total_all, table[live].sum(axis=0))
        np.testing.assert_array_equal(total_rep, table[live & reported].sum(axis=0))
        best = labels[int(np.argmax(total_all))]
        assert f"{family}: best cell by shadow total is {best}" in stdout


@pytest.mark.filterwarnings("error")
def test_scores_that_overflow_the_softmax_run_to_the_end(tmp_path):
    """Log scores of -1e308 and 1e308, which the loader accepts, take a
    factor times a caliper mean to -inf and +inf; every command still
    exits 0 with weights on the simplex."""
    rng = np.random.default_rng(0)
    T = 60
    scores = rng.normal(-1.5, 1.0, size=(T, 2))
    scores[:, 0] = -1e308
    scores[::7, 1] = 1e308
    stream = EvaluationStream(rng.normal(size=(T, 2)), rng.normal(size=T), scores, ("alpha", "beta"))
    path = write_score_csv(tmp_path / "scores.csv", stream)
    flags = ["--scores", str(path), "--warmup", "5", "--history", "10"]
    assert main(["evaluate", *flags, "--out", str(tmp_path / "ev")]) == 0
    assert main(["gridsearch", *flags, "--out", str(tmp_path / "gs")]) == 0
    once = tmp_path / "once.json"
    assert main(["pool-once", "--scores", str(path), "--point", "0,0", "--out", str(once)]) == 0
    with open(tmp_path / "ev" / "steps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == T - 15
    weights = json.loads(once.read_text())["weights"]
    assert weights["local_softmax"] == {"alpha": 0.0, "beta": 1.0}
    for scheme in weights:
        cells = [[float(row[f"w_{scheme}_{name}"]) for name in ("alpha", "beta")] for row in rows]
        cells.append(list(weights[scheme].values()))
        for cell in cells:
            assert all(0.0 <= w <= 1.0 for w in cell) and abs(math.fsum(cell) - 1.0) <= 1e-12


# Two scores of 1e308 sum to +inf, and the -inf after them makes that NaN
# in every sum that reaches it: the caliper means, the shadow totals and
# the gridsearch totals.
INF_MEETS_MINUS_INF = "t,y,z_1,lp_a,lp_b\n0,0,0.0,1e308,0\n1,0,0.1,1e308,0\n2,0,0.2,-inf,0\n3,0,0.3,0,0\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["evaluate", "gridsearch", "pool-once"])
def test_a_sum_that_overflows_then_meets_minus_inf_is_minus_inf(tmp_path, command):
    """Scores are NaN-free and below +inf, so a NaN in a sum of them is an
    overflowed +inf meeting a -inf score, whose exact sum is -inf.  Every
    command runs to the end with no warning and reports that -inf."""
    path = tmp_path / "scores.csv"
    path.write_text(INF_MEETS_MINUS_INF)
    out = tmp_path / "out"
    if command == "pool-once":
        args = ["--point", "0.1", "--width", "1", "--out", str(out)]
    else:
        args = ["--warmup", "0", "--history", "0", "--schemes", "local_softmax", "--out", str(out)]
    assert main([command, "--scores", str(path), *args]) == 0
    if command == "pool-once":
        payload = json.loads(out.read_text())
        assert payload["neighbor_count"] == 3
        assert payload["local_estimates"] == {"a": -math.inf, "b": 0.0}
        assert payload["weights"]["local_softmax"] == {"a": 0.0, "b": 1.0}
        return
    config = EvaluationConfig(schemes=("local_softmax",))
    result = rolling_evaluate(load_score_csv(path), config)
    table = result.candidate_log_scores["local_softmax"]
    with np.errstate(over="ignore", invalid="ignore"):
        exact = np.where((table == -np.inf).any(axis=0), -np.inf, table.sum(axis=0))
        before = np.where((table[:3] == -np.inf).any(axis=0), -np.inf, table[:3].sum(axis=0))
    assert -np.inf in exact
    if command == "gridsearch":
        with open(out / "gridsearch.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for key in ("shadow_total_all", "shadow_total_reported"):
            np.testing.assert_array_equal([float(row[key]) for row in rows], exact)
        return
    # Step 3 picks on the totals of steps 0-2: the first cell reaching the best one.
    with open(out / "steps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    cell = result.candidate_labels["local_softmax"][int(np.argmax(before))]
    assert f"width={rows[3]['width_local_softmax']},{rows[3]['scaling_local_softmax']}" == cell


@pytest.mark.filterwarnings("error")
def test_a_reported_total_that_overflows_then_meets_minus_inf_is_minus_inf(tmp_path, capsys):
    """Two pooled scores near 1e308 and a dead row sum to -inf in summary.json, not NaN."""
    path = tmp_path / "scores.csv"
    path.write_text("t,y,z_1,lp_a,lp_b\n0,0,0,1e308,1e308\n1,0,1,1e308,1e308\n2,0,2,-inf,-inf\n3,0,3,0,0\n")
    out = tmp_path / "out"
    flags = ["--warmup", "0", "--history", "0", "--schemes", "equal", "--out", str(out)]
    assert main(["evaluate", "--scores", str(path), *flags]) == 0
    assert "equal: total log score -inf over 4 steps" in capsys.readouterr().out
    assert json.loads((out / "summary.json").read_text())["total_log_score"] == {"equal": -math.inf}


def _fresh_python(code: str, cwd) -> None:
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    src = str(Path(localpools.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, check=True, timeout=60)


def test_score_csv_commands_start_and_run_without_scipy(tmp_path):
    """Only the Student-t density needs scipy: with scipy blocked, the
    package imports and every command that reads a score CSV runs."""
    _score_csv(tmp_path)
    _fresh_python(
        """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import localpools
from localpools.cli import main
flags = ["--scores", "scores.csv", "--warmup", "5", "--history", "10"]
assert main(["evaluate", *flags, "--out", "ev"]) == 0
assert main(["gridsearch", *flags, "--out", "gs"]) == 0
assert main(["pool-once", "--scores", "scores.csv", "--point", "0,0", "--out", "once.json"]) == 0
""",
        tmp_path,
    )


def test_scipy_loads_at_the_first_student_t_density(tmp_path):
    _fresh_python(
        """
import sys
from localpools.cli import main
assert "scipy" not in sys.modules
argv = ["evaluate", "--simulate", "--sample-size", "30", "--warmup", "5", "--history", "5",
        "--schemes", "equal", "--out", "ev"]
assert main(argv) == 0
assert "scipy.special" in sys.modules
""",
        tmp_path,
    )


_NON_ASCII_RUN = """
import sys
import numpy as np
from localpools.cli import main
from localpools.evaluation import EvaluationStream
from localpools.io import load_score_csv, write_score_csv
assert sys.flags.utf8_mode == {utf8}
rng = np.random.default_rng(0)
names = ("caf\\u00e9", "beta")
stream = EvaluationStream(
    rng.normal(size=(40, 2)), rng.normal(size=40), rng.normal(-1.5, 1.0, size=(40, 2)), names
)
write_score_csv("scores.csv", stream)
assert load_score_csv("scores.csv").expert_names == names
flags = ["--scores", "scores.csv", "--warmup", "5", "--history", "10"]
assert main(["evaluate", *flags, "--out", "ev"]) == 0
"""


def test_artifacts_are_utf8_under_an_ascii_locale(tmp_path):
    """An expert named café goes through write, load and evaluate under the
    C locale with UTF-8 mode off, and every file equals the bytes written
    in UTF-8 mode."""
    src = str(Path(localpools.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
    env.update(PYTHONPATH=src, LC_ALL="C", PYTHONCOERCECLOCALE="0")
    for utf8 in (0, 1):
        cwd = tmp_path / f"utf8_{utf8}"
        cwd.mkdir()
        code = _NON_ASCII_RUN.format(utf8=utf8)
        argv = [sys.executable, "-X", f"utf8={utf8}", "-c", code]
        subprocess.run(argv, cwd=cwd, env=env, check=True, timeout=60)
    files = ["scores.csv", "ev/steps.csv", "ev/summary.json", "ev/manifest.json"]
    for name in files:
        assert (tmp_path / "utf8_0" / name).read_bytes() == (tmp_path / "utf8_1" / name).read_bytes()
    header = (tmp_path / "utf8_0" / "scores.csv").read_bytes().splitlines()[0]
    assert header == "t,y,z_1,z_2,lp_café,lp_beta".encode("utf-8")


def test_pool_once_to_file(tmp_path):
    scores = _score_csv(tmp_path)
    out = tmp_path / "pool.json"
    rc = main(
        [
            "pool-once",
            "--scores", str(scores),
            "--point", "0.5,-0.25",
            "--width", "2.0",
            "--scaling", "natural",
            "--out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["query_point"] == [0.5, -0.25]
    assert payload["width"] == 2.0
    assert payload["neighbor_count"] >= 0
    assert set(payload["weights"]) == {"local_softmax", "equal", "global_opt", "local_opt"}
    for weights in payload["weights"].values():
        assert set(weights) == {"alpha", "beta"}
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)

    stream = load_score_csv(scores)
    history = History(stream.n_pooling_dims, stream.n_experts)
    for i in range(stream.n_steps):
        history.append(
            PredictionRecord(
                time_index=int(stream.time_indices[i]),
                pooling_point=stream.pooling_points[i],
                outcome=float(stream.outcomes[i]),
                log_scores=stream.log_scores[i],
            )
        )
    point = np.array([0.5, -0.25])
    direct = {
        "local_softmax": softmax_weights(caliper_elpd(history, point, 2.0), NATURAL),
        "local_opt": local_opt_weights(history, point, 2.0),
        "equal": equal_weights(2),
        "global_opt": optimize_pool_weights(history.score_matrix),
    }
    for scheme, weights in direct.items():
        assert [payload["weights"][scheme][n] for n in ("alpha", "beta")] == list(
            weights.values
        )


def test_pool_once_to_stdout(tmp_path, capsysbinary):
    """Without ``--out``, pool-once prints exactly the bytes ``--out`` writes."""
    scores = _score_csv(tmp_path)
    argv = ["pool-once", "--scores", str(scores), "--point", "0,0"]
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    payload = json.loads(printed)
    assert set(payload["local_estimates"]) == {"alpha", "beta"}
    assert payload["scaling"] == "natural"
    out = tmp_path / "once.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert printed == out.read_bytes()


_SIMULATE_ERROR = ["simulate", "--study", "error", "--replications", "100", "--sample-size", "60"]


@pytest.mark.parametrize(
    "args, flag, value, out, payload, key, expected",
    [
        (["pool-once"], "--point", "-0.5,1", "once.json", "once.json", "query_point", [-0.5, 1.0]),
        ([*_SIMULATE_ERROR, "--widths", "1"], "--query-points", "-1,0;0,0", "sim",
         "sim/manifest.json", "query_points", [[-1.0, 0.0], [0.0, 0.0]]),
    ],
    ids=["pool-once", "simulate"],
)
def test_a_negative_coordinate_may_follow_its_flag_as_a_separate_word(
    tmp_path, capsys, args, flag, value, out, payload, key, expected
):
    """``--point -0.5,1`` gives the bytes of ``--point=-0.5,1``, and
    ``--query-points "-1,0;0,0"`` those of ``--query-points=-1,0;0,0``."""
    if args[0] == "pool-once":
        args = [*args, "--scores", str(_score_csv(tmp_path))]
    written, printed = [], []
    for form, words in (("equals", [f"{flag}={value}"]), ("word", [flag, value])):
        (tmp_path / form).mkdir()
        assert main([*args, *words, "--out", str(tmp_path / form / out)]) == 0
        printed.append(capsys.readouterr().out.replace(form, "FORM"))
        files = sorted(p for p in (tmp_path / form).rglob("*") if p.is_file())
        written.append({p.relative_to(tmp_path / form): p.read_bytes() for p in files})
    assert written[0] == written[1] and printed[0] == printed[1]
    assert json.loads((tmp_path / "word" / payload).read_text())[key] == expected


def test_a_negative_width_keeps_its_error(tmp_path, capsys):
    """A lone negative number is a value to argparse already: ``--width -1``
    reaches the width rule, and a list of them is joined to reach it too."""
    scores = str(_score_csv(tmp_path))
    assert main(["pool-once", "--scores", scores, "--point", "0,0", "--width", "-1"]) == 1
    assert capsys.readouterr().err == "error: caliper widths must be positive, got -1.0\n"
    argv = ["evaluate", "--scores", scores, "--warmup", "5", "--history", "5", "--widths", "-1,2"]
    assert main([*argv, "--out", str(tmp_path / "ev")]) == 1
    assert capsys.readouterr().err == "error: caliper widths must be positive, got -1.0\n"
    assert not (tmp_path / "ev").exists()


def test_simulate_error_study(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate",
            "--study", "error",
            "--replications", "100",
            "--sample-size", "150",
            "--query-points", "2,0",
            "--widths", "0.5,1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert (out / "error_study_0.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["replications"] == 100
    assert manifest["query_points"] == [[2.0, 0.0]]
    assert "error study" in capsys.readouterr().out


def test_simulate_pool_study(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate",
            "--study", "pool",
            "--replications", "100",
            "--sample-size", "150",
            "--widths", "0.5,1",
            "--query-points", "2,0;0,0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert (out / "pool_study.csv").exists()
    assert (out / "polarization.csv").exists()
    assert "max weight > 0.99" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bad",
    [
        ["--schemes", "local_softmax,bogus"],
        ["--query-points", "2,0,1"],
        ["--widths", "0.5,-1"],
        ["--train-fraction", "1.0"],
        ["--replications", "99"],
        ["--widths", ""],
        ["--schemes", ""],
        ["--query-points", ""],
    ],
)
def test_simulate_checks_every_input_before_writing(tmp_path, capsys, bad):
    out = tmp_path / "sim"
    args = ["simulate", "--study", "both", "--replications", "100", "--sample-size", "200"]
    rc = main([*args, "--query-points", "2,0", *bad, "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, command",
    [
        pytest.param(["--widths", "0,1"], ["simulate", "--study", "both"], id="simulate-width-0"),
        pytest.param(["--schemes", "equal,equal"], ["simulate", "--study", "pool"],
                     id="simulate-duplicate-schemes"),
        pytest.param(["--widths", "0"], ["pool-once", "--width", "0"], id="pool-once-width-0"),
    ],
)
def test_every_command_refuses_a_bad_width_or_scheme_list_as_evaluate_does(
    tmp_path, capsys, flags, command
):
    """Widths and scheme lists have one rule each, so every command refuses
    the same input with the message ``evaluate`` gives, and writes nothing."""
    rc = main(["evaluate", *EVAL_ARGS, *flags, "--out", str(tmp_path / "ev")])
    message = capsys.readouterr().err
    assert rc == 1 and message.startswith("error: ")
    assert not (tmp_path / "ev").exists()
    out = tmp_path / "out"
    if command[0] == "simulate":
        rest = ["--replications", "100", "--sample-size", "200", *flags]
    else:
        rest = ["--scores", str(_score_csv(tmp_path)), "--point", "0,0"]
    assert main([*command, *rest, "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_simulate_rejects_an_unknown_study_from_the_config(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[simulate]\nstudy = bogus\n[run]\noutput_dir = {tmp_path / 'sim'}\n")
    assert main(["--config", str(ini), "simulate", "--replications", "100"]) == 1
    assert "unknown study" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_simulate_both_is_one_pass_equal_to_the_separate_studies(tmp_path, monkeypatch):
    """``--study both`` fits each replication once and gives, bit for bit,
    what the two studies give when each runs on its own."""
    from localpools import cli, simulation
    from localpools.evaluation import ALL_SCHEMES

    fits, results = [], {}
    split = simulation._fit_and_score_split

    def counting(*args):
        fits.append(len(args[0].outcomes))
        return split(*args)

    def recording(writer):
        def write(path, result):
            results[path.name] = result
            return writer(path, result)

        return write

    monkeypatch.setattr(simulation, "_fit_and_score_split", counting)
    for name in ("write_error_study_csv", "write_pool_study_csv"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    rc = main(
        [
            "simulate", "--study", "both", "--replications", "100", "--sample-size", "400",
            "--seed", "5", "--query-points", "2,0;0.5,-1", "--schemes", ",".join(ALL_SCHEMES),
            "--out", str(tmp_path / "sim"),
        ]
    )
    monkeypatch.undo()
    assert rc == 0
    assert len(fits) == 100

    config = DgpConfig(sample_size=400, seed=5)
    for i, point in enumerate([(2.0, 0.0), (0.5, -1.0)]):
        alone = simulation.estimator_error_study(point, replications=100, config=config)
        both = results[f"error_study_{i}.csv"]
        np.testing.assert_array_equal(both.errors, alone.errors)
        np.testing.assert_array_equal(both.neighbor_counts, alone.neighbor_counts)
        np.testing.assert_array_equal(both.true_elpd, alone.true_elpd)
    alone = simulation.pool_comparison_study(
        ((2.0, 0.0), (0.5, -1.0)), replications=100, config=config, schemes=ALL_SCHEMES
    )
    both = results["pool_study.csv"]
    np.testing.assert_array_equal(both.scores, alone.scores)
    np.testing.assert_array_equal(both.full_data_max_weight, alone.full_data_max_weight)


def test_config_file_with_flag_override(tmp_path):
    """A file shared by every command: the keys of the others are accepted."""
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nseed = 7\noutput_dir = {out}\n"
        "[dgp]\nsample_size = 60\ntrain_fraction = 0.25\n"
        "[data]\nsimulate = true\n"
        "[evaluation]\nwarmup_size = 3\nhistory_size = 10\n"
        "width_grid = 1, inf\nscaling_grid = 1, natural\n"
        "[simulate]\nstudy = pool\nreplications = 100\npool_widths = 2\n"
        "[query]\nwidth = 0.5\nscaling = 2\n".format(out=tmp_path / "from_ini")
    )
    rc = main(["--config", str(ini), "evaluate", "--history", "12"])
    assert rc == 0
    manifest = json.loads((tmp_path / "from_ini" / "manifest.json").read_text())
    assert manifest["config"]["warmup_size"] == 3  # from the INI file
    assert manifest["config"]["history_size"] == 12  # flag wins over INI
    assert manifest["config"]["seed"] == 7


@pytest.mark.parametrize(
    "body, where",
    [
        ("[evaluation]\nwarmup = 5\n", "key 'warmup' in section [evaluation]"),
        ("[evaluate]\nwarmup_size = 5\n", "key 'warmup_size' in section [evaluate]"),
        ("[run]\nout = elsewhere\n", "key 'out' in section [run]"),
    ],
    ids=["misspelt-key", "unknown-section", "flag-name"],
)
def test_a_config_key_that_no_command_reads_is_refused(tmp_path, capsys, body, where):
    ini = tmp_path / "run.ini"
    ini.write_text(body)
    out = tmp_path / "out"
    rc = main(["--config", str(ini), "evaluate", *EVAL_ARGS, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {ini}: no command reads {where}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "body", ["[DEFAULT]\nwarmup_size = 5\n", "[DEFAULT]\nwarmup_size = 5\n[run]\nseed = 3\n"],
    ids=["alone", "beside-a-section"],
)
def test_a_default_section_key_is_refused_in_its_own_name(tmp_path, capsys, body):
    """configparser would copy a ``[DEFAULT]`` key into every section, where
    it either ran unread or was blamed on another section."""
    ini = tmp_path / "run.ini"
    ini.write_text(body)
    out = tmp_path / "out"
    rc = main(["--config", str(ini), "evaluate", "--scores", str(tmp_path / "missing.csv"), "--out", str(out)])
    assert rc == 1
    err = f"error: {ini}: no command reads key 'warmup_size' in section [DEFAULT]\n"
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


@pytest.mark.parametrize(
    "body, where, reason",
    [
        ("[evaluation]\nwarmup_size = x\n", "key 'warmup_size' in section [evaluation]",
         "invalid literal for int() with base 10: 'x'"),
        ("[data]\nsimulate = maybe\n", "key 'simulate' in section [data]", "not a boolean: 'maybe'"),
    ],
    ids=["int", "boolean"],
)
def test_a_bad_config_value_names_its_file_section_and_key(tmp_path, capsys, body, where, reason):
    ini = tmp_path / "run.ini"
    ini.write_text(body)
    out = tmp_path / "out"
    assert main(["--config", str(ini), "evaluate", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {ini}: {where}: {reason}\n")
    assert not out.exists()
    # The same value as a flag stays a usage error.
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--warmup", "x", "--out", str(out)])
    assert exit_info.value.code == 2


def test_simulate_in_the_config_beats_its_scores_csv_as_the_flag_does(tmp_path, capsys):
    """``[data] simulate`` means what ``--simulate`` means: it beats the
    file's ``scores_csv``, and a ``--scores`` flag beats it."""
    csv_path = _score_csv(tmp_path)
    ini = tmp_path / "run.ini"
    ini.write_text(
        f"[data]\nscores_csv = {csv_path}\nsimulate = yes\n"
        "[dgp]\nsample_size = 60\n"
        "[evaluation]\nwarmup_size = 5\nhistory_size = 15\n"
    )

    def source(*flags):
        out = tmp_path / f"out{len(flags)}"
        assert main(["--config", str(ini), "evaluate", *flags, "--out", str(out)]) == 0
        metadata = json.loads((out / "manifest.json").read_text())["metadata"]
        return {key: value for key, value in metadata.items() if key != "command"}

    assert source() == {"simulated": True, "sample_size": 60}
    assert source("--scores", str(csv_path)) == {"scores_csv": str(csv_path)}
    ini.write_text(ini.read_text().replace("simulate = yes", "simulate = off"))
    assert source() == {"scores_csv": str(csv_path)}
    ini.write_text(ini.read_text().replace("simulate = off", "simulate = maybe"))
    assert main(["--config", str(ini), "evaluate", "--out", str(tmp_path / "bad")]) == 1
    err = f"error: {ini}: key 'simulate' in section [data]: not a boolean: 'maybe'\n"
    assert capsys.readouterr().err == err
    assert not (tmp_path / "bad").exists()


def test_the_readme_lists_every_config_key_with_its_flag():
    """README's configuration table names the keys and flags of ``cli._SETTINGS``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| `--([\w-]+)` \|", readme, re.M)
    assert len(rows) == len(_SETTINGS)
    listed = {(section, key): flag for section, key, flag in rows}
    assert listed == {name: entry[0].replace("_", "-") for name, entry in _SETTINGS.items()}


def test_missing_scores_file_exits_nonzero(tmp_path, capsys):
    rc = main(["evaluate", "--scores", str(tmp_path / "none.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_scheme_exits_nonzero(tmp_path, capsys):
    rc = main(["evaluate", *EVAL_ARGS, "--schemes", "bogus", "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, line",
    [
        # A cell longer than the csv module's field limit of 131,072 characters.
        (b"0,1.0,0.5,-1\n1,1.0,0.5," + b"1" * 200_000 + b"\n", 3),
        (b"0,1.0,0.5,-1\n1,1.0,0.5,-1\xff\n", 3),
    ],
    ids=["field-limit", "not-utf8"],
)
def test_an_unreadable_csv_is_an_error_line_naming_the_file(tmp_path, capsys, body, line):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"t,y,z_1,lp_a\n" + body)
    rc = main(["evaluate", "--scores", str(bad), "--warmup", "0", "--history", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line {line}") and "Traceback" not in err


@pytest.mark.parametrize(
    "body, line",
    [
        (b"[run]\nseed = 7\xff\n", 2),
        (b"seed = 7\n[run]\n", 1),
        (b"[run]\nseed = 7\nSeed = 8\n", 3),
    ],
    ids=["not-utf8", "no-section-header", "duplicate-key"],
)
def test_an_unreadable_config_is_an_error_line_naming_the_file(tmp_path, capsys, body, line):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(body)
    rc = main(["--config", str(ini), "evaluate", *EVAL_ARGS, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ini}: line {line}: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_malformed_csv_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,y,z_1,lp_a\n0,1.0,0.5,nan\n")
    rc = main(["evaluate", "--scores", str(bad), "--warmup", "0", "--history", "0"])
    assert rc == 1
    assert "lp_a" in capsys.readouterr().err


@pytest.mark.parametrize("huge", ["1e20", "9223372036854775808"])
def test_a_time_beyond_int64_is_an_error_line_not_a_crash(tmp_path, capsys, huge):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"t,y,z_1,lp_a\n0,1.0,0.5,-1\n{huge},1.0,0.5,-1\n")
    rc = main(["evaluate", "--scores", str(bad), "--warmup", "0", "--history", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 3, column 't': time_index must be an integer" in err
