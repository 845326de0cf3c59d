from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localpools.evaluation import EvaluationConfig, EvaluationStream, rolling_evaluate
from localpools.io import (
    ScoreCsvError,
    emit_results,
    format_real,
    load_score_csv,
    parse_scaling_grid,
    parse_scaling_token,
    parse_width_grid,
    read_config_file,
    write_score_csv,
)
from localpools.pools import NATURAL, FixedScaling


def _stream(T=25, k=2, seed=0):
    rng = np.random.default_rng(seed)
    return EvaluationStream(
        rng.normal(size=(T, 2)),
        rng.normal(size=T),
        rng.normal(-1.5, 1.0, size=(T, k)),
        tuple(f"m{j}" for j in range(k)),
    )


class TestFormatReal:
    def test_round_trips_doubles(self):
        for v in (1 / 3, math.pi, 1e-308, -1.5, 0.1 + 0.2):
            assert float(format_real(v)) == v

    def test_special_values(self):
        assert format_real(math.inf) == "inf"
        assert float(format_real(-math.inf)) == -math.inf


class TestScoreCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        stream = _stream()
        path = write_score_csv(tmp_path / "scores.csv", stream)
        back = load_score_csv(path)
        np.testing.assert_array_equal(back.pooling_points, stream.pooling_points)
        np.testing.assert_array_equal(back.outcomes, stream.outcomes)
        np.testing.assert_array_equal(back.log_scores, stream.log_scores)
        np.testing.assert_array_equal(back.time_indices, stream.time_indices)
        assert back.expert_names == stream.expert_names

    def test_minus_inf_scores_survive(self, tmp_path):
        stream = EvaluationStream(
            np.zeros((2, 1)),
            np.zeros(2),
            np.array([[-np.inf, -1.0], [-2.0, -3.0]]),
            ("a", "b"),
        )
        back = load_score_csv(write_score_csv(tmp_path / "s.csv", stream))
        assert back.log_scores[0, 0] == -np.inf

    def test_rewrite_is_byte_identical(self, tmp_path):
        stream = _stream(seed=5)
        p1 = write_score_csv(tmp_path / "a.csv", stream)
        p2 = write_score_csv(tmp_path / "b.csv", load_score_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()


def _write(tmp_path, text):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    return p


class TestScoreCsvErrors:
    GOOD_HEADER = "t,y,z_1,z_2,lp_a,lp_b\n"
    GOOD_ROW = "0,1.5,0.1,0.2,-1.0,-2.0\n"

    def _expect(self, tmp_path, text, fragment):
        with pytest.raises(ScoreCsvError, match=fragment):
            load_score_csv(_write(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_score_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        self._expect(tmp_path, "", "empty")

    def test_header_must_start_with_t_y(self, tmp_path):
        self._expect(tmp_path, "time,y,z_1,lp_a\n0,1,2,-1\n", "header")

    def test_header_needs_experts(self, tmp_path):
        self._expect(tmp_path, "t,y,z_1\n0,1.0,0.5\n", "lp_")

    def test_header_needs_pooling_dims(self, tmp_path):
        self._expect(tmp_path, "t,y,lp_a\n0,1.0,-0.5\n", "z_")

    def test_duplicate_expert_names(self, tmp_path):
        self._expect(tmp_path, "t,y,z_1,lp_a,lp_a\n0,1,2,-1,-1\n", "unique|duplicate")

    def test_no_data_rows(self, tmp_path):
        self._expect(tmp_path, self.GOOD_HEADER, "no data rows")

    def test_ragged_row_names_line(self, tmp_path):
        self._expect(
            tmp_path,
            self.GOOD_HEADER + self.GOOD_ROW + "1,1.0,0.3\n",
            "line 3",
        )

    def test_nan_cell_rejected_with_location(self, tmp_path):
        self._expect(
            tmp_path,
            self.GOOD_HEADER + "0,1.5,0.1,nan,-1.0,-2.0\n",
            "line 2.*z_2|z_2.*line 2",
        )

    def test_non_number_cell(self, tmp_path):
        self._expect(
            tmp_path,
            self.GOOD_HEADER + "0,1.5,0.1,0.2,-1.0,oops\n",
            "lp_b",
        )

    def test_plus_inf_score_rejected(self, tmp_path):
        self._expect(
            tmp_path,
            self.GOOD_HEADER + "0,1.5,0.1,0.2,inf,-2.0\n",
            "lp_a",
        )

    def test_infinite_outcome_rejected(self, tmp_path):
        self._expect(
            tmp_path,
            self.GOOD_HEADER + "0,inf,0.1,0.2,-1.0,-2.0\n",
            "finite",
        )

    def test_non_integer_time(self, tmp_path):
        self._expect(
            tmp_path,
            self.GOOD_HEADER + "0.5,1.5,0.1,0.2,-1.0,-2.0\n",
            "integer",
        )

    def test_unsorted_time(self, tmp_path):
        self._expect(
            tmp_path,
            self.GOOD_HEADER + "5,1.5,0.1,0.2,-1.0,-2.0\n" + self.GOOD_ROW,
            "sorted by t",
        )

    def test_any_cell_float_reads_is_a_number(self, tmp_path):
        stream = load_score_csv(_write(tmp_path, "t,y,z_1,lp_a,lp_b\n1e1,1_0, 0.5 ,-Infinity,-2\n"))
        assert stream.time_indices.tolist() == [10]
        assert (stream.outcomes[0], stream.pooling_points[0, 0]) == (10.0, 0.5)
        assert stream.log_scores.tolist() == [[-math.inf, -2.0]]


_ODD_CELLS = (
    "1e20", "9223372036854775808", "nan", "inf", "-inf", "-Infinity", "1e308", "-1e308",
    "1_0", " 0.5 ",
)
_CELL = st.one_of(
    st.floats(min_value=-100, max_value=100).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(_ODD_CELLS),
)


@st.composite
def _score_csv_text(draw):
    """Score-CSV text under a valid header: increasing integer times with
    odd cells mixed in, so many files load and many are refused."""
    d, k, n = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    header = ["t", "y", *(f"z_{j + 1}" for j in range(d)), *(f"lp_{j}" for j in range(k))]
    lines = [",".join(header)]
    time = draw(st.integers(-3, 3))
    for _ in range(n):
        time += draw(st.integers(1, 3))
        t = draw(st.one_of(st.just(str(time)), _CELL))
        rest = draw(st.lists(_CELL, min_size=1 + d + k, max_size=1 + d + k))
        lines.append(",".join([t, *rest]))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(_score_csv_text())
@settings(max_examples=300, deadline=None)
def test_the_loader_returns_a_stream_or_a_score_csv_error(fuzz_dir, text):
    """No cell text crashes the loader; whatever it accepts round-trips."""
    try:
        stream = load_score_csv(_write(fuzz_dir, text))
    except ScoreCsvError:
        return
    first = write_score_csv(fuzz_dir / "a.csv", stream)
    second = write_score_csv(fuzz_dir / "b.csv", load_score_csv(first))
    assert first.read_bytes() == second.read_bytes()


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    stream = _stream(T=30, seed=2)
    config = EvaluationConfig(
        warmup_size=2,
        history_size=8,
        width_grid=(1.0, math.inf),
        scaling_grid=(FixedScaling(1.0), NATURAL),
    )
    result = rolling_evaluate(stream, config)
    out = tmp_path_factory.mktemp("run")
    paths = emit_results(result, out, metadata={"note": "unit test"})
    return result, paths


class TestEmitResults:
    def test_files_exist(self, emitted):
        _, paths = emitted
        assert set(paths) == {"steps", "summary", "manifest"}
        for p in paths.values():
            assert p.exists()

    def test_summary_totals_match(self, emitted):
        result, paths = emitted
        summary = json.loads(paths["summary"].read_text())
        totals = result.totals()
        assert summary["n_reported_steps"] == result.reported_times.size
        for scheme, total in totals.items():
            assert summary["total_log_score"][scheme] == pytest.approx(
                total, abs=1e-9
            )
        assert summary["expert_names"] == list(result.expert_names)

    def test_steps_csv_weight_rows_sum_to_one(self, emitted):
        result, paths = emitted
        lines = paths["steps"].read_text().splitlines()
        header = lines[0].split(",")
        for scheme in result.config.schemes:
            cols = [
                i for i, name in enumerate(header)
                if name.startswith(f"w_{scheme}_")
            ]
            assert len(cols) == len(result.expert_names)
            for line in lines[1:]:
                cells = line.split(",")
                s = sum(float(cells[i]) for i in cols)
                assert s == pytest.approx(1.0, abs=1e-9)

    def test_steps_csv_has_one_row_per_reported_step(self, emitted):
        result, paths = emitted
        lines = paths["steps"].read_text().splitlines()
        assert len(lines) == 1 + result.reported_times.size
        first = lines[1].split(",")
        assert int(first[0]) == result.reported_times[0]

    def test_steps_csv_rows_are_the_reported_arrays(self, emitted):
        result, paths = emitted
        with open(paths["steps"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        start = result.config.history_size
        history = result.history
        for i, row in enumerate(rows):
            assert int(row["t"]) == result.reported_times[i]
            assert float(row["y"]) == history.outcomes[start + i]
            assert float(row["z_1"]) == history.pooling_points[start + i, 0]
            for scheme in result.config.schemes:
                assert float(row[f"pooled_{scheme}"]) == result.pooled_log_scores[scheme][i]
                written = [float(row[f"w_{scheme}_{n}"]) for n in result.expert_names]
                np.testing.assert_array_equal(written, result.weights[scheme][i])
                width, scaling = result.cells[scheme][result.chosen_cells[scheme][i]]
                if width is not None:
                    assert float(row[f"width_{scheme}"]) == width
                if scaling is not None:
                    assert row[f"scaling_{scheme}"] == scaling.label()

    def test_manifest_contents(self, emitted):
        result, paths = emitted
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["artifact_version"] == 1
        assert manifest["package"]["name"] == "localpools"
        assert manifest["metadata"] == {"note": "unit test"}
        assert manifest["config"]["warmup_size"] == 2
        assert "inf" in manifest["config"]["width_grid"]

    def test_rerun_is_byte_identical(self, emitted, tmp_path):
        result, paths = emitted
        again = emit_results(result, tmp_path, metadata={"note": "unit test"})
        for key in paths:
            assert paths[key].read_bytes() == again[key].read_bytes()


def test_steps_csv_leads_with_the_score_csv_of_the_reported_steps(tmp_path):
    """The record columns ``t, y, z_j, lp_<name>`` of steps.csv, header
    and rows, are byte for byte the score CSV of the reported steps."""
    rng = np.random.default_rng(7)
    T, d, k, skip = 40, 2, 3, 12
    scores = rng.normal(-1.5, 1.0, size=(T, k))
    scores[rng.random((T, k)) < 0.2] = -np.inf
    scores[[15, 30]] = -np.inf
    times = 1000 + 3 * np.arange(T)
    stream = EvaluationStream(rng.normal(size=(T, d)), rng.normal(size=T), scores, ("a", "b", "c"), times)
    config = EvaluationConfig(warmup_size=4, history_size=skip - 4, width_grid=(1.0, math.inf))
    steps = emit_results(rolling_evaluate(stream, config), tmp_path / "run")["steps"]
    reported = EvaluationStream(
        stream.pooling_points[skip:], stream.outcomes[skip:], scores[skip:], stream.expert_names, times[skip:]
    )
    written = write_score_csv(tmp_path / "reported.csv", reported).read_bytes().split(b"\n")
    lead = 2 + d + k
    leading = [b",".join(line.split(b",")[:lead]) for line in steps.read_bytes().split(b"\n")]
    assert b"-inf" in b"\n".join(written)
    assert leading == written


class TestConfigHelpers:
    def test_parse_scaling_token(self):
        assert parse_scaling_token("natural") is NATURAL
        assert parse_scaling_token("2.5") == FixedScaling(2.5)
        with pytest.raises(ValueError):
            parse_scaling_token("huge")

    def test_parse_width_grid(self):
        assert parse_width_grid("0.5, 2, inf") == (0.5, 2.0, math.inf)
        with pytest.raises(ValueError):
            parse_width_grid("")

    def test_parse_scaling_grid(self):
        grid = parse_scaling_grid("1, natural")
        assert grid == (FixedScaling(1.0), NATURAL)

    def test_read_config_file(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[evaluate]\nwarmup = 5\nwidths = 1, inf\n")
        cfg = read_config_file(p)
        assert cfg["evaluate"]["warmup"] == "5"
        assert cfg["evaluate"]["widths"] == "1, inf"

    def test_read_config_missing_file(self, tmp_path):
        with pytest.raises((OSError, ValueError)):
            read_config_file(tmp_path / "none.ini")
