import csv
import hashlib
import json
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epiqmap import cli, coupled, numkit


def write_config(tmp_path, config, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def epidemic2_config(**overrides):
    config = {
        "schema": 1,
        "model": "epidemic2",
        "t0": 0.0,
        "t1": 1.0,
        "dt": 0.01,
        "generator": {"s11": 0.0, "s12": 0.4, "s21": 0.6, "s22": -0.2},
        "initial_state": [0.7, 0.3],
    }
    config.update(overrides)
    return config


ZERO_RATES = {"s11": 0, "s12": 0, "s21": 0, "s22": 0}

EPIDEMIC_N = {
    "schema": 1, "model": "epidemicN",
    "t0": 0.0, "t1": 2.0, "dt": 0.01,
    "generator": {"matrix": [[0.0, 0.2, 0.0], [0.0, -0.2, 0.1], [0.0, 0.0, -0.1]]},
    "initial_state": [0.2, 0.5, 0.3],
}


# finite nodes and slope that the parse accepts, but np.interp's
# slope * (t - t_k) rounds past the float maximum at t = -1
OVERFLOWING_TABLE = [[-1e20, 0.0], [0.0, -1.7976931348623157e308]]
TABLE_OVERFLOW = "numeric failure: rate table overflows at t = -1.0\n"


def quantum_config(**overrides):
    config = {
        "schema": 1,
        "model": "quantum2q",
        "t0": 0.0,
        "t1": 1.0,
        "dt": 0.001,
        "hamiltonian": {
            "ep": [1.05, 0.95, 1.05, 0.95],
            "ts_a": 0.1,
            "ts_b": 0.1,
            "ec": [0.05, 0.1, 0.15, 0.2],
        },
        "initial_state": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.5]],
        "outputs": ["probabilities", "entropies"],
    }
    config.update(overrides)
    return config


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_epidemic2_header_and_exit(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config())
        code = cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        rows = read_rows(tmp_path / "out" / "series.csv")
        assert rows[0] == ["t", "p1", "p2", "pI", "pII", "r12"]
        assert len(rows) == 102  # header + 101 samples

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config(seed=7, events=[
            {"time": 0.5, "type": "projective", "target": "sample"}
        ]))
        for name in ("a", "b"):
            assert cli.main(["simulate", "--config", str(cfg),
                             "--out-dir", str(tmp_path / name)]) == 0
        for fname in ("series.csv", "series.csv.meta.json", "report.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_projective_event_collapses_state(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config(events=[
            {"time": 0.5, "type": "projective", "target": 1}
        ]))
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        rows = read_rows(tmp_path / "out" / "series.csv")
        jump = [r for r in rows[1:] if float(r[0]) == 0.5]
        assert jump and float(jump[0][1]) == 1.0 and float(jump[0][2]) == 0.0

    def test_events_leave_the_initial_state_alone(self, tmp_path):
        # an event at t0 rewrites the run's first row, and two events at
        # one time rewrite one row twice
        scenario = cli.parse_scenario(epidemic2_config(events=[
            {"time": 0.0, "type": "projective", "target": 1},
            {"time": 0.5, "type": "projective", "target": 2},
            {"time": 0.5, "type": "projective", "target": 1},
        ]))
        initial = scenario.initial_state.copy()
        with np.errstate(divide="ignore"):  # r12 of a collapsed state is inf, as under main
            assert cli.run_scenario(scenario, tmp_path / "out") == 0
        assert np.array_equal(scenario.initial_state, initial)
        rows = read_rows(tmp_path / "out" / "series.csv")
        assert [float(p) for p in rows[1][1:3]] == [1.0, 0.0]
        assert [float(p) for p in rows[51][1:3]] == [1.0, 0.0]

    def test_weak_event_update(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config(
            generator={"s11": 0.0, "s12": 0.0, "s21": 0.0, "s22": 0.0},
            initial_state=[0.5, 0.5],
            events=[{"time": 0.5, "type": "weak", "population": 100, "tested": 20,
                     "p_test": [1.0, 0.0]}],
        ))
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        rows = read_rows(tmp_path / "out" / "series.csv")
        final = rows[-1]
        assert float(final[1]) == pytest.approx(0.6, abs=1e-15)
        assert float(final[2]) == pytest.approx(0.4, abs=1e-15)

    def test_quantum_entropy_columns_and_check(self, tmp_path):
        cfg = write_config(tmp_path, quantum_config())
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "series.csv")
        assert rows[0] == ["t", "pI", "pII", "pIII", "pIV", "SA", "SB"]
        report = json.loads((out / "report.json").read_text())
        check = next(c for c in report["checks"] if c["name"] == "entropy_symmetry_gap")
        assert check["passed"] is True
        assert check["value"] <= 1e-9

    def test_coupled_with_sampled_measurement(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema": 1, "model": "coupled4",
            "t0": 0.0, "t1": 1.0, "dt": 0.01, "seed": 11,
            "generator": {
                "form": "traffic",
                "sa": {"s11": 0.0, "s12": 0.4, "s21": 0.3, "s22": -0.1},
                "sb": {"s11": -0.2, "s12": 0.3, "s21": 0.5, "s22": 0.0},
                "cross": [0.3, 0.25, 0.35, 0.2],
            },
            "initial_state": [0.6, 0.4, 0.5, 0.5],
            "events": [{"time": 0.5, "type": "projective", "target": "sample_A"}],
        })
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "series.csv")
        assert rows[0] == ["t", "pA1", "pA2", "pB1", "pB2"]
        jump = [r for r in rows[1:] if float(r[0]) == 0.5][0]
        assert sorted([float(jump[1]), float(jump[2])]) == [0.0, 1.0]

    def test_epidemic_n_model(self, tmp_path):
        cfg = write_config(tmp_path, EPIDEMIC_N)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "series.csv")
        assert rows[0] == ["t", "p1", "p2", "p3"]

    def test_mapping_report(self, tmp_path):
        cfg = write_config(tmp_path, quantum_config(model="mapping", outputs=["residuals"]))
        out = tmp_path / "out"
        assert cli.main(["map", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["mapping_residual"]["value"] <= 1e-6
        assert checks["mapping_residual"]["passed"] is True
        assert checks["split_consistency_gap"]["passed"] is True
        assert checks["checked_samples"]["value"] == report["samples"] > 0
        assert checks["checked_samples"]["passed"] is None

    def test_certificate_that_checked_no_sample_fails(self, tmp_path, capsys):
        # three samples leave no interior sample for the five-point stencil
        cfg = write_config(tmp_path, quantum_config(
            model="mapping", outputs=["residuals"], t1=0.002, dt=1e-3,
        ))
        out = tmp_path / "out"
        assert cli.main(["map", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "failed checks: mapping_residual\n"
        report = json.loads((out / "report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        assert report["samples"] == checks["checked_samples"]["value"] == 0
        assert checks["mapping_residual"]["value"] == 0.0
        assert checks["mapping_residual"]["passed"] is False

    def test_certificate_checks_samples_where_s_is_undefined(self, tmp_path):
        # no hopping: every amplitude stays on a multiple of pi/2, so each
        # sample has a split component below the floor, where S(t) is
        # undefined; the division-free residual still checks all of them
        hamiltonian = {"ep": [1.05, 0.95, 1.05, 0.95], "ts_a": 0.0, "ts_b": 0.0,
                       "ec": [0.05, 0.1, 0.15, 0.2]}
        cfg = write_config(tmp_path, quantum_config(
            model="mapping", outputs=["residuals"], hamiltonian=hamiltonian,
            initial_state=[1, 0, 0, 0], t1=2.0, dt=1e-3,
        ))
        out = tmp_path / "out"
        assert cli.main(["map", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        assert report["samples"] == checks["checked_samples"]["value"] == 1997
        assert checks["excluded_samples"]["value"] == 1997
        assert checks["mapping_residual"]["value"] <= 1e-6
        assert checks["mapping_residual"]["passed"] is True

    def test_config_roundtrip_revalidates_to_same_digest(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config())
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        again = cli.parse_scenario(report["config"])
        assert again.digest == report["scenario_digest"]

    def test_csv_roundtrip_bit_exact(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config())
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "series.csv")
        values = np.array([[float(v) for v in row] for row in rows[1:]])
        rewritten = ["%.17g" % v for v in values[5]]
        assert rewritten == rows[6]


def emitted(tmp_dir, values):
    """series.csv bytes of emit_series on the columns of a 2-d array."""
    path = Path(tmp_dir) / "out.csv"
    columns = [("c%d" % j, values[:, j]) for j in range(values.shape[1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli.emit_series(columns, path, digest="d")
    return path.read_bytes()


def percent_formatted(values):
    """The same CSV with every cell formatted by "%.17g" % value."""
    header = ",".join("c%d" % j for j in range(values.shape[1]))
    body = "".join("\r\n" + ",".join("%.17g" % v for v in row) for row in values.tolist())
    return (header + body + "\r\n").encode()


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def to_bits(value):
    return struct.unpack("<Q", struct.pack("<d", value))[0]


# every kind of double: in the fixed-notation range [1e-4, 1e17) of
# "%.17g" (the whole-array path), next to powers of ten, special values
# and any bit pattern (subnormals, +-0, +-inf, nan)
FIXED = st.integers(to_bits(1e-4), to_bits(1e17) - 1).map(from_bits)
CELLS = st.one_of(
    FIXED,
    FIXED.map(lambda v: -v),
    st.tuples(st.integers(-6, 18), st.integers(-3, 3)).map(
        lambda pair: 10.0 ** pair[0] * (1.0 + pair[1] * 2.0 ** -52)),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1.7e308]),
    st.integers(0, 2 ** 64 - 1).map(from_bits),
)


# neighbours of every power of ten from 1e-6 to 1e18 and of the ends of
# the fixed-notation range, ties at the 18th digit (...24.25 rounds down
# to even, ...24.75 and ...47.75 up), and the smallest subnormal
EDGES = sorted(
    {np.nextafter(10.0 ** k, side) for k in range(-6, 19) for side in (0.0, np.inf)}
    | {10.0 ** k for k in range(-6, 19)}
    | {99999999999999999.0, 9.99999999999999995e-2, 5e-324}
    | {1125899906842624.25, 1125899906842624.75, 2251799813685247.75}
    | {np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0)}
)


class TestEmitSeries:
    @settings(max_examples=100, deadline=None)
    @given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                             elements=CELLS))
    def test_property_cells_are_percent_formatted(self, values):
        with tempfile.TemporaryDirectory() as tmp_dir:
            assert emitted(tmp_dir, values) == percent_formatted(values)

    @pytest.mark.parametrize("chunk", [cli.EMIT_CHUNK, 3, 1])
    def test_edge_cells(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "EMIT_CHUNK", chunk)
        values = np.array(EDGES + [-v for v in EDGES]).reshape(-1, 2)
        assert emitted(tmp_path, values) == percent_formatted(values)

    @pytest.mark.parametrize("cell", [0.0, -0.0, 1e-7, -1e17, np.inf, np.nan])
    def test_chunk_whose_every_cell_falls_back(self, tmp_path, cell):
        values = np.full((300, 3), cell)
        assert emitted(tmp_path, values) == percent_formatted(values)

    def test_chunk_with_a_few_fallback_cells(self, tmp_path):
        values = np.random.default_rng(3).uniform(0.0, 1.0, (300, 5))
        values[::7, 2] = 0.0
        values[5, 4], values[9, 0], values[11, 1] = np.nan, -np.inf, 1e-300
        assert emitted(tmp_path, values) == percent_formatted(values)

    @pytest.mark.parametrize("chunk", [cli.EMIT_CHUNK, 3])
    def test_text_equals_csv_writer(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "EMIT_CHUNK", chunk)
        rng = np.random.default_rng(71)
        values = rng.normal(size=(10, 3)) * 10.0 ** rng.integers(-300, 300, size=(10, 3))
        values[1, 0], values[4, 1], values[7, 2] = np.nan, np.inf, -np.inf
        values[2] = (0.0, -0.0, 5e-324)
        columns = [("t", np.arange(10) / 7.0)] + [("c%d" % k, values[:, k]) for k in range(3)]
        cli.emit_series(columns, tmp_path / "out.csv", digest="d")
        expected = tmp_path / "expected.csv"
        with open(expected, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([name for name, _ in columns])
            for row in zip(*(values for _, values in columns)):
                writer.writerow(["%.17g" % v for v in row])
        assert (tmp_path / "out.csv").read_bytes() == expected.read_bytes()

    def test_row_count(self, tmp_path):
        path = tmp_path / "tiny.csv"
        cli.emit_series(
            [("t", np.array([0.0, 0.5, 1.0])), ("y", np.array([1.0, 2.0, 3.0]))],
            path, digest="d",
        )
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        meta = json.loads((tmp_path / "tiny.csv.meta.json").read_text())
        assert meta["rows"] == 3
        assert meta["scenario_digest"] == "d"

    def test_empty_trajectory_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli.emit_series([("t", np.array([])), ("y", np.array([]))], path, digest="d")
        assert path.read_text().splitlines() == ["t,y"]


class TestValidation:
    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_missing_seed_for_sampling_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config(events=[
            {"time": 0.5, "type": "projective", "target": "sample"}
        ]))
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_unsorted_events_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config(events=[
            {"time": 0.8, "type": "projective", "target": 1},
            {"time": 0.2, "type": "projective", "target": 2},
        ]))
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_event_outside_window_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config(events=[
            {"time": 5.0, "type": "projective", "target": 1}
        ]))
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_bad_model_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config(model="nonsense"))
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_bad_outputs_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config(outputs=["entropies"]))
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_map_requires_mapping_model(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config())
        assert cli.main(["map", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "rate", [True, float("nan"), [[0.0, 0.1], [1.0, float("inf")]],
                 [[0.0, -1e308], [1.0, 1e308]]],
        ids=["true", "nan", "table_with_infinity", "table_slope_overflows"],
    )
    def test_rate_must_be_finite_number_or_table_exits_2(self, tmp_path, rate):
        # json.dumps writes true, NaN and Infinity, which json.load accepts
        cfg = write_config(tmp_path, epidemic2_config(
            generator={"s11": 0.0, "s12": rate, "s21": 0.6, "s22": -0.2},
        ))
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("config", [
        epidemic2_config(t1=float("inf")),
        epidemic2_config(dt=True),
        epidemic2_config(t0="0"),
        epidemic2_config(initial_state=["0.7", 0.3]),
        epidemic2_config(events=[{"time": "0.5", "type": "projective", "target": 1}]),
        quantum_config(hamiltonian=dict(quantum_config()["hamiltonian"], ec=["a", 0, 0, 0])),
        quantum_config(hamiltonian=dict(quantum_config()["hamiltonian"],
                                        ep=[float("nan"), 0.95, 1.05, 0.95])),
        quantum_config(hamiltonian=dict(quantum_config()["hamiltonian"], ts_a=[0.1, True])),
        quantum_config(initial_state=[[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, "x"]]),
        epidemic2_config(events=[{"time": 0.5, "type": "weak", "population": 100,
                                  "tested": 20, "p_test": ["0.9", 0.1]}]),
        quantum_config(events=[{"time": 0.5, "type": "aharonov_bohm",
                                "a_x": [0.1, 0.1, float("nan"), 0.1]}]),
    ], ids=["t1_infinity", "dt_true", "t0_string", "state_string", "event_time_string",
            "ec_string", "ep_nan", "ts_bool_part", "amplitude_string", "p_test_string",
            "a_x_nan"])
    def test_numeric_fields_must_be_finite_numbers_exits_2(self, tmp_path, config):
        cfg = write_config(tmp_path, config)
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("config", [
        {**EPIDEMIC_N, "generator": {"matrix": 5}},
        {**EPIDEMIC_N, "generator": {"matrix": [5, 6]}},
        epidemic2_config(outputs=[["x"]]),
        epidemic2_config(events=[{"time": 0.5, "type": []}]),
        epidemic2_config(events=[{"time": 0.5, "type": "weak", "population": True,
                                  "tested": 0, "p_test": [0.9, 0.1]}]),
        epidemic2_config(events=[{"time": 0.5, "type": "weak", "population": 10**400,
                                  "tested": 1, "p_test": [0.9, 0.1]}]),
        epidemic2_config(events=[{"time": 0.5, "type": "weak", "population": 100,
                                  "tested": True, "p_test": [0.9, 0.1]}]),
        epidemic2_config(events=[{"time": 0.5, "type": "projective", "target": True}]),
        epidemic2_config(seed=True),
        epidemic2_config(seed=-1),
    ], ids=["matrix_number", "matrix_rows_numbers", "outputs_unhashable", "event_type_list",
            "population_true", "population_beyond_float", "tested_true", "target_true",
            "seed_true", "seed_negative"])
    def test_malformed_structure_exits_2(self, tmp_path, config):
        cfg = write_config(tmp_path, config)
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_step_budget_refused_at_parse_time(self):
        # parse only: nothing is integrated or allocated
        with pytest.raises(cli.ScenarioError, match="steps"):
            cli.parse_scenario(epidemic2_config(dt=1e-300))

    @pytest.mark.parametrize("config", [
        # floats are 16 apart at 1e17, so 160 steps of 1 collapse
        epidemic2_config(t0=1e17, t1=1e17 + 160, dt=1.0),
        # the whole run's three steps of 26.7 from 2**57 - 16 to 2**57 + 64
        # round to distinct times (the spacing is 16 below 2**57 and 32
        # above); the event at 2**57 leaves three steps of 21.3 over the
        # 64 above it, which four times 32 apart cannot hold
        epidemic2_config(t0=2.0**57 - 16, t1=2.0**57 + 64, dt=28.0,
                         events=[{"time": 2.0**57, "type": "projective", "target": 1}]),
    ], ids=["whole_run", "segment_after_event"])
    def test_unresolvable_step_exits_2_at_parse(self, tmp_path, capsys, config):
        if config.get("events"):
            assert numkit.step_count(config["t0"], config["t1"], config["dt"]) == 3
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "not strictly monotonic" in err
        assert len(err.splitlines()) == 1
        assert not (out / "series.csv").exists()

    def test_run_is_bounded_by_the_spans_it_runs(self, tmp_path):
        # the whole run's ceiling would take 21 steps of 15.2, finer than
        # the spacing of 16 at 1e17, but the run steps each 80-wide span
        # between its events in 5 steps of 16
        t0 = 1e17
        config = epidemic2_config(
            t0=t0, t1=t0 + 320, dt=16 * (1 - 1e-13),
            generator={"s11": -0.002, "s12": 0.003, "s21": 0.002, "s22": -0.001},
            events=[{"time": t0 + 80 * k, "type": "projective", "target": target}
                    for k, target in ((1, 1), (2, 2), (3, 1))],
        )
        with pytest.raises(ValueError, match="not strictly monotonic"):
            numkit.step_count(config["t0"], config["t1"], config["dt"])
        assert numkit.step_count(t0, t0 + 80, config["dt"]) == 5
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert len(read_rows(out / "series.csv")) == 1 + 21

    def test_spans_over_the_step_budget_exit_2_at_parse(self, tmp_path, capsys):
        # each span fits numkit.MAX_STEPS, their sum does not
        config = epidemic2_config(t0=0.0, t1=1.5e7, dt=1.0,
                                  events=[{"time": 7.5e6, "type": "projective", "target": 1}])
        assert numkit.step_count(0.0, 7.5e6, 1.0) <= numkit.MAX_STEPS < 2 * 7.5e6
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: the spans between events need more than %d steps\n" % (
            numkit.MAX_STEPS)
        assert not out.exists()

    def test_numeric_failure_exits_3(self, tmp_path):
        # rotational generator: complex spectrum, so ensemble weights fail
        cfg = write_config(tmp_path, epidemic2_config(
            generator={"s11": 0.0, "s12": -1.0, "s21": 1.0, "s22": 0.0},
            outputs=["probabilities", "ensemble_weights"],
        ))
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("config, message", [
        # k2 = S (p + h/2 k1) overflows in the first step
        (epidemic2_config(generator={k: 1e300 for k in ("s11", "s12", "s21", "s22")}),
         "numeric failure: non-finite state encountered at t = 0.01\n"),
        (epidemic2_config(generator={"s11": 0.0, "s12": -1.0, "s21": 1.0, "s22": 0.0},
                          outputs=["probabilities", "ensemble_weights"]),
         "numeric failure: complex spectrum: discriminant = -4.0\n"),
        # delta**2 + 4 s12 s21 underflows to 0, but is negative prescaled;
        # its unscaled value underflows too, so the prescaled one is printed
        (epidemic2_config(generator={"s11": 0.0, "s12": -7.1e-301, "s21": 6.9e-301,
                                     "s22": 5.6e-301},
                          outputs=["probabilities", "ensemble_weights"]),
         "numeric failure: complex spectrum: discriminant = -2.9528486319084735 * 2**-1994\n"),
        (epidemic2_config(t0=-1.0, t1=0.0, generator={
            "s11": -0.2, "s12": OVERFLOWING_TABLE, "s21": 0.2, "s22": -0.1}), TABLE_OVERFLOW),
        (dict(EPIDEMIC_N, t0=-1.0, t1=0.0, generator={
            "matrix": [[0.0, OVERFLOWING_TABLE, 0.0], [0.0, -0.2, 0.1], [0.0, 0.0, -0.1]]}),
         TABLE_OVERFLOW),
        ({"schema": 1, "model": "coupled4", "t0": -1.0, "t1": 0.0, "dt": 0.01,
          "generator": {"form": "traffic",
                        "sa": {"s11": 0.0, "s12": 0.4, "s21": 0.3, "s22": -0.1},
                        "sb": {"s11": -0.2, "s12": 0.3, "s21": 0.5, "s22": 0.0},
                        "cross": [OVERFLOWING_TABLE, 0.25, 0.35, 0.2]},
          "initial_state": [0.6, 0.4, 0.5, 0.5]}, TABLE_OVERFLOW),
    ], ids=["non_finite_state", "complex_spectrum", "subnormal_complex_spectrum",
            "epidemic2_table_overflow", "epidemicN_table_overflow", "coupled4_cross_overflow"])
    def test_numeric_failure_message_prints_plain_numbers(self, tmp_path, capsys, config, message):
        # the message is the run's only output: NumPy warns nothing
        cfg = write_config(tmp_path, config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == message
        assert not (tmp_path / "series.csv").exists()

    # numkit.eig prescales each frame by a power of two, so neither an
    # overflowing (s11 - s22)**2 nor overflowing row sums reach the weights;
    # the all-1e308 generator's eigenvalue 2e308 is inf, and its vector
    # (1, -1) sums to zero
    @pytest.mark.parametrize("generator, t1, fallbacks", [
        ({"s11": 1e155, "s12": 0.4, "s21": 0.6, "s22": -1e155}, 1e-160, 0.0),
        ({"s11": 1e308, "s12": 1e308, "s21": 1e308, "s22": 1e308}, 1e-300, 2.0),
    ], ids=["overflowed_frame", "overflowed_row_sums"])
    def test_prescaled_frame_exits_0(self, tmp_path, capsys, generator, t1, fallbacks):
        cfg = write_config(tmp_path, epidemic2_config(
            generator=generator, t1=t1, dt=t1, outputs=["probabilities", "ensemble_weights"]))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert [str(w.message) for w in caught] == [] and capsys.readouterr().err == ""
        rows = (out / "series.csv").read_text().splitlines()
        assert rows[0] == "t,p1,p2,pI,pII" and len(rows) == 3
        assert np.isfinite([[float(x) for x in row.split(",")] for row in rows[1:]]).all()
        checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
        assert checks["frame_fallbacks"]["value"] == fallbacks

    @pytest.mark.parametrize("config", [
        epidemic2_config(generator=ZERO_RATES, initial_state=[0, 0], seed=3,
                         events=[{"time": 0.5, "type": "projective", "target": "sample"}]),
        epidemic2_config(generator=ZERO_RATES, initial_state=[0, 0],
                         events=[{"time": 0.5, "type": "projective", "target": 1}]),
        {"schema": 1, "model": "coupled4", "t0": 0.0, "t1": 1.0, "dt": 0.1, "seed": 3,
         "generator": {"form": "kron_sum", "sa": ZERO_RATES, "sb": ZERO_RATES},
         "initial_state": [0, 0, 0, 0],
         "events": [{"time": 0.5, "type": "projective", "target": "sample_A"}]},
    ], ids=["epidemic2_sample", "epidemic2_target_1", "coupled4_sample_A"])
    def test_measuring_zero_probability_exits_3(self, tmp_path, capsys, config):
        cfg = write_config(tmp_path, config)
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
        assert "numeric failure" in capsys.readouterr().err

    # every component decays at exp(-40 t): by t = 9 the products of the
    # state's components underflow, and by t = 30 the state is zero
    @pytest.mark.parametrize("t1, code, err", [
        (9.0, 0, ""), (30.0, 3, "numeric failure: state has zero norm\n"),
    ], ids=["underflowing_products", "zero_state"])
    def test_decayed_quantum_state_entropies(self, tmp_path, capsys, t1, code, err):
        cfg = write_config(tmp_path, quantum_config(
            t1=t1, dt=0.01, initial_state=[[0.5, 0.0]] * 4,
            hamiltonian={"ep": [[1.0, -20.0]] * 4, "ts_a": 0.1, "ts_b": 0.1, "ec": [0, 0, 0, 0]},
        ))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == code
        assert capsys.readouterr().err == err
        if code == 0:
            checks = json.loads((out / "report.json").read_text())["checks"]
            gap = next(c for c in checks if c["name"] == "entropy_symmetry_gap")
            assert gap["passed"] and gap["value"] <= 1e-9


class TestFrameFallbacks:
    def test_report_counts_numeric_frames(self, tmp_path):
        cfg = write_config(tmp_path, TestPinnedOutput.FRAME_FALLBACK_TABLE)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        checks = json.loads((out / "report.json").read_text())["checks"]
        assert checks[-1] == {"name": "frame_fallbacks", "value": 101.0,
                              "tolerance": None, "passed": None}

    def test_closed_form_run_reports_zero(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config())
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
        assert checks["frame_fallbacks"]["value"] == 0.0

    # entries 300 decades apart; both columns sum to zero, so the vector
    # of the eigenvalue -1 - 1e-300 sums to zero and takes unit norm
    @pytest.mark.parametrize("generator", [
        {"s11": -1.0, "s12": 1e-300, "s21": 1.0, "s22": -1e-300},
    ], ids=["spread_entries"])
    def test_fallback_solved_again_exits_0(self, tmp_path, generator):
        cfg = write_config(tmp_path, epidemic2_config(
            generator=generator, outputs=["probabilities", "ensemble_weights"]))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
        assert checks["frame_fallbacks"]["value"] == 101.0

    # defective spectra, a nilpotent matrix and a Jordan block, whose two
    # frame vectors are one line, (0, 1) twice, so no weights rebuild (0.7, 0.3)
    @pytest.mark.parametrize("generator, sine", [
        ({"s11": 0.0, "s12": 0.0, "s21": 1e-15, "s22": 0.0}, "0.000e+00"),
        ({"s11": 0.2, "s12": 0.0, "s21": 1e-10, "s22": 0.2}, "0.000e+00"),
    ], ids=["small_asymmetric", "closed_form"])
    def test_parallel_frame_vectors_exit_3(self, tmp_path, capsys, generator, sine):
        cfg = write_config(tmp_path, epidemic2_config(
            generator=generator, outputs=["probabilities", "ensemble_weights"]))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: eigen-ensemble vectors are parallel: sine %s below 1e-12\n" % sine)
        assert not (out / "series.csv").exists()

    def test_no_check_without_weights(self, tmp_path):
        cfg = write_config(tmp_path, epidemic2_config(outputs=["probabilities"]))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        names = [c["name"] for c in json.loads((out / "report.json").read_text())["checks"]]
        assert names == ["max_simplex_violation"]


def kron_sum_config(**overrides):
    config = {
        "schema": 1, "model": "coupled4",
        "t0": 0.0, "t1": 0.1, "dt": 0.05,
        "generator": {
            "form": "kron_sum",
            "sa": {"s11": -0.2, "s12": 0.1, "s21": 0.2, "s22": -0.1},
            "sb": {"s11": -0.25, "s12": 0.15, "s21": 0.25, "s22": -0.15},
        },
        "initial_state": [0.25, 0.25, 0.25, 0.25],
    }
    config.update(overrides)
    return config


class TestProductBasisEvents:
    """Projective events on a product-basis (kron_sum) state condition the joint state."""

    def run_event(self, tmp_path, target, **overrides):
        cfg = write_config(tmp_path, kron_sum_config(
            events=[{"time": 0.05, "type": "projective", "target": target}], **overrides
        ))
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
        rows = read_rows(out / "series.csv") if code == 0 else None
        return code, rows

    def test_fixed_outcome_conditions_the_state(self, tmp_path):
        code, rows = self.run_event(tmp_path, "1A")
        assert code == 0
        generator = cli.parse_scenario(kron_sum_config()).source
        p = numkit.ode_evolve(generator.matrix, [0.25] * 4, 0.0, 0.05, 0.05).final
        after = np.array([float(v) for v in rows[2][1:]])
        assert float(rows[2][0]) == 0.05
        expected = np.array([p[0], p[1], 0.0, 0.0]) * p.sum() / (p[0] + p[1])
        assert np.abs(after - expected).max() <= 1e-15

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_sampled_outcome_conditions_the_state(self, tmp_path, seed):
        code, rows = self.run_event(tmp_path, "sample_B", seed=seed)
        assert code == 0
        after = np.array([float(v) for v in rows[2][1:]])
        assert after[[0, 2]].sum() == 0.0 or after[[1, 3]].sum() == 0.0
        assert after.sum() == pytest.approx(1.0, abs=1e-3)

    def test_zero_probability_outcome_exits_3(self, tmp_path, capsys):
        generator = kron_sum_config()["generator"]
        # subsystem A frozen in state 2A: outcome 1A keeps probability 0
        generator["sa"] = {"s11": 0.0, "s12": 0.0, "s21": 0.0, "s22": 0.0}
        code, _ = self.run_event(
            tmp_path, "1A", initial_state=[0.0, 0.0, 0.5, 0.5], generator=generator
        )
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err


class TestEventJumpCheck:
    """Runs with events report the largest change of total probability across one."""

    def checks(self, tmp_path, config):
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        return json.loads((out / "report.json").read_text())["checks"]

    def test_projective_event_on_a_lossy_generator(self, tmp_path):
        config = epidemic2_config(
            generator={"s11": -0.5, "s12": 0.0, "s21": 0.0, "s22": 0.0},
            events=[{"time": 0.5, "type": "projective", "target": 1}],
        )
        checks = self.checks(tmp_path, config)
        generator = cli.parse_scenario(config).source
        before = numkit.ode_evolve(generator.matrix, [0.7, 0.3], 0.0, 0.5, 0.01).final
        assert checks[-1] == {"name": "max_event_probability_jump",
                              "value": abs(1.0 - float(before.sum())),
                              "tolerance": None, "passed": None}
        assert checks[-1]["value"] > 0.1

    def test_product_basis_event_keeps_the_total(self, tmp_path):
        config = kron_sum_config(events=[{"time": 0.05, "type": "projective", "target": "1A"}])
        check = self.checks(tmp_path, config)[-1]
        assert check["name"] == "max_event_probability_jump"
        assert check["value"] <= 1e-15

    def test_aharonov_bohm_event_keeps_the_norm(self, tmp_path):
        config = quantum_config(events=[
            {"time": 0.5, "type": "aharonov_bohm", "a_x": [0.3, -0.2, 0.7, 0.1]}
        ])
        check = self.checks(tmp_path, config)[-1]
        assert check["name"] == "max_event_probability_jump"
        # |sqrt(p) exp(i theta)|^2 rounds each of the four p by a few ulps
        assert check["value"] <= 1e-14

    def test_no_check_without_events(self, tmp_path):
        names = [c["name"] for c in self.checks(tmp_path, kron_sum_config())]
        assert "max_event_probability_jump" not in names


class TestVerifyCommand:
    def test_filter_runs_matching_checks(self, capsys):
        assert cli.main(["verify", "--filter", "rabi"]) == 0
        out = capsys.readouterr().out
        assert "rabi_ratio" in out
        assert "PASS" in out

    def test_empty_filter_match_exits_2(self):
        assert cli.main(["verify", "--filter", "no_such_check"]) == 2

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        from epiqmap import acceptance

        def broken():
            return [acceptance.SubCheck("always too big", 1.0, 0.5)]

        monkeypatch.setattr(acceptance, "CRITERIA", (("broken", broken, "stub"),))
        assert cli.main(["verify"]) == 1
        assert "FAIL" in capsys.readouterr().out


def test_coupled4_targets_are_the_traffic_targets():
    # MODELS spells them out, so that cli need not import coupled
    assert cli.MODELS["coupled4"].targets == coupled.TRAFFIC_TARGETS


def test_negativity_check_is_worst_row():
    states = np.array([[0.5, 0.5], [-1e-3, 1.0], [0.2, -4e-3], [1.0, 0.0]])
    check = cli._negativity_check(states)
    assert check["value"] == max(max(0.0, -row.min()) for row in states) == 4e-3
    assert cli._negativity_check(np.abs(states))["value"] == 0.0


class TestNormalizationGuard:
    def test_hermitian_run_requires_normalized_state(self, tmp_path):
        cfg = write_config(tmp_path, quantum_config(
            initial_state=[[0.6, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.5]]
        ))
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    # a non-Hermitian Hamiltonian (a lossy site), which skips the norm-1 check
    LOSSY = {"ep": [[1.05, -0.1], 0.95, 1.05, 0.95], "ts_a": 0.1, "ts_b": 0.1,
             "ec": [0.05, 0.1, 0.15, 0.2]}

    # gain on A's sites cancels loss on B's in every configuration, so the
    # assembled H equals its conjugate transpose exactly: a Hermitian run
    CANCELLING = {"ep": [[1.0, 0.1], [0.9, 0.1], [1.0, -0.1], [0.9, -0.1]],
                  "ts_a": 0.1, "ts_b": 0.1, "ec": [0.05, 0.1, 0.15, 0.2]}

    def test_cancelling_gain_and_loss_require_normalized_state(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quantum_config(
            hamiltonian=self.CANCELLING,
            initial_state=[[0.6, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.5]],
        ))
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: initial_state norm 1.110000000000 must be 1 for a Hermitian run\n"
        )

    @pytest.mark.parametrize("command, model, outputs", [
        ("simulate", "quantum2q", ["probabilities", "entropies"]),
        ("map", "mapping", ["residuals"]),
    ], ids=["quantum2q_entropies", "mapping"])
    def test_zero_norm_state_exits_2(self, tmp_path, capsys, command, model, outputs):
        cfg = write_config(tmp_path, quantum_config(
            model=model, outputs=outputs, hamiltonian=self.LOSSY,
            initial_state=[0, 0, 0, 0], t1=0.5, dt=0.05,
        ))
        assert cli.main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: initial_state must have a nonzero norm\n"


class TestNormDrift:
    def checks(self, tmp_path, hamiltonian):
        cfg = write_config(tmp_path, quantum_config(hamiltonian=hamiltonian))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        return {c["name"]: c for c in report["checks"]}, read_rows(out / "series.csv")

    def test_non_hermitian_report_has_norm_drift(self, tmp_path):
        checks, rows = self.checks(tmp_path, TestNormalizationGuard.LOSSY)
        totals = np.array(rows[1:], dtype=float)[:, 1:5].sum(axis=1)
        drift = checks["norm_drift"]
        assert drift["tolerance"] is None and drift["passed"] is None
        assert drift["value"] == pytest.approx(np.abs(totals - 1.0).max(), rel=1e-12)
        assert drift["value"] > 0.01  # the lossy site loses probability

    def test_hermitian_report_has_no_norm_drift(self, tmp_path):
        checks, _ = self.checks(tmp_path, quantum_config()["hamiltonian"])
        assert list(checks) == ["entropy_symmetry_gap"]

    def test_cancelling_gain_and_loss_have_no_norm_drift(self, tmp_path):
        checks, _ = self.checks(tmp_path, TestNormalizationGuard.CANCELLING)
        assert list(checks) == ["entropy_symmetry_gap"]

    def test_cancelling_gain_and_loss_map_checks_probability_drift(self, tmp_path):
        cfg = write_config(tmp_path, quantum_config(
            model="mapping", outputs=["residuals"], hamiltonian=TestNormalizationGuard.CANCELLING,
            initial_state=TestPinnedOutput.REFERENCE_PSI0,
        ))
        out = tmp_path / "out"
        assert cli.main(["map", "--config", str(cfg), "--out-dir", str(out)]) == 0
        checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
        assert checks["total_probability_drift"]["passed"]


class TestOverflowingProbabilities:
    """A run whose probabilities overflow fails; it writes no inf or nan cell."""

    # on-site gain on configuration IV
    GAIN = {"ep": [1.05, 0.95, 1.05, [0.0, 0.5]], "ts_a": 0.1, "ts_b": 0.1,
            "ec": [0.05, 0.1, 0.15, 0.2]}

    @pytest.mark.parametrize("command, model", [("simulate", "quantum2q"), ("map", "mapping")])
    @pytest.mark.parametrize("overrides, code, message", [
        # |1e308|^2 overflows: the norm is not finite
        ({"initial_state": [[1e308, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.5]]}, 2,
         "config error: initial_state must have a finite norm\n"),
        # a normalized state under a strong gain: the amplitudes stay finite
        # (about 1e172 at t1) but |psi|^2 overflows from t = 1.55
        ({"hamiltonian": dict(GAIN, ep=[1.05, 0.95, 1.05, [0.0, 800.0]]), "t1": 1.7}, 3,
         "numeric failure: non-finite state encountered at t = 1.5499999999999998\n"),
    ], ids=["huge_initial_state", "overflowing_gain"])
    def test_exits_without_writing_a_non_finite_cell(self, tmp_path, capsys, command, model,
                                                     overrides, code, message):
        config = quantum_config(model=model, hamiltonian=self.GAIN, t1=0.5, dt=0.05)
        del config["outputs"]
        config.update(overrides)
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out-dir", str(out)]) == code
        assert capsys.readouterr().err == message
        assert not (out / "series.csv").exists()

    def test_map_exits_3_when_a_residual_overflows(self, tmp_path, capsys):
        # every |psi|^2 up to t1 is below 1e308, but from t = 1.763 the
        # certificate's five-point dx/dt, about 2e306 / (12 dt), overflows
        config = quantum_config(model="mapping", t1=1.775, dt=0.001,
                                hamiltonian=dict(self.GAIN, ep=[1.05, 0.95, 1.05, [0.0, 200.0]]))
        del config["outputs"]
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["map", "--config", str(cfg), "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: non-finite state encountered at t = 1.7630000000000001\n")
        assert not (out / "series.csv").exists()


class TestPinnedOutput:
    """series.csv digests pinned from the composed RK4 increment path.

    A linear system's block of steps composes the steps' increment
    matrices D, folded from the scaled stage matrices h G
    (numkit.rk4_step_matrix), by doubling (equal stages) or a prefix
    scan.  Taking these digests moved all eight from the per-step
    y + D @ y loop, each cell other than r12 by at most 3.9e-15 of its
    column's largest value.  Evaluating generators over
    blocks of stage times, dispatching models through cli.MODELS, or
    computing ensemble weights and entropies over whole stacks must not
    move a single printed digit.  The three epidemic2 digests with
    ensemble weights were re-taken when numkit.eig became one prescaled
    2x2 closed form: pI and pII moved by at most 1.2e-15 of their
    columns' largest values.  The mapping and lossy quantum2q
    scenarios pin report.json too: its checks (which ones are listed
    follows from whether H is Hermitian) and their values.  The two map
    digests were re-taken when the certificate became the division-free
    |dx/dt - 2 y * (A y)|: each residual cell, and mapping_residual,
    moved by at most 2.2e-16, and nothing else moved.
    """

    README_EXAMPLE = {
        "schema": 1,
        "model": "epidemic2",
        "t0": 0.0, "t1": 5.0, "dt": 0.001,
        "seed": 7,
        "generator": {"s11": 0.0, "s12": [[0.0, 0.1], [5.0, 0.3]], "s21": 0.2, "s22": -0.1},
        "initial_state": [0.7, 0.3],
        "events": [{"time": 2.0, "type": "projective", "target": "sample"}],
        "outputs": ["probabilities", "ensemble_weights", "ratio"],
    }

    KRON_SUM_TABLE = {
        "schema": 1,
        "model": "coupled4",
        "t0": 0.0, "t1": 2.0, "dt": 0.01,
        "generator": {
            "form": "kron_sum",
            "sa": {"s11": -0.2, "s12": [[0.0, 0.1], [1.0, 0.3], [2.0, 0.2]],
                   "s21": 0.2, "s22": -0.1},
            "sb": {"s11": -0.25, "s12": 0.15, "s21": 0.25, "s22": -0.15},
        },
        "initial_state": [0.1, 0.2, 0.3, 0.4],
    }

    EPIDEMIC_N_TABLE = {
        "schema": 1,
        "model": "epidemicN",
        "t0": 0.0, "t1": 2.0, "dt": 0.01,
        "generator": {"matrix": [
            [-0.3, [[0.0, 0.1], [1.0, 0.3], [2.0, 0.2]], 0.05, 0.0],
            [0.2, -0.35, 0.1, [[0.0, 0.05], [2.0, 0.15]]],
            [0.1, 0.15, -0.25, 0.1],
            [0.0, 0.1, 0.1, -0.3],
        ]},
        "initial_state": [0.1, 0.2, 0.3, 0.4],
    }

    TRAFFIC_SAMPLED = {
        "schema": 1,
        "model": "coupled4",
        "t0": 0.0, "t1": 1.0, "dt": 0.01,
        "seed": 11,
        "generator": {
            "form": "traffic",
            "sa": {"s11": 0.0, "s12": 0.4, "s21": 0.3, "s22": -0.1},
            "sb": {"s11": -0.2, "s12": 0.3, "s21": 0.5, "s22": 0.0},
            "cross": [0.3, [[0.0, 0.25], [1.0, 0.1]], 0.35, 0.2],
        },
        "initial_state": [0.6, 0.4, 0.5, 0.5],
        "events": [{"time": 0.5, "type": "projective", "target": "sample_A"}],
    }

    WEAK_EVENT = {
        "schema": 1,
        "model": "epidemic2",
        "t0": 0.0, "t1": 1.0, "dt": 0.01,
        "generator": {"s11": 0.0, "s12": [[0.0, 0.4], [1.0, 0.2]], "s21": 0.6, "s22": -0.2},
        "initial_state": [0.7, 0.3],
        "events": [{"time": 0.5, "type": "weak", "population": 100, "tested": 20,
                    "p_test": [0.9, 0.1]}],
    }

    # both columns sum to zero at every time, so one vector of every frame
    # sums to zero and takes unit norm: every frame is a fallback
    FRAME_FALLBACK_TABLE = {
        "schema": 1,
        "model": "epidemic2",
        "t0": 0.0, "t1": 1.0, "dt": 0.01,
        "generator": {
            "s11": [[0.0, -0.2], [0.5, -0.3], [1.0, -0.1]],
            "s12": [[0.0, 0.1], [0.5, 0.15], [1.0, 0.05]],
            "s21": [[0.0, 0.2], [0.5, 0.3], [1.0, 0.1]],
            "s22": [[0.0, -0.1], [0.5, -0.15], [1.0, -0.05]],
        },
        "initial_state": [0.6, 0.4],
        "outputs": ["probabilities", "ensemble_weights"],
    }

    QUANTUM_ENTROPIES = {
        "schema": 1,
        "model": "quantum2q",
        "t0": 0.0, "t1": 2.0, "dt": 0.01,
        "hamiltonian": {
            "ep": [1.05, 0.95, 1.02, 0.98],
            "ts_a": [0.1, 0.02],
            "ts_b": 0.12,
            "ec": [0.05, 0.3, 0.15, 0.2],
        },
        "initial_state": [[0.6, 0.0], [0.0, 0.48], [0.64, 0.0], [0.0, 0.0]],
        "outputs": ["probabilities", "entropies"],
    }

    # taken after product-basis measurement was introduced: before it,
    # these events applied the traffic-basis collapse to a product state
    KRON_SUM_EVENTS = {
        "schema": 1,
        "model": "coupled4",
        "t0": 0.0, "t1": 2.0, "dt": 0.01,
        "seed": 5,
        "generator": {
            "form": "kron_sum",
            "sa": {"s11": -0.2, "s12": [[0.0, 0.1], [1.0, 0.3], [2.0, 0.2]],
                   "s21": 0.2, "s22": -0.1},
            "sb": {"s11": -0.25, "s12": 0.15, "s21": 0.25, "s22": -0.15},
        },
        "initial_state": [0.1, 0.2, 0.3, 0.4],
        "events": [{"time": 0.5, "type": "projective", "target": "1A"},
                   {"time": 1.0, "type": "projective", "target": "sample_B"}],
    }

    # acceptance's reference pair and psi0, Hermitian and with uniform
    # on-site loss (the dissipation criterion's pair)
    REFERENCE_PAIR = {"ep": [1.05, 0.95, 1.05, 0.95], "ts_a": 0.1, "ts_b": 0.1,
                      "ec": [0.05, 0.1, 0.15, 0.2]}
    LOSSY_PAIR = {"ep": [[1.05, -0.1], [0.95, -0.1], [1.05, -0.1], [0.95, -0.1]],
                  "ts_a": 0.1, "ts_b": 0.1, "ts_a_21": 0.1, "ts_b_21": 0.1,
                  "ec": [0.05, 0.1, 0.15, 0.2]}
    REFERENCE_PSI0 = [[0.5232593451018832, 0.16186308338700411],
                      [0.2416305368642088, 0.3763172646248299],
                      [0.46053049700144255, -0.19470917115432526],
                      [0.3483533546735827, 0.3586780454497614]]

    MAPPING_HERMITIAN = {
        "schema": 1,
        "model": "mapping",
        "t0": 0.0, "t1": 2.0, "dt": 0.01,
        "hamiltonian": REFERENCE_PAIR,
        "initial_state": REFERENCE_PSI0,
    }

    MAPPING_LOSSY = dict(MAPPING_HERMITIAN, hamiltonian=LOSSY_PAIR)

    QUANTUM_LOSSY_ENTROPIES = dict(
        MAPPING_LOSSY, model="quantum2q", outputs=["probabilities", "entropies"],
    )

    @pytest.mark.parametrize("config, digest", [
        (README_EXAMPLE, "ee7bc828ceeb07c64bb1aec1a840eefbe0c4aff3a68650a8a0b902e06e0c0647"),
        (KRON_SUM_TABLE, "9dd7b67343ca4252c204dc1d7034b8f3b41424a3cbc675f3d4654b5b67997922"),
        (EPIDEMIC_N_TABLE, "c75f5c9c027d5b1b3df57b96566168d81e2f4ed40a79797f798bd05896e4e35a"),
        (TRAFFIC_SAMPLED, "1ba77e8c4f0fd1936642fb388bed2ef529ec89055c783c02fe779d851afdc69d"),
        (WEAK_EVENT, "25ecfc59c285aa4a1d0ef0f33c8818d3a7f26bc40ae5afabb0a157f32167789c"),
        (FRAME_FALLBACK_TABLE,
         "2482a45f5e466d632d9670aec26c04da93674eb5e044db432be14fac1ffab5be"),
        (QUANTUM_ENTROPIES, "abc64c13a43e40060f8e3c0f25ec0e7ec3f5f1670d651c5a49ea158a134a2814"),
        (KRON_SUM_EVENTS, "eee4bf0fc21b2ed65551635905ee6687a2c297a4330f7be303bea2199cdc492c"),
    ], ids=["readme_epidemic2", "coupled4_kron_sum_table", "epidemicN_4x4_table",
            "coupled4_traffic_sample_A", "epidemic2_weak", "epidemic2_frame_fallback",
            "quantum2q_entropies", "coupled4_kron_sum_events"])
    def test_series_digest(self, tmp_path, config, digest):
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert hashlib.sha256((out / "series.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("command, config, series, report", [
        ("map", MAPPING_HERMITIAN,
         "497f1f19fe271ae8159711a6c45e23f4e89ffc74010348b2cdf022ec61ff7d87",
         "f444d9ba0edd91a1d3f1b904c66ac14f12ee3c3c9fc947198f670c8729217652"),
        ("map", MAPPING_LOSSY,
         "772fad639cdc6346ae36f32a9e3ce1344ca93514cb71257b95aee74a11986454",
         "9d466986612c90abc840b89d2393c27395542d9785df05d4a6e94d93aed1557a"),
        ("simulate", QUANTUM_LOSSY_ENTROPIES,
         "93e775c55433ad9a22ca6d6223b15e2df3f1f6b2931787f471a69dc6b86a0bfc",
         "987df8c9fbba26f5edb8bdf4801af938443f32dd04ac2e31e0ab822452481b74"),
    ], ids=["map_hermitian", "map_lossy", "quantum2q_lossy_entropies"])
    def test_series_and_report_digest(self, tmp_path, command, config, series, report):
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert hashlib.sha256((out / "series.csv").read_bytes()).hexdigest() == series
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == report
