import csv
import hashlib
import json

import numpy as np
import pytest

from epiqmap import cli


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
        cfg = write_config(tmp_path, {
            "schema": 1, "model": "epidemicN",
            "t0": 0.0, "t1": 2.0, "dt": 0.01,
            "generator": {"matrix": [[0.0, 0.2, 0.0], [0.0, -0.2, 0.1], [0.0, 0.0, -0.1]]},
            "initial_state": [0.2, 0.5, 0.3],
        })
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


class TestEmitSeries:
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
        "rate", [True, float("nan"), [[0.0, 0.1], [1.0, float("inf")]]],
        ids=["true", "nan", "table_with_infinity"],
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

    def test_step_budget_refused_at_parse_time(self):
        # parse only: nothing is integrated or allocated
        with pytest.raises(cli.ScenarioError, match="steps"):
            cli.parse_scenario(epidemic2_config(dt=1e-300))

    def test_numeric_failure_exits_3(self, tmp_path):
        # rotational generator: complex spectrum, so ensemble weights fail
        cfg = write_config(tmp_path, epidemic2_config(
            generator={"s11": 0.0, "s12": -1.0, "s21": 1.0, "s22": 0.0},
            outputs=["probabilities", "ensemble_weights"],
        ))
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3

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


class TestPinnedOutput:
    """series.csv digests pinned from the per-time generator evaluation.

    Evaluating generators over blocks of stage times must not move a
    single printed digit.
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

    @pytest.mark.parametrize("config, digest", [
        (README_EXAMPLE, "9491abbba47393cd881288f4043c3bebb9b8a717e927fa86ace0d5f13aa99ed3"),
        (KRON_SUM_TABLE, "c083837c76ad414d06be5267256739429f0971f2aa018e7375bcdbcf79194f8b"),
    ], ids=["readme_epidemic2", "coupled4_kron_sum_table"])
    def test_series_digest(self, tmp_path, config, digest):
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert hashlib.sha256((out / "series.csv").read_bytes()).hexdigest() == digest
