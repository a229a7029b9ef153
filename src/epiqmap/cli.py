"""Scenario-driven command line: simulate, verify, and map.

Scenarios are JSON files with a versioned schema; rates are constants or
piecewise-linear [[t, value], ...] tables.  Simulation output is one CSV
of time series per scenario plus a JSON report and a sidecar metadata
file; everything written is byte-deterministic for a fixed config and
seed.  Exit codes: 0 success, 1 failed checks in verify mode, 2
parse/validation error, 3 numeric failure.
"""

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, acceptance, coupled, epidemic, mapping, numkit, quantum
from .errors import (
    ComplexSpectrumError,
    DegenerateFrameError,
    FloorViolationError,
    NonFiniteStateError,
)

SCHEMA_VERSION = 1

MODELS = ("epidemic2", "epidemicN", "coupled4", "quantum2q", "mapping")

DEFAULT_OUTPUTS = {
    "epidemic2": ["probabilities", "ensemble_weights", "ratio"],
    "epidemicN": ["probabilities"],
    "coupled4": ["probabilities"],
    "quantum2q": ["probabilities"],
    "mapping": ["residuals"],
}

ALLOWED_OUTPUTS = {
    "epidemic2": {"probabilities", "ensemble_weights", "ratio"},
    "epidemicN": {"probabilities"},
    "coupled4": {"probabilities"},
    "quantum2q": {"probabilities", "entropies"},
    "mapping": {"residuals"},
}


class ScenarioError(ValueError):
    """Config failed to parse or validate."""


@dataclass
class Event:
    time: float
    kind: str
    payload: dict


@dataclass
class Scenario:
    model: str
    t0: float
    t1: float
    dt: float
    seed: int
    params: dict
    initial_state: np.ndarray
    events: list
    outputs: list
    digest: str
    canonical: dict


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(config):
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _require(condition, message):
    if not condition:
        raise ScenarioError(message)


def _finite_number(value):
    """value as a float if it is a finite JSON number (not a bool), else None."""
    if type(value) not in (int, float):  # bool is a subclass of int
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    # false exactly for inf and NaN
    return number if -sys.float_info.max <= number <= sys.float_info.max else None


def _number_field(value, where):
    number = _finite_number(value)
    _require(number is not None, "%s must be a finite number" % where)
    return number


def _number_list(value, n, where):
    _require(isinstance(value, list) and len(value) == n, "%s must list %d numbers" % (where, n))
    return [_number_field(v, "%s[%d]" % (where, i)) for i, v in enumerate(value)]


def _rate_spec(value, where):
    number = _finite_number(value)
    if number is not None:
        return number
    if isinstance(value, list):
        rows_ok = all(
            isinstance(row, list) and all(_finite_number(v) is not None for v in row)
            for row in value
        )
        _require(rows_ok, "%s: rate table entries must be finite numbers" % where)
        try:
            return epidemic.Rate(value)
        except ValueError as exc:
            raise ScenarioError("%s: %s" % (where, exc)) from exc
    raise ScenarioError(
        "%s: expected a finite number or [[t, value], ...] table" % where
    )


def _parse_generator2(spec, where):
    _require(isinstance(spec, dict), "%s must be an object" % where)
    missing = {"s11", "s12", "s21", "s22"} - set(spec)
    _require(not missing, "%s missing rates: %s" % (where, sorted(missing)))
    return epidemic.Generator2(
        *(_rate_spec(spec[k], "%s.%s" % (where, k)) for k in ("s11", "s12", "s21", "s22"))
    )


def _complex_field(value, where):
    number = _finite_number(value)
    if number is not None:
        return complex(number)
    if isinstance(value, list) and len(value) == 2:
        re, im = (_finite_number(v) for v in value)
        if re is not None and im is not None:
            return complex(re, im)
    raise ScenarioError("%s: expected a finite number or [re, im] pair of them" % where)


def _parse_hamiltonian(spec):
    _require(isinstance(spec, dict), "hamiltonian must be an object")
    for key in ("ep", "ts_a", "ts_b", "ec"):
        _require(key in spec, "hamiltonian missing field %r" % key)
    _require(isinstance(spec["ep"], list) and len(spec["ep"]) == 4,
             "hamiltonian.ep must list four on-site energies")
    ep = [_complex_field(v, "hamiltonian.ep[%d]" % i) for i, v in enumerate(spec["ep"])]
    ec = _number_list(spec["ec"], 4, "hamiltonian.ec")
    ts_a = _complex_field(spec["ts_a"], "hamiltonian.ts_a")
    ts_b = _complex_field(spec["ts_b"], "hamiltonian.ts_b")
    ts_a_21 = (
        _complex_field(spec["ts_a_21"], "hamiltonian.ts_a_21")
        if "ts_a_21" in spec else np.conj(ts_a)
    )
    ts_b_21 = (
        _complex_field(spec["ts_b_21"], "hamiltonian.ts_b_21")
        if "ts_b_21" in spec else np.conj(ts_b)
    )
    return quantum.QubitPairHamiltonian(
        ep_1a=ep[0], ep_2a=ep[1], ep_1b=ep[2], ep_2b=ep[3],
        ts_a_12=ts_a, ts_a_21=ts_a_21, ts_b_12=ts_b, ts_b_21=ts_b_21,
        ec_11=ec[0], ec_12=ec[1], ec_21=ec[2], ec_22=ec[3],
    )


def _parse_coupled(spec):
    _require(isinstance(spec, dict), "generator must be an object")
    form = spec.get("form")
    if form == "traffic":
        cross = spec.get("cross")
        _require(isinstance(cross, list) and len(cross) == 4, "traffic form needs 4 cross rates")
        return coupled.build_traffic_generator(
            _parse_generator2(spec.get("sa"), "generator.sa"),
            _parse_generator2(spec.get("sb"), "generator.sb"),
            [_rate_spec(c, "generator.cross[%d]" % i) for i, c in enumerate(cross)],
        )
    if form == "symmetric":
        return coupled.symmetric_traffic_generator(
            _parse_generator2(spec.get("s2"), "generator.s2"),
            _rate_spec(spec.get("coupling", 0.0), "generator.coupling"),
        )
    if form == "kron_sum":
        return coupled.kron_sum_generator(
            _parse_generator2(spec.get("sa"), "generator.sa"),
            _parse_generator2(spec.get("sb"), "generator.sb"),
        )
    raise ScenarioError("generator.form must be traffic, symmetric, or kron_sum")


def _parse_events(raw, model, t0, t1):
    _require(isinstance(raw, list), "events must be a list")
    events = []
    needs_seed = False
    allowed = {
        "epidemic2": {"projective", "weak"},
        "coupled4": {"projective"},
        "quantum2q": {"aharonov_bohm"},
    }.get(model, set())
    for k, entry in enumerate(raw):
        where = "events[%d]" % k
        _require(isinstance(entry, dict), "%s must be an object" % where)
        _require("time" in entry and "type" in entry, "%s needs time and type" % where)
        t = _number_field(entry["time"], "%s.time" % where)
        kind = entry["type"]
        _require(t0 <= t <= t1, "%s time %r outside [t0, t1]" % (where, t))
        _require(kind in allowed, "%s type %r not supported for model %s" % (where, kind, model))
        payload = dict(entry)
        if kind == "projective":
            target = entry.get("target")
            if model == "epidemic2":
                _require(target in (1, 2, "sample"), "%s target must be 1, 2, or 'sample'" % where)
                needs_seed |= target == "sample"
            else:
                ok = target in coupled.TRAFFIC_TARGETS or target in ("sample_A", "sample_B")
                _require(ok, "%s target must be one of %s, sample_A, sample_B"
                         % (where, "/".join(coupled.TRAFFIC_TARGETS)))
                needs_seed |= target in ("sample_A", "sample_B")
        elif kind == "weak":
            for field in ("population", "tested", "p_test"):
                _require(field in entry, "%s needs %r" % (where, field))
            population, tested = entry["population"], entry["tested"]
            _require(isinstance(population, int) and population > 0,
                     "%s population must be a positive integer" % where)
            _require(isinstance(tested, int) and 0 <= tested <= population,
                     "%s tested must be an integer in [0, population]" % where)
            _number_list(entry["p_test"], 2, "%s.p_test" % where)
        elif kind == "aharonov_bohm":
            _require("a_x" in entry, "%s needs a_x with 4 sites" % where)
            _number_list(entry["a_x"], 4, "%s.a_x" % where)
            for field in ("dot_diameter", "e_over_hbar"):
                if field in entry:
                    _number_field(entry[field], "%s.%s" % (where, field))
        events.append(Event(t, kind, payload))
    times = [e.time for e in events]
    _require(times == sorted(times), "events must be sorted by time")
    return events, needs_seed


def parse_scenario(config):
    _require(isinstance(config, dict), "config must be a JSON object")
    _require(config.get("schema") == SCHEMA_VERSION,
             "config schema must be %d" % SCHEMA_VERSION)
    model = config.get("model")
    _require(model in MODELS, "model must be one of %s" % (MODELS,))
    for key in ("t0", "t1", "dt"):
        _require(key in config, "missing field %r" % key)
    t0, t1, dt = (_number_field(config[key], key) for key in ("t0", "t1", "dt"))
    _require(t0 < t1, "t0 must be < t1")
    _require(dt > 0, "dt must be > 0")
    try:
        numkit.step_count(t0, t1, dt)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    _require("initial_state" in config, "missing field 'initial_state'")

    events, needs_seed = _parse_events(config.get("events", []), model, t0, t1)
    seed = config.get("seed")
    if needs_seed:
        _require(isinstance(seed, int), "sampled measurement events require an integer seed")

    outputs = config.get("outputs", DEFAULT_OUTPUTS[model])
    _require(isinstance(outputs, list) and outputs, "outputs must be a nonempty list")
    unknown = set(outputs) - ALLOWED_OUTPUTS[model]
    _require(not unknown, "outputs %s not available for %s" % (sorted(unknown), model))

    params = {}
    raw_state = config["initial_state"]
    if model == "epidemic2":
        params["generator"] = _parse_generator2(config.get("generator"), "generator")
        state = np.array(_number_list(raw_state, 2, "initial_state"))
    elif model == "epidemicN":
        spec = config.get("generator")
        _require(isinstance(spec, dict) and "matrix" in spec, "generator.matrix required")
        rows = spec["matrix"]
        n = len(rows)
        _require(2 <= n <= numkit.MAX_DIM, "matrix dimension must be in [2, 16]")
        grid = [
            [_rate_spec(v, "generator.matrix[%d][%d]" % (i, j)) for j, v in enumerate(row)]
            for i, row in enumerate(rows)
        ]
        _require(all(len(row) == n for row in grid), "generator.matrix must be square")
        params["matrix"] = epidemic.RateMatrix(grid).matrix
        state = np.array(_number_list(raw_state, n, "initial_state"))
    elif model == "coupled4":
        params["generator"] = _parse_coupled(config.get("generator"))
        state = np.array(_number_list(raw_state, 4, "initial_state"))
    else:  # quantum2q, mapping
        params["hamiltonian"] = _parse_hamiltonian(config.get("hamiltonian"))
        _require(isinstance(raw_state, list) and len(raw_state) == 4,
                 "initial_state must have 4 amplitudes")
        state = np.array(
            [_complex_field(v, "initial_state[%d]" % i) for i, v in enumerate(raw_state)]
        )
        if params["hamiltonian"].is_hermitian:
            norm = float((np.abs(state) ** 2).sum())
            _require(abs(norm - 1.0) <= 1e-9,
                     "initial_state norm %.12f must be 1 for a Hermitian run" % norm)
    if model in ("epidemic2", "epidemicN", "coupled4"):
        _require(np.all(state >= 0), "initial probabilities must be nonnegative")

    return Scenario(
        model=model, t0=t0, t1=t1, dt=dt,
        seed=seed if isinstance(seed, int) else None,
        params=params, initial_state=state, events=events, outputs=outputs,
        digest=config_digest(config), canonical=config,
    )


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ScenarioError("cannot read config: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError("config is not valid JSON: %s" % exc) from exc
    return parse_scenario(config)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _segmented_evolution(generator, state, scenario, apply_event, dtype=float):
    """Integrate dt-wise between events; boundary samples are post-event.

    generator is what numkit.ode_evolve takes: a constant matrix or a
    generator-protocol callable.
    """
    times = [np.array([scenario.t0])]
    states = [np.asarray(state, dtype=dtype)[None, :]]
    current = np.asarray(state, dtype=dtype)
    cursor = scenario.t0
    rng = np.random.default_rng(scenario.seed) if scenario.seed is not None else None
    boundaries = [e.time for e in scenario.events] + [scenario.t1]
    segments = list(zip(boundaries, scenario.events + [None]))
    for boundary, event in segments:
        if boundary > cursor:
            traj = numkit.ode_evolve(generator, current, cursor, boundary, scenario.dt)
            times.append(traj.times[1:])
            states.append(traj.states[1:])
            current = traj.final.copy()
            cursor = boundary
        if event is not None:
            current = apply_event(current, event, rng)
            states[-1] = states[-1].copy()
            states[-1][-1] = current
    return np.concatenate(times), np.concatenate(states)


def _apply_epidemic2_event(state, event, rng):
    if event.kind == "projective":
        target = event.payload["target"]
        outcome = epidemic.sample_outcome(state, rng) if target == "sample" else target
        return epidemic.measure_projective(state, outcome)
    return epidemic.measure_weak(
        state,
        int(event.payload["population"]),
        int(event.payload["tested"]),
        np.asarray(event.payload["p_test"], dtype=float),
    )


def _apply_coupled_event(state, event, rng):
    target = event.payload["target"]
    if target in ("sample_A", "sample_B"):
        side = target[-1]
        pair = state[:2] if side == "A" else state[2:]
        outcome = epidemic.sample_outcome(pair, rng)
        target = "%d%s" % (outcome, side)
    return coupled.measure_subsystem(state, target)


def _apply_quantum_event(state, event, rng):
    potential = mapping.SitePotential(
        *(float(a) for a in event.payload["a_x"]),
        dot_diameter=float(event.payload.get("dot_diameter", 1.0)),
        e_over_hbar=float(event.payload.get("e_over_hbar", 1.0)),
    )
    probs = np.abs(state) ** 2
    phases = mapping.apply_aharonov_bohm(np.angle(state), potential)
    return quantum.wave_from_polar(probs, phases)


def _negativity_check(states):
    worst = epidemic.simplex_violation(states)
    return {
        "name": "max_simplex_violation", "value": worst,
        "tolerance": None, "passed": None,
    }


def _simulate(scenario):
    """Returns (column names, column arrays, report checks dict)."""
    model = scenario.model
    checks = []
    if model == "epidemic2":
        gen = scenario.params["generator"]
        times, states = _segmented_evolution(
            gen.matrix, scenario.initial_state, scenario, _apply_epidemic2_event
        )
        checks.append(_negativity_check(states))
        columns = [("t", times), ("p1", states[:, 0]), ("p2", states[:, 1])]
        if "ensemble_weights" in scenario.outputs:
            weights = np.array(
                [epidemic.ensemble_decompose(p, gen, t) for t, p in zip(times, states)]
            )
            columns += [("pI", weights[:, 0]), ("pII", weights[:, 1])]
        if "ratio" in scenario.outputs:
            with np.errstate(divide="ignore", invalid="ignore"):
                columns.append(("r12", states[:, 0] / states[:, 1]))
    elif model == "epidemicN":
        times, states = _segmented_evolution(
            scenario.params["matrix"], scenario.initial_state, scenario, None
        )
        checks.append(_negativity_check(states))
        columns = [("t", times)] + [
            ("p%d" % (k + 1), states[:, k]) for k in range(states.shape[1])
        ]
    elif model == "coupled4":
        gen = scenario.params["generator"]
        times, states = _segmented_evolution(
            gen.matrix, scenario.initial_state, scenario, _apply_coupled_event
        )
        checks.append(_negativity_check(states))
        names = ("pA1", "pA2", "pB1", "pB2") if gen.basis == "traffic" else ("p1", "p2", "p3", "p4")
        columns = [("t", times)] + [(names[k], states[:, k]) for k in range(4)]
    elif model == "quantum2q":
        params = scenario.params["hamiltonian"]
        h = quantum.build_hamiltonian(params)
        times, states = _segmented_evolution(
            -1j * h, scenario.initial_state, scenario, _apply_quantum_event,
            dtype=complex,
        )
        probs = np.abs(states) ** 2
        columns = [("t", times)] + [
            (name, probs[:, k]) for k, name in enumerate(("pI", "pII", "pIII", "pIV"))
        ]
        if "entropies" in scenario.outputs:
            pairs = np.array([quantum.pure_entropy_pair(psi) for psi in states])
            columns += [("SA", pairs[:, 0]), ("SB", pairs[:, 1])]
            gap = float(np.abs(pairs[:, 0] - pairs[:, 1]).max())
            checks.append({
                "name": "entropy_symmetry_gap", "value": gap,
                "tolerance": 1e-9, "passed": gap <= 1e-9,
            })
    else:  # mapping
        report = mapping.verify_equivalence(
            scenario.params["hamiltonian"], scenario.initial_state,
            scenario.t0, scenario.t1, scenario.dt,
        )
        columns = [("t", report.residual_times), ("residual", report.residuals)]
        checks.append({
            "name": "mapping_residual", "value": report.max_residual,
            "tolerance": 1e-6, "passed": report.max_residual <= 1e-6,
        })
        checks.append({
            "name": "split_consistency_gap", "value": report.split_consistency_gap,
            "tolerance": 1e-10, "passed": report.split_consistency_gap <= 1e-10,
        })
        checks.append({
            "name": "excluded_samples", "value": float(len(report.excluded_times)),
            "tolerance": None, "passed": None,
        })
        if report.hermitian:
            checks.append({
                "name": "total_probability_drift", "value": report.norm_drift,
                "tolerance": 1e-9, "passed": report.norm_drift <= 1e-9,
            })
    return columns, checks


def emit_series(columns, path, digest):
    """Write a CSV (17 significant digits) plus its sidecar metadata."""
    names = [name for name, _ in columns]
    arrays = [np.asarray(values) for _, values in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in zip(*arrays):
            writer.writerow(["%.17g" % v for v in row])
    meta = {
        "columns": names,
        "rows": int(arrays[0].shape[0]) if arrays else 0,
        "scenario_digest": digest,
        "tool_version": __version__,
    }
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def run_scenario(config_path, out_dir):
    scenario = load_scenario(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns, checks = _simulate(scenario)
    emit_series(columns, out / "series.csv", scenario.digest)
    report = {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "model": scenario.model,
        "scenario_digest": scenario.digest,
        "config": scenario.canonical,
        "samples": int(np.asarray(columns[0][1]).shape[0]),
        "checks": checks,
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def cmd_verify(name_filter):
    start = time.perf_counter()
    results = acceptance.run_criteria(name_filter)
    if not results:
        print("no acceptance checks match filter %r" % name_filter, file=sys.stderr)
        return 2
    print(acceptance.format_results(results))
    elapsed = time.perf_counter() - start
    n_pass = sum(r.passed for r in results)
    print("%d/%d criteria passed in %.2fs" % (n_pass, len(results), elapsed))
    return 0 if n_pass == len(results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="epiqmap",
        description="Classical finite-state-machine / quantum tight-binding "
                    "simulations and equivalence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="run a scenario config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out-dir", required=True)
    ver = sub.add_parser("verify", help="run the acceptance checks")
    ver.add_argument("--filter", default=None)
    map_cmd = sub.add_parser("map", help="run a mapping-certificate scenario")
    map_cmd.add_argument("--config", required=True)
    map_cmd.add_argument("--out-dir", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.filter)
        if args.command == "map":
            scenario = load_scenario(args.config)
            if scenario.model != "mapping":
                raise ScenarioError("'map' requires a scenario with model 'mapping'")
        return run_scenario(args.config, args.out_dir)
    except ScenarioError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("output error: %s" % exc, file=sys.stderr)
        return 2
    except (ComplexSpectrumError, DegenerateFrameError, FloorViolationError,
            NonFiniteStateError, ZeroDivisionError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
