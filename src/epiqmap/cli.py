"""Scenario-driven command line: simulate, verify, and map.

Scenarios are JSON files with a versioned schema; rates are constants or
piecewise-linear [[t, value], ...] tables.  Simulation output is one CSV
of time series per scenario plus a JSON report and a sidecar metadata
file; everything written is byte-deterministic for a fixed config and
seed.  Exit codes: 0 success, 1 failed checks (a failed acceptance
criterion, or a report check of simulate or map with passed false,
named on one stderr line after every output is written), 2
parse/validation error, 3 numeric failure.  Each model is one entry
of MODELS, which holds everything that differs between models.
The coupled, quantum, mapping and acceptance modules are imported inside
the functions that use them, so a run loads only its model's modules:
one invocation is mostly start-up.
"""

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, epidemic, numkit
from .errors import (
    ComplexSpectrumError,
    DegenerateFrameError,
    FloorViolationError,
    NonFiniteStateError,
)

SCHEMA_VERSION = 1

# CSV rows formatted per step of emit_series: bounds the text and the work
# arrays held at once; a step formats its cells in whole-array operations
# (_csv_chunks)
EMIT_CHUNK = 256


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
    source: object  # what the model's simulate runs: a generator or a Hamiltonian matrix
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


def _probabilities(raw, n):
    """The initial state of a classical model: n nonnegative numbers."""
    state = np.array(_number_list(raw, n, "initial_state"))
    _require(np.all(state >= 0), "initial probabilities must be nonnegative")
    return state


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
            return epidemic.rate_table(value)
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
    from . import quantum

    _require(isinstance(spec, dict), "hamiltonian must be an object")
    for key in ("ep", "ts_a", "ts_b", "ec"):
        _require(key in spec, "hamiltonian missing field %r" % key)
    _require(isinstance(spec["ep"], list) and len(spec["ep"]) == 4,
             "hamiltonian.ep must list four on-site energies")
    ep = [_complex_field(v, "hamiltonian.ep[%d]" % i) for i, v in enumerate(spec["ep"])]
    ec = _number_list(spec["ec"], 4, "hamiltonian.ec")
    # a hopping named ts_*_21 is 2 -> 1; left out, it is ts_*'s conjugate
    hops = {key: _complex_field(spec[key], "hamiltonian." + key)
            for key in ("ts_a", "ts_b", "ts_a_21", "ts_b_21") if key in spec}
    return quantum.build_hamiltonian(
        *ep, ec_11=ec[0], ec_12=ec[1], ec_21=ec[2], ec_22=ec[3], **hops,
    )


def _parse_epidemic2(config):
    generator = _parse_generator2(config.get("generator"), "generator")
    return generator, _probabilities(config["initial_state"], 2)


def _parse_epidemic_n(config):
    spec = config.get("generator")
    _require(isinstance(spec, dict) and "matrix" in spec, "generator.matrix required")
    rows = spec["matrix"]
    _require(isinstance(rows, list) and all(isinstance(row, list) for row in rows),
             "generator.matrix must be a list of rows")
    n = len(rows)
    _require(2 <= n <= numkit.MAX_DIM, "matrix dimension must be in [2, 16]")
    grid = [
        [_rate_spec(v, "generator.matrix[%d][%d]" % (i, j)) for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    _require(all(len(row) == n for row in grid), "generator.matrix must be square")
    return epidemic.RateMatrix(grid).matrix, _probabilities(config["initial_state"], n)


def _parse_coupled4(config):
    from . import coupled

    spec = config.get("generator")
    _require(isinstance(spec, dict), "generator must be an object")
    form = spec.get("form")
    if form == "traffic":
        cross = spec.get("cross")
        _require(isinstance(cross, list) and len(cross) == 4, "traffic form needs 4 cross rates")
        generator = coupled.build_traffic_generator(
            _parse_generator2(spec.get("sa"), "generator.sa"),
            _parse_generator2(spec.get("sb"), "generator.sb"),
            [_rate_spec(c, "generator.cross[%d]" % i) for i, c in enumerate(cross)],
        )
    elif form == "symmetric":
        generator = coupled.symmetric_traffic_generator(
            _parse_generator2(spec.get("s2"), "generator.s2"),
            _rate_spec(spec.get("coupling", 0.0), "generator.coupling"),
        )
    elif form == "kron_sum":
        generator = coupled.kron_sum_generator(
            _parse_generator2(spec.get("sa"), "generator.sa"),
            _parse_generator2(spec.get("sb"), "generator.sb"),
        )
    else:
        raise ScenarioError("generator.form must be traffic, symmetric, or kron_sum")
    return generator, _probabilities(config["initial_state"], 4)


def _parse_wave(config):
    """A qubit-pair Hamiltonian matrix and the four complex amplitudes it evolves."""
    from . import quantum

    hamiltonian = _parse_hamiltonian(config.get("hamiltonian"))
    raw = config["initial_state"]
    _require(isinstance(raw, list) and len(raw) == 4, "initial_state must have 4 amplitudes")
    state = np.array([_complex_field(v, "initial_state[%d]" % i) for i, v in enumerate(raw)])
    norm = float((np.abs(state) ** 2).sum())
    _require(norm > 0, "initial_state must have a nonzero norm")
    # finite amplitudes can have a norm that overflows
    _require(norm < np.inf, "initial_state must have a finite norm")
    if quantum.is_hermitian(hamiltonian):
        _require(abs(norm - 1.0) <= 1e-9,
                 "initial_state norm %.12f must be 1 for a Hermitian run" % norm)
    return hamiltonian, state


def _parse_events(raw, name, t0, t1):
    _require(isinstance(raw, list), "events must be a list")
    model = MODELS[name]
    events = []
    needs_seed = False
    for k, entry in enumerate(raw):
        where = "events[%d]" % k
        _require(isinstance(entry, dict), "%s must be an object" % where)
        _require("time" in entry and "type" in entry, "%s needs time and type" % where)
        t = _number_field(entry["time"], "%s.time" % where)
        kind = entry["type"]
        _require(t0 <= t <= t1, "%s time %r outside [t0, t1]" % (where, t))
        _require(isinstance(kind, str) and kind in model.events,
                 "%s type %r not supported for model %s" % (where, kind, name))
        if kind == "projective":
            target = entry.get("target")
            choices = model.targets + model.sampled
            _require(type(target) is not bool and target in choices,
                     "%s target must be one of %s" % (where, ", ".join(map(repr, choices))))
            needs_seed |= target in model.sampled
        elif kind == "weak":
            for key in ("population", "tested", "p_test"):
                _require(key in entry, "%s needs %r" % (where, key))
            population, tested = entry["population"], entry["tested"]
            _require(type(population) is int and 0 < population <= sys.float_info.max,
                     "%s population must be a positive integer within float range" % where)
            _require(type(tested) is int and 0 <= tested <= population,
                     "%s tested must be an integer in [0, population]" % where)
            _number_list(entry["p_test"], 2, "%s.p_test" % where)
        elif kind == "aharonov_bohm":
            _require("a_x" in entry, "%s needs a_x with 4 sites" % where)
            _number_list(entry["a_x"], 4, "%s.a_x" % where)
            for key in ("dot_diameter", "e_over_hbar"):
                if key in entry:
                    _number_field(entry[key], "%s.%s" % (where, key))
        events.append(Event(t, kind, dict(entry)))
    times = [e.time for e in events]
    _require(times == sorted(times), "events must be sorted by time")
    return events, needs_seed


def parse_scenario(config):
    _require(isinstance(config, dict), "config must be a JSON object")
    _require(config.get("schema") == SCHEMA_VERSION,
             "config schema must be %d" % SCHEMA_VERSION)
    name = config.get("model")
    _require(isinstance(name, str) and name in MODELS,
             "model must be one of %s" % ", ".join(MODELS))
    model = MODELS[name]
    for key in ("t0", "t1", "dt"):
        _require(key in config, "missing field %r" % key)
    t0, t1, dt = (_number_field(config[key], key) for key in ("t0", "t1", "dt"))
    _require(t0 < t1, "t0 must be < t1")
    _require("initial_state" in config, "missing field 'initial_state'")

    events, needs_seed = _parse_events(config.get("events", []), name, t0, t1)
    # each span between events is one integration, and their steps bound the rows
    cuts = [e.time for e in events]
    steps = 0
    for start, stop in zip([t0] + cuts, cuts + [t1]):
        try:
            steps += numkit.step_count(start, stop, dt)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        _require(steps <= numkit.MAX_STEPS, "the spans between events need more than %d steps"
                 % numkit.MAX_STEPS)
    seed = config.get("seed")
    _require(seed is None or (type(seed) is int and seed >= 0),
             "seed must be a nonnegative integer")
    _require(seed is not None or not needs_seed,
             "sampled measurement events require an integer seed")

    outputs = config.get("outputs", list(model.outputs))
    _require(isinstance(outputs, list) and outputs, "outputs must be a nonempty list")
    _require(all(isinstance(out, str) for out in outputs), "outputs must be strings")
    unknown = set(outputs) - set(model.outputs + model.optional)
    _require(not unknown, "outputs %s not available for %s" % (sorted(unknown), name))

    source, state = model.parse(config)
    return Scenario(
        model=name, t0=t0, t1=t1, dt=dt, seed=seed,
        source=source, initial_state=state, events=events, outputs=outputs,
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

def _total_probability(state):
    """sum p of a probability vector, sum |psi|^2 of a complex wave."""
    return float((np.abs(state) ** 2).sum() if np.iscomplexobj(state) else state.sum())


def _segmented_evolution(generator, state, scenario):
    """Integrate dt-wise between events; boundary samples are post-event.

    generator is what numkit.ode_evolve takes: a constant matrix or a
    generator-protocol callable; state is the parsed float or complex
    initial state, whose dtype the states keep.  Each event is applied
    by its model's function for that event kind, which also sees the
    scenario's source.
    Returns (times, states, checks); a run with events gets the check
    max_event_probability_jump, the largest change of total probability
    across one event.
    """
    apply_event = MODELS[scenario.model].events
    times = [np.array([scenario.t0])]
    states = [state[None, :]]
    rng = np.random.default_rng(scenario.seed) if scenario.seed is not None else None
    cuts = [e.time for e in scenario.events]
    jumps = []
    for start, stop, event in zip([scenario.t0] + cuts, cuts + [scenario.t1],
                                  scenario.events + [None]):
        if stop > start:
            traj = numkit.ode_evolve(generator, state, start, stop, scenario.dt)
            times.append(traj.times[1:])
            states.append(traj.states[1:])
            state = traj.final.copy()
        if event is not None:
            before = _total_probability(state)
            state = apply_event[event.kind](state, event, rng, scenario.source)
            jumps.append(abs(_total_probability(state) - before))
            states[-1] = states[-1].copy()
            states[-1][-1] = state
    checks = [_check("max_event_probability_jump", max(jumps))] if jumps else []
    return np.concatenate(times), np.concatenate(states), checks


def _project_epidemic2(state, event, rng, source):
    target = event.payload["target"]
    outcome = epidemic.sample_outcome(state, rng) if target == "sample" else target
    return epidemic.measure_projective(state, outcome)


def _weigh_epidemic2(state, event, rng, source):
    payload = event.payload
    return epidemic.measure_weak(state, payload["population"], payload["tested"], payload["p_test"])


def _project_coupled4(state, event, rng, generator):
    from . import coupled

    target = event.payload["target"]
    if target.startswith("sample_"):
        side = target[-1]
        marginal = coupled.subsystem_marginals(state, generator.basis)["AB".index(side)]
        target = "%d%s" % (epidemic.sample_outcome(marginal, rng), side)
    return coupled.measure_subsystem(state, target, generator.basis)


def _aharonov_bohm(state, event, rng, source):
    from . import mapping, quantum

    potential = mapping.SitePotential(
        *(float(a) for a in event.payload["a_x"]),
        dot_diameter=float(event.payload.get("dot_diameter", 1.0)),
        e_over_hbar=float(event.payload.get("e_over_hbar", 1.0)),
    )
    probs = np.abs(state) ** 2
    phases = mapping.apply_aharonov_bohm(np.angle(state), potential)
    return quantum.wave_from_polar(probs, phases)


def _check(name, value, tolerance=None):
    """One report check; without a tolerance it is a diagnostic and passes None."""
    passed = None if tolerance is None else value <= tolerance
    return {"name": name, "value": value, "tolerance": tolerance, "passed": passed}


def _negativity_check(states):
    return _check("max_simplex_violation", epidemic.simplex_violation(states))


def _probability_columns(times, probs, names=None):
    """The t column and one column per state, named p1, p2, ... by default."""
    if names is None:
        names = ["p%d" % (k + 1) for k in range(probs.shape[1])]
    return [("t", times)] + [(name, probs[:, k]) for k, name in enumerate(names)]


def _simulate_epidemic2(scenario):
    gen = scenario.source
    times, states, event_checks = _segmented_evolution(gen.matrix, scenario.initial_state, scenario)
    columns = _probability_columns(times, states)
    checks = [_negativity_check(states)]
    if "ensemble_weights" in scenario.outputs:
        weights, frame = epidemic.ensemble_decompose(states, gen, times, return_frame=True)
        columns += [("pI", weights[:, 0]), ("pII", weights[:, 1])]
        # samples whose frame came from numkit.eig, the closed form being singular
        checks.append(_check("frame_fallbacks", float(frame.numeric_fallback.sum())))
    if "ratio" in scenario.outputs:
        columns.append(("r12", states[:, 0] / states[:, 1]))
    return columns, checks + event_checks


def _simulate_epidemic_n(scenario):
    times, states, event_checks = _segmented_evolution(
        scenario.source, scenario.initial_state, scenario
    )
    return _probability_columns(times, states), [_negativity_check(states)] + event_checks


def _simulate_coupled4(scenario):
    gen = scenario.source
    times, states, event_checks = _segmented_evolution(gen.matrix, scenario.initial_state, scenario)
    names = ("pA1", "pA2", "pB1", "pB2") if gen.basis == "traffic" else None
    checks = [_negativity_check(states)] + event_checks
    return _probability_columns(times, states, names), checks


def _require_finite(times, finite):
    """Raise NonFiniteStateError at the first of times at which finite is False.

    A gain can drive finite amplitudes to probabilities that overflow.
    """
    if not finite.all():
        raise NonFiniteStateError(times[finite.argmin()])


def _simulate_quantum2q(scenario):
    from . import quantum

    h = scenario.source
    times, states, event_checks = _segmented_evolution(-1j * h, scenario.initial_state, scenario)
    probs = np.abs(states) ** 2
    _require_finite(times, np.isfinite(probs).all(axis=1))
    columns = _probability_columns(times, probs, ("pI", "pII", "pIII", "pIV"))
    checks = []
    if "entropies" in scenario.outputs:
        s_a, s_b = quantum.pure_entropy_pair(states)
        columns += [("SA", s_a), ("SB", s_b)]
        checks.append(_check("entropy_symmetry_gap", float(np.abs(s_a - s_b).max()), 1e-9))
    if not quantum.is_hermitian(h):
        # a non-Hermitian H need not conserve the total probability
        norm0 = (np.abs(scenario.initial_state) ** 2).sum()
        checks.append(_check("norm_drift", float(np.abs(probs.sum(axis=1) - norm0).max())))
    return columns, checks + event_checks


def _simulate_mapping(scenario):
    from . import mapping

    report = mapping.verify_equivalence(
        scenario.source, scenario.initial_state, scenario.t0, scenario.t1, scenario.dt,
    )
    _require_finite(report.times, np.isfinite(report.total_probability))
    _require_finite(report.residual_times, np.isfinite(report.residuals))
    columns = [("t", report.residual_times), ("residual", report.residuals)]
    residual = _check("mapping_residual", report.max_residual, 1e-6)
    # a certificate that checked no sample certifies nothing
    residual["passed"] = residual["passed"] and report.checked_samples > 0
    checks = [
        residual,
        _check("split_consistency_gap", report.split_consistency_gap, 1e-10),
        _check("checked_samples", float(report.checked_samples)),
        _check("excluded_samples", float(len(report.excluded_times))),
    ]
    if report.hermitian:
        checks.append(_check("total_probability_drift", report.norm_drift, 1e-9))
    return columns, checks


@dataclass(frozen=True)
class Model:
    """How the CLI reads, runs and reports one model."""

    parse: object  # config -> (source, initial_state)
    simulate: object  # Scenario -> (columns, report checks)
    outputs: tuple  # the outputs written when the config names none
    optional: tuple = ()  # further outputs a config may ask for
    # event kind -> apply(state, event, rng, source) -> the state after it
    events: dict = field(default_factory=dict)
    targets: tuple = ()  # fixed projective-measurement targets
    sampled: tuple = ()  # projective targets drawn with the scenario seed


MODELS = {
    "epidemic2": Model(
        _parse_epidemic2, _simulate_epidemic2,
        outputs=("probabilities", "ensemble_weights", "ratio"),
        events={"projective": _project_epidemic2, "weak": _weigh_epidemic2},
        targets=(1, 2), sampled=("sample",),
    ),
    "epidemicN": Model(_parse_epidemic_n, _simulate_epidemic_n, outputs=("probabilities",)),
    "coupled4": Model(
        _parse_coupled4, _simulate_coupled4, outputs=("probabilities",),
        events={"projective": _project_coupled4},
        targets=("1A", "2A", "1B", "2B"), sampled=("sample_A", "sample_B"),
    ),
    "quantum2q": Model(
        _parse_wave, _simulate_quantum2q, outputs=("probabilities",),
        optional=("entropies",), events={"aharonov_bohm": _aharonov_bohm},
    ),
    # the 2N classical image of the quantum pair, certified along its run
    "mapping": Model(_parse_wave, _simulate_mapping, outputs=("residuals",)),
}


# A cell with 1e-4 <= |v| < 1e17 prints in fixed notation under "%.17g":
# the 17 significant digits N = round-half-even(|v| * 10**k), k = 16 - x
# for the decimal exponent x of |v|, with a point after digit x + 1, or
# "0." and -x - 1 zeros before them when x < 0, and the fraction's
# trailing zeros dropped.  _csv_chunks lays such a cell out as six 8-byte
# words: word 0 holds the separator before the cell ("," and a zero byte,
# or "\r\n"), two zero bytes, "-", a zero byte and "0."; words 1-5 hold N
# as 20 digits, one 4-digit group each, every digit followed by ".".  So
# slot s = 0..20 is digit s of the 21 digits 0000N, followed by a point.
# A mask picked by (x, the slot of N's last nonzero digit, the sign)
# zeroes every byte the cell does not print, and bytearray.translate drops
# the zero bytes.  Any other cell (0, inf, nan, |v| < 1e-4 or |v| >= 1e17)
# has the separator and "%.17g" as word 0 and keeps only that word, and
# one %-operation per chunk fills them all.
CELL_BYTES = 48


@functools.cache
def _cell_tables():
    """The lookup tables of _csv_chunks, built on first use.

    Returns the cell words (each 4-digit group, then word 0 of a cell
    after "," and after "\\r\\n", in the fast range and outside it), the
    trailing zeros of each 4-digit group (4 for 0000), the mask key at
    each scale k of a positive N whose last digit is not 0, the masks
    (six words per key, the last key for a cell outside the fast range),
    the exact doubles 10**k, k = 0..20, and their two halves as Dekker's
    product splits them.
    """
    # the digits of each 4-digit group, most significant first
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, 10000).T
    pairs = np.full((10000, 4, 2), ord("."), np.uint8)
    pairs[:, :, 0] = digits + ord("0")
    heads = np.frombuffer(
        b",\0\0\0-\0" b"0." b"\r\n\0\0-\0" b"0." b",%.17g\0\0" b"\r\n%.17g\0", np.uint64)
    words = np.concatenate([pairs.reshape(10000, 8).view(np.uint64).ravel(), heads])
    # 4 less the place of the last nonzero digit (0 for 0000)
    trailing = 4 - ((digits != 0) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)

    # key = ((x + 4) * 21 + last) * 2 + negative, last being the slot of
    # N's last nonzero digit; the point follows slot 4 + x
    x = np.arange(-4, 17)[:, None, None, None]
    last = np.arange(21)[:, None, None]
    slot = np.arange(21)
    point = 4 + x
    keep = np.zeros((21, 21, 2, CELL_BYTES), bool)
    keep[..., :2] = True
    keep[..., 4] = np.arange(2)
    keep[..., 6::2] = (slot >= np.minimum(point, 4)) & (slot <= np.maximum(point, last))
    keep[..., 7::2] = (slot == point) & (last > point)
    fallback = np.zeros((1, CELL_BYTES), bool)
    fallback[0, :8] = True
    masks = np.concatenate([keep.reshape(-1, CELL_BYTES), fallback]).astype(np.uint8)
    masks = (masks * 255).view(np.uint64)
    # a positive cell whose last digit, slot 20, is not 0; x = 16 - k
    key_base = (20 - np.arange(21)) * 42 + 40

    scale = np.cumprod(np.full(21, 10.0)) / 10.0
    hi = scale * 134217729.0  # 2**27 + 1
    hi -= hi - scale
    return words, trailing, key_base, masks, scale, hi, scale - hi


def _scaled(a, s, s_hi, s_lo):
    """(p, e) with p + e == a * s exactly (Dekker's product), for the
    halves s_hi + s_lo == s."""
    p = a * s
    c = a * 134217729.0  # 2**27 + 1
    a_hi = c - (c - a)
    a_lo = a - a_hi
    e = a_hi * s_hi
    e -= p
    e += a_hi * s_lo
    e += a_lo * s_hi
    a_lo *= s_lo
    e += a_lo
    return p, e


def _csv_chunks(data):
    """The CSV body of 2-d float64 data, EMIT_CHUNK rows per bytes object.

    Each row starts with "\\r\\n" and holds its cells as "%.17g" text
    joined by ",", byte for byte.
    """
    rows, cols = data.shape
    words, trailing, key_base, masks, scale, scale_hi, scale_lo = _cell_tables()
    fallback_key = len(masks) - 1
    capacity = min(rows, EMIT_CHUNK) * cols
    heads = np.full(cols, 10000)  # words[10000]: word 0 after ","
    heads[0] = 10001  # words[10001]: word 0 after "\r\n"
    # a chunk's indices into words (word 0, then the five groups), which
    # its keep-masks then overwrite
    work = np.empty((capacity, 6), np.intp)
    buffer = bytearray(capacity * CELL_BYTES)
    cells = np.frombuffer(buffer, np.uint64).reshape(capacity, 6)
    for start in range(0, rows, EMIT_CHUNK):
        chunk = data[start:start + EMIT_CHUNK]
        v = chunk.ravel()
        n = v.size
        a = np.abs(v)
        fast = a >= 1e-4
        fast &= a < 1e17  # false for nan
        slow = np.flatnonzero(~fast)
        # the mask drops these digits; a value off the powers of ten and
        # with a nonzero 17th digit skips the exponent and 0000 fix-ups
        a[slow] = 1.2345678901234567

        x = np.log10(a)
        np.floor(x, out=x)
        np.minimum(x, 16.0, out=x)
        np.maximum(x, -4.0, out=x)
        k = (16.0 - x).astype(np.intp)
        p, e = _scaled(a, scale.take(k), scale_hi.take(k), scale_lo.take(k))
        # log10 may round across a power of ten: the exact product p + e
        # lies in [1e16, 1e17) only at the right k, one step away
        fix = np.flatnonzero((p <= 1e16) | (p >= 1e17))
        while fix.size:
            p_fix, e_fix = p[fix], e[fix]
            over = (p_fix > 1e17) | ((p_fix == 1e17) & (e_fix >= 0))
            under = (p_fix < 1e16) | ((p_fix == 1e16) & (e_fix < 0))
            wrong = over | under
            fix = fix[wrong]
            k[fix] += np.where(over, -1, 1)[wrong]
            k_fix = k[fix]
            p[fix], e[fix] = _scaled(
                a[fix], scale.take(k_fix), scale_hi.take(k_fix), scale_lo.take(k_fix))
        # p >= 1e16 > 2**53 is an even integer, so N = p + rint(e); N does
        # not round up to 10**17, as the largest double below each 10**x
        # in range is 8e-17 of it below, not within 5e-18
        digits = p.astype(np.int64)
        digits += np.rint(e).astype(np.int64)

        group = work[:n]
        group[:, 0].reshape(-1, cols)[...] = heads
        high = digits // 10 ** 8
        digits -= high * 10 ** 8
        np.floor_divide(high, 10 ** 8, out=group[:, 1])
        high -= group[:, 1] * 10 ** 8
        np.floor_divide(high, 10 ** 4, out=group[:, 2])
        np.subtract(high, group[:, 2] * 10 ** 4, out=group[:, 3])
        np.floor_divide(digits, 10 ** 4, out=group[:, 4])
        np.subtract(digits, group[:, 4] * 10 ** 4, out=group[:, 5])
        zeros = trailing.take(group[:, 5])
        more = np.flatnonzero(zeros == 4)
        if more.size:
            # the last group is 0000: add the trailing zeros of groups
            # 1-3 (group 0, N's leading digit, is never 0)
            z = trailing.take(group[more, 2])
            for col in (3, 4):
                t = trailing.take(group[more, col])
                z *= t == 4
                z += t
            zeros[more] += z
        key = key_base.take(k)
        key -= 2 * zeros
        key += np.signbit(v)
        key[slow] = fallback_key
        group[slow, 0] += 2  # words[10002] and words[10003]: "%.17g"

        # mode="clip" (every index is in range) lets take write into out
        cell = words.take(group, out=cells[:n], mode="clip")
        cell &= masks.take(key, axis=0, out=group.view(np.uint64), mode="clip")
        text = (buffer if n == capacity else buffer[:n * CELL_BYTES]).translate(None, b"\0")
        if slow.size:
            text = text % tuple(v[slow].tolist())
        yield text


def emit_series(columns, path, digest):
    """Write a CSV (17 significant digits) plus its sidecar metadata.

    The header is the column names joined by commas, and every row ends
    with "\\r\\n"; every column name is a plain identifier and every cell
    an unquoted "%.17g" number, so the text is what csv.writer writes.
    _csv_chunks formats the body EMIT_CHUNK rows at a time: the cells in
    fixed notation in whole-array operations, the rest (0, inf, nan and
    the exponent forms) with one %-operation.
    """
    names = [name for name, _ in columns]
    arrays = [np.asarray(values) for _, values in columns]
    rows = int(arrays[0].shape[0]) if arrays else 0
    with open(path, "wb") as fh:
        # each row of the body starts with the line break before it
        fh.write(",".join(names).encode("utf-8"))
        if rows and names:
            for text in _csv_chunks(np.column_stack(arrays).astype(float, copy=False)):
                fh.write(text)
        fh.write(b"\r\n")
    meta = {
        "columns": names,
        "rows": rows,
        "scenario_digest": digest,
        "tool_version": __version__,
    }
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def run_scenario(scenario, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns, checks = MODELS[scenario.model].simulate(scenario)
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
    failed = [c["name"] for c in checks if c["passed"] is False]
    if failed:
        print("failed checks: %s" % ", ".join(failed), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def cmd_verify(name_filter):
    from . import acceptance

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
        # a run reports its non-finite results itself: as nan/inf cells
        # (r12) or as exit 3, so NumPy's warnings would only repeat them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            scenario = load_scenario(args.config)
            if args.command == "map" and scenario.model != "mapping":
                raise ScenarioError("'map' requires a scenario with model 'mapping'")
            return run_scenario(scenario, args.out_dir)
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
