"""The output contract of ``cli.main`` on mutated scenario configs.

Every config must end in 0 (ok), 1 (failed checks), 2 (bad config) or
3 (numeric failure), whatever its fields hold and whatever shape its
objects and lists take; nothing may escape as a traceback, and no run
warns.  A run that exits 0 or 1 writes one CSV row per reported sample,
every cell finite but r12's; one that exits 1 prints one stderr line
naming the report checks that failed; a run that exits 2 or 3 prints
exactly one line to stderr, naming its kind of failure.  Spans are short and runs that would take many steps
are refused by the step budget, so each example runs in milliseconds;
two spans start at 1e17, where a step of 1 cannot be resolved.

Most examples are one mutation away from a valid config: an extreme
span, a zero or negative state, a wrong event, an in-range or extreme
rate or rate table, a bad numeric value or a replaced structure.  So an
extreme value usually meets an otherwise valid run and reaches the
integrator, not only the parser.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from epiqmap import cli

# finite values whose squares, or whose differences, overflow
EXTREMES = [1e308, -1e308, 1e155, -1e155]

# what a numeric field may hold: in-range numbers and every kind of bad value
BAD_VALUES = [True, False, None, "1", [], {}, float("nan"), float("inf"), float("-inf"),
              *EXTREMES, 0, -1]
NUMBERS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(BAD_VALUES))

# what a rate may hold in a valid config: an in-range or an extreme number
RATE_VALUES = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(EXTREMES))

# an on-site energy may be an [re, im] pair, so non-Hermitian runs are reached
ENERGY_PAIRS = st.tuples(st.floats(-2.0, 2.0), st.floats(-0.5, 0.5)).map(list)


def rate_tables(values):
    """Two-row tables over [0, 1]; with extreme values their slope can overflow."""
    return st.tuples(values, values).map(lambda ab: [[0, ab[0]], [1, ab[1]]])


# what an object, a list or a string may be replaced with
NODES = [5, "x", [], {}, [[0]]]

# (t0, t1, dt): a valid run's span, and the ones a mutation puts in its
# place: refused by the step budget, tiny, or one huge step; and at 1e17,
# where floats are 16 apart, steps of 1 that collapse (refused) and of 16
SPAN = (0.0, 0.5, 0.05)
EXTREME_SPANS = [(0.0, 0.5, 1e-300), (0.0, 0.5, 1e-9), (0.0, 1e-6, 1e-8), (0.0, 0.5, 1e300),
                 (0.0, 0.5, 0.5), (1e17, 1e17 + 160, 1.0), (1e17, 1e17 + 1600, 16.0)]

RATES = {"s11": -0.2, "s12": 0.3, "s21": 0.2, "s22": -0.1}

HAMILTONIAN = {"ep": [1.05, 0.95, 1.05, 0.95], "ts_a": 0.1, "ts_b": 0.1,
               "ec": [0.05, 0.1, 0.15, 0.2]}

GENERATORS = {
    "epidemic2": dict(RATES),
    "epidemicN": {"matrix": [[-0.3, 0.1, 0.2], [0.2, -0.2, 0.0], [0.1, 0.1, -0.2]]},
    "coupled4": {"form": "traffic", "sa": dict(RATES), "sb": dict(RATES),
                 "cross": [0.1, 0.2, 0.3, 0.4]},
}

STATES = {
    "epidemic2": [0.7, 0.3],
    "epidemicN": [0.5, 0.3, 0.2],
    "coupled4": [0.6, 0.4, 0.5, 0.5],
    "quantum2q": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.5]],
    "mapping": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.5]],
}

OUTPUTS = {
    "epidemic2": ["probabilities", "ensemble_weights", "ratio"],
    "quantum2q": ["probabilities", "entropies"],
}

# each model's event types and measurement targets; a mutation adds one
# with a wrong target, or any event to a model without events
EVENT_TYPES = {"epidemic2": ["projective", "weak"], "coupled4": ["projective"],
               "quantum2q": ["aharonov_bohm"]}
TARGETS = {"epidemic2": [1, 2, "sample"], "coupled4": ["sample_A", "sample_B", "1A"],
           "quantum2q": [1]}
WRONG_TARGETS = {"epidemic2": 3, "coupled4": 1}

# how many mutations an example takes: most are one away from a valid
# config, so a bad value meets an otherwise valid run
MUTATIONS = st.sampled_from([1, 1, 1, 1, 1, 1, 0, 2, 3])


def event(types, targets):
    """One event; its time is a fraction of the span, so it falls inside it."""
    return st.fixed_dictionaries({
        "time": st.floats(0.0, 1.0),
        "type": st.sampled_from(types),
        "target": st.sampled_from(targets),
        "population": st.just(100),
        "tested": st.sampled_from([0, 20, 100]),
        "p_test": st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
        "a_x": st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    })


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_structure(value):
    """An object, a list, or a string such as a model name or an event type."""
    return isinstance(value, (dict, list, str))


def fields(node, wanted):
    """(container, key) of every value inside node that wanted() accepts.

    Nested lists and dicts are searched too.  The schema version is left
    out: a wrong one only exercises one check.
    """
    found = []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if key == "schema":
            continue
        if wanted(value):
            found.append((node, key))
        if isinstance(value, (dict, list)):
            found += fields(value, wanted)
    return found


def place_events(config, drawn):
    for event in drawn:
        event["time"] = config["t0"] + event["time"] * (config["t1"] - config["t0"])
    config["events"] = sorted(config["events"] + drawn, key=lambda event: event["time"])


def valid_config(draw):
    """A config its model accepts, with a table rate and events drawn in."""
    model = draw(st.sampled_from(list(cli.MODELS)))
    t0, t1, dt = SPAN
    config = {"schema": 1, "model": model, "t0": t0, "t1": t1, "dt": dt, "seed": 7,
              "initial_state": json.loads(json.dumps(STATES[model])), "events": []}
    if model in GENERATORS:
        config["generator"] = json.loads(json.dumps(GENERATORS[model]))
        if draw(st.booleans()):
            container, key = draw(st.sampled_from(fields(config["generator"], is_number)))
            container[key] = draw(rate_tables(st.floats(-2.0, 2.0)))
    else:
        config["hamiltonian"] = json.loads(json.dumps(HAMILTONIAN))
        if draw(st.booleans()):
            config["hamiltonian"]["ep"] = draw(st.lists(ENERGY_PAIRS, min_size=4, max_size=4))
    if model in OUTPUTS and draw(st.booleans()):
        config["outputs"] = list(OUTPUTS[model])
    if model in EVENT_TYPES:
        place_events(config, draw(st.lists(event(EVENT_TYPES[model], TARGETS[model]),
                                           max_size=2)))
    return config


# the kinds of mutation, in the order they are applied: the first five
# need the fields of a valid config, the last two may remove them
KINDS = ["span", "state", "event", "table", "rate", "number", "structure"]


def mutate(draw, holder, model, kind):
    """Make one change of the given kind to holder["config"], a model's config."""
    config = holder["config"]
    if kind == "span":
        # the events keep their fractions of the span
        t0, t1, dt = draw(st.sampled_from(EXTREME_SPANS))
        for entry in config["events"]:
            fraction = (entry["time"] - config["t0"]) / (config["t1"] - config["t0"])
            entry["time"] = t0 + fraction * (t1 - t0)
        config["t0"], config["t1"], config["dt"] = t0, t1, dt
    elif kind == "state":
        fill = draw(st.sampled_from([0.0, -0.5])) if model in GENERATORS else 0.0
        config["initial_state"] = [fill] * len(config["initial_state"])
    elif kind == "event":
        if model in EVENT_TYPES:
            wrong = event(EVENT_TYPES[model][:1], [WRONG_TARGETS.get(model, 1)])
        else:
            wrong = event(["projective", "weak", "aharonov_bohm"], [1])
        place_events(config, [draw(wrong)])
    elif kind in ("table", "rate"):
        # every number of a generator or a Hamiltonian is a rate
        rates = config.get("generator", config.get("hamiltonian"))
        container, key = draw(st.sampled_from(fields(rates, is_number)))
        container[key] = draw(rate_tables(RATE_VALUES) if kind == "table" else RATE_VALUES)
    elif kind == "number":
        # a rate, a time, a state entry or an event field
        numbers = fields(holder, is_number)
        if numbers:
            container, key = draw(st.sampled_from(numbers))
            container[key] = draw(NUMBERS)
    else:
        # an object, a list or a string, the config itself included
        nodes = fields(holder, is_structure)
        if nodes:  # a number in place of the config leaves none
            container, key = draw(st.sampled_from(nodes))
            container[key] = json.loads(json.dumps(draw(st.sampled_from(NODES))))


@st.composite
def scenarios(draw):
    holder = {"config": valid_config(draw)}
    model = holder["config"]["model"]
    allowed = [kind for kind in KINDS if kind != "table" or model in GENERATORS]
    n = draw(MUTATIONS)
    kinds = draw(st.lists(st.sampled_from(allowed), min_size=n, max_size=n))
    for kind in sorted(kinds, key=KINDS.index):
        mutate(draw, holder, model, kind)
    return holder["config"]


def check_outputs(out):
    """One CSV row per reported sample, every cell finite except r12's.

    Returns the names of the report checks that failed.
    """
    with open(out / "series.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    report = json.loads((out / "report.json").read_text())
    assert len(rows) == report["samples"]
    kept = [k for k, name in enumerate(header) if name != "r12"]
    assert all(math.isfinite(float(row[k])) for row in rows for k in kept)
    return [c["name"] for c in report["checks"] if c["passed"] is False]


# a non-Hermitian run whose first amplitude is finite but whose norm overflows
OVERFLOWING_NORM = {
    "schema": 1, "model": "quantum2q", "t0": SPAN[0], "t1": SPAN[1], "dt": SPAN[2], "seed": 7,
    "initial_state": [[1e308, 0.0], *STATES["quantum2q"][1:]], "events": [],
    "hamiltonian": dict(HAMILTONIAN, ep=[1.05, 0.95, 1.05, [0.0, 0.5]]),
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=scenarios(), command=st.sampled_from(["simulate", "map"]))
@example(config=OVERFLOWING_NORM, command="simulate")
@example(config=dict(OVERFLOWING_NORM, model="mapping"), command="map")
def test_main_returns_a_contract_exit_code(config, command):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main([command, "--config", str(path), "--out-dir", str(out)])
        assert code in (0, 1, 2, 3)
        assert [str(w.message) for w in caught] == []
        if code == 0:
            assert err.getvalue() == ""
            assert check_outputs(out) == []
        elif code == 1:
            failed = check_outputs(out)
            assert failed and err.getvalue() == "failed checks: %s\n" % ", ".join(failed)
        else:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(("config error: ", "output error: ", "numeric failure: "))


@pytest.mark.parametrize("span, code", [((1e17, 1e17 + 160, 1.0), 2),
                                        ((1e17, 1e17 + 1600, 16.0), 0)])
def test_offset_span_exit_code(span, code):
    # steps below the float spacing are refused at parse; steps of the
    # spacing itself run, as any resolvable grid does
    t0, t1, dt = span
    config = {"schema": 1, "model": "epidemic2", "t0": t0, "t1": t1, "dt": dt,
              "generator": dict(RATES), "initial_state": STATES["epidemic2"],
              "events": [{"time": t0 + (t1 - t0) / 2, "type": "projective", "target": 1}]}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["simulate", "--config", str(path), "--out-dir", str(out)]) == code
        lines = err.getvalue().splitlines()
        if code == 2:
            assert len(lines) == 1 and "not strictly monotonic" in lines[0]
        else:
            assert lines == []
        assert (out / "series.csv").exists() == (code == 0)
