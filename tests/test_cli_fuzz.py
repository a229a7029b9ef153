"""The output contract of ``cli.main`` on mutated scenario configs.

Every config must end in 0 (ok), 1 (failed checks), 2 (bad config) or
3 (numeric failure), whatever its fields hold and whatever shape its
objects and lists take; nothing may escape as a traceback, and no run
warns.  A run that exits 0 or 1 writes one CSV row per reported sample,
every cell finite but r12's; one that exits 1 prints one stderr line
naming the report checks that failed; a run that exits 2 or 3 prints
exactly one line to stderr, naming its kind of failure.  Spans are short and runs that would take many steps
are refused by the step budget, so each example runs in milliseconds.
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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epiqmap import cli

# what a numeric field may hold: in-range numbers and every kind of bad
# value, including finite ones whose squares overflow
BAD_VALUES = [True, False, None, "1", [], {}, float("nan"), float("inf"), float("-inf"),
              1e308, -1e308, 1e155, -1e155, 0, -1]
NUMBERS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(BAD_VALUES))

# an on-site energy may be an [re, im] pair, so non-Hermitian runs are reached
ENERGY_PAIRS = st.tuples(st.floats(-2.0, 2.0), st.floats(-0.5, 0.5)).map(list)

# a rate may also be a two-row table, whose slope can overflow
RATE_TABLES = st.tuples(NUMBERS, NUMBERS).map(lambda ab: [[0, ab[0]], [1, ab[1]]])

# what an object, a list or a string may be replaced with
NODES = [5, "x", [], {}, [[0]]]

# (t1, dt) with t0 = 0: ordinary half the time, else tiny (refused by the
# step budget, or over a tiny span) or huge
SPANS = st.one_of(st.just((0.5, 0.05)), st.sampled_from(
    [(0.5, 1e-300), (0.5, 1e-9), (1e-6, 1e-8), (0.5, 1e300), (0.5, 0.5)]))

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

# each model's event types and measurement targets, plus one wrong target;
# models without events get every type, which parsing must refuse
EVENT_TYPES = {"epidemic2": ["projective", "weak"], "coupled4": ["projective"],
               "quantum2q": ["aharonov_bohm"]}
TARGETS = {"epidemic2": [1, 2, "sample", 3], "coupled4": ["sample_A", "sample_B", "1A", 1]}


def events(model):
    """Well-formed event lists; bad values come from the field overwrites.

    Times are drawn as fractions of the span, so they fall inside it.
    """
    return st.lists(st.fixed_dictionaries({
        "time": st.floats(0.0, 1.0),
        "type": st.sampled_from(EVENT_TYPES.get(model, ["projective", "weak", "aharonov_bohm"])),
        "target": st.sampled_from(TARGETS.get(model, [1])),
        "population": st.just(100),
        "tested": st.sampled_from([0, 20, 100]),
        "p_test": st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
        "a_x": st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    }), max_size=2 if model in EVENT_TYPES else 1)


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


@st.composite
def scenarios(draw):
    model = draw(st.sampled_from(list(cli.MODELS)))
    t1, dt = draw(SPANS)
    config = {"schema": 1, "model": model, "t0": 0.0, "t1": t1, "dt": dt, "seed": 7,
              "initial_state": json.loads(json.dumps(STATES[model]))}
    if model in GENERATORS:
        config["generator"] = json.loads(json.dumps(GENERATORS[model]))
    else:
        config["hamiltonian"] = json.loads(json.dumps(HAMILTONIAN))
        if draw(st.booleans()):
            config["hamiltonian"]["ep"] = draw(st.lists(ENERGY_PAIRS, min_size=4, max_size=4))
    if model in OUTPUTS and draw(st.booleans()):
        config["outputs"] = list(OUTPUTS[model])
    state = draw(st.sampled_from(["keep", "zero", "negative"]))
    if state != "keep" and model in GENERATORS:
        fill = 0.0 if state == "zero" else -0.5
        config["initial_state"] = [fill] * len(config["initial_state"])
    elif state == "zero":
        config["initial_state"] = [0.0] * 4
    drawn = draw(events(model))
    for event in drawn:
        event["time"] *= t1
    config["events"] = sorted(drawn, key=lambda event: event["time"])
    # then turn a rate into a table (every number of a generator is a rate)
    if model in GENERATORS and draw(st.booleans()):
        container, key = draw(st.sampled_from(fields(config["generator"], is_number)))
        container[key] = draw(RATE_TABLES)
    # and overwrite a few numeric fields (rates, times, states, event fields)
    numbers = fields(config, is_number)
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(numbers))
        container[key] = draw(NUMBERS)
    # and replace a few objects, lists or strings, the config itself included
    holder = {"config": config}
    for _ in range(draw(st.integers(0, 2))):
        nodes = fields(holder, is_structure)
        if nodes:  # a number in place of the config leaves none
            container, key = draw(st.sampled_from(nodes))
            container[key] = json.loads(json.dumps(draw(st.sampled_from(NODES))))
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


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=scenarios(), command=st.sampled_from(["simulate", "map"]))
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
