"""Spans and counts recorded around calls into the package's public functions.

The wrappers replace module attributes from the benchmark's side: every
module of the package that binds one of the traced functions gets the
wrapper instead, so calls reached through ``numkit.rk4_path`` and through
a ``from .quantum import polar_split`` binding are both seen.  The
generator callable handed to ``numkit.ode_evolve`` is wrapped as well and
attributed to ``epidemic`` or ``coupled``.  No package source changes.

A span is (name, start, end, parent span, scenario); spans live in
compact arrays for the length of one pass.  A span's self time is its
duration minus the time its direct children cover.
"""

import os
from array import array
from time import perf_counter

import numpy as np

# the traced public functions, as (module, attribute)
TRACED = (
    ("cli", "load_scenario"),
    ("cli", "emit_series"),
    ("numkit", "rk4_path"),
    ("numkit", "ode_evolve"),  # wraps the generator callable it is handed
    ("numkit", "eig"),  # counted, no span
    ("epidemic", "ensemble_decompose"),
    ("quantum", "pure_entropy_pair"),
    ("quantum", "polar_split"),
    ("mapping", "verify_equivalence"),
    ("density", "sqrt_dynamics_generator"),
)

MODULES = ("numkit", "epidemic", "coupled", "density", "quantum", "mapping", "acceptance", "cli")

# generator callables by the type that owns the bound method, else (the
# epidemicN closure built by the CLI) by the scenario's model
GENERATOR_LAYER = {
    "Generator2": "epidemic.generator",
    "Generator4": "coupled.generator",
    "epidemicN": "epidemic.generator",
}

# time metrics: name -> (self or total time, span name)
TIME_METRICS = {
    "cli.parse_s": ("self", "cli.load_scenario"),
    "cli.emit_s": ("total", "cli.emit_series"),
    "numkit.rk4_self_s": ("self", "numkit.rk4_path"),
    "epidemic.generator_s": ("total", "epidemic.generator"),
    "coupled.generator_s": ("total", "coupled.generator"),
    "epidemic.ensemble_s": ("total", "epidemic.ensemble_decompose"),
    "quantum.entropy_s": ("total", "quantum.pure_entropy_pair"),
    "quantum.polar_split_s": ("total", "quantum.polar_split"),
    "mapping.certificate_self_s": ("self", "mapping.verify_equivalence"),
    "density.sqrt_rhs_s": ("total", "density.sqrt_dynamics_generator"),
}

# count metrics made from span counts
SPAN_COUNTS = {
    "numkit.rhs_calls": "numkit.rhs",
    "epidemic.generator_calls": "epidemic.generator",
    "coupled.generator_calls": "coupled.generator",
    "epidemic.ensemble_calls": "epidemic.ensemble_decompose",
    "quantum.entropy_calls": "quantum.pure_entropy_pair",
    "density.sqrt_rhs_calls": "density.sqrt_dynamics_generator",
}

# count metrics that the wrappers add up
COUNTERS = (
    "cli.emit_rows", "cli.emit_bytes", "numkit.rk4_steps", "numkit.eig_calls",
    "mapping.checked_samples", "mapping.excluded_samples",
)

COUNT_METRICS = set(SPAN_COUNTS) | set(COUNTERS)

# the span each time or count metric depends on
METRIC_SPAN = dict(
    {name: span for name, (_, span) in TIME_METRICS.items()},
    **SPAN_COUNTS,
    **{
        "cli.emit_rows": "cli.emit_series",
        "cli.emit_bytes": "cli.emit_series",
        "numkit.rk4_steps": "numkit.rk4_path",
        "mapping.checked_samples": "mapping.verify_equivalence",
        "mapping.excluded_samples": "mapping.verify_equivalence",
        "epidemic.generator_us_per_call": "epidemic.generator",
        "coupled.generator_us_per_call": "coupled.generator",
        "epidemic.frame_fallback_ratio": "epidemic.ensemble_decompose",
    },
)


class Tracer:
    """Spans and counts of one pass, kept in memory."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.scenarios = []
        self.scenario = -1
        self.model = None
        self.reset()

    def reset(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.scenario_of = array("i")
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.counts["eig_in_ensemble"] = 0

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter_scenario(self, label, model):
        self.scenarios.append(label)
        self.scenario = len(self.scenarios) - 1
        self.model = model

    def open(self, nid):
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.scenario_of.append(self.scenario)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def spanned(self, name, fn, after=None):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation --------------------------------------------------------

    def arrays(self):
        """(start, end, name, parent, scenario) as NumPy views of the spans."""
        return (np.frombuffer(self.start, dtype=float), np.frombuffer(self.end, dtype=float),
                np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.scenario_of, dtype=np.int32))

    def layer_metrics(self):
        """Per-layer figures of the spans recorded since the last reset.

        Returns (metrics, fired): metrics maps a metric name to a number;
        fired is the set of span names that fired at least once.
        """
        start, end, name, parent, _ = self.arrays()
        duration = end - start
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = duration - child
        total = np.bincount(name, weights=duration, minlength=len(self.names))
        self_time = np.bincount(name, weights=own, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        fired = {n for k, n in enumerate(self.names) if calls[k] > 0}

        def by(span, table):
            k = self._name_ids.get(span)
            return float(table[k]) if k is not None else 0.0

        metrics = {}
        for metric, (how, span) in TIME_METRICS.items():
            metrics[metric] = by(span, self_time if how == "self" else total)
        for metric in COUNTERS:
            metrics[metric] = int(self.counts[metric])
        for metric, span in SPAN_COUNTS.items():
            metrics[metric] = int(by(span, calls))
        for layer in ("epidemic", "coupled"):
            n = metrics[layer + ".generator_calls"]
            metrics[layer + ".generator_us_per_call"] = (
                1e6 * metrics[layer + ".generator_s"] / n if n else 0.0
            )
        n = metrics["epidemic.ensemble_calls"]
        metrics["epidemic.frame_fallback_ratio"] = self.counts["eig_in_ensemble"] / n if n else 0.0
        metrics["bench.self_sum_s"] = float(own.sum())
        return metrics, fired

    def write(self, path):
        """Write the pass's spans as a compressed NumPy archive."""
        start, end, name, parent, scenario = self.arrays()
        np.savez_compressed(
            path, start=start, end=end, name=name, parent=parent, scenario=scenario,
            names=np.array(self.names), scenarios=np.array(self.scenarios),
        )


def install(tracer, package):
    """Replace the traced functions in every module of ``package``.

    Returns a function that puts the originals back.
    """
    modules = [getattr(package, name) for name in MODULES]

    def count_rk4(traj, args):
        tracer.counts["numkit.rk4_steps"] += len(traj) - 1

    def count_emit(result, args):
        columns, path = args[0], args[1]
        c = tracer.counts
        c["cli.emit_rows"] += int(len(columns[0][1])) if columns else 0
        c["cli.emit_bytes"] += os.path.getsize(path) + os.path.getsize(str(path) + ".meta.json")

    def count_certificate(report, args):
        c = tracer.counts
        c["mapping.checked_samples"] += int(report.checked_samples)
        c["mapping.excluded_samples"] += int(len(report.excluded_times))

    def wrap_ode_evolve(fn):
        def ode_evolve(generator, *args, **kwargs):
            if callable(generator):
                owner = type(getattr(generator, "__self__", None)).__name__
                layer = GENERATOR_LAYER.get(owner) or GENERATOR_LAYER.get(tracer.model)
                if layer is not None:
                    generator = tracer.spanned(layer, generator)
            return fn(generator, *args, **kwargs)
        ode_evolve.__wrapped__ = fn
        return ode_evolve

    def wrap_eig(fn):
        ensemble = tracer.name_id("epidemic.ensemble_decompose")

        def eig(*args, **kwargs):
            c = tracer.counts
            c["numkit.eig_calls"] += 1
            if any(tracer.name[i] == ensemble for i in tracer.stack):
                c["eig_in_ensemble"] += 1
            return fn(*args, **kwargs)
        eig.__wrapped__ = fn
        return eig

    def wrap_rk4(fn):
        # the right-hand side is a child span, so rk4_path's self time is
        # the stepping arithmetic alone
        def rk4_path(f, *args, **kwargs):
            return fn(tracer.spanned("numkit.rhs", f), *args, **kwargs)
        return tracer.spanned("numkit.rk4_path", rk4_path, count_rk4)

    special = {
        "numkit.rk4_path": wrap_rk4,
        "numkit.ode_evolve": wrap_ode_evolve,
        "numkit.eig": wrap_eig,
        "cli.emit_series": lambda fn: tracer.spanned("cli.emit_series", fn, count_emit),
        "mapping.verify_equivalence":
            lambda fn: tracer.spanned("mapping.verify_equivalence", fn, count_certificate),
    }
    restore = []
    for module_name, attr in TRACED:
        span = "%s.%s" % (module_name, attr)
        original = getattr(getattr(package, module_name), attr)
        if span in special:
            wrapper = special[span](original)
        else:
            wrapper = tracer.spanned(span, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    restore.append((module, key, original))

    def uninstall():
        for module, key, original in reversed(restore):
            setattr(module, key, original)

    return uninstall
