"""Seeded scenario generation for the benchmark workloads.

The seed drives every random choice: rates, table values, initial states
and the ``seed`` fields of sampled events.  The program under test only
ever sees the JSON configs written here (plus, for the interaction form
that the CLI cannot express, a JSON spec handed to the library).

Each operation is a dict:
    kind      "simulate" | "interaction" | "criterion"
    name      scenario id, unique within the workload
    config    the scenario JSON (simulate) or library spec (interaction)
    oracle    "expm" (constant generator), "half_dt" (time-dependent)
              or "criterion" (checks itself)
"""

import numpy as np

DEFAULT_SEED = 20261017
DT = 1e-3

# Span lengths (t1 - t0) at scale 1; rows = span / DT + 1.  A pass takes
# 1-2.5 s on a 2-vCPU Xeon VM, so a 30-s run holds 12-30 passes.
SPANS = {
    "tdep_classical": 0.6,
    "const_dense": 2.0,
}

# why each workload exists and its row counts are recorded in BENCHMARK.json
NAMES = ("tdep_classical", "const_dense", "verify_gate")

# Span names (see spans.py) that must fire on each workload; a traced run
# reports any of them that never fires as missing.
EXPECTED_SPANS = {
    "tdep_classical": {
        "cli.load_scenario", "cli.emit_series", "numkit.rk4_path", "numkit.rhs",
        "epidemic.generator", "coupled.generator", "epidemic.ensemble_decompose",
    },
    "const_dense": {
        "cli.load_scenario", "cli.emit_series", "numkit.rk4_path", "numkit.rhs",
        "epidemic.generator", "coupled.generator",
    },
    "verify_gate": {
        "numkit.rk4_path", "numkit.rhs", "coupled.generator", "epidemic.ensemble_decompose",
        "quantum.pure_entropy_pair", "quantum.polar_split",
        "mapping.verify_equivalence", "density.sqrt_dynamics_generator",
    },
}

# the criteria a run at scale < 1 keeps (each well under a second), and
# the spans they fire
SMOKE_CRITERIA = ("rabi_ratio", "ensemble_roundtrip", "density_eom", "aharonov_bohm")
SMOKE_SPANS = {"numkit.rk4_path", "numkit.rhs", "epidemic.ensemble_decompose",
               "density.sqrt_dynamics_generator"}


def expected_spans(workload, scale=1.0):
    if workload == "verify_gate" and scale < 1.0:
        return SMOKE_SPANS
    return EXPECTED_SPANS[workload]


def _round(x):
    return float(round(float(x), 6))


def _on_grid(t):
    """t rounded to a whole number of steps, so dt/2 runs share every row."""
    return _round(round(t / DT) * DT)


def _table(rng, t0, t1, lo, hi, nodes=3):
    """A piecewise-linear [[t, value], ...] table spanning [t0, t1].

    The nodes sit on the step grid, so the kinks do not cost RK4 its order.
    """
    times = [_on_grid(t) for t in np.linspace(t0, t1, nodes)]
    return [[_round(t), _round(v)] for t, v in zip(times, rng.uniform(lo, hi, nodes))]


def _simplex(rng, n):
    p = rng.uniform(0.2, 1.0, n)
    return [_round(v) for v in p / p.sum()]


def _base(model, t1, seed=None):
    config = {"schema": 1, "model": model, "t0": 0.0, "t1": max(DT, _on_grid(t1)), "dt": DT}
    if seed is not None:
        config["seed"] = int(seed)
    return config


def _random_pair_hamiltonian(rng):
    ep = [_round(e) for e in rng.uniform(0.9, 1.1, 4)]
    return {
        "ep": ep,
        "ts_a": [_round(rng.uniform(0.05, 0.2)), _round(rng.uniform(-0.05, 0.05))],
        "ts_b": [_round(rng.uniform(0.05, 0.2)), _round(rng.uniform(-0.05, 0.05))],
        "ec": [_round(v) for v in rng.uniform(0.0, 0.25, 4)],
    }


def _random_psi(rng):
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    z /= np.sqrt(np.sum(np.abs(z) ** 2))
    return [[float(v.real), float(v.imag)] for v in z]


def _tdep_classical(rng, span):
    ops = []
    # the README epidemic2 example with seeded values: table s12, a sampled
    # projective event, ensemble weights and the occupancy ratio
    cfg = _base("epidemic2", span, seed=rng.integers(1, 2**31))
    cfg["generator"] = {
        "s11": 0.0,
        "s12": _table(rng, 0.0, span, 0.1, 0.3, nodes=2),
        "s21": _round(rng.uniform(0.15, 0.25)),
        "s22": -0.1,
    }
    cfg["initial_state"] = _simplex(rng, 2)
    cfg["events"] = [{"time": _on_grid(0.4 * span), "type": "projective", "target": "sample"}]
    cfg["outputs"] = ["probabilities", "ensemble_weights", "ratio"]
    ops.append(("simulate", "epidemic2_readme", cfg, "half_dt"))

    # every rate is f(t) times [-0.2, 0.1, 0.2, -0.1]; s12 = -s22 exactly
    # makes a1 + b = 0, so the closed-form frame is singular at every sample
    # and each ensemble weight takes the numkit.eig fallback
    scale = _table(rng, 0.0, span, 0.5, 1.5)
    cfg = _base("epidemic2", span)
    cfg["generator"] = {
        key: [[t, _round(s * f)] for t, f in scale]
        for key, s in (("s11", -0.2), ("s12", 0.1), ("s21", 0.2), ("s22", -0.1))
    }
    cfg["initial_state"] = _simplex(rng, 2)
    cfg["outputs"] = ["probabilities", "ensemble_weights"]
    ops.append(("simulate", "epidemic2_frame_fallback", cfg, "half_dt"))

    # 4x4 epidemicN, every off-diagonal entry a table
    cfg = _base("epidemicN", span)
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            row.append(_round(-0.6) if i == j else _table(rng, 0.0, span, 0.05, 0.3))
        rows.append(row)
    cfg["generator"] = {"matrix": rows}
    cfg["initial_state"] = _simplex(rng, 4)
    ops.append(("simulate", "epidemicN_4x4_tables", cfg, "half_dt"))

    # coupled4 Kronecker sum with one table rate
    cfg = _base("coupled4", span)
    cfg["generator"] = {
        "form": "kron_sum",
        "sa": {"s11": -0.2, "s12": _table(rng, 0.0, span, 0.1, 0.3), "s21": 0.2, "s22": -0.1},
        "sb": {"s11": _round(-rng.uniform(0.1, 0.3)), "s12": 0.15,
               "s21": _round(rng.uniform(0.1, 0.3)), "s22": -0.15},
    }
    cfg["initial_state"] = _simplex(rng, 4)
    ops.append(("simulate", "coupled4_kron_sum_table", cfg, "half_dt"))

    # coupled4 traffic form with a table cross rate and a sampled event
    cfg = _base("coupled4", span, seed=rng.integers(1, 2**31))
    cfg["generator"] = {
        "form": "traffic",
        "sa": {"s11": -0.3, "s12": 0.2, "s21": _round(rng.uniform(0.1, 0.3)), "s22": -0.2},
        "sb": {"s11": -0.25, "s12": _round(rng.uniform(0.1, 0.3)), "s21": 0.25, "s22": -0.3},
        "cross": [_table(rng, 0.0, span, 0.05, 0.2), 0.1, 0.12, 0.08],
    }
    cfg["initial_state"] = [_round(v) for v in rng.uniform(0.2, 0.8, 4)]
    cfg["events"] = [{"time": _on_grid(0.5 * span), "type": "projective", "target": "sample_A"}]
    ops.append(("simulate", "coupled4_traffic_table", cfg, "half_dt"))

    # the pair-interaction form, which no CLI config expresses
    angles = rng.uniform(0.1, 1.4, 2)
    spec = {
        "t1": max(DT, _on_grid(span)), "dt": DT,
        "level_rates": [_round(-v) for v in rng.uniform(0.1, 0.4, 4)],
        "couplings": [
            ["1A1B", "1A2B", _table(rng, 0.0, span, 0.05, 0.2)],
            ["1A2B", "1A1B", _round(rng.uniform(0.05, 0.2))],
            ["2A1B", "2A2B", _round(rng.uniform(0.05, 0.2))],
            ["1A1B", "2A2B", _round(rng.uniform(0.05, 0.2))],
        ],
        "angle_a": _round(angles[0]), "angle_b": _round(angles[1]),
        "initial_state": _simplex(rng, 4),
    }
    ops.append(("interaction", "interaction_table", spec, "half_dt"))
    return ops


def _const_dense(rng, span):
    ops = []
    # the largest supported dimension: 16x16 constant rates, columns sum to 0
    off = rng.uniform(0.0, 0.2, (16, 16))
    np.fill_diagonal(off, 0.0)
    m = off - np.diag(off.sum(axis=0))
    cfg = _base("epidemicN", span)
    cfg["generator"] = {"matrix": [[_round(v) for v in row] for row in m]}
    cfg["initial_state"] = _simplex(rng, 16)
    ops.append(("simulate", "epidemicN_16x16_const", cfg, "expm"))

    cfg = _base("coupled4", span)
    cfg["generator"] = {
        "form": "symmetric",
        "s2": {"s11": -0.3, "s12": _round(rng.uniform(0.1, 0.3)),
               "s21": _round(rng.uniform(0.1, 0.3)), "s22": -0.2},
        "coupling": _round(rng.uniform(0.05, 0.15)),
    }
    cfg["initial_state"] = _simplex(rng, 4)
    ops.append(("simulate", "coupled4_symmetric_const", cfg, "expm"))

    cfg = _base("epidemic2", span)
    cfg["generator"] = {"s11": _round(-rng.uniform(0.1, 0.3)), "s12": 0.2,
                        "s21": _round(rng.uniform(0.1, 0.3)), "s22": -0.2}
    cfg["initial_state"] = _simplex(rng, 2)
    cfg["outputs"] = ["probabilities"]
    ops.append(("simulate", "epidemic2_const", cfg, "expm"))

    cfg = _base("quantum2q", span)
    cfg["hamiltonian"] = _random_pair_hamiltonian(rng)
    cfg["initial_state"] = _random_psi(rng)
    cfg["outputs"] = ["probabilities"]
    ops.append(("simulate", "quantum2q_hermitian", cfg, "expm"))
    return ops


def build(workload, seed, scale=1.0):
    """Return the workload's operations as a list of dicts."""
    if workload not in NAMES:
        raise ValueError("unknown workload %r; choose from %s" % (workload, ", ".join(NAMES)))
    if workload == "verify_gate":
        # frozen seeds live in epiqmap.acceptance; --seed does not reach them
        from epiqmap import acceptance
        names = [name for name, _, _ in acceptance.CRITERIA]
        if scale < 1.0:
            names = [n for n in names if n in SMOKE_CRITERIA]
        return [{"kind": "criterion", "name": n, "config": None, "oracle": "criterion"}
                for n in names]
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    span = SPANS[workload] * scale
    make = {"tdep_classical": _tdep_classical, "const_dense": _const_dense}[workload]
    return [{"kind": kind, "name": name, "config": config, "oracle": oracle}
            for kind, name, config, oracle in make(rng, span)]


def rows(op):
    """Rows of a scenario's output series."""
    cfg = op["config"]
    return int(round((cfg["t1"] - cfg.get("t0", 0.0)) / cfg["dt"])) + 1
