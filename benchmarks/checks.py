"""Oracles for the outputs of the last timed pass (run outside the timing).

* constant generators: ``scipy.linalg.expm(S t) p0``, and for quantum
  pairs ``|expm(-i H t) psi0|^2``;
* time-dependent generators: the same config run again at dt/2.

The matrices are rebuilt here from the configs, independently of the
package's parsers.  Only this module imports scipy.
"""

import copy
import csv
import json
from pathlib import Path

import numpy as np

# RK4 at dt = 1e-3 on these rates agrees with the oracles to 2e-13 or better;
# table nodes sit on the step grid, so dt and dt/2 agree to ~1e-15
EXPM_TOL = 1e-10
HALF_DT_TOL = 1e-9
SAMPLED_ROWS = 41


def read_series(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _rate(value):
    if isinstance(value, list):
        raise ValueError("table rate in a constant-generator oracle")
    return float(value)


def _g2(spec):
    return np.array([[_rate(spec["s11"]), _rate(spec["s12"])],
                     [_rate(spec["s21"]), _rate(spec["s22"])]])


def classical_matrix(config):
    """The constant rate matrix of an epidemic2/epidemicN/coupled4 config."""
    gen = config["generator"]
    if config["model"] == "epidemic2":
        return _g2(gen)
    if config["model"] == "epidemicN":
        return np.array([[_rate(v) for v in row] for row in gen["matrix"]])
    if gen["form"] == "symmetric":
        a = b = _g2(gen["s2"])
        c14 = c23 = c32 = c41 = _rate(gen["coupling"])
    elif gen["form"] == "traffic":
        a, b = _g2(gen["sa"]), _g2(gen["sb"])
        c14, c23, c32, c41 = (_rate(c) for c in gen["cross"])
    else:
        raise ValueError("no constant oracle for form %r" % gen["form"])
    return np.array([
        [a[0, 0], a[0, 1], 0.0, c14],
        [a[1, 0], a[1, 1], c23, 0.0],
        [0.0, c32, b[0, 0], b[0, 1]],
        [c41, 0.0, b[1, 0], b[1, 1]],
    ])


def _cplx(v):
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def pair_hamiltonian(spec):
    """The 4x4 pair Hamiltonian on (1A1B, 1A2B, 2A1B, 2A2B)."""
    e1a, e2a, e1b, e2b = (_cplx(v) for v in spec["ep"])
    ta, tb = _cplx(spec["ts_a"]), _cplx(spec["ts_b"])
    ta21 = _cplx(spec["ts_a_21"]) if "ts_a_21" in spec else ta.conjugate()
    tb21 = _cplx(spec["ts_b_21"]) if "ts_b_21" in spec else tb.conjugate()
    ec = [float(v) for v in spec["ec"]]
    return np.array([
        [e1a + e1b + ec[0], tb21, ta21, 0.0],
        [tb, e1a + e2b + ec[1], 0.0, ta21],
        [ta, 0.0, e2a + e1b + ec[2], tb21],
        [0.0, ta, tb, e2a + e2b + ec[3]],
    ], dtype=complex)


def _sample(n):
    return np.unique(np.linspace(0, n - 1, SAMPLED_ROWS).astype(int))


def check_expm(config, out_dir):
    """Sampled rows against the matrix exponential; returns failure or None."""
    from scipy.linalg import expm

    names, data = read_series(Path(out_dir) / "series.csv")
    col = {n: k for k, n in enumerate(names)}
    quantum = config["model"] == "quantum2q"
    if quantum:
        h = pair_hamiltonian(config["hamiltonian"])
        psi0 = np.array([_cplx(v) for v in config["initial_state"]])
    else:
        s_mat = classical_matrix(config)
        p0 = np.array(config["initial_state"], dtype=float)
    worst = 0.0
    for i in _sample(len(data)):
        t = data[i, col["t"]] - config["t0"]
        if quantum:
            psi = expm(-1j * h * t) @ psi0
            expected = np.abs(psi) ** 2
            got = data[i, [col[n] for n in ("pI", "pII", "pIII", "pIV")]]
        else:
            expected = expm(s_mat * t) @ p0
            got = data[i, 1:1 + len(expected)]
        worst = max(worst, float(np.abs(got - expected).max()))
    if worst > EXPM_TOL:
        return "max deviation from expm %.3e > %.0e" % (worst, EXPM_TOL)
    return None


def check_half_dt(op, out_dir, half_dir, run_half):
    """Every sampled row against a run of the same operation at dt/2.

    run_half(op, half_dir) performs that run; returns failure or None.
    """
    half = copy.deepcopy(op)
    half["config"]["dt"] = op["config"]["dt"] / 2.0
    if op["kind"] == "interaction":
        got = np.load(Path(out_dir) / "states.npy")
        ref = run_half(half, half_dir)[::2]
    else:
        half["path"] = str(Path(half_dir) / "config.json")
        Path(half_dir).mkdir(parents=True, exist_ok=True)
        Path(half["path"]).write_text(json.dumps(half["config"]))
        code = run_half(half, half_dir)
        if code != 0:
            return "dt/2 reference run exited with %r" % code
        names, data = read_series(Path(out_dir) / "series.csv")
        _, ref_data = read_series(Path(half_dir) / "series.csv")
        ref_data = ref_data[::2]
        keep = [k for k, n in enumerate(names) if n != "r12"]
        got, ref = data[:, keep], ref_data[:, keep]
    if got.shape != ref.shape:
        return "dt/2 reference has shape %r, run has %r" % (ref.shape, got.shape)
    rows = _sample(len(got))
    worst = float(np.abs(got[rows] - ref[rows]).max())
    if worst > HALF_DT_TOL:
        return "max deviation from the dt/2 run %.3e > %.0e" % (worst, HALF_DT_TOL)
    return None


def check_ratio(out_dir):
    """The printed occupancy ratio is p1 / p2 of the printed row."""
    names, data = read_series(Path(out_dir) / "series.csv")
    if "r12" not in names:
        return None
    p1, p2, r = (data[:, names.index(n)] for n in ("p1", "p2", "r12"))
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = p1 / p2
    if not np.allclose(r, expected, rtol=1e-15, atol=0.0, equal_nan=True):
        return "r12 disagrees with p1/p2"
    return None
