"""Acceptance gate: every criterion at its frozen tolerance.

Each test prints one PASS/FAIL line for its criterion (run pytest with
-s to see them); the whole module doubles as the CLI 'verify' suite.
"""

import time

import numpy as np
import pytest

from epiqmap import acceptance, coupled, epidemic

_TOTALS = {}

# repr of every subcheck value, a Python float, by (criterion, label): a
# change that moves a last digit of the numerical contract is a declared
# change of its own, which re-takes this table
VALUES = {
    ("propagator_closed_form", "closed form vs matrix exponential, 100 seeded generators"):
        "3.1086244689504383e-15",
    ("spectral_fidelity", "2x2 closed-form residual"): "1.4210854715202004e-14",
    ("spectral_fidelity", "4x4 symmetric-coupled residual"): "1.4210854715202004e-14",
    ("spectral_fidelity", "overlap when s12 = s21"): "5.9822898008602635e-15",
    ("spectral_fidelity", "non-orthogonal witness overlap"): "0.4285714285714285",
    ("rabi_ratio", "fitted log-ratio slope error, 20 generators"): "6.106226635438361e-16",
    ("ensemble_roundtrip", "roundtrip error, 1000 seeded states"): "3.3306690738754696e-16",
    ("sqrt_transform", "squared sqrt-flow vs matrix-exponential flow"): "1.3100631690576847e-14",
    ("sqrt_transform", "probabilities stayed above 1e-6"): "0.1",
    ("density_eom", "transpose-form residual, generic rates"): "5.515388146193345e-11",
    ("density_eom", "anticommutator residual, symmetric case"): "6.875111591142513e-12",
    ("entanglement_entropy", "|S_A - S_B| over random pure states"): "7.91033905045424e-16",
    ("entanglement_entropy", "Bell-analog entropy vs ln 2"): "0.0",
    ("entanglement_entropy", "product-state entropy"): "3.634514974501746e-15",
    ("entanglement_entropy", "S_A under non-interacting evolution"): "8.003298776841284e-15",
    ("quantum_unitarity", "norm drift over t in [0, 10]"): "1.7763568394002505e-14",
    ("quantum_unitarity", "energy drift over t in [0, 10]"): "8.881784197001252e-16",
    ("mapping_certificate", "max ||dx/dt - S x||, every sample"): "1.8606449714297923e-11",
    ("mapping_certificate", "split consistency x_re + x_im = p"): "3.3306690738754696e-16",
    ("mapping_certificate", "real-form embedding rebuilds psi (N=2,4)"): "5.064917260848194e-16",
    ("mapping_certificate", "generator dimension is 2N"): "1.0",
    ("dissipation", "largest upward step of sum p"): "0.0",
    ("dissipation", "sum p(5) / sum p(0) below 0.95"): "0.13533528323690933",
    ("dissipation", "norm ratio vs brute-force value"): "2.966238366042262e-13",
    ("aharonov_bohm", "zero potential is the identity"): "0.0",
    ("aharonov_bohm", "site-local shift hits exactly two phases"): "0.0",
    ("aharonov_bohm", "global potential leaves probabilities invariant"): "3.885780586188048e-15",
    ("measurement_semantics", "projective after-states"): "0.0",
    ("measurement_semantics", "weak-measurement update"): "0.0",
    ("measurement_semantics", "B-trajectory back-action divergence"): "0.24252933528912868",
}


@pytest.mark.parametrize(
    "name,func,description", acceptance.CRITERIA, ids=[c[0] for c in acceptance.CRITERIA]
)
def test_criterion(name, func, description):
    start = time.perf_counter()
    subchecks = func()
    elapsed = time.perf_counter() - start
    _TOTALS[name] = elapsed
    passed = all(s.passed for s in subchecks)
    print("[%s] %s - %s" % ("PASS" if passed else "FAIL", name, description))
    for sub in subchecks:
        assert type(sub.value) is float, sub.label
        op = "<=" if sub.kind == "max" else ">="
        assert sub.passed, "%s: %s: %.6e %s %.6e" % (
            name, sub.label, sub.value, op, sub.tolerance,
        )
    assert {sub.label: repr(sub.value) for sub in subchecks} == {
        label: value for (criterion, label), value in VALUES.items() if criterion == name
    }


def test_suite_runtime_budget():
    assert len(_TOTALS) == len(acceptance.CRITERIA)
    assert sum(_TOTALS.values()) < 30.0


def per_draw_frame_matrix(rng, symmetric):
    """One healthy 2x2 rate matrix, drawn one rejection at a time."""
    while True:
        s11, s12, s21, s22 = rng.uniform(-1.0, 1.0, size=4)
        if symmetric:
            s12 = s21
        disc = (s11 - s22) ** 2 + 4.0 * s12 * s21
        if disc < 1e-2 or abs(s21) < 1e-2:
            continue
        root = np.sqrt(disc)
        if min(abs(-root + s11 - s22 + 2 * s21), abs(root + s11 - s22 + 2 * s21)) < 1e-2:
            continue
        return np.array([[s11, s12], [s21, s22]])


def per_draw_coupled_matrix(rng):
    """One healthy symmetric traffic matrix, drawn one rejection at a time."""
    while True:
        s11, s12, s21, s22, s = rng.uniform(-1.0, 1.0, size=5)
        delta = s11 - s22
        if 4 * (s - s12) * (s - s21) + delta**2 < 1e-2:
            continue
        if 4 * (s + s12) * (s + s21) + delta**2 < 1e-2:
            continue
        if min(abs(2 * (s - s21)), abs(2 * (s + s21))) < 1e-2:
            continue
        gen = epidemic.Generator2(s11, s12, s21, s22)
        return coupled.symmetric_traffic_generator(gen, s).matrix(0.0)


SEEDS = [0, 1, acceptance.SEED + 1, 2**63 - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
@pytest.mark.parametrize("symmetric", [False, True])
def test_frame_draws_are_the_per_draw_loop(seed, n, symmetric):
    rng, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = acceptance._random_frame_matrices(rng, n, symmetric)
    reference = np.array([per_draw_frame_matrix(loop, symmetric) for _ in range(n)])
    assert drawn.shape == (n, 2, 2)
    assert drawn.tobytes() == reference.tobytes()
    assert rng.bit_generator.state == loop.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_coupled_draws_are_the_per_draw_loop(seed, n):
    rng, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = acceptance._random_coupled_matrices(rng, n)
    reference = np.array([per_draw_coupled_matrix(loop) for _ in range(n)])
    assert drawn.shape == (n, 4, 4)
    assert drawn.tobytes() == reference.tobytes()
    assert rng.bit_generator.state == loop.bit_generator.state


def test_frame_generator_is_a_stack_of_one():
    rng, loop = np.random.default_rng(3), np.random.default_rng(3)
    for symmetric in (False, True, False):
        gen = acceptance._random_frame_generator(rng, symmetric)
        assert gen.matrix(0.0).tobytes() == per_draw_frame_matrix(loop, symmetric).tobytes()
    assert rng.bit_generator.state == loop.bit_generator.state
