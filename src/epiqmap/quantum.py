"""Two electrostatically coupled 2-site (position-based) qubits.

A minimal tight-binding Hamiltonian on the joint basis
(1A 1B, 1A 2B, 2A 1B, 2A 2B): on-site energies per qubit, one hopping
amplitude per direction per qubit, and four diagonal Coulomb energies
for the electron-pair configurations.  On-site energies may be complex;
a negative imaginary part models electron escape, a positive one
injection.  build_hamiltonian assembles the complex 4x4 matrix, and that
matrix is the only Hamiltonian the functions here and in mapping take.
hbar = 1 throughout.
"""

from dataclasses import dataclass

import numpy as np

from . import numkit
from .density import reduced_density, von_neumann_entropy
from .errors import FloorViolationError

PHASE_HOLD_FLOOR = 1e-14


def coulomb_energy(charge, distance):
    """Helper converting a charge/distance pair into q^2 / d."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    return charge * charge / distance


def build_hamiltonian(ep_1a, ep_2a, ep_1b, ep_2b, ts_a, ts_b, ec_11, ec_12, ec_21, ec_22,
                      ts_a_21=None, ts_b_21=None):
    """Assemble the 4x4 matrix on the (1A1B, 1A2B, 2A1B, 2A2B) basis.

    ep_*  : complex on-site energies (imaginary part = gain/loss)
    ts_*  : hopping site 1 -> 2 amplitude for that qubit; ts_*_21, the
            2 -> 1 amplitude, defaults to its conjugate
    ec_ij : real Coulomb energy of configuration (iA, jB), e.g. the
            precomputed q^2 / d_{iA-jB}

    B-qubit hoppings connect states differing in the B site, positions
    (1,2) and (3,4); A-qubit hoppings connect (1,3) and (2,4); the
    anti-diagonal corners stay zero (both electrons cannot hop at once).
    """
    if ts_a_21 is None:
        ts_a_21 = np.conj(complex(ts_a))
    if ts_b_21 is None:
        ts_b_21 = np.conj(complex(ts_b))
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = ep_1a + ep_1b + ec_11
    h[1, 1] = ep_1a + ep_2b + ec_12
    h[2, 2] = ep_2a + ep_1b + ec_21
    h[3, 3] = ep_2a + ep_2b + ec_22
    h[0, 1] = ts_b_21
    h[1, 0] = ts_b
    h[2, 3] = ts_b_21
    h[3, 2] = ts_b
    h[0, 2] = ts_a_21
    h[2, 0] = ts_a
    h[1, 3] = ts_a_21
    h[3, 1] = ts_a
    return h


def is_hermitian(h):
    """Whether H equals its conjugate transpose exactly."""
    h = np.asarray(h)
    return bool(np.array_equal(h, np.conj(h.T)))


def schrodinger_chunks(h, psi0, t0, t, dt):
    """d psi/dt = -i H psi (hbar = 1) by fixed-step RK4, as a numkit.ode_chunks stream.

    h is a constant complex matrix; it is stepped by numkit.ode_chunks'
    increment matrix of -i H.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    return numkit.ode_chunks(-1j * np.asarray(h, dtype=complex), psi0, t0, t, dt)


def evolve_schrodinger(h, psi0, t0, t, dt):
    """The Trajectory of schrodinger_chunks' run, collected."""
    return numkit.collect(schrodinger_chunks(h, psi0, t0, t, dt), t0, t, dt)


def wave_from_polar(probabilities, phases):
    """Amplitudes gamma_k = sqrt(p_k) exp(i Theta_k)."""
    p = np.asarray(probabilities, dtype=float)
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    return np.sqrt(p) * np.exp(1j * np.asarray(phases, dtype=float))


@dataclass(frozen=True)
class PolarTrajectory:
    """Probabilities and unwrapped phases along a wave trajectory.

    held marks samples where the occupancy fell below PHASE_HOLD_FLOOR
    and the phase was carried over from the last defined value.
    """

    times: np.ndarray
    probabilities: np.ndarray
    phases: np.ndarray
    held: np.ndarray


def polar_split(trajectory):
    """Split complex amplitudes into probabilities and continuous phases.

    Phases unwrap greedily: at each step the branch closest to the
    previous sample is chosen, so linear phase evolution continues past
    +/- pi.  Where p_k < PHASE_HOLD_FLOOR the phase is held and flagged.
    Sample 0 keeps its raw phase and, held or not, is the first defining
    sample.  An empty trajectory gives empty (0, N) arrays.

    Whole-array form of that per-sample rule: a defining sample i takes
    raw[i] + 2 pi K[i], where K[i] - K[j] = round((raw[j] - raw[i]) / 2 pi)
    and j is the defining sample before it; a held sample copies the
    phase of the last defining sample.
    """
    states = np.asarray(trajectory.states)
    probs = np.abs(states) ** 2
    held = probs < PHASE_HOLD_FLOOR
    raw = np.angle(states)
    defining = ~held
    defining[:1] = True
    rows = np.arange(len(raw))[:, None]
    cols = np.arange(raw.shape[1])
    last = np.maximum.accumulate(np.where(defining, rows, 0), axis=0)
    before = np.concatenate((last[:1], last[:-1]))
    two_pi = 2.0 * np.pi
    turns = np.where(defining, np.round((raw[before, cols] - raw) / two_pi), 0.0)
    phases = (raw + two_pi * np.cumsum(turns, axis=0))[last, cols]
    return PolarTrajectory(trajectory.times, probs, phases, held)


def pure_entropy_pair(psi):
    """Subsystem entropies (S_A, S_B) of a pure 4-component state.

    The state is on the basis (1A1B, 1A2B, 2A1B, 2A2B).  An (n, 4) stack
    of states gives the pair as two (n,) arrays.  Each state is first scaled,
    exactly, by the power of two that brings its largest |component| into
    [0.5, 1), so no product underflows; a zero state raises FloorViolationError.
    """
    psi = np.asarray(psi, dtype=complex)
    biggest = np.abs(psi).max(axis=-1, initial=0.0)
    if not biggest.all():
        raise FloorViolationError("state has zero norm")
    shift = -np.frexp(biggest)[1][..., None, None]
    psi = np.ldexp(np.stack((psi.real, psi.imag), axis=-1), shift).view(complex)[..., 0]
    norm_sq = np.vecdot(psi, psi).real
    rho = psi[..., :, None] * np.conj(psi)[..., None, :] / norm_sq[..., None, None]
    s_a = von_neumann_entropy(reduced_density(rho, "A"))
    s_b = von_neumann_entropy(reduced_density(rho, "B"))
    return s_a, s_b


def expectation_energy(h, psi):
    """<psi|H|psi> / <psi|psi>."""
    psi = np.asarray(psi, dtype=complex)
    norm_sq = float(np.vdot(psi, psi).real)
    if norm_sq <= 0:
        raise ValueError("state has zero norm")
    return complex(np.vdot(psi, h @ psi)) / norm_sq
