"""Two electrostatically coupled 2-site (position-based) qubits.

A minimal tight-binding Hamiltonian on the joint basis
(1A 1B, 1A 2B, 2A 1B, 2A 2B): on-site energies per qubit, one hopping
amplitude per direction per qubit, and four diagonal Coulomb energies
for the electron-pair configurations.  On-site energies may be complex;
a negative imaginary part models electron escape, a positive one
injection.  hbar = 1 throughout.
"""

from dataclasses import dataclass

import numpy as np

from . import numkit
from .density import reduced_density, von_neumann_entropy

PHASE_HOLD_FLOOR = 1e-14


@dataclass(frozen=True)
class QubitPairHamiltonian:
    """Parameters of the coupled-pair Hamiltonian.

    ep_*     : complex on-site energies (imaginary part = gain/loss)
    ts_*_12  : hopping site 1 -> 2 amplitude for that qubit
    ts_*_21  : hopping site 2 -> 1 amplitude
    ec_ij    : real Coulomb energy of configuration (iA, jB), e.g. the
               precomputed q^2 / d_{iA-jB}
    """

    ep_1a: complex
    ep_2a: complex
    ep_1b: complex
    ep_2b: complex
    ts_a_12: complex
    ts_a_21: complex
    ts_b_12: complex
    ts_b_21: complex
    ec_11: float
    ec_12: float
    ec_21: float
    ec_22: float

    @classmethod
    def hermitian(cls, ep_1a, ep_2a, ep_1b, ep_2b, ts_a, ts_b, ec_11, ec_12, ec_21, ec_22):
        """Hermitian parameter set: real energies, conjugate hopping pairs."""
        return cls(
            ep_1a=float(ep_1a), ep_2a=float(ep_2a),
            ep_1b=float(ep_1b), ep_2b=float(ep_2b),
            ts_a_12=complex(ts_a), ts_a_21=np.conj(complex(ts_a)),
            ts_b_12=complex(ts_b), ts_b_21=np.conj(complex(ts_b)),
            ec_11=float(ec_11), ec_12=float(ec_12),
            ec_21=float(ec_21), ec_22=float(ec_22),
        )

    @property
    def is_hermitian(self):
        onsite_real = all(
            abs(complex(e).imag) == 0.0
            for e in (self.ep_1a, self.ep_2a, self.ep_1b, self.ep_2b)
        )
        hops_conjugate = (
            self.ts_a_21 == np.conj(self.ts_a_12)
            and self.ts_b_21 == np.conj(self.ts_b_12)
        )
        return onsite_real and hops_conjugate


def coulomb_energy(charge, distance):
    """Helper converting a charge/distance pair into q^2 / d."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    return charge * charge / distance


def build_hamiltonian(params):
    """Assemble the 4x4 matrix on the (1A1B, 1A2B, 2A1B, 2A2B) basis.

    B-qubit hoppings connect states differing in the B site, positions
    (1,2) and (3,4); A-qubit hoppings connect (1,3) and (2,4); the
    anti-diagonal corners stay zero (both electrons cannot hop at once).
    """
    p = params
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = p.ep_1a + p.ep_1b + p.ec_11
    h[1, 1] = p.ep_1a + p.ep_2b + p.ec_12
    h[2, 2] = p.ep_2a + p.ep_1b + p.ec_21
    h[3, 3] = p.ep_2a + p.ep_2b + p.ec_22
    h[0, 1] = p.ts_b_21
    h[1, 0] = p.ts_b_12
    h[2, 3] = p.ts_b_21
    h[3, 2] = p.ts_b_12
    h[0, 2] = p.ts_a_21
    h[2, 0] = p.ts_a_12
    h[1, 3] = p.ts_a_21
    h[3, 1] = p.ts_a_12
    return h


def evolve_schrodinger(hamiltonian, psi0, t0, t, dt):
    """Trajectory of d psi/dt = -i H(t) psi (hbar = 1), fixed-step RK4.

    hamiltonian may be a constant complex matrix, a QubitPairHamiltonian,
    or a callable following the generator protocol of numkit.ode_evolve
    (a 1-d array of n times -> the (n, d, d) stack of H).  A constant H
    is stepped by numkit.ode_evolve's increment matrix of -i H.
    """
    if isinstance(hamiltonian, QubitPairHamiltonian):
        hamiltonian = build_hamiltonian(hamiltonian)
    psi0 = np.asarray(psi0, dtype=complex)
    if not callable(hamiltonian):
        return numkit.ode_evolve(-1j * np.asarray(hamiltonian, dtype=complex), psi0, t0, t, dt)
    return numkit.rk4_path(lambda h, psi: -1j * (h @ psi), psi0, t0, t, dt, hamiltonian)


def wave_from_polar(probabilities, phases):
    """Amplitudes gamma_k = sqrt(p_k) exp(i Theta_k)."""
    p = np.asarray(probabilities, dtype=float)
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    return np.sqrt(p) * np.exp(1j * np.asarray(phases, dtype=float))


@dataclass(frozen=True)
class PolarTrajectory:
    """Probabilities and unwrapped phases along a wave trajectory.

    held marks samples where the occupancy fell below the floor and the
    phase was carried over from the last defined value.
    """

    times: np.ndarray
    probabilities: np.ndarray
    phases: np.ndarray
    held: np.ndarray


def polar_split(trajectory, floor=PHASE_HOLD_FLOOR):
    """Split complex amplitudes into probabilities and continuous phases.

    Phases unwrap greedily: at each step the branch closest to the
    previous sample is chosen, so linear phase evolution continues past
    +/- pi.  Where p_k < floor the phase is held and flagged.  Sample 0
    keeps its raw phase and, held or not, is the first defining sample.

    Whole-array form of that per-sample rule: a defining sample i takes
    raw[i] + 2 pi K[i], where K[i] - K[j] = round((raw[j] - raw[i]) / 2 pi)
    and j is the defining sample before it; a held sample copies the
    phase of the last defining sample.
    """
    states = np.asarray(trajectory.states)
    probs = np.abs(states) ** 2
    raw = np.angle(states)
    held = probs < floor
    defining = ~held
    rows = np.arange(len(raw))[:, None]
    cols = np.arange(raw.shape[1])
    # filling held rows with 0 makes sample 0 defining, held or not
    last = np.maximum.accumulate(np.where(defining, rows, 0), axis=0)
    before = np.concatenate((last[:1], last[:-1]))
    two_pi = 2.0 * np.pi
    turns = np.where(defining, np.round((raw[before, cols] - raw) / two_pi), 0.0)
    phases = (raw + two_pi * np.cumsum(turns, axis=0))[last, cols]
    return PolarTrajectory(trajectory.times, probs, phases, held)


def pure_entropy_pair(psi, ordering="a_slow"):
    """Subsystem entropies (S_A, S_B) of a pure 4-component state."""
    psi = np.asarray(psi, dtype=complex)
    norm_sq = float(np.vdot(psi, psi).real)
    if norm_sq <= 0:
        raise ValueError("state has zero norm")
    rho = np.outer(psi, np.conj(psi)) / norm_sq
    s_a = von_neumann_entropy(reduced_density(rho, "A", ordering))
    s_b = von_neumann_entropy(reduced_density(rho, "B", ordering))
    return s_a, s_b


def expectation_energy(hamiltonian_matrix, psi):
    """<psi|H|psi> / <psi|psi>."""
    psi = np.asarray(psi, dtype=complex)
    norm_sq = float(np.vdot(psi, psi).real)
    if norm_sq <= 0:
        raise ValueError("state has zero norm")
    return complex(np.vdot(psi, hamiltonian_matrix @ psi)) / norm_sq
