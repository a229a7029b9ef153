"""Two electrostatically coupled 2-site qubits: unitary dynamics,
entanglement entropy, and dissipation through complex site energies."""

import numpy as np

from epiqmap import quantum

h = quantum.build_hamiltonian(
    ep_1a=1.05, ep_2a=0.95, ep_1b=1.05, ep_2b=0.95,
    ts_a=0.1, ts_b=0.1,
    ec_11=0.05, ec_12=0.10, ec_21=0.15, ec_22=0.20,
)
print("pair Hamiltonian (basis 1A1B, 1A2B, 2A1B, 2A2B):\n", h.real)
print("corner entries (both electrons hopping at once) are zero:",
      h[0, 3], h[3, 0])

# start in a product of one-qubit superpositions
psi0 = np.kron(np.array([0.8, 0.6], dtype=complex),
               np.array([0.6, 0.8], dtype=complex))
traj = quantum.evolve_schrodinger(h, psi0, 0.0, 10.0, 1e-3)

norms = (np.abs(traj.states) ** 2).sum(axis=1)
print("\nnorm drift over [0, 10]:", np.abs(norms - 1.0).max())
e0 = quantum.expectation_energy(h, psi0).real
print("energy at t=0          :", e0)
print("energy drift           :",
      np.abs(quantum.expectation_energy(h, traj.states[::500]).real - e0).max())

# ---------------------------------------------------------------------------
# The Coulomb terms entangle the qubits: subsystem entropy grows from
# zero and the two subsystems always agree for a pure state.
# ---------------------------------------------------------------------------
print("\n    t        S_A        S_B")
for idx in range(0, len(traj), 2000):
    s_a, s_b = quantum.pure_entropy_pair(traj.states[idx])
    print("%6.2f  %9.6f  %9.6f" % (traj.times[idx], s_a, s_b))

bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
print("\nBell-analog entropies  :", quantum.pure_entropy_pair(bell), "= ln 2")

# ---------------------------------------------------------------------------
# Polar form: occupancies plus unwrapped phases, the representation the
# classical 2N image is built from.
# ---------------------------------------------------------------------------
polar = quantum.polar_split(traj)
print("\nphases at t=10 (unwrapped):", polar.phases[-1])
print("occupancies at t=10       :", polar.probabilities[-1])

# ---------------------------------------------------------------------------
# Electron escape: a negative imaginary part on every site drains the
# total occupancy at rate 2 * |Im sum| = 0.4 here.
# ---------------------------------------------------------------------------
lossy = quantum.build_hamiltonian(
    ep_1a=1.05 - 0.1j, ep_2a=0.95 - 0.1j, ep_1b=1.05 - 0.1j, ep_2b=0.95 - 0.1j,
    ts_a=0.1, ts_b=0.1, ts_a_21=0.1, ts_b_21=0.1,
    ec_11=0.05, ec_12=0.10, ec_21=0.15, ec_22=0.20,
)
lossy_traj = quantum.evolve_schrodinger(lossy, psi0, 0.0, 5.0, 1e-3)
totals = (np.abs(lossy_traj.states) ** 2).sum(axis=1)
print("\ntotal occupancy decay  : 1 ->", totals[-1])
print("exp(-0.4 * 5)          :", np.exp(-2.0))
print("monotone nonincreasing :", bool(np.all(np.diff(totals) < 0)))
