"""The square-root-of-probability picture: a Schrodinger-like equation
for a classical machine, its density matrix, and subsystem entropies."""

import numpy as np

from epiqmap import density, numkit

rates = np.array(
    [
        [-0.10, 0.30, 0.10, 0.05],
        [0.20, -0.15, 0.05, 0.10],
        [0.10, 0.05, -0.20, 0.30],
        [0.05, 0.20, 0.10, -0.25],
    ]
)
p0 = np.array([0.40, 0.30, 0.20, 0.10])

# ---------------------------------------------------------------------------
# Writing a = sqrt(p) turns dp/dt = S p into da/dt = H(p) a with
# H = (1/2) D(a)^-1 S D(a).  The change of variables is exact: squaring
# the evolved amplitudes reproduces the master-equation flow.
# ---------------------------------------------------------------------------
ham = density.sqrt_dynamics_generator(rates, p0)
print("amplitude-space generator H(p0):\n", ham)

p_end = density.evolve_sqrt(rates, p0, 0.0, 2.0, 1e-3)
oracle = numkit.mat_exp(rates * 2.0) @ p0
print("\np(2) via sqrt flow :", p_end)
print("master-equation gap:", np.abs(p_end - oracle).max())

# ---------------------------------------------------------------------------
# The outer product rho = a a^T behaves like a density matrix: rank one,
# symmetric, probabilities on the diagonal.  Its equation of motion is
# d rho/dt = H rho + rho H^T; the literal anticommutator H rho + rho H
# works only when H is symmetric (here: uniform p with symmetric rates).
# ---------------------------------------------------------------------------
rho = density.density_from_state(np.sqrt(p0))
print("\nclassical density matrix:\n", rho)
print("diagonal = probabilities:", np.diag(rho))

generic = density.density_eom_residual(rates, p0)
print("\nEOM residual, transpose form   :", generic.transpose_form)
print("EOM residual, anticommutator   :", generic.anticommutator, "(fails: H not symmetric)")

sym = density.density_eom_residual(0.5 * (rates + rates.T), np.full(4, 0.25))
print("symmetric case, anticommutator :", sym.anticommutator)

# ---------------------------------------------------------------------------
# Reduced 2x2 densities of the pair and their entropies.  For this
# classical construction the two subsystem entropies need not agree.
# ---------------------------------------------------------------------------
traj = density.evolve_sqrt_trajectory(rates, p0, 0.0, 3.0, 1e-3)
print("\n    t        S_A        S_B")
for idx in range(0, len(traj), 500):
    rho_t = density.density_from_state(traj.states[idx])
    s_a = density.von_neumann_entropy(density.reduced_density(rho_t, "A"))
    s_b = density.von_neumann_entropy(density.reduced_density(rho_t, "B"))
    print("%6.2f  %9.6f  %9.6f" % (traj.times[idx], s_a, s_b))
print("\n(ln 2 =", np.log(2.0), "bounds both entropies)")
