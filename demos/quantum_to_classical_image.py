"""From a 4-level quantum evolution to an 8-state classical machine:
the split image, its rate matrix, and the equivalence certificate."""

import numpy as np

from epiqmap import mapping, quantum

h = quantum.build_hamiltonian(
    ep_1a=1.05, ep_2a=0.95, ep_1b=1.05, ep_2b=0.95,
    ts_a=0.1, ts_b=0.1,
    ec_11=0.05, ec_12=0.10, ec_21=0.15, ec_22=0.20,
)
psi0 = quantum.wave_from_polar([0.30, 0.20, 0.25, 0.25], [0.3, 1.0, -0.4, 0.8])

# ---------------------------------------------------------------------------
# Each amplitude contributes a cos^2- and a sin^2-weighted occupancy, so
# 4 complex levels become 8 nonnegative classical states.  Pair sums
# recover the occupancies; phases survive as squared tangents only.
# ---------------------------------------------------------------------------
p = np.abs(psi0) ** 2
theta = np.angle(psi0)
x = mapping.split_state(p, theta)
print("split state x      :", x)
print("pair sums = p      :", x[0::2] + x[1::2], "vs", p)
p_rec, tan2 = mapping.phase_from_split(x)
print("tan^2 recovered    :", tan2)
print("tan^2 from phases  :", np.tan(theta) ** 2)

# ---------------------------------------------------------------------------
# The real-amplitude form: a 2N x 2N real generator exactly equivalent
# to the complex Schrodinger equation, for any N in {2, 4}.
# ---------------------------------------------------------------------------
a_form = mapping.real_form_generator(h)
print("\nreal form is 2N x 2N:", a_form.shape)
real_traj = mapping.evolve_real_form(h, psi0, 0.0, 5.0, 1e-3)
complex_traj = quantum.evolve_schrodinger(h, psi0, 0.0, 5.0, 1e-3)
rebuilt = real_traj.states[:, 0::2] + 1j * real_traj.states[:, 1::2]
print("embedding gap      :", np.abs(rebuilt - complex_traj.states).max())

# the classical rate matrix at one instant: note the square-root ratios
# of split components and the zero diagonal (no on-site loss here)
s8 = mapping.build_split_generator(h, psi0)
print("\nS(0) first row     :", s8[0])
print("S(0) diagonal      :", np.diag(s8))

# ---------------------------------------------------------------------------
# The certificate: along the whole trajectory, a finite-difference
# dx/dt must match S(t) x.  Samples where a phase crosses a multiple of
# pi/2 (a split component hits zero) are excluded, not failures.
# ---------------------------------------------------------------------------
report = mapping.verify_equivalence(h, psi0, 0.0, 5.0, 1e-3)
print("\nmax ||dx/dt - S x||:", report.max_residual)
print("checked samples    :", report.checked_samples)
print("excluded samples   :", len(report.excluded_times))
print("split consistency  :", report.split_consistency_gap)
print("probability drift  :", report.norm_drift, "(Hermitian: conserved)")

# dissipative variant: complex site energies show up on the S diagonal
lossy = quantum.build_hamiltonian(
    ep_1a=1.05 - 0.1j, ep_2a=0.95 - 0.1j, ep_1b=1.05 - 0.1j, ep_2b=0.95 - 0.1j,
    ts_a=0.1, ts_b=0.1, ts_a_21=0.1, ts_b_21=0.1,
    ec_11=0.05, ec_12=0.10, ec_21=0.15, ec_22=0.20,
)
lossy_report = mapping.verify_equivalence(lossy, psi0, 0.0, 5.0, 1e-3)
print("\ndissipative run    : sum p falls from %.3f to %.3f, residual %.2e"
      % (lossy_report.total_probability[0], lossy_report.total_probability[-1],
         lossy_report.max_residual))

# ---------------------------------------------------------------------------
# A vector potential along the qubit axis shifts the four configuration
# phases by site sums.  A uniform potential is a pure gauge: it moves
# every phase equally and leaves all occupancies untouched.
# ---------------------------------------------------------------------------
pot = mapping.SitePotential(a_1a=0.4, a_2a=0.1, a_1b=0.0, a_2b=0.2, dot_diameter=0.5)
print("\nphases before      :", theta)
print("phases after A_x   :", mapping.apply_aharonov_bohm(theta, pot))

gauge = mapping.SitePotential(0.4, 0.4, 0.4, 0.4)
shifted = mapping.apply_aharonov_bohm(theta, gauge)
moved = quantum.evolve_schrodinger(h, quantum.wave_from_polar(p, shifted), 0.0, 5.0, 1e-3)
gap = np.abs(np.abs(moved.states) ** 2 - np.abs(complex_traj.states) ** 2).max()
print("uniform-potential occupancy gap:", gap)
