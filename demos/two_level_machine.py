"""Tour of the 2-level stochastic machine: spectrum, ensembles,
closed-form propagation, and measurement updates."""

import numpy as np

from epiqmap import epidemic, numkit

# ---------------------------------------------------------------------------
# A two-state machine with constant rates.  Nothing forces the rates to
# conserve probability; the dynamics is simply dp/dt = S p.
# ---------------------------------------------------------------------------
gen = epidemic.Generator2(1.0, 0.3, 0.5, 0.2)
p0 = np.array([0.7, 0.3])

frame = epidemic.spectral_frame(gen, 0.0)
print("eigenvalues        :", frame.e1, frame.e2)
print("eigenvector 1      :", frame.v1, "(components sum to 1)")
print("eigenvector 2      :", frame.v2)
print("squared norms      :", frame.n1, frame.n2)

m = gen.matrix(0.0)
print("residual |S v - E v|:",
      np.abs(m @ frame.v1 - frame.e1 * frame.v1).max(),
      np.abs(m @ frame.v2 - frame.e2 * frame.v2).max())

# the state decomposes into two statistical ensembles riding the
# eigenvectors; with symmetric coupling the decomposition is exact
sym = epidemic.Generator2(1.0, 0.4, 0.4, 0.2)
weights = epidemic.ensemble_decompose(p0, sym, 0.0)
rebuilt = epidemic.ensemble_reconstruct(weights, sym, 0.0)
print("\nensemble weights   :", weights)
print("reconstruction gap :", np.abs(rebuilt - p0).max())

# ---------------------------------------------------------------------------
# Closed-form propagation: exponentiate the time-integrated rates.
# For constant rates this is the exact matrix exponential; the RK4
# reference integration agrees to integrator accuracy.
# ---------------------------------------------------------------------------
t_end = 2.0
closed = epidemic.propagate_closed_form(gen, p0, 0.0, t_end)
reference = numkit.ode_evolve(gen.matrix, p0, 0.0, t_end, 1e-4).final
print("\np(%.1f) closed form :" % t_end, closed)
print("closed vs RK4      :", np.abs(closed - reference).max())
print("occupancy ratio    :", epidemic.occupancy_ratio(gen, p0, 0.0, t_end),
      "= p1/p2 =", closed[0] / closed[1])

# time-dependent rates: the same closed form uses integrated rate tables
ramp = epidemic.Generator2(0.0, [[0.0, 0.1], [2.0, 0.5]], 0.2, -0.1)
print("\nramped-rate p(2)   :", epidemic.propagate_closed_form(ramp, p0, 0.0, 2.0))
print("ordering gap       :", epidemic.propagation_gap(ramp, p0, 0.0, 2.0),
      "(reported, not hidden: exp-of-integral ignores time ordering)")

# ---------------------------------------------------------------------------
# Measurement.  A projective check collapses the state; a weak
# (partial-census) update blends in the tested subpopulation.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(1)
outcome = epidemic.sample_outcome(closed, rng)
print("\nsampled outcome    :", outcome)
print("after projection   :", epidemic.measure_projective(closed, outcome))
print("after weak update  :",
      epidemic.measure_weak(np.array([0.5, 0.5]), 100, 20, np.array([1.0, 0.0])),
      "(20 of 100 tested, all found in state 1)")
