"""Occupancy transfer between the two eigen-ensembles of a constant
machine, and weight evolution in a rotating eigenframe."""

import numpy as np

from epiqmap import epidemic, numkit

gen = epidemic.Generator2(1.0, 0.5, 0.5, 0.2)
w0 = np.array([0.7, 0.3])

# ---------------------------------------------------------------------------
# Ensemble weights evolve exponentially at the norm-scaled rates
# e_i / n_i, so the log of their ratio is a straight line in time.
# ---------------------------------------------------------------------------
times = np.linspace(0.0, 2.0, 9)
print("    t      pI         pII        log(pI/pII)")
for t, w in zip(times, epidemic.eigenmode_evolve_const(gen, w0, 0.0, times)):
    print("%6.2f  %9.5f  %9.5f  %12.8f" % (t, w[0], w[1], np.log(w[0] / w[1])))

slope_samples = np.linspace(0.0, 1.0, 100)
weights = epidemic.eigenmode_evolve_const(gen, w0, 0.0, slope_samples)
logs = np.log(weights[:, 0] / weights[:, 1])
fitted = np.polyfit(slope_samples, logs, 1)[0]
print("\nfitted slope       :", fitted)
print("e1/n1 - e2/n2      :", epidemic.rabi_rate(gen))

# ---------------------------------------------------------------------------
# With time-dependent rates the eigenvectors rotate, and the weight
# dynamics picks up connection terms <v_i | dv_j/dt> plus optional
# explicit cross couplings e12, e21 between the ensembles.
# ---------------------------------------------------------------------------
# Each drift is linear in t, as a two-row table reaching well past the
# run and the frame derivative's central differences.
drift = epidemic.Generator2(
    [[-1.0, 0.799], [1.0, 0.801]],
    [[-1.0, 0.301], [1.0, 0.299]],
    [[-1.0, 0.499], [1.0, 0.501]],
    [[-1.0, 0.101], [1.0, 0.099]],
)
print("\nframe matrix at t=0:\n", epidemic.frame_matrix(drift, 0.0, 0.0, 0.0))

closed = epidemic.frame_evolve(drift, 0.0, 0.0, w0, 0.0, 0.5)
reference = numkit.ode_evolve(
    lambda ts: epidemic.frame_matrix(drift, 0.0, 0.0, ts),
    w0, 0.0, 0.5, 1e-3,
).final
print("frame weights (0.5):", closed)
print("vs time-ordered RK :", np.abs(closed - reference).max())

coupled_w = epidemic.frame_evolve(drift, 0.05, 0.02, w0, 0.0, 0.5)
print("with e12, e21 on   :", coupled_w)

# ---------------------------------------------------------------------------
# Diagnostic for a constant-weights ansatz: for time-independent rates
# the defect reduces to |e1 * e2|, and it scales quadratically with a
# joint rate/time rescaling of the machine.
# ---------------------------------------------------------------------------
print("\nconstant-weights defect (static rates):",
      epidemic.constant_occupancy_residual(gen, 0.5))
print("|e1 * e2|                             :",
      abs(epidemic.spectral_frame(gen, 0.0).e1 * epidemic.spectral_frame(gen, 0.0).e2))
