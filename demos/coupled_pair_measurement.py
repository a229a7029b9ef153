"""Two coupled machines: closed-form modes, measurement back-action,
and the product structure of non-interacting evolution."""

import numpy as np

from epiqmap import coupled, epidemic, numkit

base = epidemic.Generator2(0.2, 0.3, 0.3, 0.2)

# ---------------------------------------------------------------------------
# Symmetric coupling: one shared cross rate ties the two machines.
# The four closed-form modes split into a same-sign family (physical
# occupancy patterns) and a sign-indefinite family.
# ---------------------------------------------------------------------------
pair = coupled.symmetric_traffic_generator(base, 0.1)
print("coupled rate matrix:\n", pair.matrix(0.0))
values, vectors, _ = coupled.matrix_modes(pair.matrix(np.array([0.0])))
for k, (value, vector) in enumerate(zip(values[0], vectors[0]), start=1):
    tag = "sign-indefinite" if k <= 2 else "occupancy-like"
    print("mode %d: value %+.6f  vector %s  (%s)" % (k, value, vector, tag))

# ---------------------------------------------------------------------------
# Measuring subsystem A nails its occupancies to (1, 0) while B passes
# through untouched -- but the later evolution of B changes, because
# the cross couplings feed the collapsed A back into B.
# ---------------------------------------------------------------------------
crossed = coupled.build_traffic_generator(
    epidemic.Generator2(0.0, 0.4, 0.3, -0.1),
    epidemic.Generator2(-0.2, 0.3, 0.5, 0.0),
    (0.3, 0.25, 0.35, 0.2),
)
p0 = np.array([0.6, 0.4, 0.5, 0.5])
at_1 = numkit.ode_evolve(crossed.matrix, p0, 0.0, 1.0, 1e-3).final
collapsed = coupled.measure_subsystem(at_1, "1A")
print("\nstate at t=1       :", at_1)
print("after measuring 1A :", collapsed)

free = numkit.ode_evolve(crossed.matrix, at_1, 1.0, 2.0, 1e-3).final
branched = numkit.ode_evolve(crossed.matrix, collapsed, 1.0, 2.0, 1e-3).final
print("B at t=2, unmeasured:", free[2:])
print("B at t=2, measured  :", branched[2:])
print("back-action gap     :", np.abs(branched[2:] - free[2:]).max())

# note: the printed projectors are idempotent but not complementary
pa1, pa2 = coupled.projector("1A"), coupled.projector("2A")
print("\nP(1A) + P(2A) diagonal:", np.diag(pa1 + pa2), "(not the identity)")

# ---------------------------------------------------------------------------
# Non-interacting pair in the product basis: the Kronecker-sum flow
# keeps a product state exactly factorized.
# ---------------------------------------------------------------------------
sa = epidemic.Generator2(0.0, 0.4, 0.6, -0.2)
sb = epidemic.Generator2(0.1, 0.3, 0.2, -0.4)
joint = coupled.kron_sum_generator(sa, sb)
product0 = coupled.product_from_marginals([0.3, 0.7], [0.6, 0.4])
traj = numkit.ode_evolve(joint.matrix, product0, 0.0, 5.0, 1e-2)
defects = [coupled.factorization_defect(p) for p in traj.states[::50]]
print("\nmax factorization defect over [0, 5]:", max(defects))

p_a = epidemic.propagate_closed_form(sa, np.array([0.3, 0.7]), 0.0, 5.0)
p_b = epidemic.propagate_closed_form(sb, np.array([0.6, 0.4]), 0.0, 5.0)
print("joint vs outer product of marginals :",
      np.abs(traj.final - coupled.product_from_marginals(p_a, p_b)).max())
