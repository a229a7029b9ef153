"""Square-root-of-probability dynamics and the classical density matrix.

Writing a = sqrt(p) turns the linear master equation dp/dt = S p into a
Schrodinger-like equation da/dt = H(t, p) a with the state-dependent
generator H = (1/2) D(a)^-1 S D(a).  Since D(a) a = p, the flow needs
only H a = (1/2) D(a)^-1 S p, so the amplitude trajectory never forms H;
sqrt_dynamics_generator builds it where H itself is wanted.  The
diagonal similarity, both ways, is amplitude_ratios with the one floor
PROBABILITY_FLOOR, below which it is singular: H = (1/2) S * R.T for
R = amplitude_ratios(a), and epiqmap.mapping's 2N rate matrix is
2 A * R.  The transform is exact, so squaring the evolved amplitudes
must reproduce the master-equation flow; that equivalence is used as a
built-in consistency check.  The outer product rho = a a^T plays the
role of a density matrix: it is symmetric, its diagonal carries the
probabilities, and it obeys d rho/dt = H rho + rho H^T (the
anticommutator form exactly when H is symmetric).  The generator S is
a constant (d, d) rate matrix.  Bipartite 4x4 densities use the
package's basis layout (1A1B, 1A2B, 2A1B, 2A2B), subsystem A varying
slowest.
"""

import functools
from collections import namedtuple

import numpy as np

from . import numkit
from .errors import FloorViolationError

PROBABILITY_FLOOR = 1e-12

EomResiduals = namedtuple("EomResiduals", ["transpose_form", "anticommutator"])


def _check_floor(p, t=None):
    """p as floats; below PROBABILITY_FLOOR, raise with t and the last-axis component."""
    p = np.asarray(p, dtype=float)
    # a Python min over one state's few entries costs a fraction of p.min()
    low = min(p.tolist()) if p.ndim == 1 else p.min(initial=np.inf)
    if low < PROBABILITY_FLOOR:
        raise FloorViolationError(
            "probability %.3e below floor %.3e" % (low, PROBABILITY_FLOOR),
            time=t, component=int(p.argmin()) % p.shape[-1],
        )
    return p


def amplitude_ratios(y):
    """R[..., i, j] = y_i / y_j of signed amplitudes y, one state or an (n, d) stack.

    D(y) M D(y)^-1 is M * R and D(y)^-1 M D(y) is M * R.T.  Each y_i * y_i
    (a probability p, or a split component x of the 2N image) must be at
    or above PROBABILITY_FLOOR.
    """
    y = np.asarray(y, dtype=float)
    _check_floor(y * y)
    return y[..., :, None] / y[..., None, :]


def sqrt_dynamics_generator(generator, p):
    """The amplitude-space generator H with entries (1/2) sqrt(pj/pi) s_ij.

    H = (1/2) S * amplitude_ratios(sqrt(p)).T, singular at extinction: every
    p_i must clear PROBABILITY_FLOOR.
    """
    a = np.sqrt(_check_floor(p))  # p first: a negative p has no real root to check
    return 0.5 * np.asarray(generator, dtype=float) * amplitude_ratios(a).T


# RK4 steps of da/dt = (1/2) (S p) / a in Python floats, their states
# appended to one flat list of block rows.  A stage compares each entry
# of its input x with the screen, checking x as sqrt_chunks' rhs does
# when one is below it, sums each row of r (x * x) from left to right,
# with r = S / 2, and divides by x; the stages combine as in
# numkit.rk4_path's checked steps.
_SQRT_BLOCK = """\
def sqrt_block(y, r, stages, h, screen, check):
    {a}, = y
    {r}, = r
    half, sixth = 0.5 * h, h / 6.0
    m = len(stages) // 3
    rows = []
    for j in range(m):
{stages}
        rows += ({a},)
    return rows
"""


@functools.cache
def _sqrt_block(d):
    """_SQRT_BLOCK compiled for d <= numkit.MAX_DIM amplitudes, on first use."""
    ids, x, lines = range(d), "a%d", []
    for k, tau, scale in ((1, "j", "half"), (2, "m + j", "half"), (3, "m + j", "h"),
                          (4, "2 * m + j", None)):
        xs = ", ".join(x % i for i in ids)
        screened = " or ".join("%s < screen" % (x % i) for i in ids)
        lines += ["if %s: check(stages[%s], array((%s,)))" % (screened, tau, xs)]
        lines += ["q{0} = {1} * {1}".format(i, x % i) for i in ids]
        sums = (" + ".join("r%d_%d * q%d" % (i, j, j) for j in ids) for i in ids)
        lines += ["k%d_%d = (%s) / %s" % (k, i, row, x % i) for i, row in enumerate(sums)]
        if scale:
            lines += ["x{0} = a{0} + {1} * k{2}_{0}".format(i, scale, k) for i in ids]
            x = "x%d"
    lines += ["a{0} = a{0} + sixth * (k1_{0} + 2.0 * k2_{0} + 2.0 * k3_{0} + k4_{0})".format(i)
              for i in ids]
    source = _SQRT_BLOCK.format(
        a=", ".join("a%d" % i for i in ids),
        r=", ".join("r%d_%d" % (i, j) for i in ids for j in ids),
        stages="\n".join(" " * 8 + line for line in lines),
    )
    exec(compile(source, "<sqrt_block d=%d>" % d, "exec"), namespace := {"array": np.array})
    return namespace["sqrt_block"]


def sqrt_chunks(generator, p0, t0, t, dt):
    """RK4 run of the amplitudes a = sqrt(p) under H(t, p), as a numkit.rk4_chunks stream.

    H depends on the instantaneous state, so this is a self-consistent
    (nonlinear) integration although S is constant.  S is converted and
    halved once; an object that is not array-like (a Generator2, say)
    raises TypeError, and an S that is not (d, d) for d probabilities
    raises ValueError, at this call, as does a p0 below the floor.  The
    right-hand side is H a = (1/2) (S p) / a: one matrix-vector product,
    H itself is never formed.  numkit.rk4_path steps each block as
    _sqrt_block's straight-line code and steps one that raises or ends
    non-finite again with rhs, stage by stage.  So a NonFiniteStateError
    reports the first non-finite sample, and a FloorViolationError the
    stage time at which a probability fell below the floor.  It is also
    raised when a stage amplitude is negative: a probability passed
    through 0 inside one step (backward runs can do that) without any
    stage landing below the floor.
    """
    p0 = _check_floor(p0, t0)
    half = 0.5 * np.asarray(generator, dtype=float)
    if half.shape != (len(p0), len(p0)):
        raise ValueError(
            "rate matrix shape %r does not match %d probabilities" % (half.shape, len(p0))
        )
    # an amplitude at or above this has p = a * a above the floor, so one
    # screen catches both a low probability and a negative amplitude
    screen = float(np.sqrt(PROBABILITY_FLOOR) * (1.0 + 1e-12))
    r = half.ravel().tolist()

    def check_stage(tau, a):
        _check_floor(a * a, tau)
        if min(a.tolist()) < 0:
            raise FloorViolationError(
                "amplitude crossed zero: a probability passed through 0",
                time=tau, component=int((a < 0).argmax()),
            )

    def rhs(tau, a):  # half.dot(p) is half @ p with less call overhead
        if min(a.tolist()) < screen:
            check_stage(tau, a)
        return half.dot(a * a) / a

    def float_block(f, y, stages, h, rows):
        rows.reshape(-1)[:] = _sqrt_block(len(y))(y.tolist(), r, stages, h, screen, check_stage)
        return rows[-1]

    return numkit.rk4_chunks(rhs, np.sqrt(p0), t0, t, dt, np.ndarray.tolist, float_block)


def evolve_sqrt_trajectory(generator, p0, t0, t, dt):
    """The Trajectory of sqrt_chunks' run, collected."""
    return numkit.collect(sqrt_chunks(generator, p0, t0, t, dt), t0, t, dt)


def evolve_sqrt(generator, p0, t0, t, dt):
    """Evolve probabilities through the amplitude equation; returns p(t).

    The squared endpoint is compared against the direct master-equation
    flow and a discrepancy beyond 1e-6 raises, flagging a step-size
    problem; the transform itself is exact.
    """
    p_end = evolve_sqrt_trajectory(generator, p0, t0, t, dt).final ** 2
    ref = numkit.ode_evolve(generator, p0, t0, t, dt).final
    gap = np.abs(p_end - ref).max()
    if gap > 1e-6:
        raise RuntimeError(
            "sqrt-transform flow deviates from master equation by %.3e; reduce dt" % gap
        )
    return p_end


def density_from_state(a):
    """Rank-1 classical density rho = a a^T from an amplitude vector."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("amplitudes are principal square roots; must be >= 0")
    return np.outer(a, a)


def density_eom_residual(generator, p):
    """Finite-difference check of the density equation of motion at t = 0.

    Evolves the amplitudes to +/- 1e-4 around the given state (constant
    generator, RK4 steps of 1e-4/16), forms drho/dt by central
    differences, and compares it against H rho + rho H^T and against the
    literal anticommutator H rho + rho H.  Both residuals (max-norm) are
    returned; only the transpose form is exact for asymmetric H.
    """
    h = 1e-4
    p = _check_floor(p)
    fwd = evolve_sqrt_trajectory(generator, p, 0.0, h, h / 16.0).final
    bwd = evolve_sqrt_trajectory(generator, p, 0.0, -h, h / 16.0).final
    drho = (density_from_state(fwd) - density_from_state(bwd)) / (2.0 * h)
    ham = sqrt_dynamics_generator(generator, p)
    rho = density_from_state(np.sqrt(p))
    transpose_form = np.abs(drho - (ham @ rho + rho @ ham.T)).max()
    anticommutator = np.abs(drho - (ham @ rho + rho @ ham)).max()
    return EomResiduals(float(transpose_form), float(anticommutator))


def reduced_density(rho, subsystem):
    """Normalized 2x2 reduced density of a 4x4 bipartite density matrix.

    The 4-dimensional index is (A, B) with A varying slowest, the layout
    (1A1B, 1A2B, 2A1B, 2A2B).  An (n, 4, 4) stack gives the (n, 2, 2)
    stack of reduced densities.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise ValueError("expected a 4x4 density matrix or a stack of them")
    if subsystem not in ("A", "B"):
        raise ValueError("subsystem must be 'A' or 'B'")
    if subsystem == "A":
        # out[i, j] = rho[2i, 2j] + rho[2i + 1, 2j + 1]
        out = rho[..., ::2, ::2] + rho[..., 1::2, 1::2]
    else:
        # out[i, j] = rho[i, j] + rho[i + 2, j + 2]
        out = rho[..., :2, :2] + rho[..., 2:, 2:]
    trace = rho.trace(axis1=-2, axis2=-1)
    if (trace == 0).any():
        raise ZeroDivisionError("density matrix has zero trace")
    return out / trace[..., None, None]


def von_neumann_entropy(rho2):
    """Entropy -sum(lam ln lam) of a 2x2 reduced density, in nats.

    Eigenvalues are clipped at zero; anything below -1e-8 is rejected as
    not positive semidefinite.  The sign convention makes the value
    nonnegative, 0 for pure states and ln 2 at maximal mixing.  An
    (n, 2, 2) stack gives the (n,) entropies.
    """
    rho2 = np.asarray(rho2)
    if rho2.shape[-2:] != (2, 2) or rho2.ndim not in (2, 3):
        raise ValueError("expected a 2x2 density matrix or a stack of them")
    lams = np.linalg.eigvalsh(0.5 * (rho2 + np.conj(rho2.swapaxes(-1, -2))))
    low = lams.min(initial=0.0)
    if low < -1e-8:
        raise ValueError("density matrix has significantly negative eigenvalue %.3e" % low)
    lams = np.maximum(lams, 0.0)
    # a zero eigenvalue adds 0 * log(0 + 1) = 0; any other, lam * log(lam)
    entropy = -(lams * np.log(lams + (lams == 0))).sum(axis=-1)
    return float(entropy) if rho2.ndim == 2 else entropy
