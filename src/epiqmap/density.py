"""Square-root-of-probability dynamics and the classical density matrix.

Writing a = sqrt(p) turns the linear master equation dp/dt = S p into a
Schrodinger-like equation da/dt = H(t, p) a with the state-dependent
generator H = (1/2) D(a)^-1 S D(a).  Since D(a) a = p, the flow needs
only H a = (1/2) D(a)^-1 S p, so the amplitude trajectory never forms
H; sqrt_dynamics_generator builds it where H itself is wanted.  The
transform is exact, so squaring the evolved amplitudes must reproduce
the master-equation flow; that equivalence is used as a built-in
consistency check.  The outer product rho = a a^T plays the role of a
density matrix: it is symmetric, its diagonal carries the
probabilities, and it obeys d rho/dt = H rho + rho H^T (the
anticommutator form exactly when H is symmetric).  A generator S is a
constant rate matrix or an object with a matrix(t) method.
"""

from collections import namedtuple

import numpy as np

from . import numkit
from .errors import FloorViolationError

PROBABILITY_FLOOR = 1e-12

EomResiduals = namedtuple("EomResiduals", ["transpose_form", "anticommutator"])


def _rate_matrix(generator, t):
    if hasattr(generator, "matrix"):
        return generator.matrix(t)
    return np.asarray(generator, dtype=float)


def _check_floor(p, floor, t=None):
    p = np.asarray(p, dtype=float)
    # a Python min over the few entries costs a fraction of p.min()
    low = min(p.ravel().tolist())
    if low < floor:
        raise FloorViolationError(
            "probability %.3e below floor %.3e" % (low, floor),
            time=t, component=int(p.argmin()),
        )
    return p


def sqrt_dynamics_generator(generator, p, t=0.0, floor=PROBABILITY_FLOOR):
    """The amplitude-space generator H with entries (1/2) sqrt(pj/pi) s_ij.

    Requires every probability above the working floor: the transform is
    singular at extinction.
    """
    p = _check_floor(p, floor, t)
    s = _rate_matrix(generator, t)
    a = np.sqrt(p)
    return 0.5 * s * (a / a[:, None])


def evolve_sqrt_trajectory(generator, p0, t0, t, dt, floor=PROBABILITY_FLOOR):
    """RK4 trajectory of the amplitudes a = sqrt(p) under H(t, p).

    The generator depends on the instantaneous state, so this is a
    self-consistent (nonlinear) integration even for constant S.  The
    right-hand side is H a = (1/2) (S p) / a: one matrix-vector product,
    H itself is never formed.  A constant S is converted and halved once;
    a time-dependent one is evaluated at each stage time, which is also
    the time a FloorViolationError reports.  That error is also raised
    when a stage amplitude is negative: a probability passed through 0
    inside one step (backward runs can do that) without any stage
    landing below the floor.
    """
    p0 = _check_floor(p0, floor, t0)
    a0 = np.sqrt(p0)
    # an amplitude at or above this has p = a * a above the floor, so one
    # screen catches both a low probability and a negative amplitude
    screen = np.sqrt(floor) * (1.0 + 1e-12)

    def check_stage(tau, a):
        _check_floor(a * a, floor, tau)
        if min(a.tolist()) < 0:
            raise FloorViolationError(
                "amplitude crossed zero: a probability passed through 0",
                time=tau, component=int((a < 0).argmax()),
            )

    if hasattr(generator, "matrix"):
        def rhs(tau, a):
            if min(a.tolist()) < screen:
                check_stage(tau, a)
            return (0.5 * generator.matrix(tau)).dot(a * a) / a
    else:
        # half.dot(p) is half @ p with less call overhead
        half_rates = (0.5 * np.asarray(generator, dtype=float)).dot

        def rhs(tau, a):
            if min(a.tolist()) < screen:
                check_stage(tau, a)
            return half_rates(a * a) / a

    return numkit.rk4_path(rhs, a0, t0, t, dt)


def evolve_sqrt(generator, p0, t0, t, dt, floor=PROBABILITY_FLOOR, check=True):
    """Evolve probabilities through the amplitude equation; returns p(t).

    With check=True the squared endpoint is compared against the direct
    master-equation flow and a discrepancy beyond 1e-6 raises, flagging
    a step-size problem; the transform itself is exact.
    """
    traj = evolve_sqrt_trajectory(generator, p0, t0, t, dt, floor)
    p_end = traj.final ** 2
    if check:
        ref = numkit.ode_evolve(getattr(generator, "matrix", generator), p0, t0, t, dt).final
        gap = np.abs(p_end - ref).max()
        if gap > 1e-6:
            raise RuntimeError(
                "sqrt-transform flow deviates from master equation by %.3e; "
                "reduce dt" % gap
            )
    return p_end


def density_from_state(a):
    """Rank-1 classical density rho = a a^T from an amplitude vector."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("amplitudes are principal square roots; must be >= 0")
    return np.outer(a, a)


def density_eom_residual(generator, p, h, dt=None, floor=PROBABILITY_FLOOR):
    """Finite-difference check of the density equation of motion at t = 0.

    Evolves the amplitudes to +/- h around the given state (constant
    generator), forms drho/dt by central differences, and compares it
    against H rho + rho H^T and against the literal anticommutator
    H rho + rho H.  Both residuals (max-norm) are returned; only the
    transpose form is exact for asymmetric H.
    """
    if dt is None:
        dt = h / 16.0
    p = _check_floor(p, floor)
    fwd = evolve_sqrt_trajectory(generator, p, 0.0, h, dt, floor).final
    bwd = evolve_sqrt_trajectory(generator, p, 0.0, -h, dt, floor).final
    drho = (density_from_state(fwd) - density_from_state(bwd)) / (2.0 * h)
    ham = sqrt_dynamics_generator(generator, p, 0.0, floor)
    rho = density_from_state(np.sqrt(p))
    transpose_form = np.abs(drho - (ham @ rho + rho @ ham.T)).max()
    anticommutator = np.abs(drho - (ham @ rho + rho @ ham)).max()
    return EomResiduals(float(transpose_form), float(anticommutator))


def reduced_density(rho, subsystem, ordering="a_slow"):
    """Normalized 2x2 reduced density of a 4x4 bipartite density matrix.

    ordering='a_slow' treats the 4-dimensional index as (A, B) with A
    varying slowest, the layout (1A1B, 1A2B, 2A1B, 2A2B); 'b_slow' swaps
    the roles of the two subsystems for states stored the other way.
    An (n, 4, 4) stack gives the (n, 2, 2) stack of reduced densities.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise ValueError("expected a 4x4 density matrix or a stack of them")
    if subsystem not in ("A", "B"):
        raise ValueError("subsystem must be 'A' or 'B'")
    if ordering not in ("a_slow", "b_slow"):
        raise ValueError("ordering must be 'a_slow' or 'b_slow'")
    if (subsystem == "A") == (ordering == "a_slow"):
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
    if lams.min() < -1e-8:
        raise ValueError("density matrix has significantly negative eigenvalue %.3e" % lams.min())
    lams = np.maximum(lams, 0.0)
    # a zero eigenvalue adds 0 * log(0 + 1) = 0; any other, lam * log(lam)
    entropy = -(lams * np.log(lams + (lams == 0))).sum(axis=-1)
    return float(entropy) if rho2.ndim == 2 else entropy
