"""Embedding of an N-level complex quantum evolution in 2N real states.

Each complex amplitude gamma_k = sqrt(p_k) e^{i Theta_k} contributes two
nonnegative classical occupancies,

    x_{2k-1} = cos(Theta_k)^2 p_k     ("real" slot)
    x_{2k}   = sin(Theta_k)^2 p_k     ("imaginary" slot),

so a 4-level two-qubit wavefunction becomes an 8-state classical
machine.  The machine's rate matrix is derived here from the defining
requirement dx/dt = S(t) x applied to the real-amplitude form of the
Schrodinger equation; its entries carry the square-root ratios of split
components and the on-site imaginary (gain/loss) parts on the diagonal.
Phases survive the embedding only through tan(Theta_k)^2 = x_{2k}/x_{2k-1},
so the sign (quadrant) of a phase is not recoverable, and the rate
matrix is a certificate along a given trajectory rather than an
autonomous classical model: closing it would need a phase-velocity law
the embedding does not supply.  Every function here takes the
Hamiltonian as its complex N x N matrix H.  The rate matrix is
2 A * density.amplitude_ratios(y): the sqrt picture's similarity and floor.
Its flow S x is 2 y * (A y) wherever S exists, so the certificate checks
that product, which needs no division, at every sample.
"""

from dataclasses import dataclass, field

import numpy as np

from . import density, numkit
from .quantum import is_hermitian, polar_split, schrodinger_chunks

_ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def split_state(probabilities, phases):
    """Interleaved cos^2/sin^2 weighted occupancies of a polar state."""
    p = np.asarray(probabilities, dtype=float)
    theta = np.asarray(phases, dtype=float)
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    out = np.empty(2 * len(p))
    out[0::2] = p * np.cos(theta) ** 2
    out[1::2] = p * np.sin(theta) ** 2
    return out


def phase_from_split(x):
    """Recover occupancies and squared phase tangents from a split state.

    Returns (p, tan2) with p_k = x_{2k-1} + x_{2k} and
    tan2_k = x_{2k}/x_{2k-1}, taken along the last axis of x, so a
    stack of split states gives a stack of results.  Only |Theta| mod pi
    survives the split, so no sign information is returned.  tan2 is +inf
    where the real slot is below density.PROBABILITY_FLOOR.
    """
    x = np.asarray(x, dtype=float)
    re = x[..., 0::2]
    im = x[..., 1::2]
    p = re + im
    tan2 = np.full(re.shape, np.inf)
    ok = re >= density.PROBABILITY_FLOOR
    tan2[ok] = im[ok] / re[ok]
    return p, tan2


def amplitudes_from_wave(psi):
    """Interleaved (Re gamma, Im gamma) vector of a complex state.

    Interleaves along the last axis, so a stack of states gives a stack
    of amplitude vectors.
    """
    psi = np.asarray(psi, dtype=complex)
    out = np.empty(psi.shape[:-1] + (2 * psi.shape[-1],))
    out[..., 0::2] = psi.real
    out[..., 1::2] = psi.imag
    return out


def wave_from_amplitudes(y):
    """Inverse of amplitudes_from_wave, along the last axis."""
    y = np.asarray(y, dtype=float)
    return y[..., 0::2] + 1j * y[..., 1::2]


def real_form_generator(h):
    """Real 2N x 2N generator equivalent to d psi/dt = -i H psi.

    Acting on the interleaved real-amplitude vector, each 2x2 block
    (k, l) is [[Im H_kl, Re H_kl], [-Re H_kl, Im H_kl]]: real parts of H
    rotate within the (cos, sin) planes, imaginary parts scale them.
    The embedding is exact for any complex H, Hermitian or not, of any
    dimension N with 2N <= numkit.MAX_DIM.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or 2 * h.shape[0] > numkit.MAX_DIM:
        raise ValueError(
            "expected a square H with 2N <= %d, got shape %r" % (numkit.MAX_DIM, h.shape)
        )
    return np.kron(h.imag, np.eye(2)) + np.kron(h.real, _ROTATION)


def build_split_generator(h, psi):
    """Rate matrix S with dx/dt = S x along the wave's split image.

    S = 2 D(y) A D(y)^{-1} = 2 A * density.amplitude_ratios(y), y the
    interleaved (sqrt(p) cos, sqrt(p) sin) vector of psi: entry (j, m) is
    2 A_jm sqrt(x_j / x_m) up to the signs of y.  A split component below
    density.PROBABILITY_FLOOR (a phase near a multiple of pi/2) raises
    FloorViolationError rather than extrapolating.
    """
    return 2.0 * real_form_generator(h) * density.amplitude_ratios(amplitudes_from_wave(psi))


@dataclass(frozen=True)
class SitePotential:
    """Vector potential A_x sampled at the four dot sites.

    dot_diameter is the path length each hop traverses; e_over_hbar the
    coupling in the chosen units.
    """

    a_1a: float = 0.0
    a_2a: float = 0.0
    a_1b: float = 0.0
    a_2b: float = 0.0
    dot_diameter: float = 1.0
    e_over_hbar: float = 1.0

    def phase_shifts(self):
        k = self.dot_diameter * self.e_over_hbar
        return k * np.array(
            [
                self.a_1a + self.a_1b,
                self.a_1a + self.a_2b,
                self.a_2a + self.a_1b,
                self.a_2a + self.a_2b,
            ]
        )


def apply_aharonov_bohm(phases, potential):
    """Shift the four configuration phases by site-summed A_x terms."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (4,):
        raise ValueError("expected four phases")
    return phases + potential.phase_shifts()


@dataclass(frozen=True)
class MappingReport:
    """Certificate of the 2N embedding along one quantum trajectory.

    Residuals compare a five-point finite-difference dx/dt against
    S(t) x = 2 y * (A y) at every interior sample, residual_times: all
    checked_samples of them.  excluded_times lists the checked samples
    where S(t) itself is undefined, a split component below
    density.PROBABILITY_FLOOR (a phase crossing, not a failure).  Gap
    fields are max-norm over the run.  hermitian is
    quantum.is_hermitian(H): H equals its conjugate transpose exactly.
    """

    times: np.ndarray
    total_probability: np.ndarray
    max_residual: float
    checked_samples: int
    excluded_times: np.ndarray
    split_consistency_gap: float
    hermitian: bool
    norm_drift: float
    monotonicity_defect: float
    residual_times: np.ndarray = field(repr=False, default=None)
    residuals: np.ndarray = field(repr=False, default=None)


def verify_equivalence(h, psi0, t0, t1, dt):
    """Run the quantum evolution of H and certify its classical 2N image.

    Each chunk of quantum.schrodinger_chunks is split, reduced and
    certified, its last four samples the halo of the next chunk's
    five-point stencil, so the call holds one chunk beside the report
    arrays it allocates from the sample count.  The real form is built
    first: an H too large for it is refused at once.
    """
    a_form = real_form_generator(h)
    chunks = schrodinger_chunks(h, psi0, t0, t1, dt)
    n = numkit.step_count(t0, t1, dt) + 1
    times, total = np.empty(n), np.empty(n)
    # five-point central differences need two neighbors on each side
    residuals = np.empty(max(n - 4, 0))
    undefined = [np.empty(0)]
    # running maxima: np.maximum, like one np.max over the run, keeps a nan
    split_gap = norm_drift = rise = -np.inf
    start = checked = 0
    halo = None
    for chunk in chunks:
        probs = polar_split(chunk).probabilities
        stop = start + len(chunk)
        times[start:stop] = chunk.times
        y = amplitudes_from_wave(chunk.states)
        x = y * y
        split_gap = np.maximum(split_gap, np.abs(x[:, 0::2] + x[:, 1::2] - probs).max())
        total[start:stop] = probs.sum(axis=1)
        norm_drift = np.maximum(norm_drift, np.abs(total[start:stop] - total[0]).max())
        if stop > 1:
            rise = np.maximum(rise, np.diff(total[max(start - 1, 0):stop]).max())
        if halo is not None:
            x, y = np.concatenate((halo * halo, x)), np.concatenate((halo, y))
        start, halo = stop, y[-4:]
        # the window's centers, rows 2 .. len - 3, as rows 0 .. m - 1
        m = max(len(x) - 4, 0)
        h_step = times[1] - times[0] if n > 1 else 0.0
        dx = (-x[4:4 + m] + 8.0 * x[3:3 + m] - 8.0 * x[1:1 + m] + x[:m]) / (12.0 * h_step)
        x, y = x[2:2 + m], y[2:2 + m]
        # S(t) x = 2 y * (A y) wherever S(t) exists, with no division
        residuals[checked:checked + m] = np.abs(dx - 2.0 * y * (y @ a_form.T)).max(axis=1)
        low = x.min(axis=1) < density.PROBABILITY_FLOOR
        if low.any():
            undefined.append(times[stop - m - 2 + np.flatnonzero(low)])
        checked += m
    return MappingReport(
        times=times,
        total_probability=total,
        max_residual=float(residuals.max()) if checked else 0.0,
        checked_samples=checked,
        excluded_times=np.concatenate(undefined),
        split_consistency_gap=float(split_gap),
        hermitian=is_hermitian(h),
        norm_drift=float(norm_drift),
        monotonicity_defect=float(max(0.0, rise)),
        residual_times=times[2:n - 2],
        residuals=residuals,
    )


def real_form_chunks(h, psi0, t0, t1, dt):
    """The interleaved real-amplitude system dx/dt = A x, as a numkit.ode_chunks stream.

    Companion to quantum.schrodinger_chunks for the embedding-exactness
    checks: reconstructing psi from its samples must reproduce the
    complex integration to integrator accuracy.
    """
    a = real_form_generator(h)
    return numkit.ode_chunks(a, amplitudes_from_wave(np.asarray(psi0, dtype=complex)), t0, t1, dt)


def evolve_real_form(h, psi0, t0, t1, dt):
    """The Trajectory of real_form_chunks' run, collected."""
    return numkit.collect(real_form_chunks(h, psi0, t0, t1, dt), t0, t1, dt)
