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
Hamiltonian as its complex N x N matrix H.
"""

from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .errors import FloorViolationError
from .quantum import evolve_schrodinger, is_hermitian, polar_split

SPLIT_FLOOR = 1e-12

# samples per certificate chunk: bounds the (chunk, 2N, 2N) stack of S
CERTIFICATE_CHUNK = 256

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
    survives the split, so no sign information is returned.  Where the
    real slot is below SPLIT_FLOOR the tangent is reported as +inf.
    """
    x = np.asarray(x, dtype=float)
    re = x[..., 0::2]
    im = x[..., 1::2]
    p = re + im
    tan2 = np.full(re.shape, np.inf)
    ok = re >= SPLIT_FLOOR
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


def _split_generator_from_amplitudes(a, y):
    """S = 2 D(y) A D(y)^-1 for an amplitude vector y or an (n, 2N) stack."""
    x = y * y
    if x.min() < SPLIT_FLOOR:
        raise FloorViolationError(
            "split component %.3e below floor %.3e (phase at a multiple of pi/2)"
            % (x.min(), SPLIT_FLOOR),
            component=int(x.argmin()) % x.shape[-1],
        )
    return 2.0 * a * (y[..., :, None] / y[..., None, :])


def build_split_generator(h, psi):
    """Rate matrix S with dx/dt = S x along the wave's split image.

    Derived by conjugating the real-form generator with the signed
    amplitudes: S = 2 D(y) A D(y)^{-1}, y the interleaved
    (sqrt(p) cos, sqrt(p) sin) vector of psi.  Entry (j, m) is therefore
    2 A_jm sqrt(x_j / x_m) up to the signs of y, which is singular
    whenever a split component vanishes (a phase crossing a multiple of
    pi/2); below SPLIT_FLOOR this raises rather than extrapolating.
    """
    a = real_form_generator(h)
    return _split_generator_from_amplitudes(a, amplitudes_from_wave(psi))


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
    S(t) x at every interior sample whose split components clear the
    floor; samples that do not are listed in excluded_times (generic
    phase crossings, not failures).  Gap fields are max-norm over the
    checked samples; phase recovery is relative on tan^2.  hermitian is
    quantum.is_hermitian(H): H equals its conjugate transpose exactly.
    """

    times: np.ndarray
    total_probability: np.ndarray
    max_residual: float
    checked_samples: int
    excluded_times: np.ndarray
    split_consistency_gap: float
    phase_recovery_gap: float
    hermitian: bool
    norm_drift: float
    monotonicity_defect: float
    residual_times: np.ndarray = field(repr=False, default=None)
    residuals: np.ndarray = field(repr=False, default=None)


def verify_equivalence(h, psi0, t0, t1, dt):
    """Run the quantum evolution of H and certify its classical 2N image.

    The real form is built first, so an H too large for it is refused
    before the trajectory is evolved or split.
    """
    a_form = real_form_generator(h)
    traj = evolve_schrodinger(h, psi0, t0, t1, dt)
    polar = polar_split(traj)
    states = np.asarray(traj.states)
    x = np.empty((len(traj), 2 * states.shape[1]))
    x[:, 0::2] = states.real ** 2
    x[:, 1::2] = states.imag ** 2

    probs = polar.probabilities
    split_gap = float(np.abs(x[:, 0::2] + x[:, 1::2] - probs).max())

    total = probs.sum(axis=1)
    norm_drift = float(np.abs(total - total[0]).max())
    increments = np.diff(total)
    monotonicity_defect = float(max(0.0, increments.max())) if len(increments) else 0.0

    # five-point central differences need two neighbors on each side;
    # samples with a split component below SPLIT_FLOOR are excluded
    times = traj.times
    h_step = times[1] - times[0] if len(times) > 1 else 0.0
    interior = np.arange(2, len(times) - 2)
    low = x[interior].min(axis=1) < SPLIT_FLOOR
    excluded = times[interior[low]]
    checked = interior[~low]
    residuals = np.empty(len(checked))
    phase_gap = 0.0
    for start in range(0, len(checked), CERTIFICATE_CHUNK):
        i = checked[start:start + CERTIFICATE_CHUNK]
        dx = (-x[i + 2] + 8.0 * x[i + 1] - 8.0 * x[i - 1] + x[i - 2]) / (12.0 * h_step)
        s_matrix = _split_generator_from_amplitudes(a_form, amplitudes_from_wave(states[i]))
        s_x = np.einsum("nij,nj->ni", s_matrix, x[i])
        residuals[start:start + len(i)] = np.abs(dx - s_x).max(axis=1)
        tan2_true = np.tan(polar.phases[i]) ** 2
        _, tan2_rec = phase_from_split(x[i])
        gap = np.abs(tan2_true - tan2_rec) / (1.0 + np.abs(tan2_rec))
        phase_gap = max(phase_gap, float(gap.max()))
    return MappingReport(
        times=times,
        total_probability=total,
        max_residual=float(residuals.max()) if len(residuals) else 0.0,
        checked_samples=len(residuals),
        excluded_times=excluded,
        split_consistency_gap=split_gap,
        phase_recovery_gap=phase_gap,
        hermitian=is_hermitian(h),
        norm_drift=norm_drift,
        monotonicity_defect=monotonicity_defect,
        residual_times=times[checked],
        residuals=residuals,
    )


def evolve_real_form(h, psi0, t0, t1, dt):
    """Integrate the interleaved real-amplitude system dx/dt = A x.

    Companion to evolve_schrodinger for the embedding-exactness checks:
    reconstructing psi from the result must reproduce the complex
    integration to integrator accuracy.
    """
    a = real_form_generator(h)
    y0 = amplitudes_from_wave(np.asarray(psi0, dtype=complex))
    return numkit.ode_evolve(a, y0, t0, t1, dt)
