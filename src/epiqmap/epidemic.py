"""Two-level (and N-level) classical stochastic finite-state machine.

The machine evolves a vector of occupancy probabilities under
dp/dt = S(t) p with an unconstrained rate matrix S.  This module carries
the analytic apparatus for the 2-level case: the closed-form spectrum
and eigenvectors, decomposition of a state into the two eigen-ensembles,
the sinh/cosh closed-form propagator built from time-integrated rates,
occupancy ratios, projective and weak measurement, eigenmode evolution,
and the eigenframe ("projector representation") dynamics with
eigenvector-derivative connection terms.

Rate matrices of any size up to 16 are RateMatrix grids (Generator2 is
the 2x2 one).  A rate is a number or a piecewise-linear table; the grid
holds each as a float or as its ``rate_table``, a checked (k, 2) array,
and no rate is a callable.  ``matrix(t)`` takes a scalar time or a 1-d
array of times (the generator protocol), and ``numkit.ode_evolve``
integrates it.

States are plain numpy vectors of probabilities.  Rates may leave the
probability simplex for a generic S; nothing here clamps, and
``simplex_violation`` quantifies any negativity.
"""

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import DegenerateFrameError, FloorViolationError

FRAME_SINE_FLOOR = 1e-12  # least sine between the frame vectors ensemble_decompose splits along
_TAYLOR_WINDOW = 1e-6


# ---------------------------------------------------------------------------
# rates and generators
# ---------------------------------------------------------------------------

def rate_table(spec):
    """A piecewise-linear rate [[t, value], ...] as a (k, 2) float array.

    Its times must increase strictly, with finite slopes between rows;
    anything else raises ValueError, and a callable raises TypeError.
    """
    table = np.array(spec, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2 or len(table) < 2:
        raise ValueError("rate table must be [[t, value], ...] with >= 2 rows")
    if np.any(np.diff(table[:, 0]) <= 0):
        raise ValueError("rate table times must be strictly increasing")
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.diff(table[:, 1]) / np.diff(table[:, 0])
    if not np.isfinite(slopes).all():
        raise ValueError("rate table slopes must be finite")
    return table


class RateMatrix:
    """A square grid of rates, evaluated under the generator protocol.

    Each entry of grid is a number, held as a float, or a table, held as
    its rate_table; rates is that grid.  matrix(t) takes a 1-d array of
    n times, giving an (n, d, d) stack, or a scalar time, evaluated as a
    stack of one and giving its (d, d) matrix.  Constant entries are
    stored once, and a fully constant stack of several times is a
    read-only broadcast of them; each table entry is one np.interp over
    the n times, constant beyond its nodes.  A constant entry that is not
    finite raises ValueError here; a table whose interpolation is not
    finite at some time (np.interp's slope times t - t_k can pass the
    float range) raises OverflowError from matrix(t), naming that time.
    """

    def __init__(self, grid):
        self.rates = rates = [
            [float(v) if np.isscalar(v) else rate_table(v) for v in row] for row in grid
        ]
        d = len(rates)
        if d == 0 or any(len(row) != d for row in rates):
            raise ValueError("rate grid must be square")
        self._base = np.array([[r if isinstance(r, float) else 0.0 for r in row] for row in rates])
        if not np.isfinite(self._base).all():
            raise ValueError("constant rates must be finite")
        # (i, j, nodes, values) of each table entry, the last two contiguous
        self._varying = [(i, j, *r.T.copy()) for i, row in enumerate(rates)
                         for j, r in enumerate(row) if not isinstance(r, float)]

    @property
    def is_constant(self):
        return not self._varying

    def matrix(self, t):
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValueError("t must be a scalar or a 1-d array of times")
        flat = times.reshape(-1)
        if self._varying:
            m = np.empty(flat.shape + self._base.shape)
            m[:] = self._base
            for i, j, nodes, values in self._varying:
                m[:, i, j] = np.interp(flat, nodes, values)
            if not np.isfinite(m).all():
                first = np.isfinite(m).all(axis=(1, 2)).argmin()
                raise OverflowError("rate table overflows at t = %r" % float(flat[first]))
        elif len(flat) == 1:
            # a writable stack of one, which a scalar time unpacks as it is;
            # np.broadcast_to plus a copy costs several times more
            m = self._base[None].copy()
        else:
            m = np.broadcast_to(self._base, flat.shape + self._base.shape)
        return m if times.ndim else m[0]

    def integrated(self, t0, t):
        """Entrywise time integrals over [t0, t], t >= t0, as a (d, d) array.

        A table's integral is the trapezoid rule on t0, its nodes between
        and t, which is exact.
        """
        if not t >= t0:
            raise ValueError("t must be >= t0")
        if t == t0:
            return np.zeros(self._base.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf
            g = self._base * (t - t0)
            for i, j, nodes, values in self._varying:
                grid = np.concatenate(([t0], nodes[(nodes > t0) & (nodes < t)], [t]))
                g[i, j] = np.trapezoid(np.interp(grid, nodes, values), grid)
        return g


class Generator2(RateMatrix):
    """Rate matrix of the 2-level machine; each entry is a number or a rate table."""

    def __init__(self, s11, s12, s21, s22):
        super().__init__([[s11, s12], [s21, s22]])


# ---------------------------------------------------------------------------
# spectral frame and ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralFrame2:
    """Eigenvalues, closed-form eigenvectors, and their squared norms.

    e1 carries the negative square-root branch, so e1 <= e2 always.  The
    vectors keep the printed scale (components summing to one) rather
    than unit norm; n1, n2 are their squared Euclidean norms.
    numeric_fallback marks frames where that scale is singular, a
    vector's components summing to nearly zero, so that the vector has
    unit norm instead.  The frame of n times
    stacks every field: e1, e2, n1, n2 and numeric_fallback have shape
    (n,), v1 and v2 shape (n, 2).
    """

    e1: float
    e2: float
    v1: np.ndarray
    v2: np.ndarray
    n1: float
    n2: float
    numeric_fallback: bool = False


def _stack_last(*columns):
    """Equal-shape arrays (or scalars) stacked along a new last axis, C-contiguous."""
    return np.array(columns).T.copy()


def spectral_frame(generator, t):
    """The spectral frame of generator at a scalar time or a 1-d array of times."""
    return matrix_frame(generator.matrix(t))


def matrix_frame(m):
    """The spectral frame of an (n, 2, 2) stack of rate matrices or of one.

    One 2x2 matrix is framed as a stack of one.  numkit.eig gives each
    sample's eigenpairs, and each vector is divided by its component
    sum; a vector whose sum is below numkit.SCALE_FLOOR of its norm has
    unit norm instead (numkit.scale_vectors), and its sample is flagged
    numeric_fallback.  A complex spectrum in any sample raises
    ComplexSpectrumError.
    """
    m = np.asarray(m, dtype=float)
    values, vectors = numkit.eig(m.reshape(-1, 2, 2))
    # vectors[:, 0] is v1 and vectors[:, 1] is v2
    vectors, singular = numkit.scale_vectors(vectors, vectors.sum(axis=-1))
    fallback = singular.any(axis=1)
    norms = np.vecdot(vectors, vectors)
    e1, e2 = values.T
    if m.ndim == 2:
        return SpectralFrame2(e1[0], e2[0], vectors[0, 0], vectors[0, 1],
                              float(norms[0, 0]), float(norms[0, 1]), bool(fallback[0]))
    return SpectralFrame2(e1, e2, vectors[:, 0], vectors[:, 1], norms[:, 0], norms[:, 1], fallback)


def _spanning_frame(generator, t):
    """spectral_frame(generator, t) if it spans the plane, as ensemble_decompose requires."""
    frame = spectral_frame(generator, t)
    # a nan norm or sine fails these comparisons too
    if not (np.all(frame.n1 >= 1e-14) and np.all(frame.n2 >= 1e-14)):
        raise DegenerateFrameError("eigen-ensemble norms vanished or are not finite")
    (a, b), (c, d) = np.moveaxis(frame.v1, -1, 0), np.moveaxis(frame.v2, -1, 0)
    sine = np.abs(a * d - b * c) / np.sqrt(frame.n1 * frame.n2)
    if not np.all(sine >= FRAME_SINE_FLOOR):
        raise DegenerateFrameError("eigen-ensemble vectors are parallel: sine %.3e below %.0e"
                                   % (np.min(sine), FRAME_SINE_FLOOR))
    return frame


def ensemble_decompose(p, generator, t, return_frame=False):
    """Weights of the two eigen-ensembles, as the 2-vector (pI, pII).

    Computed by projection onto the frame vectors scaled by their squared
    norms; the decompose/reconstruct roundtrip is exact whenever the two
    frame vectors are orthogonal (symmetric coupling s12 = s21).  Vectors
    whose angle has a sine |v1 x v2| / sqrt(n1 n2) below FRAME_SINE_FLOOR
    (a defective spectrum) span only their common line, so they raise
    DegenerateFrameError, as vanishing norms do.  With a 1-d array of n
    times, p is an (n, 2) stack of states and the weights are (n, 2).
    With return_frame, the frame is returned too.
    """
    frame = _spanning_frame(generator, t)
    p = np.asarray(p, dtype=float)
    weights = _stack_last(
        np.vecdot(frame.v1, p) / frame.n1, np.vecdot(frame.v2, p) / frame.n2
    )
    return (weights, frame) if return_frame else weights


def ensemble_reconstruct(weights, generator, t):
    """The state with the given ensemble weights; stacks like ensemble_decompose."""
    frame = spectral_frame(generator, t)
    weights = np.asarray(weights, dtype=float)
    return weights[..., :1] * frame.v1 + weights[..., 1:] * frame.v2


# ---------------------------------------------------------------------------
# closed-form propagation
# ---------------------------------------------------------------------------

def _cosh_sinhc(d):
    """cosh(sqrt(d)/2) and sinh(sqrt(d)/2)/sqrt(d), smooth through d = 0.

    d is the squared argument and may be negative, in which case the
    trigonometric branch applies.  Near zero a 4-term Taylor expansion
    removes the singularity of the sinc-like factor.  A pair that is not
    finite (cosh overflows past sqrt(d) ~ 1420) raises OverflowError.
    """
    if abs(d) < _TAYLOR_WINDOW:
        c = 1.0 + d / 8.0 + d * d / 384.0 + d * d * d / 46080.0
        s = 0.5 + d / 48.0 + d * d / 3840.0 + d * d * d / 645120.0
        return c, s
    with np.errstate(over="ignore", invalid="ignore"):
        if d > 0:
            q = np.sqrt(d)
            c, s = np.cosh(0.5 * q), np.sinh(0.5 * q) / q
        else:
            w = np.sqrt(-d)
            c, s = np.cos(0.5 * w), np.sin(0.5 * w) / w
    return _finite((c, s), "cosh/sinh closed form overflows")


def _finite(values, message):
    """values, or OverflowError(message) if one of them is not finite."""
    if not np.isfinite(values).all():
        raise OverflowError(message)
    return values


def _bracket(g):
    """exp(g) / exp(tr g / 2) of a 2x2 matrix by the sinh/cosh closed form, unchecked."""
    g11, g12 = g[0]
    g21, g22 = g[1]
    delta = g11 - g22
    c, s = _cosh_sinhc(delta * delta + 4.0 * g12 * g21)
    return np.array([[c + delta * s, 2.0 * g12 * s], [2.0 * g21 * s, c - delta * s]])


def _expm2_closed(g):
    """exp() of a 2x2 matrix through the sinh/cosh closed form; OverflowError if not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(0.5 * (g[0, 0] + g[1, 1])) * _bracket(g)
    return _finite(out, "2x2 matrix exponential overflows")


def propagate_closed_form(generator, p0, t0, t):
    """Propagate a 2-state vector with the exp-of-integrated-rates form.

    Exact for constant generators and, more generally, whenever the
    family {S(t)} commutes; see ``propagation_gap`` for the reported
    discrepancy otherwise.
    """
    p0 = np.asarray(p0, dtype=float)
    g = generator.integrated(t0, t)
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite integrated rates")
    return _expm2_closed(g) @ p0


def occupancy_ratio(generator, p0, t0, t):
    """Closed-form ratio p1(t)/p2(t), of the propagator's bracket applied to p0.

    _bracket(g) @ p0, with g the integrated rates, is p(t) without the
    prefactor exp(tr g / 2), which cancels out of the ratio.
    """
    p0 = np.asarray(p0, dtype=float)
    g = generator.integrated(t0, t)
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = _bracket(g) @ p0
    num, den = _finite((num, den), "occupancy ratio overflows")
    if abs(den) < 1e-14 * max(1.0, abs(num)):
        raise ZeroDivisionError("occupancy ratio denominator vanished")
    return num / den


def propagation_gap(generator, p0, t0, t):
    """Max-norm gap between the closed form and the RK4 reference (dt 1e-4).

    Zero (to integrator accuracy) for commuting generator families; for
    non-commuting time dependence the gap is real and is reported rather
    than asserted away.
    """
    closed = propagate_closed_form(generator, p0, t0, t)
    reference = numkit.ode_evolve(generator.matrix, p0, t0, t, 1e-4).final
    return float(np.abs(closed - reference).max())


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_projective(p, outcome):
    """Collapse onto state 1 or 2; the caller chooses/samples the outcome."""
    p = np.asarray(p, dtype=float)
    if p.sum() <= 0:
        raise FloorViolationError("total probability must be positive to measure")
    if outcome == 1:
        return np.array([1.0, 0.0])
    if outcome == 2:
        return np.array([0.0, 1.0])
    raise ValueError("outcome must be 1 or 2")


def sample_outcome(p, rng):
    """Draw outcome 1 or 2 with probabilities proportional to (p1, p2)."""
    p = np.asarray(p, dtype=float)
    total = p.sum()
    if total <= 0:
        raise FloorViolationError("total probability must be positive to sample")
    return 1 if rng.random() < p[0] / total else 2


def measure_weak(p, n_total, n_tested, p_test):
    """Partial-census update p <- ((N - N1) p + N1 p_test) / N."""
    if n_total <= 0:
        raise ValueError("population must be positive")
    if not 0 <= n_tested <= n_total:
        raise ValueError("tested count must satisfy 0 <= N1 <= N")
    p = np.asarray(p, dtype=float)
    p_test = np.asarray(p_test, dtype=float)
    return ((n_total - n_tested) * p + n_tested * p_test) / n_total


def simplex_violation(p):
    """Magnitude of any negativity in a probability vector (0 if none)."""
    return float(max(0.0, -np.min(p)))


# ---------------------------------------------------------------------------
# eigenmode dynamics
# ---------------------------------------------------------------------------

def eigenmode_evolve_const(generator, w0, t0, t):
    """Evolve ensemble weights of a constant generator.

    Each weight grows exponentially at its norm-scaled rate e_i / n_i,
    so log(pI/pII) is affine in time with slope e1/n1 - e2/n2 (the
    Rabi-like occupancy-transfer law).  A 1-d array of n times t gives
    the (n, 2) weights at those times.  It refuses the frames ensemble_decompose does,
    and raises OverflowError where a weight is not finite.
    """
    if not generator.is_constant:
        raise ValueError("eigenmode evolution requires a constant generator")
    frame = _spanning_frame(generator, t0)
    w0 = np.asarray(w0, dtype=float)
    rates = np.array([frame.e1 / frame.n1, frame.e2 / frame.n2])
    with np.errstate(over="ignore", invalid="ignore"):
        weights = w0 * np.exp(rates * (np.asarray(t, dtype=float) - t0)[..., None])
    return _finite(weights, "eigenmode weights overflow")


def rabi_rate(generator):
    """Slope e1/n1 - e2/n2 of the log weight ratio at t = 0, of a frame that spans the plane."""
    frame = _spanning_frame(generator, 0.0)
    return frame.e1 / frame.n1 - frame.e2 / frame.n2


def constant_occupancy_residual(generator, t):
    """Consistency defect of a constant-ensemble-weights ansatz at time t.

    Returns |<v1|v2'> <v2|v1'> - (e1 - <v1|v1'>)(e2 - <v2|v2'>)|, the
    cross-multiplied difference of the two closed-ratio expressions, from
    the connection terms of frame_matrix with zero cross couplings.  For
    a time-independent generator the frames at t and t +/- h are equal,
    and the value is exactly |e1 * e2|.  This is a diagnostic, not a
    quantity that must vanish.
    """
    f = frame_matrix(generator, 0.0, 0.0, t)
    return float(abs(f[0, 1] * f[1, 0] - f[0, 0] * f[1, 1]))


def frame_matrix(generator, e12, e21, t):
    """Eigenframe evolution matrix acting on the weights (pI, pII).

    Diagonal: eigenvalue minus the same-vector connection <v_i|dv_i/dt>;
    off-diagonal: the cross couplings (numbers) minus the cross connections.
    dv_i/dt is the central difference (v_i(t + h) - v_i(t - h)) / 2h, with
    h = 1e-6, of one spectral_frame of the times t, t + h and t - h,
    stacked.  Follows the generator protocol: a scalar time gives the 2x2
    matrix, a 1-d array of n times the (n, 2, 2) stack.
    """
    h = 1e-6
    frame = spectral_frame(generator, np.stack((t, t + h, t - h)).reshape(-1))
    # each field's thirds: the frame at t, at t + h and at t - h
    (e1, _, _), (e2, _, _) = frame.e1.reshape(3, -1), frame.e2.reshape(3, -1)
    (v1, a1, b1), (v2, a2, b2) = frame.v1.reshape(3, -1, 2), frame.v2.reshape(3, -1, 2)
    d1, d2 = (a1 - b1) / (2.0 * h), (a2 - b2) / (2.0 * h)
    return _stack_last(
        e1 - np.vecdot(v1, d1), e21 - np.vecdot(v1, d2),
        e12 - np.vecdot(v2, d1), e2 - np.vecdot(v2, d2),
    ).reshape(np.shape(t) + (2, 2))


def frame_evolve(generator, e12, e21, w0, t0, t):
    """Propagate ensemble weights in the (possibly rotating) eigenframe.

    The four generator entries are integrated over [t0, t] by composite
    trapezoid on a grid of step 1e-3 and exponentiated through the same
    sinh/cosh closed form as the probability propagator.  The grid is
    sized by numkit.step_count, so a grid it refuses (too many steps, or
    steps too fine for floating point) raises ValueError.
    """
    w0 = np.asarray(w0, dtype=float)
    if t == t0:
        return w0.copy()
    if t < t0:
        raise ValueError("t must be >= t0")
    grid = np.linspace(t0, t, numkit.step_count(t0, t, 1e-3) + 1)
    samples = frame_matrix(generator, e12, e21, grid)
    if not np.all(np.isfinite(samples)):
        raise ValueError("non-finite eigenframe quadrature")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf integral: _expm2_closed refuses it
        g = np.trapezoid(samples, grid, axis=0)
    return _expm2_closed(g) @ w0
