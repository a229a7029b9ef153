"""Two-level (and N-level) classical stochastic finite-state machine.

The machine evolves a vector of occupancy probabilities under
dp/dt = S(t) p with an unconstrained rate matrix S.  This module carries
the analytic apparatus for the 2-level case: the closed-form spectrum
and eigenvectors, decomposition of a state into the two eigen-ensembles,
the sinh/cosh closed-form propagator built from time-integrated rates,
occupancy ratios, projective and weak measurement, eigenmode evolution,
and the eigenframe ("projector representation") dynamics with
eigenvector-derivative connection terms.

Rate matrices of any size up to 16 are RateMatrix grids; their
``matrix(t)`` takes a scalar time or a 1-d array of times (the
generator protocol), and ``numkit.ode_evolve`` integrates them.

States are plain numpy vectors of probabilities.  Rates may leave the
probability simplex for a generic S; nothing here clamps, and
``simplex_violation`` quantifies any negativity.
"""

from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .errors import ComplexSpectrumError, DegenerateFrameError, FloorViolationError

S21_FLOOR = 1e-10
_PREFACTOR_FLOOR = 1e-10
_TAYLOR_WINDOW = 1e-6


# ---------------------------------------------------------------------------
# rates and generators
# ---------------------------------------------------------------------------

class Rate:
    """A scalar rate of time: constant, piecewise-linear table, or callable.

    Tables are sequences of (time, value) rows with strictly increasing
    times; values are held constant beyond the table range.  Integrals
    are exact for constants and tables (trapezoid on the nodes) and use
    composite Simpson for general callables.  Called with a 1-d array of
    times, a callable is evaluated one time at a time.
    """

    def __init__(self, spec):
        self._callable = None
        self._table = None
        self._value = None
        if callable(spec):
            self._callable = spec
        elif np.isscalar(spec):
            self._value = float(spec)
        else:
            table = np.asarray(spec, dtype=float)
            if table.ndim != 2 or table.shape[1] != 2 or len(table) < 2:
                raise ValueError("rate table must be [[t, value], ...] with >= 2 rows")
            if np.any(np.diff(table[:, 0]) <= 0):
                raise ValueError("rate table times must be strictly increasing")
            self._table = table

    @property
    def is_constant(self):
        return self._value is not None

    def __call__(self, t):
        """The rate at a scalar time (a float) or at each time of a 1-d array."""
        if not _is_time_array(t):
            return self._at(t)
        if self._value is not None:
            return np.full(np.shape(t), self._value)
        if self._table is not None:
            return np.interp(t, self._table[:, 0], self._table[:, 1])
        return np.array([float(self._callable(tau)) for tau in t])

    def _at(self, t):
        if self._value is not None:
            return self._value
        if self._table is not None:
            return float(np.interp(t, self._table[:, 0], self._table[:, 1]))
        return float(self._callable(t))

    def integral(self, t0, t1):
        if t1 == t0:
            return 0.0
        if self._value is not None:
            return self._value * (t1 - t0)
        if self._table is not None:
            lo, hi = min(t0, t1), max(t0, t1)
            nodes = self._table[:, 0]
            inner = nodes[(nodes > lo) & (nodes < hi)]
            grid = np.concatenate(([lo], inner, [hi]))
            vals = np.interp(grid, nodes, self._table[:, 1])
            area = np.trapezoid(vals, grid)
            return area if t1 > t0 else -area
        n = max(8, int(np.ceil(abs(t1 - t0) / 1e-3)))
        if n % 2:
            n += 1
        grid = np.linspace(t0, t1, n + 1)
        vals = np.array([self._callable(t) for t in grid])
        h = (t1 - t0) / n
        return h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum())


def as_rate(spec):
    return spec if isinstance(spec, Rate) else Rate(spec)


def _is_time_array(t):
    # checked without np.ndim, which is slow on Python floats: scalar
    # evaluation sits on the per-sample paths (spectral frames, ensembles)
    return isinstance(t, (np.ndarray, list, tuple)) and np.ndim(t) > 0


class RateMatrix:
    """A square grid of Rates, evaluated under the generator protocol.

    matrix(t) takes a scalar time, giving a (d, d) array, or a 1-d array
    of n times, giving an (n, d, d) stack.  Constant entries are stored
    once, and a fully constant stack is a read-only broadcast of them;
    each time-dependent entry is evaluated at all n times in one call.
    Non-finite entries raise ValueError.
    """

    def __init__(self, grid):
        rates = [[as_rate(v) for v in row] for row in grid]
        d = len(rates)
        if d == 0 or any(len(row) != d for row in rates):
            raise ValueError("rate grid must be square")
        self._base = np.array(
            [[0.0 if r._value is None else r._value for r in row] for row in rates]
        )
        self._base_finite = bool(np.isfinite(self._base).all())
        self._varying = [
            (i, j, r) for i, row in enumerate(rates) for j, r in enumerate(row)
            if not r.is_constant
        ]

    @property
    def is_constant(self):
        return not self._varying

    def matrix(self, t):
        if not _is_time_array(t):
            m = self._base.copy()
            for i, j, rate in self._varying:
                m[i, j] = rate._at(t)
        else:
            t = np.asarray(t, dtype=float)
            if t.ndim != 1:
                raise ValueError("t must be a scalar or a 1-d array of times")
            if self._varying:
                m = np.empty(t.shape + self._base.shape)
                m[:] = self._base
                for i, j, rate in self._varying:
                    m[:, i, j] = rate(t)
            else:
                m = np.broadcast_to(self._base, t.shape + self._base.shape)
        if not (np.isfinite(m).all() if self._varying else self._base_finite):
            raise ValueError("generator entries not finite at t = %r" % (t,))
        return m


@dataclass(frozen=True)
class Generator2:
    """Rate matrix of the 2-level machine; entries are Rate-coercible.

    matrix(t) follows the generator protocol of RateMatrix.
    """

    s11: Rate
    s12: Rate
    s21: Rate
    s22: Rate
    _rates: RateMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("s11", "s12", "s21", "s22"):
            object.__setattr__(self, name, as_rate(getattr(self, name)))
        object.__setattr__(
            self, "_rates", RateMatrix([[self.s11, self.s12], [self.s21, self.s22]])
        )

    @classmethod
    def constant(cls, s11, s12, s21, s22):
        return cls(float(s11), float(s12), float(s21), float(s22))

    @property
    def is_constant(self):
        return self._rates.is_constant

    def matrix(self, t):
        return self._rates.matrix(t)

    def integrated(self, t0, t):
        """Entrywise time integrals over [t0, t] as a 2x2 array."""
        if t < t0:
            raise ValueError("t must be >= t0")
        return np.array(
            [
                [self.s11.integral(t0, t), self.s12.integral(t0, t)],
                [self.s21.integral(t0, t), self.s22.integral(t0, t)],
            ]
        )


# ---------------------------------------------------------------------------
# spectral frame and ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralFrame2:
    """Eigenvalues, closed-form eigenvectors, and their squared norms.

    e1 carries the negative square-root branch, so e1 <= e2 always.  The
    vectors keep the closed form's scale (components summing to one)
    rather than unit norm; n1, n2 are their squared Euclidean norms.
    numeric_fallback marks frames where the closed form was singular and
    a numeric eigendecomposition was used instead.
    """

    e1: float
    e2: float
    v1: np.ndarray
    v2: np.ndarray
    n1: float
    n2: float
    numeric_fallback: bool = False


def spectral_frame(generator, t):
    m = generator.matrix(t)
    s11, s12 = m[0]
    s21, s22 = m[1]
    disc = (s11 - s22) ** 2 + 4.0 * s12 * s21
    if disc < 0:
        raise ComplexSpectrumError(disc)
    root = np.sqrt(disc)
    e1 = 0.5 * (-root + s11 + s22)
    e2 = 0.5 * (root + s11 + s22)
    scale = max(1.0, np.abs(m).max())
    a1 = -root + s11 - s22
    a2 = root + s11 - s22
    b = 2.0 * s21
    closed_form = (
        abs(s21) >= S21_FLOOR
        and abs(a1 + b) >= _PREFACTOR_FLOOR * scale
        and abs(a2 + b) >= _PREFACTOR_FLOOR * scale
    )
    if closed_form:
        v1 = np.array([a1, b]) / (a1 + b)
        v2 = np.array([a2, b]) / (a2 + b)
        fallback = False
    else:
        values, vectors = numkit.eig(m)
        v1, v2 = vectors[:, 0].real.copy(), vectors[:, 1].real.copy()
        # keep the closed form's components-sum-to-one scale when possible
        for v in (v1, v2):
            total = v.sum()
            if abs(total) > 1e-8:
                v /= total
        fallback = True
    return SpectralFrame2(
        e1=e1, e2=e2, v1=v1, v2=v2,
        n1=float(v1 @ v1), n2=float(v2 @ v2),
        numeric_fallback=fallback,
    )


def ensemble_decompose(p, generator, t):
    """Weights of the two eigen-ensembles, as the 2-vector (pI, pII).

    Computed by projection onto the frame vectors scaled by their squared
    norms; the decompose/reconstruct roundtrip is exact whenever the two
    frame vectors are orthogonal (symmetric coupling s12 = s21).
    """
    frame = spectral_frame(generator, t)
    p = np.asarray(p, dtype=float)
    if frame.n1 < 1e-14 or frame.n2 < 1e-14:
        raise DegenerateFrameError("eigen-ensemble norms vanished")
    return np.array([frame.v1 @ p / frame.n1, frame.v2 @ p / frame.n2])


def ensemble_reconstruct(weights, generator, t):
    frame = spectral_frame(generator, t)
    return weights[0] * frame.v1 + weights[1] * frame.v2


# ---------------------------------------------------------------------------
# closed-form propagation
# ---------------------------------------------------------------------------

def _cosh_sinhc(d):
    """cosh(sqrt(d)/2) and sinh(sqrt(d)/2)/sqrt(d), smooth through d = 0.

    d is the squared argument and may be negative, in which case the
    trigonometric branch applies.  Near zero a 4-term Taylor expansion
    removes the singularity of the sinc-like factor.
    """
    if abs(d) < _TAYLOR_WINDOW:
        c = 1.0 + d / 8.0 + d * d / 384.0 + d * d * d / 46080.0
        s = 0.5 + d / 48.0 + d * d / 3840.0 + d * d * d / 645120.0
        return c, s
    if d > 0:
        q = np.sqrt(d)
        return np.cosh(0.5 * q), np.sinh(0.5 * q) / q
    w = np.sqrt(-d)
    return np.cos(0.5 * w), np.sin(0.5 * w) / w


def _expm2_closed(g):
    """exp() of a 2x2 matrix through the sinh/cosh closed form."""
    g11, g12 = g[0]
    g21, g22 = g[1]
    delta = g11 - g22
    c, s = _cosh_sinhc(delta * delta + 4.0 * g12 * g21)
    amp = np.exp(0.5 * (g11 + g22))
    return amp * np.array(
        [[c + delta * s, 2.0 * g12 * s], [2.0 * g21 * s, c - delta * s]]
    )


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
    """Closed-form ratio p1(t)/p2(t), sharing the propagator's kernel.

    Evaluated as [ (dS p1 + 2 S12 p2) sinh-term + p1 cosh-term ] over
    [ (2 S21 p1 - dS p2) sinh-term + p2 cosh-term ], which the common
    exponential prefactor cancels out of.
    """
    p0 = np.asarray(p0, dtype=float)
    g = generator.integrated(t0, t)
    delta = g[0, 0] - g[1, 1]
    c, s = _cosh_sinhc(delta * delta + 4.0 * g[0, 1] * g[1, 0])
    num = (delta * p0[0] + 2.0 * g[0, 1] * p0[1]) * s + p0[0] * c
    den = (2.0 * g[1, 0] * p0[0] - delta * p0[1]) * s + p0[1] * c
    if abs(den) < 1e-14 * max(1.0, abs(num)):
        raise ZeroDivisionError("occupancy ratio denominator vanished")
    return num / den


def propagation_gap(generator, p0, t0, t, dt=1e-4):
    """Max-norm gap between the closed form and the RK4 reference.

    Zero (to integrator accuracy) for commuting generator families; for
    non-commuting time dependence the gap is real and is reported rather
    than asserted away.
    """
    closed = propagate_closed_form(generator, p0, t0, t)
    reference = numkit.ode_evolve(generator.matrix, p0, t0, t, dt).final
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
    Rabi-like occupancy-transfer law).
    """
    if not generator.is_constant:
        raise ValueError("eigenmode evolution requires a constant generator")
    frame = spectral_frame(generator, t0)
    if frame.n1 < 1e-14 or frame.n2 < 1e-14:
        raise DegenerateFrameError("degenerate frame")
    w0 = np.asarray(w0, dtype=float)
    rates = np.array([frame.e1 / frame.n1, frame.e2 / frame.n2])
    return w0 * np.exp(rates * (t - t0))


def rabi_rate(generator, t=0.0):
    """Slope e1/n1 - e2/n2 of the log weight ratio."""
    frame = spectral_frame(generator, t)
    return frame.e1 / frame.n1 - frame.e2 / frame.n2


def _frame_vector(generator, which):
    def f(t):
        frame = spectral_frame(generator, t)
        return frame.v1 if which == 1 else frame.v2
    return f


def constant_occupancy_residual(generator, t, h):
    """Consistency defect of a constant-ensemble-weights ansatz at time t.

    Returns |<v1|v2'> <v2|v1'> - (e1 - <v1|v1'>)(e2 - <v2|v2'>)|, the
    cross-multiplied difference of the two closed-ratio expressions, with
    the eigenvector time derivatives taken by central differences.  For
    a time-independent generator all derivative terms vanish and the
    value reduces to |e1 * e2|.  This is a diagnostic, not a quantity
    that must vanish.
    """
    frame = spectral_frame(generator, t)
    d1 = numkit.numeric_derivative(_frame_vector(generator, 1), t, h)
    d2 = numkit.numeric_derivative(_frame_vector(generator, 2), t, h)
    c11 = frame.v1 @ d1
    c12 = frame.v1 @ d2
    c21 = frame.v2 @ d1
    c22 = frame.v2 @ d2
    return float(abs(c12 * c21 - (frame.e1 - c11) * (frame.e2 - c22)))


def frame_matrix(generator, e12, e21, t, h=1e-6):
    """Eigenframe evolution matrix acting on the weights (pI, pII).

    Diagonal: eigenvalue minus the same-vector connection <v_i|dv_i/dt>;
    off-diagonal: the cross couplings minus the cross connections.
    """
    frame = spectral_frame(generator, t)
    d1 = numkit.numeric_derivative(_frame_vector(generator, 1), t, h)
    d2 = numkit.numeric_derivative(_frame_vector(generator, 2), t, h)
    e12 = as_rate(e12)
    e21 = as_rate(e21)
    return np.array(
        [
            [frame.e1 - frame.v1 @ d1, e21(t) - frame.v1 @ d2],
            [e12(t) - frame.v2 @ d1, frame.e2 - frame.v2 @ d2],
        ]
    )


def frame_evolve(generator, e12, e21, w0, t0, t, dt=1e-3, h=1e-6):
    """Propagate ensemble weights in the (possibly rotating) eigenframe.

    The four generator entries are integrated over [t0, t] by composite
    trapezoid on the dt grid and exponentiated through the same
    sinh/cosh closed form as the probability propagator.
    """
    w0 = np.asarray(w0, dtype=float)
    if t == t0:
        return w0.copy()
    if t < t0:
        raise ValueError("t must be >= t0")
    n = max(1, int(np.ceil((t - t0) / dt - 1e-12)))
    grid = np.linspace(t0, t, n + 1)
    samples = np.array([frame_matrix(generator, e12, e21, tau, h) for tau in grid])
    if not np.all(np.isfinite(samples)):
        raise ValueError("non-finite eigenframe quadrature")
    g = np.trapezoid(samples, grid, axis=0)
    return _expm2_closed(g) @ w0
