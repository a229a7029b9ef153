"""Minimal dense numeric kernel shared by all simulation modules.

Everything here targets the tiny matrices of this package (dimension at
most 16): a series-based matrix exponential, a deterministic
eigendecomposition, a fixed-step RK4 integrator with dense output (a
per-stage path for any right-hand side, an increment-matrix path for
constant linear systems), and central finite differences.  All
functions are pure; inputs are never mutated.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError

MAX_DIM = 16

# RK4 steps per stage_values call: bounds the stage-value memory of a run
STAGE_BLOCK = 128

# the most steps one integration may take, checked before its sample
# array is allocated (10 million complex rows of a 16-state vector are
# 2.6 GB)
MAX_STEPS = 10_000_000

_SERIES_FLOOR = 1e-18


@dataclass(frozen=True)
class Trajectory:
    """Dense output of a fixed-step integration.

    times  : strictly increasing (or decreasing, for backward runs) 1-d array
    states : one state row per time point, real or complex
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states)
        if times.ndim != 1 or states.ndim != 2 or len(times) != len(states):
            raise ValueError("times and states must be matching 1-d/2-d arrays")
        if len(times) > 1:
            steps = np.diff(times)
            if not (np.all(steps > 0) or np.all(steps < 0)):
                raise ValueError("times must be strictly monotonic")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self):
        return len(self.times)

    @property
    def final(self):
        return self.states[-1]


def _check_square(m, max_dim=MAX_DIM):
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix, got shape %r" % (m.shape,))
    if m.shape[0] > max_dim:
        raise ValueError("dimension %d exceeds supported maximum %d" % (m.shape[0], max_dim))
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def mat_exp(m):
    """Matrix exponential by scaling-and-squaring with a truncated series.

    The series is summed until the next term falls below 1e-18 of the
    accumulated norm, which at these dimensions gives relative error
    comfortably below 1e-12.
    """
    m = _check_square(m)
    dtype = complex if np.iscomplexobj(m) else float
    a = m.astype(dtype)
    norm = np.linalg.norm(a, np.inf)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        a = a / (2.0 ** squarings)
    result = np.eye(a.shape[0], dtype=dtype)
    term = np.eye(a.shape[0], dtype=dtype)
    for k in range(1, 60):
        term = term @ a / k
        result = result + term
        if np.linalg.norm(term, np.inf) < _SERIES_FLOOR * max(1.0, np.linalg.norm(result, np.inf)):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def _fix_vector_sign(v):
    # deterministic orientation: first component of nonnegligible size
    # is made positive real
    idx = np.argmax(np.abs(v) > 1e-12 * max(1.0, np.abs(v).max()))
    pivot = v[idx]
    if pivot == 0:
        return v
    if np.iscomplexobj(v):
        return v * (np.conj(pivot) / abs(pivot))
    return v if pivot > 0 else -v


def eig(m, residual_tol=1e-10):
    """Eigendecomposition with deterministic ordering and orientation.

    Returns (values, vectors) with eigenvalues sorted ascending by real
    part (ties: ascending imaginary part), eigenvectors as unit-norm
    columns whose first nonzero component is positive real.  Raises if
    any eigenpair residual exceeds residual_tol * ||m||_inf.
    """
    m = _check_square(m, max_dim=8)
    hermitian = np.allclose(m, np.conj(m.T), rtol=0.0, atol=1e-14)
    if hermitian:
        values, vectors = np.linalg.eigh(m)
    else:
        values, vectors = np.linalg.eig(m)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    for j in range(vectors.shape[1]):
        vectors[:, j] = _fix_vector_sign(vectors[:, j])
    if not hermitian and np.all(np.abs(values.imag) < 1e-14) and not np.iscomplexobj(m):
        if np.all(np.abs(vectors.imag) < 1e-12):
            values = values.real
            vectors = vectors.real
    scale = max(np.linalg.norm(m, np.inf), 1e-300)
    residual = max(
        np.abs(m @ vectors[:, j] - values[j] * vectors[:, j]).max()
        for j in range(vectors.shape[1])
    )
    if residual > residual_tol * scale:
        raise np.linalg.LinAlgError(
            "eigendecomposition residual %.3e exceeds %.3e" % (residual, residual_tol * scale)
        )
    return values, vectors


def step_count(t0, t1, dt):
    """Number of uniform steps of size at most dt from t0 to t1.

    0 for an empty span.  Raises ValueError for dt <= 0 and for a span
    that needs more than MAX_STEPS steps (or a non-finite one), so a run
    can be refused before anything is allocated.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    span = abs(t1 - t0)
    steps = np.ceil(span / dt - 1e-12)
    if not steps <= MAX_STEPS:
        raise ValueError(
            "|t1 - t0| / dt = %r / %r needs more than %d steps" % (span, dt, MAX_STEPS)
        )
    return max(1, int(steps)) if span else 0


def _sample_times(t0, t1, dt):
    """(times, h): the uniform grid of step_count steps, ending exactly on t1."""
    n_steps = step_count(t0, t1, dt)
    if n_steps == 0:
        return np.array([t0], dtype=float), 0.0
    h = (t1 - t0) / n_steps
    times = t0 + h * np.arange(n_steps + 1)
    times[-1] = t1
    return times, h


def rk4_path(f, y0, t0, t1, dt, stage_values=None):
    """Classical fixed-step RK4 on dy/dt = f(s, y) with dense output.

    The span is divided into uniform steps of size at most dt (the step
    is shrunk slightly so the final sample lands exactly on t1).
    Backward integration (t1 < t0) is supported.  Step i has the stage
    times times[i], times[i] + h/2 (twice) and times[i] + h.  By default
    s is the stage time itself.  With stage_values, a callable mapping a
    1-d array of stage times to one value per time, s is that value:
    stage_values is called once per block of at most STAGE_BLOCK steps,
    so work that depends on time alone is done in one vectorized call.

    NonFiniteStateError is raised, at the step's end time, as soon as
    any stage derivative of the step overflows, even when the scaled
    increment would have been finite.  So near the overflow edge this
    path can stop one step before the increment path of a constant
    system (see ode_evolve), whose state is still finite there.
    """
    times, h = _sample_times(t0, t1, dt)
    y = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float).copy()
    n_steps = len(times) - 1
    half, sixth = 0.5 * h, h / 6.0
    states = np.empty((n_steps + 1, len(y)), dtype=y.dtype)
    states[0] = y
    for start in range(0, n_steps, STAGE_BLOCK):
        t = times[start:min(start + STAGE_BLOCK, n_steps)]
        m = len(t)
        stages = np.concatenate((t, t + half, t + h))
        if stage_values is not None:
            stages = stage_values(stages)
        for j in range(m):
            mid = stages[m + j]
            k1 = f(stages[j], y)
            k2 = f(mid, y + half * k1)
            k3 = f(mid, y + half * k2)
            k4 = f(stages[2 * m + j], y + h * k3)
            y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(y.view(float)).all():
                raise NonFiniteStateError(times[start + j + 1])
            states[start + j + 1] = y
    return Trajectory(times, states)


def rk4_step_matrix(g, h):
    """The RK4 increment matrix D of dy/dt = G y for one step of size h.

    One RK4 step is y + D @ y, with D = (h/6)(k1 + 2 k2 + 2 k3 + k4),
    k1 = G, k2 = G + (h/2) G k1, k3 = G + (h/2) G k2, k4 = G + h G k3:
    the stage path's arithmetic done once on matrices instead of on
    every step's vectors.  g is one (d, d) matrix or an (n, d, d) stack.
    Keep the step as an increment: I + D would store 1 + O(h) on its
    diagonal and round it the same way on every step.
    """
    g = np.asarray(g)
    half = 0.5 * h
    k1 = g
    k2 = g + half * (g @ k1)
    k3 = g + half * (g @ k2)
    k4 = g + h * (g @ k3)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _increment_path(g, y0, t0, t1, dt):
    """RK4 of the constant system dy/dt = G y, one increment matrix per run.

    Finiteness is checked once per block of STAGE_BLOCK steps; a
    non-finite state raises NonFiniteStateError at its sample time,
    as on the stage path.
    """
    times, h = _sample_times(t0, t1, dt)
    dtype = complex if np.iscomplexobj(y0) or np.iscomplexobj(g) else float
    # increment.dot(y) is increment @ y with less call overhead
    increment = rk4_step_matrix(g, h).dot
    states = np.empty((len(times), len(y0)), dtype=dtype)
    states[0] = y0
    y = states[0]
    for start in range(1, len(times), STAGE_BLOCK):
        stop = min(start + STAGE_BLOCK, len(times))
        for i in range(start, stop):
            y = y + increment(y)
            states[i] = y
        finite = np.isfinite(states[start:stop].view(float)).all(axis=1)
        if not finite.all():
            raise NonFiniteStateError(times[start + int(finite.argmin())])
    return Trajectory(times, states)


def _linear_rhs(g, y):
    return g @ y


def ode_evolve(generator, y0, t0, t1, dt):
    """Integrate the linear system dy/dt = G(t) y by fixed-step RK4.

    generator is a constant (d, d) matrix or a callable following the
    generator protocol: given a 1-d array of n times it returns the
    (n, d, d) stack of G at those times.  The callable is evaluated once
    per block of RK4 stage times (see rk4_path); a constant matrix is
    folded into one increment matrix (see rk4_step_matrix) and each
    step is y + D @ y.
    """
    y0 = np.asarray(y0)
    if y0.ndim != 1:
        raise ValueError("state must be a 1-d vector, got shape %r" % (y0.shape,))
    d = len(y0)
    if not callable(generator):
        g = np.asarray(generator)
        if g.shape != (d, d):
            raise ValueError(
                "generator shape %r does not match state length %d" % (g.shape, d)
            )
        return _increment_path(g, y0, t0, t1, dt)

    def stage_matrices(ts):
        g = np.asarray(generator(ts))
        if g.shape != (len(ts), d, d):
            raise ValueError(
                "generator returned shape %r for %d times; expected (%d, %d, %d)"
                % (g.shape, len(ts), len(ts), d, d)
            )
        return g
    return rk4_path(_linear_rhs, y0, t0, t1, dt, stage_matrices)


def numeric_derivative(f, t, h):
    """Central difference (f(t+h) - f(t-h)) / (2h)."""
    if h <= 0:
        raise ValueError("h must be positive")
    hi = np.asarray(f(t + h), dtype=float)
    lo = np.asarray(f(t - h), dtype=float)
    if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
        raise NonFiniteStateError(t, "non-finite evaluation in numeric_derivative")
    return (hi - lo) / (2.0 * h)
