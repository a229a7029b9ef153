"""Minimal dense numeric kernel shared by all simulation modules.

Everything here targets the tiny matrices of this package (dimension at
most 16): a series-based matrix exponential, a deterministic
eigendecomposition, a fixed-step RK4 integrator with dense output, and
central finite differences.  All functions are pure; inputs are never
mutated.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError

MAX_DIM = 16

# RK4 steps per stage_values call: bounds the stage-value memory of a run
STAGE_BLOCK = 128

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
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    y = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float).copy()
    span = t1 - t0
    if span == 0:
        return Trajectory(np.array([t0]), y[None, :].copy())
    n_steps = max(1, int(np.ceil(abs(span) / dt - 1e-12)))
    h = span / n_steps
    half, sixth = 0.5 * h, h / 6.0
    times = t0 + h * np.arange(n_steps + 1)
    times[-1] = t1
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


def _linear_rhs(g, y):
    return g @ y


def ode_evolve(generator, y0, t0, t1, dt):
    """Integrate the linear system dy/dt = G(t) y.

    generator is a constant (d, d) matrix or a callable following the
    generator protocol: given a 1-d array of n times it returns the
    (n, d, d) stack of G at those times.  The callable is evaluated once
    per block of RK4 stage times (see rk4_path); a constant matrix is
    broadcast over the stages, never copied.
    """
    y0 = np.asarray(y0)
    if y0.ndim != 1:
        raise ValueError("state must be a 1-d vector, got shape %r" % (y0.shape,))
    d = len(y0)
    if callable(generator):
        def stage_matrices(ts):
            g = np.asarray(generator(ts))
            if g.shape != (len(ts), d, d):
                raise ValueError(
                    "generator returned shape %r for %d times; expected (%d, %d, %d)"
                    % (g.shape, len(ts), len(ts), d, d)
                )
            return g
    else:
        g_const = np.asarray(generator)
        if g_const.shape != (d, d):
            raise ValueError(
                "generator shape %r does not match state length %d" % (g_const.shape, d)
            )

        def stage_matrices(ts):
            return np.broadcast_to(g_const, (len(ts), d, d))
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
