"""Minimal dense numeric kernel shared by all simulation modules.

Everything here targets the tiny matrices of this package (dimension at
most 16): a series-based matrix exponential of one real matrix or a
stack of them, the closed-form eigenpairs of a stack of real 2x2
matrices with a real spectrum (a complex matrix raises ValueError in
both), scale_vectors, the one rule that gives such vectors their
printed scale, and a fixed-step RK4 integrator with dense output.  A
run has one grid, which step_count
checks and rk4_chunks owns, stepped only as a stream of RUN_CHUNK-step
chunks, each one rk4_path call; a whole Trajectory is that stream
collected into arrays allocated once, beside which a run holds only its
chunks in flight.
rk4_path steps each block of steps by its caller's fast pass (a linear
system composes the block's increment matrices in about log2 of its
length in array operations; the density module's sqrt flow runs
generated float code) and steps a block that fails it again through one
checked per-stage RK4.  All functions are pure; inputs are never mutated.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ComplexSpectrumError, NonFiniteStateError

MAX_DIM = 16

# RK4 steps per block of rk4_path, which makes one stage_values call and
# one fast pass per block: bounds the stage-value memory of a run
STAGE_BLOCK = 128

# RK4 steps per chunk of rk4_chunks, a whole number of blocks: bounds the
# states a streamed run holds at once
RUN_CHUNK = 8 * STAGE_BLOCK

# the most steps one integration may take, checked before its sample
# array is allocated (10 million complex rows of a 16-state vector are
# 2.6 GB)
MAX_STEPS = 10_000_000

_SERIES_FLOOR = 1e-18

# the least |scale| / norm at which scale_vectors keeps a vector's printed scale
SCALE_FLOOR = 1e-10


@dataclass(frozen=True)
class Trajectory:
    """Dense output of a fixed-step integration, a plain record.

    times  : a run's grid or a chunk of it, strictly monotonic, as step_count checked
    states : one state row per time point, real or complex
    """

    times: np.ndarray
    states: np.ndarray

    def __len__(self):
        return len(self.times)

    @property
    def final(self):
        return self.states[-1]


def _check_square(m, stacked=False):
    """m as an array if it is one finite real square matrix (or, stacked, an (n, d, d) stack)."""
    m = np.asarray(m)
    if np.iscomplexobj(m):
        raise ValueError("expected a real matrix, got dtype %s" % m.dtype)
    if m.ndim != 2 + stacked or m.shape[-1] != m.shape[-2]:
        raise ValueError(
            "expected a square matrix%s, got shape %r" % (" stack" if stacked else "", m.shape)
        )
    if m.shape[-1] > MAX_DIM:
        raise ValueError("dimension %d exceeds supported maximum %d" % (m.shape[-1], MAX_DIM))
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _inf_norms(m):
    """The inf-norm of each matrix of an (n, d, d) stack, as np.linalg.norm(x, inf) sums it."""
    return np.abs(m).sum(axis=-1).max(axis=-1)


def mat_exp(m):
    """Matrix exponential by scaling-and-squaring with a truncated series.

    m is one real (d, d) matrix or a real (n, d, d) stack of them; one
    matrix is exponentiated as a stack of one.  Each sample is scaled by
    its own power of two to an inf-norm of at most 1/2, its series is summed
    until the next term falls below 1e-18 of the accumulated norm, and
    it is squared back as often as it was scaled.  So sample k of a
    stack is exactly mat_exp(m[k]).  Each squaring doubles the relative
    rounding error, so every entry, whatever its own scale c, is off by a
    relative error of order ||m||_inf * 2.2e-16, a spread ||m||_inf / c
    times what exp itself makes at scale c: mat_exp(diag(-s, -1))[1, 1] is
    off from exp(-1) by 8e-14 at s = 1e3, 1.2e-12 at 1e4, 1e-11 at 1e6.
    A sample whose inf-norm exceeds 2**1022 (so that 2**squarings would
    overflow), or whose exponential overflows, raises OverflowError
    naming the first such sample of a stack; no floating-point warning escapes.
    """
    m = _check_square(m, stacked=np.ndim(m) != 2)
    single = m.ndim == 2
    a = (m[None] if single else m).astype(float)
    with np.errstate(over="ignore"):
        norms = _inf_norms(a)
        exponents = np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5))
    _refuse_overflow(exponents <= 1023, single, "inf-norm exceeds 2**1022")
    squarings = exponents.astype(int)
    a = a / (2.0 ** squarings)[:, None, None]
    result = np.broadcast_to(np.eye(a.shape[-1]), a.shape).copy()
    term = result.copy()
    # the samples whose series is still being summed, and their a and term
    live = np.arange(len(a))
    for k in range(1, 60):
        term = term @ a / k
        result[live] = total = result[live] + term
        going = _inf_norms(term) >= _SERIES_FLOOR * np.maximum(1.0, _inf_norms(total))
        if not going.any():
            break
        live, a, term = live[going], a[going], term[going]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(squarings.max(initial=0)):
            square = np.flatnonzero(squarings > j)
            result[square] = result[square] @ result[square]
    _refuse_overflow(np.isfinite(result).all(axis=(1, 2)), single, "matrix exponential overflows")
    return result[0] if single else result


def _refuse_overflow(finite, single, message):
    """OverflowError(message) for the first sample where finite is False, named in a stack."""
    if not finite.all():
        raise OverflowError(message + ("" if single else " in sample %d" % finite.argmin()))


def eig(m):
    """Eigenpairs of each real 2x2 matrix of an (n, 2, 2) stack, in closed form.

    Returns values (n, 2), ascending, and vectors (n, 2, 2), vectors[k, j]
    the eigenvector of values[k, j], unnormalized: each caller scales it.
    Each sample is scaled by the power of two that brings its largest
    |entry| into [0.5, 1), which is exact, so the vectors of 2**k m are
    those of m bit for bit and its values 2**k times m's (a value beyond
    the float range is inf).  With delta = s11 - s22 and r the root of
    delta**2 + 4 s12 s21, the values are (s11 + s22 -+ r) / 2.  Of
    lambda - s11 and lambda - s22, whose product is s12 s21, the larger
    is -+(|delta| + r) / 2 and the smaller is the product divided by it,
    so neither cancels; the vector is the larger of the null vectors
    (s12, lambda - s11) and (lambda - s22, s21), and a multiple of the
    identity gets the unit vectors.  A negative scaled discriminant
    raises ComplexSpectrumError for the first such sample, with its
    value and the power of two that unscales it.  Sample k of a stack
    is exactly eig(m[k:k + 1]).
    """
    m = _check_square(m, stacked=True)
    if m.shape[1:] != (2, 2):
        raise ValueError("expected an (n, 2, 2) stack, got shape %r" % (m.shape,))
    _, e = np.frexp(np.abs(m).max(axis=(1, 2), initial=0.0))
    s11, s12, s21, s22 = np.ldexp(m.reshape(-1, 4), -e[:, None]).T
    delta = s11 - s22
    disc = delta * delta + 4.0 * s12 * s21
    negative = disc < 0
    if negative.any():
        k = negative.argmax()
        raise ComplexSpectrumError(float(disc[k]), 2 * int(e[k]))
    root = np.sqrt(disc)
    with np.errstate(over="ignore"):
        values = np.ldexp(0.5 * np.stack((-root + s11 + s22, root + s11 + s22), axis=1), e[:, None])
    big = 0.5 * (np.abs(delta) + root)
    small = np.divide(s12 * s21, big, out=np.zeros_like(big), where=big > 0)
    # lambda - s11 is the larger for the lower value when delta >= 0, else for the upper
    sign = np.array([-1.0, 1.0])
    larger = (delta >= 0)[:, None] == (sign < 0)
    big, small = sign * big[:, None], sign * small[:, None]
    x, y = np.where(larger, big, small), np.where(larger, small, big)
    s12, s21 = s12[:, None], s21[:, None]
    first = np.abs(s12) + np.abs(x) >= np.abs(y) + np.abs(s21)
    vectors = np.stack((np.where(first, s12, y), np.where(first, x, s21)), axis=-1)
    return values, np.where((vectors == 0).all(axis=-1)[..., None], np.eye(2), vectors)


def scale_vectors(vectors, scale):
    """Each 2-vector of a stack divided by its scale, or by its norm where the scale is singular.

    A scale is singular where |scale| < SCALE_FLOOR * the vector's norm; such
    a vector is divided by its norm instead, signed so that its first
    component above 1e-12 of the norm is positive.  Returns the scaled
    vectors and the mask of singular scales.
    """
    size = np.hypot(vectors[..., 0], vectors[..., 1])
    singular = np.abs(scale) < SCALE_FLOOR * size
    pivot = np.where(np.abs(vectors[..., 0]) > 1e-12 * size, vectors[..., 0], vectors[..., 1])
    return vectors / np.where(singular, np.copysign(size, pivot), scale)[..., None], singular


def step_count(t0, t1, dt):
    """Number of uniform steps of size at most dt from t0 to t1: the one check of a run's grid.

    0 for an empty span.  Raises ValueError for dt <= 0, for more than
    MAX_STEPS steps (or a non-finite span) and for a grid whose times are
    not strictly monotonic (steps of 1 at t = 1e17, where floats are 16
    apart), so a run can be refused before anything is allocated.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    span = abs(t1 - t0)
    steps = np.ceil(span / dt - 1e-12)
    if not steps <= MAX_STEPS:
        raise ValueError(
            "|t1 - t0| / dt = %r / %r needs more than %d steps" % (span, dt, MAX_STEPS)
        )
    n = max(1, int(steps)) if span else 0
    h = (t1 - t0) / n if n else 0.0
    # a step of at least the float spacing at the larger end resolves; a finer one is compared
    if n > 1 and abs(h) < math.ulp(max(abs(t0), abs(t1))) and any(
            not (np.diff(times) * np.sign(h)).min() > 0 for times in _grid(t0, t1, n, h)):
        raise ValueError("steps of %r from t = %r are not strictly monotonic"
                         % (float(h), float(t0)))
    return n


def _grid(t0, t1, n, h):
    """Times t0 + k h of the grid of n steps, the last exactly t1, RUN_CHUNK steps a chunk."""
    for start in range(0, max(n, 1), RUN_CHUNK):
        stop = min(start + RUN_CHUNK, n)
        times = t0 + h * np.arange(start, stop + 1)
        if stop == n:  # a grid of no steps is its one time t0
            times[-1] = t1 if n else t0
        yield times


def _rk4_block(f, y, stages, h, rows, times):
    """RK4 steps from y through one block, storing each new state in rows.

    stages lists the block's m first, m middle and m last stage values,
    times the rows' sample times.  Each state is checked as it is made,
    and the first non-finite one raises NonFiniteStateError at its time.
    Returns the last state.
    """
    m = len(rows)
    half, sixth = 0.5 * h, h / 6.0
    for j in range(m):
        mid = stages[m + j]
        k1 = f(stages[j], y)
        k2 = f(mid, y + half * k1)
        k3 = f(mid, y + half * k2)
        k4 = f(stages[2 * m + j], y + h * k3)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y.view(float)).all():
            raise NonFiniteStateError(times[j])
        rows[j] = y
    return y


def _increment_block(f, y, g, h, rows, ladder):
    """Linear RK4 steps from y through one block, storing each new state in rows.

    g is the block's (3m, d, d) stack of m first, m middle and m last
    stage matrices, and D_j = rk4_step_matrix of step j's scaled stages
    h G is its increment: one RK4 step is y + D_j @ y.  Increments
    compose as (I + A)(I + B) = I + (A + B + A @ B), so the block takes
    about log2(m) whole-array operations instead of m steps:

    - all stage matrices equal (a constant generator; a stack with zero
      stride on its first axis is equal without being compared): the
      ladder E_1 = D, E_2, E_4, ..., with E_2n = E_n + E_n + E_n @ E_n
      the increment of 2n steps, fills the rows as rows[0] = y + f(E_1,
      y), then, while n < m rows are filled, rows[n:2n] = rows[:n] +
      f(rows[:n], E_n.T) (the last pass fills only m - n rows);
    - otherwise: a Hillis-Steele scan P[k:] = P[k:] + P[:-k] +
      P[k:] @ P[:-k] for k = 1, 2, 4, ... < m over the stack P of the
      D_j, after which P[j] is the increment of steps 0..j, and
      rows = y + f(P, y), with P taken as one (m d, d) matrix.

    ladder is a dict of the calling ode_chunks run that keeps the last
    ladder built, keyed by the bytes of its G: a later block of the
    same run with an equal G reuses its rungs (h is the run's) and
    builds only the ones it lacks, the same products either way.
    Every product with a state goes through f, ndarray.dot or the same
    product of a 2-d array and a 1-d or 2-d one.  Increments never add
    the identity (see rk4_step_matrix).  Returns the last state.
    """
    m = len(rows)
    if not g.strides[0] or (g == g[0]).all():
        key = g[0].tobytes()
        if key not in ladder:
            # one ladder at a time, so a run's memory stays bounded
            ladder.clear()
            a = h * g[0]
            ladder[key] = [rk4_step_matrix(a, a, a)]
        rungs = ladder[key]
        rows[0] = y + f(rungs[0], y)
        # pass k fills rows[n:2n] with rung k, the increment of n = 2**k steps
        n, k = 1, 0
        while n < m:
            if k == len(rungs):
                e = rungs[-1]
                rungs.append(e + e + e @ e)
            c = min(n, m - n)
            rows[n:n + c] = rows[:c] + f(rows[:c], rungs[k].T)
            n += c
            k += 1
    else:
        a = h * g
        p = rk4_step_matrix(a[:m], a[m:2 * m], a[2 * m:])
        k = 1
        while k < m:
            p[k:] = p[k:] + p[:-k] + p[k:] @ p[:-k]
            k *= 2
        # as one (m d, d) matrix: a 3-d dot is slower and rounds unlike @
        rows[:] = y + f(p.reshape(-1, len(y)), y).reshape(m, -1)
    return rows[-1]


def rk4_path(f, y0, times, h, stage_values, fast_block):
    """Classical fixed-step RK4 from y0 with dense output at times, a block at a time.

    times are the sample times from y0's onward, a chunk of the grid
    step_count checked, and h is its step, which cannot be recovered bit
    for bit from times.  Step i has the stage times times[i],
    times[i] + h/2 (twice) and times[i] + h, and f(s, y) is the
    right-hand side of dy/dt = f(s, y) at stage value s.

    A block of at most STAGE_BLOCK steps maps its m first, m middle and
    m last stage times to stage values by one stage_values call, then
    runs fast_block(f, y, stages, h, rows), which fills rows with the
    block's states from y and returns the last, with floating-point
    warnings off.  A block whose fast pass raises ValueError or
    ArithmeticError, or leaves a state non-finite, is stepped again
    stage by stage under the caller's warning settings, each state
    checked as it is made: the first non-finite one raises
    NonFiniteStateError at its sample time, and an error f raises on a
    finite state is raised as it is.  A state of more than MAX_DIM
    components raises ValueError before anything is allocated.
    """
    y = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float).copy()
    if len(y) > MAX_DIM:
        raise ValueError("dimension %d exceeds supported maximum %d" % (len(y), MAX_DIM))
    n_steps = len(times) - 1
    states = np.empty((n_steps + 1, len(y)), dtype=y.dtype)
    states[0] = y
    for start in range(0, n_steps, STAGE_BLOCK):
        t = times[start:min(start + STAGE_BLOCK, n_steps)]
        stages = stage_values(np.concatenate((t, t + 0.5 * h, t + h)))
        rows = states[start + 1:start + 1 + len(t)]
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                last = fast_block(f, y, stages, h, rows)
            replay = not np.isfinite(rows.view(float)).all()
        except (ValueError, ArithmeticError):  # the replay raises at the step at fault
            replay = True
        if replay:
            last = _rk4_block(f, y, stages, h, rows, times[start + 1:])
        y = last
    return Trajectory(times, states)


def rk4_chunks(f, y0, t0, t1, dt, stage_values, fast_block):
    """The RK4 run of rk4_path's f from y0 at t0 to t1, as a stream of Trajectory chunks.

    The run's one grid is step_count(t0, t1, dt) steps of h, dt shrunk so
    that the last time is exactly t1 (t1 < t0 runs backward), checked at
    this call by step_count only.  Each chunk is one rk4_path call over
    at most RUN_CHUNK steps, from the previous chunk's final state, and
    holds the samples after the previous one's last (chunk 0, sample 0
    on).  Chunks start on block boundaries, so the stream is one rk4_path
    call over the whole grid's times, bit for bit.
    """
    n_steps = step_count(t0, t1, dt)
    h = (t1 - t0) / n_steps if n_steps else 0.0

    def chunks(y):
        for k, times in enumerate(_grid(t0, t1, n_steps, h)):
            part = rk4_path(f, y, times, h, stage_values, fast_block)
            y = part.final
            yield part if k == 0 else Trajectory(part.times[1:], part.states[1:])
    return chunks(y0)


def collect(chunks, t0, t1, dt):
    """A chunk stream of the run from t0 to t1 by dt as one Trajectory, filled as it arrives.

    The arrays are allocated once, from step_count (the grid's one check)
    and the first chunk's state, so the call holds its result beside the
    chunks in flight, not a second copy; a run of one chunk is that chunk.
    Raises ValueError, naming both sample counts, for a stream that is
    not the run's length.
    """
    n, start, whole = step_count(t0, t1, dt) + 1, 0, None
    for chunk in chunks:
        stop = start + len(chunk)
        if whole is None:
            whole = chunk if stop == n else Trajectory(
                np.empty(n), np.empty((n, chunk.states.shape[1]), chunk.states.dtype))
        if whole is not chunk and stop <= n:
            whole.times[start:stop], whole.states[start:stop] = chunk.times, chunk.states
        start = stop
    if start != n:
        raise ValueError("the chunk stream has %d samples, the run from %r to %r by %r has %d"
                         % (start, t0, t1, dt, n))
    return whole


def rk4_step_matrix(a1, a2, a3):
    """The RK4 increment matrix D of dy/dt = G(t) y for one step of size h.

    a1, a2 and a3 are the scaled stages h G(t), h G(t + h/2) and
    h G(t + h), each one (d, d) matrix or an (n, d, d) stack.  One RK4
    step is y + D @ y, with B1 = A1, B2 = A2 + A2 B1 / 2,
    B3 = A2 + A2 B2 / 2, B4 = A3 + A3 B3, D = (B1 + 2 B2 + 2 B3 + B4) / 6.
    Products of scaled matrices cannot overflow while h |G| is small.
    Keep the step as an increment: I + D would store 1 + O(h) on its
    diagonal and round it the same way on every step.
    """
    b2 = a2 + 0.5 * (a2 @ a1)
    b3 = a2 + 0.5 * (a2 @ b2)
    b4 = a3 + a3 @ b3
    return (a1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0


def ode_chunks(generator, y0, t0, t1, dt):
    """Integrate the linear system dy/dt = G(t) y by fixed-step RK4, as an rk4_chunks stream.

    generator is a callable following the generator protocol (given a
    1-d array of n times it returns the (n, d, d) stack of G at those
    times) or a constant (d, d) matrix, the generator whose every stage
    is that matrix; a complex one makes the states complex, while a
    callable's complex matrices need a complex y0 (ValueError).  Each
    block of rk4_path runs _increment_block, which composes the RK4
    increment matrices D (one step is y + D @ y) of its steps.  A block
    of constant stages (a stage stack with zero stride on its first
    axis, as a constant matrix or a constant RateMatrix.matrix gives,
    counts as constant without a comparison) doubles one increment
    through the ladder E_1, E_2, E_4, ...; the run builds it once for
    each run of blocks with an equal G, with the bits of one built per
    block.  An unexcited fast mode (diag(7000, -1) at dt 0.01) overflows
    the rungs, so every block is replayed stage by stage: correct, but
    23.6 ms where diag(7, -1) takes 0.7 ms (2-vCPU VM).  The shapes are
    checked at this call.
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
        y0 = y0.astype(np.result_type(y0, g), copy=False)

        def generator(ts):
            return np.broadcast_to(g, (len(ts), d, d))

    def stage_matrices(ts):
        g = np.asarray(generator(ts))
        if g.shape != (len(ts), d, d):
            raise ValueError(
                "generator returned shape %r for %d times; expected (%d, %d, %d)"
                % (g.shape, len(ts), len(ts), d, d)
            )
        if np.iscomplexobj(g) and not np.iscomplexobj(y0):
            raise ValueError("complex stage matrices need a complex state")
        return g
    # D.dot(y) is D @ y with less call overhead; the ladder dict is this run's own
    return rk4_chunks(np.ndarray.dot, y0, t0, t1, dt, stage_matrices,
                      functools.partial(_increment_block, ladder={}))


def ode_evolve(generator, y0, t0, t1, dt):
    """The Trajectory of ode_chunks' run, collected."""
    return collect(ode_chunks(generator, y0, t0, t1, dt), t0, t1, dt)
