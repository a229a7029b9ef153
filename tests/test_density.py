import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_numkit import (assert_stream_is_run, chunk_steps, grid, half_rates_rhs,
                         per_step_rk4_path, whole_grid_run)

from epiqmap import density, epidemic, numkit
from epiqmap.errors import FloorViolationError, NonFiniteStateError

GENERIC_S4 = np.array(
    [
        [-0.10, 0.30, 0.10, 0.05],
        [0.20, -0.15, 0.05, 0.10],
        [0.10, 0.05, -0.20, 0.30],
        [0.05, 0.20, 0.10, -0.25],
    ]
)

GENERIC_P = np.array([0.40, 0.30, 0.20, 0.10])


class TestSqrtDynamicsGenerator:
    def test_uniform_probabilities_halve_the_rates(self):
        h = density.sqrt_dynamics_generator(GENERIC_S4, np.full(4, 0.25))
        assert np.abs(h - 0.5 * GENERIC_S4).max() < 1e-15

    def test_diagonal_rates_independent_of_state(self):
        s = np.diag([0.1, -0.2, 0.3, -0.4])
        h1 = density.sqrt_dynamics_generator(s, GENERIC_P)
        h2 = density.sqrt_dynamics_generator(s, np.full(4, 0.25))
        assert np.array_equal(h1, h2)
        assert np.abs(h1 - 0.5 * s).max() < 1e-15

    def test_defining_identity(self):
        # 2 D (H sqrt(p)) must reproduce S p
        h = density.sqrt_dynamics_generator(GENERIC_S4, GENERIC_P)
        a = np.sqrt(GENERIC_P)
        lhs = 2.0 * a * (h @ a)
        assert np.abs(lhs - GENERIC_S4 @ GENERIC_P).max() <= 1e-12

    def test_floor_violation(self):
        with pytest.raises(FloorViolationError):
            density.sqrt_dynamics_generator(GENERIC_S4, np.array([0.5, 0.5, 0.0, 0.0]))


def signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


# amplitudes whose squares clear the floor, and normal or zero matrix
# entries; d <= 8 covers the sqrt picture and the 2N image of N <= 4
AMPLITUDES = signed(st.floats(2e-6, 1e3))
ENTRIES = st.one_of(st.just(0.0), signed(st.floats(1e-3, 10.0)))


def within_ulps(got, want, ulps):
    return bool((np.abs(got - want) <= ulps * np.spacing(np.abs(want))).all())


class TestAmplitudeRatios:
    """One diagonal similarity: M * R one way, M * R.T the other."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 8))
    def test_round_trips(self, data, d):
        y = np.array(data.draw(st.lists(AMPLITUDES, min_size=d, max_size=d)))
        m = np.array(data.draw(st.lists(ENTRIES, min_size=d * d, max_size=d * d))).reshape(d, d)
        r = density.amplitude_ratios(y)
        # S -> H -> S, the sqrt picture's H = (1/2) D(a)^-1 S D(a) and back
        assert within_ulps(2.0 * (0.5 * m * r.T) * r, m, 4)
        # A -> S -> A, the 2N image's S = 2 D(y) A D(y)^-1 and back
        assert within_ulps(0.5 * (2.0 * m * r) * r.T, m, 4)
        # the transpose is the other direction, bit for bit, and the sqrt
        # picture's generator is the expression it replaced
        assert np.array_equal(r.T, y / y[:, None])
        p = y * y
        a = np.sqrt(p)
        assert np.array_equal(density.sqrt_dynamics_generator(m, p), 0.5 * m * (a / a[:, None]))

    def test_stack_is_per_state_and_reports_the_last_axis_component(self):
        y = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, 5))
        y[np.abs(y) < 0.01] = 0.5
        stacked = density.amplitude_ratios(y)
        for k in range(6):
            assert np.array_equal(stacked[k], density.amplitude_ratios(y[k]))
        empty = density.amplitude_ratios(np.empty((0, 5)))
        assert empty.shape == (0, 5, 5) and empty.dtype == float
        y[4, 3] = 1e-7
        with pytest.raises(FloorViolationError, match="below floor") as info:
            density.amplitude_ratios(y)
        assert info.value.component == 3


class TestEvolveSqrt:
    def test_identity_at_t0(self):
        out = density.evolve_sqrt(GENERIC_S4, GENERIC_P, 0.0, 0.0, 1e-3)
        assert np.abs(out - GENERIC_P).max() < 1e-15

    def test_diagonal_rates_exact_exponentials(self):
        s = np.diag([0.2, -0.1, 0.05, -0.3])
        out = density.evolve_sqrt(s, GENERIC_P, 0.0, 1.0, 1e-3)
        expected = np.exp(np.diag(s)) * GENERIC_P
        assert np.abs(out - expected).max() < 1e-10

    def test_generic_rates_vs_master_equation(self):
        out = density.evolve_sqrt(GENERIC_S4, GENERIC_P, 0.0, 1.0, 1e-4)
        oracle = numkit.mat_exp(GENERIC_S4) @ GENERIC_P
        assert np.abs(out - oracle).max() <= 1e-8

    def test_trajectory_squares_to_master_flow(self):
        traj = density.evolve_sqrt_trajectory(GENERIC_S4, GENERIC_P, 0.0, 2.0, 1e-3)
        a = traj.states[::100]
        oracle = numkit.mat_exp(GENERIC_S4 * traj.times[::100, None, None]) @ GENERIC_P
        assert np.abs(a * a - oracle).max() <= 1e-8

    @pytest.mark.parametrize("generator, p0", [(GENERIC_S4, GENERIC_P)], ids=["constant"])
    def test_master_equation_check_takes_every_generator_form(self, generator, p0):
        # the built-in check compares against numkit.ode_evolve of the same generator
        out = density.evolve_sqrt(generator, p0, 0.0, 1.0, 1e-3)
        ref = numkit.ode_evolve(generator, p0, 0.0, 1.0, 1e-3)
        assert np.abs(out - ref.final).max() <= 1e-6

    def test_refuses_a_generator_object(self):
        # S is a constant matrix; a time-dependent generator is not a form
        # the sqrt flow takes
        gen = epidemic.Generator2(-0.2, [[0.0, 0.1], [1.0, 0.3]], 0.2, -0.3)
        with pytest.raises(TypeError):
            density.evolve_sqrt_trajectory(gen, np.array([0.6, 0.4]), 0.0, 1.0, 1e-3)

    def test_refuses_a_state_of_more_than_max_dim(self):
        # 17 components: refused before the block's states are allocated
        with pytest.raises(ValueError, match="exceeds supported maximum 16"):
            density.evolve_sqrt_trajectory(np.zeros((17, 17)), np.full(17, 1 / 17), 0, 1, 0.1)

    @pytest.mark.parametrize("generator", [np.array([0.1, -0.2, 0.1]), np.zeros((3, 4))],
                             ids=["vector", "3x4"])
    def test_refuses_a_rate_matrix_not_d_by_d(self, generator):
        with pytest.raises(ValueError, match="does not match 3 probabilities"):
            density.evolve_sqrt_trajectory(generator, [0.5, 0.3, 0.2], 0, 0.5, 0.01)

    def test_steps_through_rk4_path(self, monkeypatch):
        # a counting wrapper in place of the module attribute, as the
        # benchmark's spans install theirs
        calls = []

        def rk4_path(f, y0, times, h, *args):
            calls.append((times[0], times[-1], len(times), h))
            return original(f, y0, times, h, *args)

        original = numkit.rk4_path
        monkeypatch.setattr(numkit, "rk4_path", rk4_path)
        traj = density.evolve_sqrt_trajectory(GENERIC_S4, GENERIC_P, 0.0, 0.5, 1e-3)
        assert calls == [(0.0, 0.5, 501, 0.5 / 500)] and len(traj) == 501

    def test_floor_violation_reports_time(self):
        s = np.diag([-50.0, 0.0, 0.0, 0.0])
        with pytest.raises(FloorViolationError) as info:
            density.evolve_sqrt(s, np.array([1e-10, 0.5, 0.3, 0.2]), 0.0, 2.0, 1e-3)
        assert info.value.time is not None


def h_forming_rhs(generator):
    """Reference right-hand side: form H(a * a) explicitly, then H @ a.

    A FloorViolationError is raised again with the stage time tau.
    """
    def rhs(tau, a):
        try:
            return density.sqrt_dynamics_generator(generator, a * a) @ a
        except FloorViolationError as exc:
            raise FloorViolationError(str(exc), time=tau, component=exc.component) from None
    return rhs


def random_master_rates(rng, d):
    """Nonnegative off-diagonal rates with conserving columns: p stays interior."""
    s = rng.uniform(0.0, 1.0, size=(d, d))
    np.fill_diagonal(s, 0.0)
    return s - np.diag(s.sum(axis=0))


class TestSqrtRightHandSide:
    """H a = (1/2) (S p) / a, without forming H."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 4, 8]),
           span=st.floats(0.1, 1.0), backward=st.booleans())
    def test_matches_h_forming_rhs(self, seed, d, span, backward):
        rng = np.random.default_rng(seed)
        s = random_master_rates(rng, d)
        p0 = rng.uniform(0.2, 1.0, size=d)
        p0 /= p0.sum()
        t1 = -0.1 * span if backward else span
        reference, lowest = h_forming_rhs(s), []

        def recorded(tau, a):
            lowest.append(a.min())
            return reference(tau, a)

        ref = per_step_rk4_path(recorded, np.sqrt(p0), 0.0, t1, 0.01)
        if min(lowest) < 0:
            # a backward run drove a probability through 0 inside a step:
            # the reference runs on with a negative amplitude, the flow refuses
            with pytest.raises(FloorViolationError):
                density.evolve_sqrt_trajectory(s, p0, 0.0, t1, 0.01)
            return
        traj = density.evolve_sqrt_trajectory(s, p0, 0.0, t1, 0.01)
        assert np.array_equal(traj.times, ref.times)
        assert np.abs(traj.states - ref.states).max() <= 1e-12 * np.abs(ref.states).max()

    def test_probability_through_zero_raises(self):
        # a backward run in which amplitude 0 goes from 0.066 to -0.043 in the
        # step from t = -0.08 to -0.09, every stage probability above the floor
        rng = np.random.default_rng(45938)
        s = random_master_rates(rng, 8)
        p0 = rng.uniform(0.2, 1.0, size=8)
        p0 /= p0.sum()
        with pytest.raises(FloorViolationError) as info:
            density.evolve_sqrt_trajectory(s, p0, 0.0, -0.1, 0.01)
        assert info.value.component == 0
        assert -0.1 < info.value.time < 0.0

    @pytest.mark.parametrize("generator", [np.diag([0.0, 0.0, -50.0, 0.0])], ids=["constant"])
    def test_floor_violation_time_and_component(self, generator):
        p0 = np.array([0.5, 0.3, 1e-10, 0.2])
        with pytest.raises(FloorViolationError) as new:
            density.evolve_sqrt_trajectory(generator, p0, 0.0, 2.0, 1e-3)
        with pytest.raises(FloorViolationError) as old:
            per_step_rk4_path(h_forming_rhs(generator), np.sqrt(p0), 0.0, 2.0, 1e-3)
        assert new.value.time == old.value.time
        assert new.value.component == old.value.component == 2
        assert 0.0 < new.value.time < 2.0


def float_rk4_states(generator, a0, t0, t1, dt):
    """The sqrt flow's RK4 in Python floats, each row sum taken from left to right."""
    _, h = grid(t0, t1, dt)
    rates = (0.5 * generator).tolist()

    def rhs(x):
        q = [v * v for v in x]
        k = []
        for row, v in zip(rates, x):
            total = row[0] * q[0]
            for rate, p in zip(row[1:], q[1:]):
                total = total + rate * p
            k.append(total / v)
        return k

    y, states = a0.tolist(), [a0.tolist()]
    for _ in range(numkit.step_count(t0, t1, dt)):
        k1 = rhs(y)
        k2 = rhs([a + 0.5 * h * k for a, k in zip(y, k1)])
        k3 = rhs([a + 0.5 * h * k for a, k in zip(y, k2)])
        k4 = rhs([a + h * k for a, k in zip(y, k3)])
        y = [a + h / 6.0 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
        states.append(y)
    return np.array(states)


class TestSqrtChunks:
    """sqrt_chunks streams evolve_sqrt_trajectory's run, error for error."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4, 8]),
           n_steps=chunk_steps, backward=st.booleans())
    def test_chunks_concatenate_to_the_run(self, seed, d, n_steps, backward):
        rng = np.random.default_rng(seed)
        s = random_master_rates(rng, d)
        p0 = rng.uniform(0.05, 1.0, size=d)
        p0 /= p0.sum()
        # backward runs of the larger spans drive some probabilities through
        # the floor: the stream then raises where the run does
        t1 = (-1.0 if backward else 1.0) * n_steps * 1e-4
        try:
            run = whole_grid_run(density.sqrt_chunks, s, p0, 0.0, t1, 1e-4)
        except FloorViolationError as error:
            with pytest.raises(FloorViolationError) as streamed:
                list(density.sqrt_chunks(s, p0, 0.0, t1, 1e-4))
            assert (streamed.value.time, streamed.value.component) == (error.time, error.component)
            with pytest.raises(FloorViolationError) as collected:
                density.evolve_sqrt_trajectory(s, p0, 0.0, t1, 1e-4)
            assert (collected.value.time, collected.value.component) == (error.time, error.component)
            return
        assert_stream_is_run(density.sqrt_chunks(s, p0, 0.0, t1, 1e-4), run)
        assert_stream_is_run([density.evolve_sqrt_trajectory(s, p0, 0.0, t1, 1e-4)], run)

    def test_refused_at_the_call(self):
        with pytest.raises(FloorViolationError):
            density.sqrt_chunks(GENERIC_S4, [1.0, 0.0, 0.0, 0.0], 0.0, 1.0, 1e-3)
        with pytest.raises(ValueError, match="does not match 3 probabilities"):
            density.sqrt_chunks(np.zeros((3, 4)), [0.5, 0.3, 0.2], 0, 0.5, 0.01)


class TestGeneratedStep:
    """The flow's generated straight-line step against numkit's per-stage RK4."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4, 8, 16]),
           n_steps=st.integers(1, 2 * numkit.STAGE_BLOCK + 60), dt=st.floats(1e-5, 5e-5),
           backward=st.booleans())
    def test_equals_per_step_path(self, seed, d, n_steps, dt, backward):
        # p0 >= 0.5 / d and no rate above 1: a backward span of at most
        # 316 * 5e-5 keeps every probability far above the floor
        rng = np.random.default_rng(seed)
        s = random_master_rates(rng, d)
        p0 = rng.uniform(0.5, 1.0, size=d)
        p0 /= p0.sum()
        t1 = -n_steps * dt if backward else n_steps * dt
        flow = density.evolve_sqrt_trajectory(s, p0, 0.0, t1, dt)
        reference = per_step_rk4_path(half_rates_rhs(s), np.sqrt(p0), 0.0, t1, dt)
        assert flow.times.tobytes() == reference.times.tobytes()
        # NumPy's dot may sum a row in another order than left to right
        assert np.abs(flow.states - reference.states).max() <= 1e-13 * np.abs(
            reference.states).max()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([3, 5, 16]),
           n_steps=st.integers(1, 40), dt=st.floats(0.01, 0.1))
    def test_is_the_documented_float_arithmetic(self, seed, d, n_steps, dt):
        # steps long enough for the last bits of every stage to reach the states
        rng = np.random.default_rng(seed)
        s = random_master_rates(rng, d) / d
        p0 = rng.uniform(0.5, 1.0, size=d)
        p0 /= p0.sum()
        flow = density.evolve_sqrt_trajectory(s, p0, 0.0, n_steps * dt, dt)
        reference = float_rk4_states(s, np.sqrt(p0), 0.0, n_steps * dt, dt)
        assert flow.states.tobytes() == reference.tobytes()

    def test_acceptance_flow_is_pinned(self):
        p0 = np.array([0.40, 0.30, 0.20, 0.10])
        flow = density.evolve_sqrt_trajectory(GENERIC_S4, p0, 0.0, 0.5, 1e-4)
        reference = per_step_rk4_path(half_rates_rhs(GENERIC_S4), np.sqrt(p0), 0.0, 0.5, 1e-4)
        assert flow.states.tobytes() == reference.states.tobytes()
        assert hashlib.sha256(flow.states.tobytes()).hexdigest() == (
            "a0f021c628bf4f9f9d5920c2472c61b310111fed3d59d185f13c4c894b12d79d")

    def test_amplitude_in_the_screen_band_continues(self, monkeypatch):
        # amplitude 2 sits between sqrt(floor) and the screen and has no
        # rates, so every stage is screened, checked and passed
        floor = np.sqrt(density.PROBABILITY_FLOOR)
        a2 = floor * (1.0 + 5e-13)
        p0 = np.array([0.6, 0.4 - a2 * a2, a2 * a2])
        assert floor <= np.sqrt(p0[2]) < floor * (1.0 + 1e-12)
        s = np.array([[-0.3, 0.2, 0.0], [0.3, -0.2, 0.0], [0.0, 0.0, 0.0]])
        checked = []

        def check_floor(p, t=None):
            checked.append(t)
            return floor_check(p, t)

        floor_check = density._check_floor
        monkeypatch.setattr(density, "_check_floor", check_floor)
        flow = density.evolve_sqrt_trajectory(s, p0, 0.0, 0.3, 1e-3)
        assert len(checked) == 1 + 4 * 300
        assert (flow.states[:, 2] == np.sqrt(p0[2])).all()
        reference = per_step_rk4_path(half_rates_rhs(s), np.sqrt(p0), 0.0, 0.3, 1e-3)
        assert flow.states.tobytes() == reference.states.tobytes()

    def test_non_finite_time_as_per_step(self):
        # p grows like exp(700 t): a * a overflows near t = 1, in the
        # middle of the eighth block
        s = np.array([[600.0, 100.0], [100.0, 600.0]])
        p0 = np.array([0.5, 0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as flow:
                density.evolve_sqrt_trajectory(s, p0, 0.0, 3.0, 1e-3)
            with pytest.raises(NonFiniteStateError) as reference:
                per_step_rk4_path(half_rates_rhs(s), np.sqrt(p0), 0.0, 3.0, 1e-3)
        assert flow.value.time == reference.value.time
        assert 0.5 < flow.value.time < 2.0


class TestDensityMatrix:
    def test_elementary(self):
        rho = density.density_from_state(np.array([1.0, 0.0, 0.0, 0.0]))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.array_equal(rho, expected)

    def test_uniform(self):
        rho = density.density_from_state(np.full(4, 0.5))
        assert np.abs(rho - 0.25).max() < 1e-15

    def test_trace_is_total_probability(self):
        a = np.sqrt(GENERIC_P)
        assert np.trace(density.density_from_state(a)) == pytest.approx(GENERIC_P.sum())

    def test_symmetry_preserved_along_evolution(self):
        traj = density.evolve_sqrt_trajectory(GENERIC_S4, GENERIC_P, 0.0, 2.0, 1e-3)
        for a in traj.states[::200]:
            rho = density.density_from_state(a)
            assert np.abs(rho - rho.T).max() <= 1e-12

    def test_rejects_negative_amplitudes(self):
        with pytest.raises(ValueError):
            density.density_from_state(np.array([0.5, -0.5, 0.5, 0.5]))


class TestDensityEom:
    def test_diagonal_rates(self):
        s = np.diag([0.2, -0.1, 0.05, -0.3])
        res = density.density_eom_residual(s, GENERIC_P)
        assert res.transpose_form <= 1e-8

    def test_symmetric_case_anticommutator(self):
        sym = 0.5 * (GENERIC_S4 + GENERIC_S4.T)
        res = density.density_eom_residual(sym, np.full(4, 0.25))
        assert res.transpose_form <= 1e-6
        assert res.anticommutator <= 1e-6

    def test_asymmetric_case_needs_the_transpose_form(self):
        res = density.density_eom_residual(GENERIC_S4, GENERIC_P)
        assert res.transpose_form <= 1e-6
        assert res.anticommutator > 1e-4


class TestReducedDensity:
    def test_product_state_factors(self):
        u = np.array([0.8, 0.6])
        v = np.array([0.6, 0.8])
        rho = density.density_from_state(np.kron(u, v))
        rho_a = density.reduced_density(rho, "A")
        rho_b = density.reduced_density(rho, "B")
        assert np.abs(rho_a - np.outer(u, u)).max() < 1e-12
        assert np.abs(rho_b - np.outer(v, v)).max() < 1e-12

    def test_maximally_mixed(self):
        rho = np.eye(4) / 4.0
        assert np.abs(density.reduced_density(rho, "A") - np.eye(2) / 2.0).max() < 1e-15
        assert np.abs(density.reduced_density(rho, "B") - np.eye(2) / 2.0).max() < 1e-15

    def test_bell_amplitudes(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        rho = np.outer(psi, psi)
        assert np.abs(density.reduced_density(rho, "A") - np.eye(2) / 2.0).max() < 1e-12
        assert np.abs(density.reduced_density(rho, "B") - np.eye(2) / 2.0).max() < 1e-12

    def test_unnormalized_input_is_normalized(self):
        rho = 3.0 * np.eye(4) / 4.0
        out = density.reduced_density(rho, "A")
        assert np.trace(out) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unknown_subsystem(self):
        with pytest.raises(ValueError, match="subsystem"):
            density.reduced_density(np.eye(4), "C")

    def test_zero_trace(self):
        with pytest.raises(ZeroDivisionError):
            density.reduced_density(np.zeros((4, 4)), "A")
        with pytest.raises(ZeroDivisionError):
            density.reduced_density(np.array([np.eye(4), np.zeros((4, 4))]), "A")

    def test_stack_is_the_per_matrix_stack(self):
        rng = np.random.default_rng(61)
        rhos = rng.normal(size=(9, 4, 4)) + 1j * rng.normal(size=(9, 4, 4))
        for subsystem in ("A", "B"):
            stacked = density.reduced_density(rhos, subsystem)
            loop = [density.reduced_density(rho, subsystem) for rho in rhos]
            assert stacked.tobytes() == np.array(loop).tobytes()

    def test_rejects_wrong_shapes(self):
        for shape in ((2, 2), (3, 3, 4), (2, 3, 4, 4)):
            with pytest.raises(ValueError):
                density.reduced_density(np.ones(shape), "A")


class TestEntropy:
    def test_pure(self):
        assert density.von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximal_mixing(self):
        assert density.von_neumann_entropy(np.eye(2) / 2.0) == pytest.approx(np.log(2.0))

    def test_biased_mixture(self):
        expected = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))  # = 0.32508297339144845
        out = density.von_neumann_entropy(np.diag([0.9, 0.1]))
        assert out == pytest.approx(expected, abs=1e-15)
        assert out == pytest.approx(0.32508297339144845, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            lam = rng.uniform(0.0, 1.0)
            angle = rng.uniform(0.0, np.pi)
            basis = np.array(
                [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
            )
            rho = basis @ np.diag([lam, 1.0 - lam]) @ basis.T
            s = density.von_neumann_entropy(rho)
            assert 0.0 <= s <= np.log(2.0) + 1e-12

    def test_rejects_significant_negativity(self):
        with pytest.raises(ValueError):
            density.von_neumann_entropy(np.diag([1.1, -0.1]))
        with pytest.raises(ValueError):
            density.von_neumann_entropy(np.array([np.eye(2) / 2.0, np.diag([1.1, -0.1])]))

    def test_stack_is_the_per_matrix_stack(self):
        rng = np.random.default_rng(67)
        lams = rng.uniform(0.0, 1.0, size=9)
        lams[:3] = (0.0, 1.0, 0.5)
        rhos = np.array([np.diag([lam, 1.0 - lam]) for lam in lams])
        stacked = density.von_neumann_entropy(rhos)
        assert stacked.tobytes() == np.array([density.von_neumann_entropy(r) for r in rhos]).tobytes()
        empty = density.von_neumann_entropy(np.empty((0, 2, 2)))
        assert empty.shape == (0,) and empty.dtype == float

    def test_classical_pair_entropies_recorded_without_relation(self):
        # the classical construction does not promise S_A == S_B; both
        # values are finite, in range, and generally different
        a = np.sqrt(np.array([0.4, 0.3, 0.2, 0.1]))
        rho = density.density_from_state(a)
        s_a = density.von_neumann_entropy(density.reduced_density(rho, "A"))
        s_b = density.von_neumann_entropy(density.reduced_density(rho, "B"))
        for s in (s_a, s_b):
            assert 0.0 <= s <= np.log(2.0)
