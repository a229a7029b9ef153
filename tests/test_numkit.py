import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiqmap import numkit
from epiqmap.errors import NonFiniteStateError


def series_expm(m, terms=30):
    """Independent oracle: raw truncated power series, no scaling."""
    out = np.eye(m.shape[0], dtype=complex if np.iscomplexobj(m) else float)
    term = out.copy()
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out


def char_poly_coefficients(m):
    """Faddeev-LeVerrier recursion for det(lam I - M) coefficients."""
    n = m.shape[0]
    coeffs = [1.0]
    work = np.zeros_like(m, dtype=float)
    identity = np.eye(n)
    for k in range(1, n + 1):
        work = m @ work + coeffs[-1] * identity
        coeffs.append(-np.trace(m @ work) / k)
    return np.array(coeffs)


class TestMatExp:
    def test_zero_matrix(self):
        assert np.array_equal(numkit.mat_exp(np.zeros((2, 2))), np.eye(2))

    def test_diagonal(self):
        out = numkit.mat_exp(np.diag([1.0, -1.0]))
        assert np.abs(out - np.diag([np.e, 1.0 / np.e])).max() < 1e-14

    def test_symmetric_offdiagonal_vs_series_oracle(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = numkit.mat_exp(m)
        oracle = series_expm(m)
        assert np.abs(out - oracle).max() <= 1e-12 * np.abs(oracle).max()
        expected = np.array(
            [[np.cosh(1.0), np.sinh(1.0)], [np.sinh(1.0), np.cosh(1.0)]]
        )
        assert np.abs(out - expected).max() < 1e-13

    def test_series_oracle_small_random(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 4):
            m = rng.uniform(-1.0, 1.0, size=(dim, dim))
            out = numkit.mat_exp(m)
            oracle = series_expm(m, terms=40)
            assert np.abs(out - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())

    def test_complex_input(self):
        m = 1j * np.diag([1.0, 2.0])
        out = numkit.mat_exp(m)
        assert np.abs(out - np.diag(np.exp([1j, 2j]))).max() < 1e-14

    def test_commuting_product_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = np.diag(rng.uniform(-2.0, 2.0, size=3))
            b = np.diag(rng.uniform(-2.0, 2.0, size=3))
            lhs = numkit.mat_exp(a + b)
            rhs = numkit.mat_exp(a) @ numkit.mat_exp(b)
            assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())

    def test_determinant_is_exp_trace(self):
        rng = np.random.default_rng(13)
        for dim in (2, 4):
            for _ in range(25):
                m = rng.uniform(-1.0, 1.0, size=(dim, dim))
                det = np.linalg.det(numkit.mat_exp(m))
                assert abs(det - np.exp(np.trace(m))) < 1e-10 * max(1.0, abs(det))

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError):
            numkit.mat_exp(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            numkit.mat_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestEig:
    def test_diagonal_sorted(self):
        values, vectors = numkit.eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(values, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])

    def test_symmetric_offdiagonal(self):
        values, _ = numkit.eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(values, [-1.0, 1.0])

    def test_sign_convention_deterministic(self):
        m = np.array([[2.0, -1.0], [-1.0, 0.5]])
        _, v1 = numkit.eig(m)
        _, v2 = numkit.eig(-(-m))
        assert np.array_equal(v1, v2)
        for j in range(2):
            first = v1[np.argmax(np.abs(v1[:, j]) > 1e-12), j]
            assert first > 0

    def test_random_symmetric_vs_char_poly_oracle(self):
        rng = np.random.default_rng(17)
        base = rng.uniform(-1.0, 1.0, size=(4, 4))
        m = 0.5 * (base + base.T)
        values, vectors = numkit.eig(m)
        scale = np.linalg.norm(m, np.inf)
        for j in range(4):
            resid = np.abs(m @ vectors[:, j] - values[j] * vectors[:, j]).max()
            assert resid <= 1e-10 * scale
        # companion-matrix roots of the characteristic polynomial
        roots = np.sort(np.roots(char_poly_coefficients(m)).real)
        assert np.abs(np.sort(values) - roots).max() < 1e-8

    def test_residual_sweep_dims_2_4_8(self):
        rng = np.random.default_rng(19)
        for dim in (2, 4, 8):
            for _ in range(1000):
                m = rng.uniform(-1.0, 1.0, size=(dim, dim))
                values, vectors = numkit.eig(m)
                scale = np.linalg.norm(m, np.inf)
                resid = max(
                    np.abs(m @ vectors[:, j] - values[j] * vectors[:, j]).max()
                    for j in range(dim)
                )
                assert resid <= 1e-10 * scale

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            numkit.eig(np.eye(9))


class TestOdeEvolve:
    def test_zero_generator_constant(self):
        traj = numkit.ode_evolve(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]), 0.0, 2.0, 0.1)
        assert np.abs(traj.states - traj.states[0]).max() == 0.0

    def test_scalar_decay(self):
        traj = numkit.ode_evolve(np.array([[-1.0]]), np.array([1.0]), 0.0, 1.0, 1e-3)
        assert abs(traj.final[0] - np.exp(-1.0)) < 1e-10

    def test_constant_matrix_vs_mat_exp(self):
        g = np.array([[0.1, 0.4], [0.6, -0.3]])
        y0 = np.array([0.7, 0.3])
        traj = numkit.ode_evolve(g, y0, 0.0, 1.0, 1e-3)
        assert np.abs(traj.final - numkit.mat_exp(g) @ y0).max() < 1e-8

    def test_fourth_order_convergence(self):
        g = np.array([[0.0, 1.0], [-1.0, 0.0]])
        y0 = np.array([1.0, 0.0])
        exact = numkit.mat_exp(g * 2.0) @ y0
        err = [
            np.abs(numkit.ode_evolve(g, y0, 0.0, 2.0, dt).final - exact).max()
            for dt in (0.02, 0.01)
        ]
        assert err[0] / err[1] >= 12.0

    def test_dense_output_grid(self):
        traj = numkit.ode_evolve(np.zeros((1, 1)), np.array([1.0]), 0.0, 1.0, 0.25)
        assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_backward_consistency(self):
        g = np.array([[0.2, 0.3], [0.1, -0.4]])
        y0 = np.array([0.5, 0.5])
        fwd = numkit.ode_evolve(g, y0, 0.0, 1.0, 1e-3).final
        back = numkit.ode_evolve(g, fwd, 1.0, 0.0, 1e-3).final
        assert np.abs(back - y0).max() < 1e-10

    def test_time_dependent_generator(self):
        # dy/dt = t y  ->  y(1) = y0 exp(1/2)
        traj = numkit.ode_evolve(
            lambda t: np.reshape(t, np.shape(t) + (1, 1)), np.array([1.0]), 0.0, 1.0, 1e-3
        )
        assert abs(traj.final[0] - np.exp(0.5)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            numkit.ode_evolve(np.zeros((3, 3)), np.array([1.0, 0.0]), 0.0, 1.0, 0.1)

    def test_callable_shape_checked(self):
        # a scalar-only callable returns one matrix for a whole block of times
        with pytest.raises(ValueError):
            numkit.ode_evolve(lambda t: np.zeros((2, 2)), np.array([1.0, 0.0]), 0.0, 1.0, 0.1)
        # a stack of the right length but the wrong dimension
        with pytest.raises(ValueError):
            numkit.ode_evolve(
                lambda t: np.zeros((len(t), 3, 3)), np.array([1.0, 0.0]), 0.0, 1.0, 0.1
            )

    def test_generator_called_once_per_stage_block(self):
        calls = []

        def generator(t):
            calls.append(len(t))
            return np.zeros((len(t), 1, 1))

        n_steps = 2 * numkit.STAGE_BLOCK + 5
        numkit.ode_evolve(generator, np.array([1.0]), 0.0, 1.0, 1.0 / n_steps)
        blocks = [numkit.STAGE_BLOCK, numkit.STAGE_BLOCK, 5]
        assert calls == [3 * b for b in blocks]

    def test_stage_times_as_per_step(self):
        # the stage times each step sees: t_i, t_i + h/2 (twice), t_i + h
        seen = []

        def rhs(t, y):
            seen.append(t)
            return np.zeros_like(y)

        traj = numkit.rk4_path(rhs, np.array([1.0]), 0.1, 0.7, 0.003)
        h = (0.7 - 0.1) / (len(traj) - 1)
        expected = []
        for t in traj.times[:-1]:
            expected += [t, t + 0.5 * h, t + 0.5 * h, t + h]
        assert seen == expected

    def test_non_finite_reports_time(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as info:
            numkit.ode_evolve(np.array([[1e8]]), np.array([1.0]), 0.0, 10.0, 0.1)
        assert info.value.time > 0


def broadcast(g):
    """g as a generator-protocol callable, so ode_evolve takes the stage path."""
    return lambda ts: np.broadcast_to(g, (len(ts),) + g.shape)


def random_system(seed, d, complex_valued):
    rng = np.random.default_rng(seed)
    g = rng.uniform(-1.0, 1.0, size=(d, d))
    y0 = rng.uniform(-1.0, 1.0, size=d)
    if complex_valued:
        g = g + 1j * rng.uniform(-1.0, 1.0, size=(d, d))
        y0 = y0 + 1j * rng.uniform(-1.0, 1.0, size=d)
    return g, y0


class TestIncrementPath:
    """A constant generator is stepped as y + D @ y with D = rk4_step_matrix(G, h)."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(2, False), (4, False), (8, False), (16, False),
                               (2, True), (4, True)]),
        t0=st.floats(-5.0, 5.0),
        span=st.floats(0.05, 2.0),
        backward=st.booleans(),
        dt=st.floats(0.01, 0.2),
    )
    def test_matches_stage_path(self, seed, shape, t0, span, backward, dt):
        g, y0 = random_system(seed, *shape)
        t1 = t0 - span if backward else t0 + span
        const = numkit.ode_evolve(g, y0, t0, t1, dt)
        stage = numkit.ode_evolve(broadcast(g), y0, t0, t1, dt)
        assert np.array_equal(const.times, stage.times)
        assert const.states.dtype == stage.states.dtype
        scale = np.abs(stage.states).max()
        assert np.abs(const.states - stage.states).max() <= 1e-12 * scale

    def test_spans_off_the_step_grid(self):
        # 0.7 / 0.3 is not a whole number of steps: the step shrinks to 0.7 / 3
        g, y0 = random_system(5, 4, False)
        const = numkit.ode_evolve(g, y0, 0.0, 0.7, 0.3)
        stage = numkit.ode_evolve(broadcast(g), y0, 0.0, 0.7, 0.3)
        assert len(const) == 4 and const.times[-1] == 0.7
        assert np.abs(const.states - stage.states).max() <= 1e-14 * np.abs(stage.states).max()

    def test_empty_span(self):
        traj = numkit.ode_evolve(np.eye(2), np.array([1.0, 2.0]), 0.5, 0.5, 0.1)
        assert np.array_equal(traj.times, [0.5]) and np.array_equal(traj.states, [[1.0, 2.0]])

    def test_step_matrix_is_one_rk4_step(self):
        g, y0 = random_system(3, 4, True)
        h = 0.05
        k1 = g @ y0
        k2 = g @ (y0 + 0.5 * h * k1)
        k3 = g @ (y0 + 0.5 * h * k2)
        k4 = g @ (y0 + h * k3)
        stage = y0 + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        step = y0 + numkit.rk4_step_matrix(g, h) @ y0
        assert np.abs(step - stage).max() <= 1e-14

    def test_step_matrix_of_a_stack(self):
        stack = np.random.default_rng(9).uniform(-1.0, 1.0, size=(5, 3, 3))
        batched = numkit.rk4_step_matrix(stack, 0.1)
        assert batched.shape == (5, 3, 3)
        for g, d in zip(stack, batched):
            assert np.abs(d - numkit.rk4_step_matrix(g, 0.1)).max() <= 1e-15

    @settings(max_examples=30, deadline=None)
    @given(rate=st.floats(200.0, 1000.0), dt=st.floats(0.01, 0.1), backward=st.booleans())
    def test_non_finite_time_matches_stage_path(self, rate, dt, backward):
        # y2 moves linearly from near the largest float and overflows after
        # 10-500 steps; no stage value overflows before the state does
        sign = -1.0 if backward else 1.0
        g = np.array([[0.0, 0.0], [rate, 0.0]])
        y0 = np.array([1e304, sign * 1.7e308])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as const:
                numkit.ode_evolve(g, y0, 0.0, sign * 10.0, dt)
            with pytest.raises(NonFiniteStateError) as stage:
                numkit.ode_evolve(broadcast(g), y0, 0.0, sign * 10.0, dt)
        assert const.value.time == stage.value.time

    def test_stage_overflow_stops_the_stage_path_first(self):
        # in the last step k4 = G (y + h k3) overflows to inf, so the stage
        # path raises at t = 40, while y + D @ y is still about 3.0e307
        g = np.diag([20.0, -20.0])
        y0 = np.array([1.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            const = numkit.ode_evolve(g, y0, 0.0, 40.0, 0.19921875)
            with pytest.raises(NonFiniteStateError) as stage:
                numkit.ode_evolve(broadcast(g), y0, 0.0, 40.0, 0.19921875)
        assert stage.value.time == const.times[-1] == 40.0
        assert np.isfinite(const.final).all() and const.final[0] > 1e307

    def test_non_finite_initial_state_fails_at_first_step(self):
        y0 = np.array([np.nan, 1.0])
        with pytest.raises(NonFiniteStateError) as const:
            numkit.ode_evolve(np.eye(2), y0, 0.0, 1.0, 0.1)
        with pytest.raises(NonFiniteStateError) as stage:
            numkit.ode_evolve(broadcast(np.eye(2)), y0, 0.0, 1.0, 0.1)
        assert const.value.time == stage.value.time == 0.1


class TestStepBudget:
    def test_step_count(self):
        assert numkit.step_count(0.0, 1.0, 0.25) == 4
        assert numkit.step_count(1.0, 0.0, 0.3) == 4
        assert numkit.step_count(2.0, 2.0, 0.1) == 0
        assert numkit.step_count(0.0, 1.0, numkit.MAX_STEPS ** -1) == numkit.MAX_STEPS

    @pytest.mark.parametrize("t1, dt", [
        (1.0, 1e-300), (2.0, 1.0 / numkit.MAX_STEPS), (np.inf, 0.1), (np.nan, 0.1), (1.0, 0.0),
    ])
    def test_step_count_refuses(self, t1, dt):
        with pytest.raises(ValueError):
            numkit.step_count(0.0, t1, dt)

    @pytest.mark.parametrize("generator", ["constant", "callable"])
    def test_refused_before_stepping(self, monkeypatch, generator):
        # a small budget, so a missing check would only allocate 101 rows
        monkeypatch.setattr(numkit, "MAX_STEPS", 50)
        g = np.zeros((2, 2))
        with pytest.raises(ValueError, match="more than 50 steps"):
            numkit.ode_evolve(g if generator == "constant" else broadcast(g),
                              np.ones(2), 0.0, 1.0, 0.01)


class TestNumericDerivative:
    def test_constant_zero(self):
        out = numkit.numeric_derivative(lambda t: np.array([4.0, 5.0]), 1.0, 1e-5)
        assert np.abs(out).max() == 0.0

    def test_polynomial(self):
        out = numkit.numeric_derivative(lambda t: np.array([t * t, t]), 1.0, 1e-5)
        assert np.abs(out - np.array([2.0, 1.0])).max() < 1e-8

    def test_eigenvector_of_scaled_swap_is_constant(self):
        # eigenvectors of [[0, t], [t, 0]] do not depend on t, so the
        # derivative of the deterministically oriented eigenvector is 0
        def vec(t):
            _, vectors = numkit.eig(np.array([[0.0, t], [t, 0.0]]))
            return vectors[:, 0]

        out = numkit.numeric_derivative(vec, 1.0, 1e-5)
        assert np.abs(out).max() < 1e-10

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            numkit.numeric_derivative(lambda t: np.array([t]), 0.0, 0.0)


class TestTrajectory:
    def test_rejects_non_monotonic_times(self):
        with pytest.raises(ValueError):
            numkit.Trajectory(np.array([0.0, 1.0, 0.5]), np.zeros((3, 2)))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            numkit.Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)))
