import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiqmap import density, epidemic, numkit
from epiqmap.errors import FloorViolationError

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
        for t, a in zip(traj.times[::100], traj.states[::100]):
            oracle = numkit.mat_exp(GENERIC_S4 * t) @ GENERIC_P
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

    def test_floor_violation_reports_time(self):
        s = np.diag([-50.0, 0.0, 0.0, 0.0])
        with pytest.raises(FloorViolationError) as info:
            density.evolve_sqrt(s, np.array([1e-10, 0.5, 0.3, 0.2]), 0.0, 2.0, 1e-3)
        assert info.value.time is not None


def h_forming_rhs(generator):
    """Reference right-hand side: form H(t, a * a) explicitly, then H @ a."""
    def rhs(tau, a):
        return density.sqrt_dynamics_generator(generator, a * a, tau) @ a
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

        ref = numkit.rk4_path(recorded, np.sqrt(p0), 0.0, t1, 0.01)
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
            numkit.rk4_path(h_forming_rhs(generator), np.sqrt(p0), 0.0, 2.0, 1e-3)
        assert new.value.time == old.value.time
        assert new.value.component == old.value.component == 2
        assert 0.0 < new.value.time < 2.0


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
        res = density.density_eom_residual(s, GENERIC_P, 1e-4)
        assert res.transpose_form <= 1e-8

    def test_symmetric_case_anticommutator(self):
        sym = 0.5 * (GENERIC_S4 + GENERIC_S4.T)
        res = density.density_eom_residual(sym, np.full(4, 0.25), 1e-4)
        assert res.transpose_form <= 1e-6
        assert res.anticommutator <= 1e-6

    def test_asymmetric_case_needs_the_transpose_form(self):
        res = density.density_eom_residual(GENERIC_S4, GENERIC_P, 1e-4)
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

    def test_classical_pair_entropies_recorded_without_relation(self):
        # the classical construction does not promise S_A == S_B; both
        # values are finite, in range, and generally different
        a = np.sqrt(np.array([0.4, 0.3, 0.2, 0.1]))
        rho = density.density_from_state(a)
        s_a = density.von_neumann_entropy(density.reduced_density(rho, "A"))
        s_b = density.von_neumann_entropy(density.reduced_density(rho, "B"))
        for s in (s_a, s_b):
            assert 0.0 <= s <= np.log(2.0)
