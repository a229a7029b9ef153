import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epiqmap import numkit, quantum


def hermitian_params(**overrides):
    base = dict(
        ep_1a=1.05, ep_2a=0.95, ep_1b=1.05, ep_2b=0.95,
        ts_a=0.1, ts_b=0.1,
        ec_11=0.05, ec_12=0.10, ec_21=0.15, ec_22=0.20,
    )
    base.update(overrides)
    return quantum.QubitPairHamiltonian.hermitian(**base)


class TestBuildHamiltonian:
    def test_uncoupled_diagonal(self):
        params = quantum.QubitPairHamiltonian(
            ep_1a=1.0, ep_2a=2.0, ep_1b=3.0, ep_2b=5.0,
            ts_a_12=0.0, ts_a_21=0.0, ts_b_12=0.0, ts_b_21=0.0,
            ec_11=0.0, ec_12=0.0, ec_21=0.0, ec_22=0.0,
        )
        h = quantum.build_hamiltonian(params)
        assert np.array_equal(h, np.diag([4.0, 6.0, 5.0, 7.0]).astype(complex))

    def test_hermitian_parameters_give_hermitian_matrix(self):
        h = quantum.build_hamiltonian(hermitian_params(ts_a=0.1 + 0.05j, ts_b=0.2 - 0.1j))
        assert np.abs(h - np.conj(h.T)).max() <= 1e-15

    def test_anti_diagonal_corners_vanish(self):
        h = quantum.build_hamiltonian(hermitian_params())
        assert h[0, 3] == 0.0
        assert h[3, 0] == 0.0
        assert h[1, 2] == 0.0
        assert h[2, 1] == 0.0

    def test_hopping_placement(self):
        params = quantum.QubitPairHamiltonian(
            ep_1a=0.0, ep_2a=0.0, ep_1b=0.0, ep_2b=0.0,
            ts_a_12=1.0, ts_a_21=2.0, ts_b_12=3.0, ts_b_21=4.0,
            ec_11=0.0, ec_12=0.0, ec_21=0.0, ec_22=0.0,
        )
        h = quantum.build_hamiltonian(params)
        expected = np.array(
            [
                [0.0, 4.0, 2.0, 0.0],
                [3.0, 0.0, 0.0, 2.0],
                [1.0, 0.0, 0.0, 4.0],
                [0.0, 1.0, 3.0, 0.0],
            ],
            dtype=complex,
        )
        assert np.array_equal(h, expected)

    def test_coulomb_helper(self):
        assert quantum.coulomb_energy(2.0, 4.0) == 1.0
        with pytest.raises(ValueError):
            quantum.coulomb_energy(1.0, 0.0)

    def test_hermitian_flag(self):
        assert hermitian_params().is_hermitian
        lossy = quantum.QubitPairHamiltonian(
            ep_1a=1.0 - 0.1j, ep_2a=1.0, ep_1b=1.0, ep_2b=1.0,
            ts_a_12=0.1, ts_a_21=0.1, ts_b_12=0.1, ts_b_21=0.1,
            ec_11=0.0, ec_12=0.0, ec_21=0.0, ec_22=0.0,
        )
        assert not lossy.is_hermitian


class TestEvolveSchrodinger:
    def test_zero_hamiltonian(self):
        psi0 = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        traj = quantum.evolve_schrodinger(np.zeros((4, 4)), psi0, 0.0, 2.0, 0.1)
        assert np.abs(traj.states - psi0).max() == 0.0

    def test_diagonal_stationary_phases(self):
        energies = np.array([1.0, 2.0, 3.0, 4.0])
        psi0 = np.full(4, 0.5, dtype=complex)
        traj = quantum.evolve_schrodinger(np.diag(energies), psi0, 0.0, 1.0, 1e-3)
        expected = 0.5 * np.exp(-1j * energies)
        assert np.abs(traj.final - expected).max() < 1e-10

    def test_unitary_oracle_and_norm_drift(self):
        params = hermitian_params()
        h = quantum.build_hamiltonian(params)
        psi0 = quantum.wave_from_polar([0.3, 0.2, 0.25, 0.25], [0.3, 1.0, -0.4, 0.8])
        traj = quantum.evolve_schrodinger(params, psi0, 0.0, 10.0, 1e-3)
        norms = (np.abs(traj.states) ** 2).sum(axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-9
        oracle = numkit.mat_exp(-1j * h * 10.0) @ psi0
        assert np.abs(traj.final - oracle).max() <= 1e-8

    def test_energy_conservation(self):
        params = hermitian_params()
        h = quantum.build_hamiltonian(params)
        psi0 = quantum.wave_from_polar([0.3, 0.2, 0.25, 0.25], [0.3, 1.0, -0.4, 0.8])
        traj = quantum.evolve_schrodinger(params, psi0, 0.0, 5.0, 1e-3)
        e0 = quantum.expectation_energy(h, psi0).real
        for psi in traj.states[::250]:
            assert abs(quantum.expectation_energy(h, psi).real - e0) <= 1e-8

    def test_dissipation_decreases_norm_everywhere(self):
        params = quantum.QubitPairHamiltonian(
            ep_1a=1.0 - 0.05j, ep_2a=1.0 - 0.05j, ep_1b=1.0 - 0.05j, ep_2b=1.0 - 0.05j,
            ts_a_12=0.1, ts_a_21=0.1, ts_b_12=0.1, ts_b_21=0.1,
            ec_11=0.05, ec_12=0.10, ec_21=0.15, ec_22=0.20,
        )
        psi0 = quantum.wave_from_polar([0.3, 0.2, 0.25, 0.25], [0.3, 1.0, -0.4, 0.8])
        traj = quantum.evolve_schrodinger(params, psi0, 0.0, 5.0, 1e-3)
        totals = (np.abs(traj.states) ** 2).sum(axis=1)
        assert np.all(np.diff(totals) < 0)


def polar_split_loop(states, floor=quantum.PHASE_HOLD_FLOOR):
    """Reference: the per-sample unwrapping rule, one Python step per sample."""
    probs = np.abs(states) ** 2
    raw = np.angle(states)
    phases = np.empty_like(raw)
    held = np.zeros(raw.shape, dtype=bool)
    phases[0] = raw[0]
    held[0] = probs[0] < floor
    two_pi = 2.0 * np.pi
    for i in range(1, len(raw)):
        prev = phases[i - 1]
        candidate = raw[i] + two_pi * np.round((prev - raw[i]) / two_pi)
        low = probs[i] < floor
        phases[i] = np.where(low, prev, candidate)
        held[i] = low
    return phases, held


class TestPolarSplit:
    def test_basis_state(self):
        traj = numkit.Trajectory(np.array([0.0]), np.array([[1.0, 0.0, 0.0, 0.0]], dtype=complex))
        polar = quantum.polar_split(traj)
        assert np.array_equal(polar.probabilities[0], [1.0, 0.0, 0.0, 0.0])
        assert polar.phases[0, 0] == 0.0
        assert polar.held[0, 1]

    def test_global_phase_unwraps_past_pi(self):
        energy = 2.0
        times = np.linspace(0.0, 4.0, 401)
        states = np.exp(-1j * energy * times)[:, None] * np.full(4, 0.5)
        polar = quantum.polar_split(numkit.Trajectory(times, states))
        assert np.abs(polar.phases - (-energy * times)[:, None]).max() < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(53)
        raw = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
        times = np.arange(20.0)
        polar = quantum.polar_split(numkit.Trajectory(times, raw))
        rebuilt = np.sqrt(polar.probabilities) * np.exp(1j * polar.phases)
        mask = polar.probabilities > 1e-14
        assert np.abs((rebuilt - raw)[mask]).max() <= 1e-12

    def test_phase_held_below_floor(self):
        states = np.array(
            [[0.5 + 0.5j, 1.0], [0.5 + 0.5j, 0.0], [0.5 + 0.5j, 1.0]], dtype=complex
        )
        polar = quantum.polar_split(numkit.Trajectory(np.arange(3.0), states))
        assert polar.held[1, 1]
        assert polar.phases[1, 1] == polar.phases[0, 1]

    def test_matches_per_sample_loop_on_reference_trajectory(self):
        psi0 = quantum.wave_from_polar([0.3, 0.2, 0.25, 0.25], [0.3, 1.0, -0.4, 0.8])
        traj = quantum.evolve_schrodinger(hermitian_params(), psi0, 0.0, 50.0, 1e-3)
        polar = quantum.polar_split(traj)
        phases, held = polar_split_loop(traj.states)
        assert len(traj) == 50001
        assert np.abs(phases[-1]).max() > 10.0 * np.pi  # many turns unwrapped
        assert np.array_equal(polar.phases, phases)
        assert np.array_equal(polar.held, held)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           hold_rate=st.sampled_from([0.0, 0.2, 0.6, 0.95]))
    def test_matches_per_sample_loop_with_held_runs(self, seed, n, hold_rate):
        # phases step by up to +/- 3 rad, so most samples need a turn; held
        # samples come in runs (sample 0 included) with p far below the floor
        rng = np.random.default_rng(seed)
        phase = np.cumsum(rng.uniform(-3.0, 3.0, size=(n, 3)), axis=0)
        magnitude = rng.uniform(0.1, 1.0, size=(n, 3))
        low = np.repeat(rng.random((n // 4 + 1, 3)) < hold_rate, 4, axis=0)[:n]
        magnitude[low] = rng.choice([0.0, 1e-9, 1e-8], size=int(low.sum()))
        states = magnitude * np.exp(1j * phase)
        polar = quantum.polar_split(numkit.Trajectory(np.arange(float(n)), states))
        phases, held = polar_split_loop(states)
        assert np.array_equal(polar.held, held)
        assert np.array_equal(polar.phases, phases)

    def test_wave_from_polar_rejects_negative(self):
        with pytest.raises(ValueError):
            quantum.wave_from_polar([-0.1, 1.1, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0])


def schmidt_entropies(psi):
    """Independent oracle: singular values of the 2x2 coefficient matrix."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    sigmas = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
    lams = sigmas**2
    lams = lams[lams > 1e-300]
    s = float(-(lams * np.log(lams)).sum())
    return s, s


class TestPureEntropyPair:
    def test_product_state(self):
        psi = np.kron([0.8, 0.6], [0.6, 0.8j])
        s_a, s_b = quantum.pure_entropy_pair(psi)
        assert s_a <= 1e-12
        assert s_b <= 1e-12

    def test_bell_analog(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        s_a, s_b = quantum.pure_entropy_pair(psi)
        assert s_a == pytest.approx(np.log(2.0), abs=1e-9)
        assert s_b == pytest.approx(np.log(2.0), abs=1e-9)

    def test_matches_schmidt_oracle(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            s_a, s_b = quantum.pure_entropy_pair(psi)
            oracle, _ = schmidt_entropies(psi)
            assert abs(s_a - s_b) <= 1e-9
            assert abs(s_a - oracle) <= 1e-9

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            quantum.pure_entropy_pair(np.zeros(4))

    def test_rejects_unknown_ordering(self):
        with pytest.raises(ValueError, match="ordering"):
            quantum.pure_entropy_pair(np.array([1.0, 0.0, 0.0, 1.0]), ordering="nonsense")

    @settings(max_examples=100, deadline=None)
    @given(parts=arrays(np.float64, st.tuples(st.integers(1, 12), st.just(4), st.just(2)),
                        elements=st.floats(-1.0, 1.0)),
           ordering=st.sampled_from(["a_slow", "b_slow"]))
    def test_subsystem_entropies_agree(self, parts, ordering):
        # S_A = S_B for every pure state, one at a time and as a stack
        states = parts[..., 0] + 1j * parts[..., 1]
        states = states[np.linalg.norm(states, axis=1) > 1e-3]
        assume(len(states))
        s_a, s_b = quantum.pure_entropy_pair(states, ordering)
        assert np.abs(s_a - s_b).max() <= 1e-9
        s_a, s_b = quantum.pure_entropy_pair(states[0], ordering)
        assert abs(s_a - s_b) <= 1e-9


class TestStackedEntropies:
    """An (n, 4) stack of states gives, bit for bit, the per-state entropies."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           ordering=st.sampled_from(["a_slow", "b_slow"]))
    def test_stack_is_the_per_state_pair(self, seed, n, ordering):
        rng = np.random.default_rng(seed)
        random = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        u = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        product = (u[:, :, None] * v[:, None, :]).reshape(n, 4)
        bell = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, -1j, 0.0], [0.0, 0.0, 0.0, 2.0]])
        states = np.concatenate((random, product, bell))
        s_a, s_b = quantum.pure_entropy_pair(states, ordering)
        loop = np.array([quantum.pure_entropy_pair(psi, ordering) for psi in states])
        assert s_a.tobytes() == loop[:, 0].tobytes()
        assert s_b.tobytes() == loop[:, 1].tobytes()

    def test_scalar_state_gives_floats(self):
        s_a, s_b = quantum.pure_entropy_pair(np.array([1.0, 0.0, 0.0, 1.0]))
        assert type(s_a) is float and type(s_b) is float

    def test_zero_state_in_a_stack_rejected(self):
        with pytest.raises(ValueError):
            quantum.pure_entropy_pair(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
