import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epiqmap import numkit, quantum

from test_numkit import assert_stream_is_run, chunk_steps, whole_grid_run


def hermitian_h(**overrides):
    base = dict(
        ep_1a=1.05, ep_2a=0.95, ep_1b=1.05, ep_2b=0.95,
        ts_a=0.1, ts_b=0.1,
        ec_11=0.05, ec_12=0.10, ec_21=0.15, ec_22=0.20,
    )
    base.update(overrides)
    return quantum.build_hamiltonian(**base)


class TestBuildHamiltonian:
    def test_uncoupled_diagonal(self):
        h = quantum.build_hamiltonian(1.0, 2.0, 3.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert np.array_equal(h, np.diag([4.0, 6.0, 5.0, 7.0]).astype(complex))

    def test_hermitian_parameters_give_hermitian_matrix(self):
        h = hermitian_h(ts_a=0.1 + 0.05j, ts_b=0.2 - 0.1j)
        assert quantum.is_hermitian(h)
        assert h[0, 2] == 0.1 - 0.05j and h[0, 1] == 0.2 + 0.1j

    def test_anti_diagonal_corners_vanish(self):
        h = hermitian_h()
        assert h[0, 3] == 0.0
        assert h[3, 0] == 0.0
        assert h[1, 2] == 0.0
        assert h[2, 1] == 0.0

    def test_hopping_placement(self):
        h = quantum.build_hamiltonian(
            0.0, 0.0, 0.0, 0.0, 1.0, 3.0, 0.0, 0.0, 0.0, 0.0, ts_a_21=2.0, ts_b_21=4.0,
        )
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
        assert quantum.is_hermitian(hermitian_h())
        lossy = quantum.build_hamiltonian(
            1.0 - 0.1j, 1.0, 1.0, 1.0, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0, ts_a_21=0.1, ts_b_21=0.1,
        )
        assert not quantum.is_hermitian(lossy)
        assert not quantum.is_hermitian(hermitian_h(ts_a_21=0.2))
        # exact: an entry 1e-15 off its mirror is not Hermitian
        nearly = hermitian_h()
        nearly[0, 1] += 1e-15j
        assert not quantum.is_hermitian(nearly)

    def test_gains_cancelling_losses_are_hermitian(self):
        # gain +0.1 on A's sites, loss -0.1 on B's: every configuration
        # holds one of each, so H's diagonal is real
        h = quantum.build_hamiltonian(
            1 + 0.1j, 0.9 + 0.1j, 1 - 0.1j, 0.9 - 0.1j, 0.1, 0.1, 0.05, 0.10, 0.15, 0.20,
        )
        assert np.array_equal(h.diagonal().imag, np.zeros(4))
        assert quantum.is_hermitian(h)


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
        h = hermitian_h()
        psi0 = quantum.wave_from_polar([0.3, 0.2, 0.25, 0.25], [0.3, 1.0, -0.4, 0.8])
        traj = quantum.evolve_schrodinger(h, psi0, 0.0, 10.0, 1e-3)
        norms = (np.abs(traj.states) ** 2).sum(axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-9
        values, vectors = np.linalg.eigh(h)
        oracle = vectors @ (np.exp(-1j * values * 10.0) * (vectors.conj().T @ psi0))
        assert np.abs(traj.final - oracle).max() <= 1e-8

    def test_energy_conservation(self):
        h = hermitian_h()
        psi0 = quantum.wave_from_polar([0.3, 0.2, 0.25, 0.25], [0.3, 1.0, -0.4, 0.8])
        traj = quantum.evolve_schrodinger(h, psi0, 0.0, 5.0, 1e-3)
        e0 = quantum.expectation_energy(h, psi0).real
        for psi in traj.states[::250]:
            assert abs(quantum.expectation_energy(h, psi).real - e0) <= 1e-8

    def test_dissipation_decreases_norm_everywhere(self):
        h = quantum.build_hamiltonian(
            1.0 - 0.05j, 1.0 - 0.05j, 1.0 - 0.05j, 1.0 - 0.05j, 0.1, 0.1, 0.05, 0.10, 0.15, 0.20,
            ts_a_21=0.1, ts_b_21=0.1,
        )
        psi0 = quantum.wave_from_polar([0.3, 0.2, 0.25, 0.25], [0.3, 1.0, -0.4, 0.8])
        traj = quantum.evolve_schrodinger(h, psi0, 0.0, 5.0, 1e-3)
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
        traj = quantum.evolve_schrodinger(hermitian_h(), psi0, 0.0, 50.0, 1e-3)
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


def split_in_chunks(trajectory, cuts):
    """polar_split of the trajectory cut before each index in cuts, the unwrap carried."""
    carry, parts = None, []
    for start, stop in zip([0] + cuts, cuts + [len(trajectory)]):
        part = numkit.Trajectory(trajectory.times[start:stop], trajectory.states[start:stop])
        polar = quantum.polar_split(part, carry)
        carry = polar.carry
        parts.append(polar)
    return parts


class TestChunkedPolarSplit:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
           hold_rate=st.sampled_from([0.0, 0.2, 0.6, 0.95]), data=st.data())
    def test_carry_continues_the_whole_run(self, seed, n, hold_rate, data):
        # phases step by up to +/- 3 rad, so most samples need a turn; held
        # samples come in runs (sample 0 and whole chunks included)
        rng = np.random.default_rng(seed)
        phase = np.cumsum(rng.uniform(-3.0, 3.0, size=(n, 3)), axis=0)
        magnitude = rng.uniform(0.1, 1.0, size=(n, 3))
        low = np.repeat(rng.random((n // 4 + 1, 3)) < hold_rate, 4, axis=0)[:n]
        magnitude[low] = rng.choice([0.0, 1e-9, 1e-8], size=int(low.sum()))
        trajectory = numkit.Trajectory(np.arange(float(n)), magnitude * np.exp(1j * phase))
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=6)) if n > 1 else [])
        whole = quantum.polar_split(trajectory)
        parts = split_in_chunks(trajectory, list(cuts))
        for field in ("times", "probabilities", "phases", "held"):
            joined = np.concatenate([getattr(part, field) for part in parts])
            assert joined.tobytes() == getattr(whole, field).tobytes()
        assert parts[-1].carry.tobytes() == whole.carry.tobytes()
        phases, held = polar_split_loop(trajectory.states)
        assert np.array_equal(whole.phases, phases) and np.array_equal(whole.held, held)

    def test_many_turns_across_chunks(self):
        # 50,001 samples of the reference pair, cut at the stream's chunks
        psi0 = quantum.wave_from_polar([0.3, 0.2, 0.25, 0.25], [0.3, 1.0, -0.4, 0.8])
        trajectory = quantum.evolve_schrodinger(hermitian_h(), psi0, 0.0, 50.0, 1e-3)
        cuts = list(range(numkit.RUN_CHUNK + 1, len(trajectory), numkit.RUN_CHUNK))
        phases = np.concatenate([p.phases for p in split_in_chunks(trajectory, cuts)])
        assert np.abs(phases[-1]).max() > 10.0 * np.pi
        assert phases.tobytes() == quantum.polar_split(trajectory).phases.tobytes()


class TestSchrodingerChunks:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 4, 8]),
           lossy=st.booleans(), n_steps=chunk_steps, backward=st.booleans())
    def test_chunks_concatenate_to_the_run(self, seed, n, lossy, n_steps, backward):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = 0.5 * (a + a.conj().T) - 0.05j * lossy * np.diag(rng.uniform(0.0, 1.0, n))
        psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        t1 = (-1.0 if backward else 1.0) * n_steps * 1e-3
        run = whole_grid_run(quantum.schrodinger_chunks, h, psi0, 0.0, t1, 1e-3)
        assert_stream_is_run(quantum.schrodinger_chunks(h, psi0, 0.0, t1, 1e-3), run)
        assert_stream_is_run([quantum.evolve_schrodinger(h, psi0, 0.0, t1, 1e-3)], run)


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

    @settings(max_examples=100, deadline=None)
    @given(parts=arrays(np.float64, st.tuples(st.integers(1, 12), st.just(4), st.just(2)),
                        elements=st.floats(-1.0, 1.0)))
    def test_subsystem_entropies_agree(self, parts):
        # S_A = S_B for every pure state, one at a time and as a stack
        states = parts[..., 0] + 1j * parts[..., 1]
        states = states[np.linalg.norm(states, axis=1) > 1e-3]
        assume(len(states))
        s_a, s_b = quantum.pure_entropy_pair(states)
        assert np.abs(s_a - s_b).max() <= 1e-9
        s_a, s_b = quantum.pure_entropy_pair(states[0])
        assert abs(s_a - s_b) <= 1e-9


class TestStackedEntropies:
    """An (n, 4) stack of states gives, bit for bit, the per-state entropies."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
    def test_stack_is_the_per_state_pair(self, seed, n):
        rng = np.random.default_rng(seed)
        random = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        u = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        product = (u[:, :, None] * v[:, None, :]).reshape(n, 4)
        bell = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, -1j, 0.0], [0.0, 0.0, 0.0, 2.0]])
        states = np.concatenate((random, product, bell))
        s_a, s_b = quantum.pure_entropy_pair(states)
        loop = np.array([quantum.pure_entropy_pair(psi) for psi in states])
        assert s_a.tobytes() == loop[:, 0].tobytes()
        assert s_b.tobytes() == loop[:, 1].tobytes()

    def test_empty_stack(self):
        s_a, s_b = quantum.pure_entropy_pair(np.empty((0, 4)))
        assert s_a.shape == s_b.shape == (0,) and s_a.dtype == s_b.dtype == float

    def test_scalar_state_gives_floats(self):
        s_a, s_b = quantum.pure_entropy_pair(np.array([1.0, 0.0, 0.0, 1.0]))
        assert type(s_a) is float and type(s_b) is float

    def test_zero_state_in_a_stack_rejected(self):
        with pytest.raises(ValueError):
            quantum.pure_entropy_pair(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
