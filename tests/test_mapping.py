import gc
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiqmap import density, mapping, numkit, quantum
from epiqmap.errors import FloorViolationError

from test_numkit import assert_stream_is_run, chunk_steps, whole_grid_run


def hermitian_h():
    return quantum.build_hamiltonian(1.05, 0.95, 1.05, 0.95, 0.1, 0.1, 0.05, 0.10, 0.15, 0.20)


REFERENCE_PSI0 = quantum.wave_from_polar([0.3, 0.2, 0.25, 0.25], [0.3, 1.0, -0.4, 0.8])


class TestSplitState:
    def test_zero_phase(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        x = mapping.split_state(p, np.zeros(4))
        assert np.array_equal(x[0::2], p)
        assert np.abs(x[1::2]).max() == 0.0

    def test_quarter_turn_puts_weight_on_imaginary_slots(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        x = mapping.split_state(p, np.full(4, np.pi / 2.0))
        assert np.abs(x[0::2]).max() < 1e-30
        assert np.abs(x[1::2] - p).max() < 1e-15

    def test_diagonal_phase_splits_evenly(self):
        x = mapping.split_state(np.full(4, 0.25), np.full(4, np.pi / 4.0))
        assert np.abs(x - 0.125).max() < 1e-15

    def test_pair_sums_recover_probabilities(self):
        rng = np.random.default_rng(61)
        p = rng.uniform(0.0, 1.0, size=4)
        theta = rng.uniform(-np.pi, np.pi, size=4)
        x = mapping.split_state(p, theta)
        assert np.abs(x[0::2] + x[1::2] - p).max() <= 1e-15


class TestPhaseFromSplit:
    def test_diagonal_phase(self):
        x = mapping.split_state(np.full(4, 0.25), np.full(4, np.pi / 4.0))
        _, tan2 = mapping.phase_from_split(x)
        assert np.abs(tan2 - 1.0).max() < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            p = rng.uniform(0.1, 1.0, size=4)
            theta = rng.uniform(0.05, np.pi / 2.0 - 0.05, size=4)
            x = mapping.split_state(p, theta)
            p_rec, tan2 = mapping.phase_from_split(x)
            assert np.abs(p_rec - p).max() <= 1e-12
            assert np.abs(tan2 - np.tan(theta) ** 2).max() <= 1e-12 * max(
                1.0, np.abs(np.tan(theta) ** 2).max()
            )

    def test_zero_phase(self):
        x = mapping.split_state(np.array([0.5, 0.5, 0.5, 0.5]), np.zeros(4))
        _, tan2 = mapping.phase_from_split(x)
        assert np.abs(tan2).max() == 0.0

    def test_floor_marks_infinite_tangent(self):
        x = mapping.split_state(np.full(4, 0.25), np.full(4, np.pi / 2.0))
        _, tan2 = mapping.phase_from_split(x)
        assert np.all(np.isinf(tan2))


class TestRealFormGenerator:
    def test_two_level_block_layout(self):
        e1, e2, t_r, t_i = 1.2, 0.7, 0.3, 0.15
        h = np.array([[e1, t_r + 1j * t_i], [t_r - 1j * t_i, e2]])
        a = mapping.real_form_generator(h)
        expected = np.array(
            [
                [0.0, e1, t_i, t_r],
                [-e1, 0.0, -t_r, t_i],
                [-t_i, t_r, 0.0, e2],
                [-t_r, -t_i, -e2, 0.0],
            ]
        )
        assert np.abs(a - expected).max() < 1e-15

    def test_free_phase_rotation_traces_a_circle(self):
        energy = 1.5
        h = np.array([[energy]], dtype=complex)
        # dimension 1 is not supported; embed as an uncoupled 2-level
        h2 = np.diag([energy, 0.0]).astype(complex)
        psi0 = np.array([np.sqrt(0.7), np.sqrt(0.3)], dtype=complex)
        traj = mapping.evolve_real_form(h2, psi0, 0.0, 4.0, 1e-3)
        radii = np.hypot(traj.states[:, 0], traj.states[:, 1])
        assert np.abs(radii - np.sqrt(0.7)).max() < 1e-10
        angles = np.unwrap(np.arctan2(traj.states[:, 1], traj.states[:, 0]))
        slope = np.polyfit(traj.times, angles, 1)[0]
        assert slope == pytest.approx(-energy, abs=1e-8)

    def test_real_hopping_gives_antisymmetric_flow(self):
        t_r = 0.4
        h = np.array([[0.0, t_r], [t_r, 0.0]], dtype=complex)
        a = mapping.real_form_generator(h)
        assert np.abs(a + a.T).max() < 1e-15
        psi0 = np.array([0.8, 0.6j])
        traj = mapping.evolve_real_form(h, psi0, 0.0, 10.0, 1e-3)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-10

    def test_four_level_embedding_matches_schrodinger(self):
        h = hermitian_h()
        complex_traj = quantum.evolve_schrodinger(h, REFERENCE_PSI0, 0.0, 5.0, 1e-3)
        real_traj = mapping.evolve_real_form(h, REFERENCE_PSI0, 0.0, 5.0, 1e-3)
        rebuilt = real_traj.states[:, 0::2] + 1j * real_traj.states[:, 1::2]
        assert np.abs(rebuilt - complex_traj.states).max() <= 1e-8

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    def test_property_embedding_is_exact(self, seed, n):
        # random complex Hermitian H and unit psi: both runs step the same
        # RK4 increment, in complex and in real arithmetic, so they differ
        # by rounding alone
        rng = np.random.default_rng(seed)
        m = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
        h = 0.5 * (m + m.conj().T)
        psi = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        psi /= np.linalg.norm(psi)
        steps = 100
        complex_traj = quantum.evolve_schrodinger(h, psi, 0.0, 1.0, 1.0 / steps)
        real_traj = mapping.evolve_real_form(h, psi, 0.0, 1.0, 1.0 / steps)
        assert len(real_traj.states) == steps + 1
        rebuilt = real_traj.states[:, 0::2] + 1j * real_traj.states[:, 1::2]
        # per step each run rounds its 2N-term D @ y and the sum y + D y,
        # at most (2N + 1) eps on a component of size <= 1 (||D|| < 1 for
        # h ||H|| <= 0.12); RK4 does not amplify at h ||H|| < 2 sqrt(2),
        # so the two runs' errors add over the steps (about 2 eps in all
        # was seen over 2000 draws)
        tolerance = 2 * (2 * n + 1) * steps * np.finfo(float).eps
        assert np.abs(rebuilt - complex_traj.states).max() <= tolerance

    def test_dimension_law_and_limits(self):
        assert mapping.real_form_generator(np.eye(2, dtype=complex)).shape == (4, 4)
        assert mapping.real_form_generator(np.eye(4, dtype=complex)).shape == (8, 8)
        with pytest.raises(ValueError):
            mapping.real_form_generator(np.eye(9, dtype=complex))

    @pytest.mark.parametrize("h", [1.0, np.ones(3), np.ones((2, 2, 2))], ids=["0d", "1d", "3d"])
    def test_non_matrix_is_a_value_error(self, h):
        with pytest.raises(ValueError, match="square H"):
            mapping.real_form_generator(h)


class TestBuildS8:
    """The 8x8 split generator S of a two-qubit wave state."""

    def test_truly_stationary_state_is_a_fixed_point(self):
        h = hermitian_h()
        values, vectors = np.linalg.eigh(h)
        # shift the spectrum so one eigenstate has eigenvalue zero and is
        # genuinely time independent; rotate its first component positive
        # real, then off the real axis, so no split component vanishes
        shifted = h - values[1] * np.eye(4)
        pivot = vectors[0, 1]
        psi = vectors[:, 1] * (np.conj(pivot) / abs(pivot)) * np.exp(1j * 0.7)
        s8 = mapping.build_split_generator(shifted, psi)
        x = mapping.split_state(np.abs(psi) ** 2, np.angle(psi))
        assert np.abs(s8 @ x).max() <= 1e-8

    def test_finite_difference_oracle_along_trajectory(self):
        h = hermitian_h()
        traj = quantum.evolve_schrodinger(h, REFERENCE_PSI0, 0.0, 0.1, 1e-4)
        states = traj.states
        x = np.empty((len(states), 8))
        x[:, 0::2] = states.real**2
        x[:, 1::2] = states.imag**2
        dt = traj.times[1] - traj.times[0]
        for i in range(1, len(states) - 1, 100):
            dx = (x[i + 1] - x[i - 1]) / (2.0 * dt)
            s8 = mapping.build_split_generator(h, states[i])
            assert np.abs(dx - s8 @ x[i]).max() <= 1e-6

    def test_block_diagonal_when_hoppings_vanish(self):
        h = quantum.build_hamiltonian(1.0, 0.8, 1.2, 0.9, 0.0, 0.0, 0.05, 0.10, 0.15, 0.20)
        psi = quantum.wave_from_polar([0.3, 0.2, 0.25, 0.25], [0.3, 1.0, -0.4, 0.8])
        s8 = mapping.build_split_generator(h, psi)
        for i in range(4):
            for j in range(4):
                block = s8[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                if i != j:
                    assert np.abs(block).max() == 0.0
                else:
                    assert block[0, 0] == 0.0
                    assert block[1, 1] == 0.0
                    assert block[0, 1] * block[1, 0] < 0.0

    def test_dissipative_sites_enter_the_diagonal(self):
        h = quantum.build_hamiltonian(
            1.0 - 0.1j, 1.0 - 0.1j, 1.0 - 0.1j, 1.0 - 0.1j, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        )
        psi = quantum.wave_from_polar([0.3, 0.2, 0.25, 0.25], [0.3, 1.0, -0.4, 0.8])
        s8 = mapping.build_split_generator(h, psi)
        assert np.allclose(np.diag(s8), -0.4)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 4, 8]))
    def test_property_s_x_is_the_real_form_flow(self, seed, n):
        # the identity the certificate rests on, up to 2N = numkit.MAX_DIM:
        # random complex H (lossy, in general) and a state whose split
        # components all clear 0.05^2, far above density.PROBABILITY_FLOOR
        rng = np.random.default_rng(seed)
        h = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
        parts = rng.uniform(0.05, 1.0, (2, n)) * rng.choice([-1.0, 1.0], (2, n))
        psi = parts[0] + 1j * parts[1]
        y = mapping.amplitudes_from_wave(psi)
        a = mapping.real_form_generator(h)
        s_x = mapping.build_split_generator(h, psi) @ (y * y)
        # x = y * y under dy/dt = A y gives dx/dt = 2 y (A y)
        flow = 2.0 * y * (a @ y)
        # each term 2 a_jm (y_j / y_m) y_m^2 of S x is rounded at most 4
        # times and the 2N-term sum adds 2N - 1 more; the flow's A @ y and
        # product add 2N: (4N + 4) eps of the summed term sizes bounds the
        # gap to first order (about 2 eps of it was seen over 3000 draws)
        terms = np.abs(2.0 * a * y[:, None] * y[None, :]).sum(axis=1)
        assert (np.abs(s_x - flow) <= (4 * n + 4) * np.finfo(float).eps * terms).all()

    def test_floor_violation_for_real_state(self):
        h = hermitian_h()
        psi = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)  # all phases zero
        with pytest.raises(FloorViolationError):
            mapping.build_split_generator(h, psi)


class TestAharonovBohm:
    def test_zero_potential_identity(self):
        theta = np.array([0.3, 1.0, -0.4, 0.8])
        out = mapping.apply_aharonov_bohm(theta, mapping.SitePotential())
        assert np.array_equal(out, theta)

    def test_uniform_potential_shifts_all_phases_equally(self):
        theta = np.array([0.3, 1.0, -0.4, 0.8])
        pot = mapping.SitePotential(0.4, 0.4, 0.4, 0.4, dot_diameter=0.5, e_over_hbar=2.0)
        out = mapping.apply_aharonov_bohm(theta, pot)
        assert np.abs(out - theta - 0.8).max() < 1e-15

    def test_site_locality(self):
        theta = np.zeros(4)
        out = mapping.apply_aharonov_bohm(theta, mapping.SitePotential(a_1a=0.7))
        assert np.array_equal(out, [0.7, 0.7, 0.0, 0.0])
        out_b = mapping.apply_aharonov_bohm(theta, mapping.SitePotential(a_2b=0.3))
        assert np.array_equal(out_b, [0.0, 0.3, 0.0, 0.3])

    def test_sum_arithmetic(self):
        pot = mapping.SitePotential(0.1, 0.2, 0.3, 0.4, dot_diameter=2.0, e_over_hbar=1.5)
        out = mapping.apply_aharonov_bohm(np.zeros(4), pot)
        expected = 3.0 * np.array([0.4, 0.5, 0.5, 0.6])
        assert np.abs(out - expected).max() < 1e-14

    def test_global_shift_leaves_probabilities_invariant(self):
        h = hermitian_h()
        p0 = np.array([0.3, 0.2, 0.25, 0.25])
        theta = np.array([0.3, 1.0, -0.4, 0.8])
        shifted = mapping.apply_aharonov_bohm(theta, mapping.SitePotential(0.4, 0.4, 0.4, 0.4))
        base = quantum.evolve_schrodinger(h, quantum.wave_from_polar(p0, theta), 0.0, 3.0, 1e-3)
        moved = quantum.evolve_schrodinger(h, quantum.wave_from_polar(p0, shifted), 0.0, 3.0, 1e-3)
        assert np.abs(np.abs(base.states) ** 2 - np.abs(moved.states) ** 2).max() <= 1e-8


class TestVerifyEquivalence:
    def test_hermitian_reference_certificate(self):
        report = mapping.verify_equivalence(hermitian_h(), REFERENCE_PSI0, 0.0, 2.0, 1e-3)
        assert report.hermitian
        assert report.max_residual <= 1e-6
        assert report.split_consistency_gap <= 1e-10
        assert report.norm_drift <= 1e-9
        assert report.checked_samples > 0

    def test_dissipative_monotone_decay(self):
        h = quantum.build_hamiltonian(
            1.05 - 0.1j, 0.95 - 0.1j, 1.05 - 0.1j, 0.95 - 0.1j, 0.1, 0.1, 0.05, 0.10, 0.15, 0.20,
            ts_a_21=0.1, ts_b_21=0.1,
        )
        report = mapping.verify_equivalence(h, REFERENCE_PSI0, 0.0, 5.0, 1e-3)
        assert not report.hermitian
        assert report.monotonicity_defect == 0.0
        assert report.total_probability[-1] < 0.95 * report.total_probability[0]
        assert report.max_residual <= 1e-6

    def test_oversized_h_is_refused_before_evolving(self):
        # 2N = 18 > numkit.MAX_DIM: 200,001 samples of nine amplitudes
        # would be evolved and split before the real form refused them
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="square H with 2N <= 16"):
                mapping.verify_equivalence(np.eye(9), np.ones(9) / 3, 0.0, 200.0, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_zero_hamiltonian(self):
        report = mapping.verify_equivalence(np.zeros((4, 4), dtype=complex),
                                            REFERENCE_PSI0, 0.0, 1.0, 1e-2)
        assert report.max_residual <= 1e-12
        assert report.norm_drift <= 1e-12

    def test_batched_certificate_matches_per_sample_reference(self, monkeypatch):
        # the 2-level phases cross multiples of pi/2, so a high floor
        # leaves S undefined on runs of samples around each crossing
        h = np.array([[1.0, 0.05], [0.05, -0.7]], dtype=complex)
        psi0 = quantum.wave_from_polar([0.6, 0.4], [0.2, -1.1])
        floor = 1e-3
        monkeypatch.setattr(density, "PROBABILITY_FLOOR", floor)
        report = mapping.verify_equivalence(h, psi0, 0.0, 3.0, 1e-3)
        traj = quantum.evolve_schrodinger(h, psi0, 0.0, 3.0, 1e-3)
        times, states = traj.times, traj.states
        y = mapping.amplitudes_from_wave(states)
        x = y * y
        a = mapping.real_form_generator(h)
        step = times[1] - times[0]
        residuals, bounds, undefined = [], [], []
        for i in range(2, len(states) - 2):
            dx = (-x[i + 2] + 8.0 * x[i + 1] - 8.0 * x[i - 1] + x[i - 2]) / (12.0 * step)
            flow = 2.0 * y[i] * (a @ y[i])
            # the bound of TestBuildS8.test_property_s_x_is_the_real_form_flow
            terms = np.abs(2.0 * a * y[i][:, None] * y[i][None, :]).sum(axis=1)
            bound = (4 * 2 + 4) * np.finfo(float).eps * terms
            residuals.append(np.abs(dx - flow).max())
            bounds.append(bound.max())
            if x[i].min() < floor:
                undefined.append(times[i])
            else:
                # where S is defined its flow is the same product
                s_x = mapping.build_split_generator(h, states[i]) @ x[i]
                assert (np.abs(s_x - flow) <= bound).all()
        # several chunks, with undefined-S samples inside them, every one checked
        assert len(undefined) > 100
        assert report.checked_samples == len(residuals) == len(times) - 4 > 2 * numkit.RUN_CHUNK
        assert np.array_equal(report.residual_times, times[2:-2])
        assert np.array_equal(report.excluded_times, undefined)
        assert np.isin(report.excluded_times, report.residual_times).all()
        # the run's stacked product and this one per row are the same sum,
        # which BLAS may take in another order for a stack than for a row
        assert (np.abs(report.residuals - residuals) <= bounds).all()
        assert report.max_residual <= 1e-6

    def test_stacked_split_helpers(self):
        y = np.random.default_rng(3).uniform(0.1, 1.0, size=(5, 8))
        h = hermitian_h()
        psi = y[:, 0::2] + 1j * y[:, 1::2]
        stacked = mapping.build_split_generator(h, psi)
        p, tan2 = mapping.phase_from_split(y * y)
        for k in range(5):
            one = mapping.build_split_generator(h, psi[k])
            assert np.array_equal(stacked[k], one)
            assert np.array_equal(p[k], mapping.phase_from_split(y[k] * y[k])[0])
            assert np.array_equal(tan2[k], mapping.phase_from_split(y[k] * y[k])[1])
        assert np.array_equal(mapping.amplitudes_from_wave(psi), y)
        with pytest.raises(FloorViolationError) as info:
            psi[3, 3] = 1j * y[3, 7]
            mapping.build_split_generator(h, psi)
        assert info.value.component == 6

    def test_amplitude_wave_roundtrip(self):
        # the interleaved real amplitudes (sqrt(p) cos, sqrt(p) sin, ...)
        p, theta = np.array([0.4, 0.3, 0.2, 0.1]), np.array([0.1, 0.7, -0.2, 2.5])
        y = mapping.amplitudes_from_wave(quantum.wave_from_polar(p, theta))
        expected = np.ravel(np.column_stack((np.cos(theta), np.sin(theta))) * np.sqrt(p)[:, None])
        assert np.abs(y - expected).max() < 1e-15
        psi = mapping.wave_from_amplitudes(y)
        assert np.abs(mapping.amplitudes_from_wave(psi) - y).max() < 1e-15

    def test_amplitude_wave_roundtrip_of_a_stack(self):
        rng = np.random.default_rng(17)
        psi = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        y = mapping.amplitudes_from_wave(psi)
        assert np.array_equal(mapping.wave_from_amplitudes(y), psi)
        for k in range(5):
            assert np.array_equal(mapping.wave_from_amplitudes(y[k]), psi[k])


def report_digest(report):
    """SHA-256 of a MappingReport's arrays and the reprs of its scalars."""
    digest = hashlib.sha256()
    for name in ("times", "total_probability", "excluded_times", "residual_times", "residuals"):
        digest.update(getattr(report, name).tobytes())
    digest.update(repr([report.max_residual, report.checked_samples,
                        report.split_consistency_gap, report.hermitian,
                        report.norm_drift, report.monotonicity_defect]).encode())
    return digest.hexdigest()


class TestStreamedCertificate:
    """verify_equivalence reduces the run chunk by chunk, to a pinned report."""

    # 5001 samples (five chunks); the lossy pair is the dissipation
    # criterion's; the 2-level run under a floor of 1e-3 leaves S undefined
    # at 245 checked samples around its phase crossings, some at chunk
    # boundaries.  The digests are those of the division-free residual; on
    # every sample that the S x form checked, each residual is within
    # 6.7e-16 of that form's.
    @pytest.mark.parametrize("h, psi0, t1, floor, digest", [
        (hermitian_h(), REFERENCE_PSI0, 5.0, None,
         "95436d5199a8b18b56da4ab62b3d69b1314263f6b60afc7cc10e96aae4f8abd2"),
        (quantum.build_hamiltonian(1.05 - 0.1j, 0.95 - 0.1j, 1.05 - 0.1j, 0.95 - 0.1j, 0.1, 0.1,
                                   0.05, 0.10, 0.15, 0.20, ts_a_21=0.1, ts_b_21=0.1),
         REFERENCE_PSI0, 5.0, None,
         "63e4a5d5aa64bd1715aab0fa05e20fcf0003928ea7ca4706774404a055532b52"),
        (np.array([[1.0, 0.05], [0.05, -0.7]], dtype=complex),
         quantum.wave_from_polar([0.6, 0.4], [0.2, -1.1]), 3.0, 1e-3,
         "aced32af0b292c4fa653c981b7ae9fea1e0e2c7915fa581e2c5897cca2794438"),
    ], ids=["hermitian", "lossy", "excluded_samples"])
    def test_report_is_pinned(self, monkeypatch, h, psi0, t1, floor, digest):
        if floor is not None:
            monkeypatch.setattr(density, "PROBABILITY_FLOOR", floor)
        report = mapping.verify_equivalence(h, psi0, 0.0, t1, 1e-3)
        assert len(report.times) > 2 * numkit.RUN_CHUNK
        assert report_digest(report) == digest

    def test_memory_is_one_chunk_beside_the_report(self):
        # the traced peak less what the returned report holds is the
        # chunk's working set, the same at 20,001 and at 200,001 samples
        # (the whole-array form peaked at 312 bytes per sample)
        excess = []
        for t1 in (20.0, 200.0):
            gc.collect()
            tracemalloc.start()
            try:
                report = mapping.verify_equivalence(hermitian_h(), REFERENCE_PSI0, 0.0, t1, 1e-3)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            excess.append(peak - held)
        image_chunk = (numkit.RUN_CHUNK + 1) * 8 * 8  # one chunk of the 2N = 8 image
        assert abs(excess[1] - excess[0]) <= image_chunk
        assert excess[0] <= 16 * image_chunk
        assert len(report.times) == 200_001 and peak <= 48 * len(report.times)

    def test_runs_short_of_a_stencil(self):
        # five samples check one; a run of one sample has no step to rise
        for steps in range(6):
            report = mapping.verify_equivalence(hermitian_h(), REFERENCE_PSI0, 0.0,
                                                steps * 1e-3, 1e-3)
            assert len(report.times) == len(report.total_probability) == steps + 1
            assert report.checked_samples == len(report.residual_times) == max(0, steps - 3)
            assert np.array_equal(report.residual_times, report.times[2:steps - 1])
            if steps == 0:
                assert report.monotonicity_defect == report.norm_drift == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 4, 8]),
           n_steps=chunk_steps, backward=st.booleans())
    def test_real_form_chunks_concatenate_to_the_run(self, seed, n, n_steps, backward):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        t1 = (-1.0 if backward else 1.0) * n_steps * 1e-3
        run = whole_grid_run(mapping.real_form_chunks, h, psi0, 0.0, t1, 1e-3)
        assert_stream_is_run(mapping.real_form_chunks(h, psi0, 0.0, t1, 1e-3), run)
        assert_stream_is_run([mapping.evolve_real_form(h, psi0, 0.0, t1, 1e-3)], run)
