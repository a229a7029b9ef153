import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epiqmap import acceptance, coupled, epidemic, numkit
from epiqmap.errors import ComplexSpectrumError, FloorViolationError


def gen2(s11, s12, s21, s22):
    return epidemic.Generator2(s11, s12, s21, s22)


class TestTrafficGenerator:
    def test_decoupled_block_structure(self):
        sa = gen2(0.1, 0.2, 0.3, 0.4)
        sb = gen2(-0.1, 0.5, 0.6, -0.2)
        m = coupled.build_traffic_generator(sa, sb, (0.0, 0.0, 0.0, 0.0)).matrix(0.0)
        assert np.array_equal(m[:2, :2], sa.matrix(0.0))
        assert np.array_equal(m[2:, 2:], sb.matrix(0.0))
        assert np.abs(m[:2, 2:]).max() == 0.0
        assert np.abs(m[2:, :2]).max() == 0.0

    def test_symmetric_form_layout(self):
        base = gen2(0.1, 0.2, 0.3, 0.4)
        m = coupled.symmetric_traffic_generator(base, 0.7).matrix(0.0)
        expected = np.array(
            [
                [0.1, 0.2, 0.0, 0.7],
                [0.3, 0.4, 0.7, 0.0],
                [0.0, 0.7, 0.1, 0.2],
                [0.7, 0.0, 0.3, 0.4],
            ]
        )
        assert np.array_equal(m, expected)

    def test_constant_inputs_give_constant_generator(self):
        g4 = coupled.build_traffic_generator(
            gen2(0.1, 0.2, 0.3, 0.4), gen2(0.5, 0.6, 0.7, 0.8), (0.1, 0.2, 0.3, 0.4)
        )
        assert np.array_equal(g4.matrix(0.0), g4.matrix(5.0))

    def test_independent_cross_rates(self):
        g4 = coupled.build_traffic_generator(
            gen2(0, 0, 0, 0), gen2(0, 0, 0, 0), (0.1, 0.2, 0.3, 0.4)
        )
        m = g4.matrix(0.0)
        assert (m[0, 3], m[1, 2], m[2, 1], m[3, 0]) == (0.1, 0.2, 0.3, 0.4)


def modes_of(gen, coupling, t):
    """matrix_modes of symmetric_traffic_generator(gen, coupling) at time t, a stack of one."""
    m = coupled.symmetric_traffic_generator(gen, coupling).matrix(np.array([t]))
    values, vectors, fallback = coupled.matrix_modes(m)
    return values[0], vectors[0], bool(fallback[0])


class TestCoupledEigenvectors:
    """matrix_modes on stacks of one symmetric traffic matrix."""

    def test_residuals(self):
        base = gen2(0.2, 0.3, 0.3, 0.2)
        m = coupled.symmetric_traffic_generator(base, 0.1).matrix(0.0)
        values, vectors, fallback = modes_of(base, 0.1, 0.0)
        for value, vector in zip(values, vectors):
            resid = np.abs(m @ vector - value * vector).max()
            assert resid <= 1e-10
        assert not fallback

    def test_residuals_of_table_rates_at_a_later_time(self):
        base = gen2(0.2, [[0.0, 0.1], [1.0, 0.5]], 0.3, 0.2)
        coupling = [[0.0, 0.05], [1.0, 0.25]]
        m = coupled.symmetric_traffic_generator(base, coupling).matrix(0.5)
        values, vectors, fallback = modes_of(base, coupling, 0.5)
        for value, vector in zip(values, vectors):
            resid = np.abs(m @ vector - value * vector).max()
            assert resid <= 1e-10
        assert not fallback
        # s12 = 0.3 and s = 0.15 at t = 0.5, so the modes differ from t = 0
        _, at_zero, _ = modes_of(base, coupling, 0.0)
        assert not np.array_equal(vectors[0], at_zero[0])

    def test_component_sign_structure(self):
        _, (v1, v2, v3, v4), _ = modes_of(gen2(0.4, 0.25, 0.15, -0.1), 0.05, 0.0)
        for v in (v1, v2):
            assert v[0] == pytest.approx(-v[2], abs=1e-12)
            assert (v[1], v[3]) == (-1.0, 1.0)
        for v in (v3, v4):
            assert v[0] == pytest.approx(v[2], abs=1e-12)
            assert (v[1], v[3]) == (1.0, 1.0)

    def test_sign_indefinite_tags(self):
        # modes 0 and 1 are (u, -u), the sign-indefinite family; 2 and 3 are (u, u)
        _, vectors, _ = modes_of(gen2(0.2, 0.3, 0.3, 0.2), 0.1, 0.0)
        indefinite = (vectors[:, 2:] == -vectors[:, :2]).all(axis=1)
        assert indefinite.tolist() == [True, True, False, False]

    def test_zero_coupling_reduces_to_two_level_frame(self):
        base = gen2(1.0, 0.3, 0.4, 0.2)
        values, vectors, _ = modes_of(base, 0.0, 0.0)
        frame = epidemic.spectral_frame(base, 0.0)
        # stacked copies of the unnormalized 2-level eigenvectors: the
        # component ratio of (v3, v4) matches (v1, v2) of the frame
        ratio_low = frame.v1[0] / frame.v1[1]
        ratio_high = frame.v2[0] / frame.v2[1]
        assert vectors[2, 0] == pytest.approx(ratio_low, abs=1e-12)
        assert vectors[3, 0] == pytest.approx(ratio_high, abs=1e-12)
        assert values[2] == pytest.approx(frame.e1, abs=1e-12)
        assert values[3] == pytest.approx(frame.e2, abs=1e-12)

    def test_denominator_underflow_falls_back(self):
        # coupling equal to s21 makes the minus-family denominator vanish
        base = gen2(0.2, 0.3, 0.1, -0.2)
        values, vectors, fallback = modes_of(base, 0.1, 0.0)
        assert fallback
        m = coupled.symmetric_traffic_generator(base, 0.1).matrix(0.0)
        for value, vector in zip(values, vectors):
            assert np.abs(m @ vector - value * vector).max() <= 1e-9


def block_parts(m, c):
    """The block A + c sJ of one symmetric traffic matrix and its discriminant."""
    (s11, s12, _, s), (s21, s22, _, _) = m[:2]
    delta = s11 - s22
    return m[:2, :2] + c * m[:2, 2:], 4.0 * (s + c * s12) * (s + c * s21) + delta * delta


def one_sample_modes(m):
    """Reference: the modes of one symmetric traffic matrix, block by block.

    Returns (value, vector, sign_indefinite, numeric_fallback) per mode:
    modes 0 and 1 are (u, -u) for the modes u of the block A - sJ, modes
    2 and 3 are (u, u) for those of A + sJ, each block solved alone by
    numkit.eig.  Each u is scaled so that its second component is c, or,
    where that component is below 1e-10 of u's norm, to unit norm with
    its first nonnegligible component positive, which flags the sample.
    """
    modes, fallback = [], False
    for c in (-1.0, 1.0):
        values, vectors = numkit.eig((m[:2, :2] + c * m[:2, 2:])[None])
        for value, u in zip(values[0], vectors[0]):
            size = np.hypot(*u)
            if abs(u[1]) < 1e-10 * size:
                u = u / np.copysign(size, u[0] if abs(u[0]) > 1e-12 * size else u[1])
                fallback = True
            else:
                u = u / (c * u[1])
            modes.append((value, np.concatenate((u, c * u))))
    return [(value, v, k < 2, fallback) for k, (value, v) in enumerate(modes)]


def assert_eigenpair(m, value, vector):
    """m vector = value vector within 1e-14 of max |m| times max |vector|."""
    residual = np.abs(m @ vector - value * vector).max()
    assert residual <= 1e-14 * np.abs(m).max() * np.abs(vector).max()


def traffic_matrix(s11, s12, s21, s22, s):
    return coupled.symmetric_traffic_generator(gen2(s11, s12, s21, s22), s).matrix(0.0)


unit_rate = st.floats(-1.0, 1.0)
# "minus" and "plus" set the cross rate to s21 or -s21, which makes a block
# triangular, so one of its vectors has second component 0 and is scaled to unit norm
traffic_draw = st.tuples(unit_rate, unit_rate, unit_rate, unit_rate, unit_rate,
                         st.sampled_from(["free", "minus", "plus"]))
# rates over many decades, where the closed form and the 2x2 blocks meet
edge_rate = st.sampled_from([0.0, 1e-300, 1e-20, 1e-15, 1e-12, 1e-8, 1e-4,
                             0.3, -0.3, 0.5, -0.5, 1.0, -1.0])
edge_draw = st.tuples(edge_rate, edge_rate, edge_rate, edge_rate, edge_rate,
                      st.sampled_from(["free", "minus", "plus"]))


def outcome(m):
    """one_sample_modes(m), or the error it raises."""
    try:
        return one_sample_modes(m)
    except ComplexSpectrumError as error:
        return error


class TestMatrixModes:
    """Sample k of coupled.matrix_modes is its block-by-block reference and its stack of one."""

    @settings(max_examples=150, deadline=None)
    @given(draws=st.lists(traffic_draw, min_size=1, max_size=8))
    def test_each_sample_is_its_own_closed_form(self, draws):
        m = np.array([
            traffic_matrix(s11, s12, s21, s22, {"free": s, "minus": s21, "plus": -s21}[tie])
            for s11, s12, s21, s22, s, tie in draws
        ])
        outcomes = [outcome(sample) for sample in m]
        complex_ = [o for o in outcomes if isinstance(o, ComplexSpectrumError)]
        if complex_:
            with pytest.raises(ComplexSpectrumError) as stacked:
                coupled.matrix_modes(m)
            assert str(stacked.value) == str(complex_[0])
            return
        assume(not any(isinstance(o, Exception) for o in outcomes))
        values, vectors, fallback = coupled.matrix_modes(m)
        for k, reference in enumerate(outcomes):
            assert fallback[k] == reference[0][3]
            for j, (value, vector, _, _) in enumerate(reference):
                assert values[k, j].tobytes() == np.float64(value).tobytes()
                assert vectors[k, j].tobytes() == vector.tobytes()

    def test_mixed_stack_with_fallback_samples(self):
        rows = [(0.2, 0.3, 0.3, 0.2, 0.1), (0.2, 0.3, 0.1, -0.2, 0.1),
                (0.4, 0.25, 0.15, -0.1, 0.05), (0.2, 0.3, 0.1, -0.2, -0.1)]
        m = np.array([traffic_matrix(*row) for row in rows])
        values, vectors, fallback = coupled.matrix_modes(m)
        assert fallback.tolist() == [False, True, False, True]
        for k in range(len(rows)):
            alone = coupled.matrix_modes(m[k:k + 1])
            assert values[k].tobytes() == alone[0][0].tobytes()
            assert vectors[k].tobytes() == alone[1][0].tobytes()

    def test_one_complex_sample_raises_as_the_scalar_call(self):
        rows = [(0.2, 0.3, 0.3, 0.2, 0.1), (0.0, -0.5, 0.5, 0.0, 0.0), (0.2, 0.3, 0.1, -0.2, 0.1)]
        m = np.array([traffic_matrix(*row) for row in rows])
        # the complex sample's stack of one
        with pytest.raises(ComplexSpectrumError) as scalar:
            coupled.matrix_modes(m[1:2])
        with pytest.raises(ComplexSpectrumError) as stacked:
            coupled.matrix_modes(m)
        assert str(stacked.value) == str(scalar.value)
        assert stacked.value.discriminant == scalar.value.discriminant

    def test_degenerate_fallback_is_pinned(self):
        # a repeated real eigenvalue for which the 4x4 eig returns a complex
        # basis (imaginary parts up to 0.68); each 2x2 block is real and simple
        s21 = 2.0407592042579845e-16
        m = traffic_matrix(-0.36833548523914494, 0.33816553112534264, s21, 0.8078271912713035, s21)
        assert np.abs(np.linalg.eig(m)[1].imag).max() > 0.6
        values, vectors, fallback = coupled.matrix_modes(m[None])
        assert fallback.tolist() == [True]
        assert values.dtype == vectors.dtype == float and np.isfinite(vectors).all()
        residual = np.abs(m @ vectors[0].T - vectors[0].T * values[0]).max()
        assert residual <= 1e-10 * np.linalg.norm(m, np.inf)
        digest = hashlib.sha256(values.tobytes() + vectors.tobytes()).hexdigest()
        assert digest == "b6058c2647bfafd80abc147020b09acc51de32b1eed4d665054656dedddb63b9"

    def test_degenerate_fallback_spans_four_dimensions(self):
        s21 = 2.0407592042579845e-16
        m = traffic_matrix(-0.36833548523914494, 0.33816553112534264, s21, 0.8078271912713035, s21)
        _, vectors, _ = coupled.matrix_modes(m[None])
        assert np.linalg.matrix_rank(vectors[0]) == 4

    def test_fallback_with_entries_near_1e_15_is_solved(self):
        m = traffic_matrix(1e-15, -0.5, 1e-15, 0.5, -1e-15)
        values, vectors, fallback = coupled.matrix_modes(m[None])
        assert fallback.tolist() == [True] and np.isfinite(values).all()
        assert np.linalg.matrix_rank(vectors[0]) == 4

    @settings(max_examples=300, deadline=None)
    @given(draws=st.lists(edge_draw, min_size=1, max_size=8))
    def test_modes_are_the_modes_of_the_two_blocks(self, draws):
        # only draws with two real block spectra
        m = np.array([
            traffic_matrix(s11, s12, s21, s22, {"free": s, "minus": s21, "plus": -s21}[tie])
            for s11, s12, s21, s22, s, tie in draws
        ])
        m = m[[not isinstance(outcome(sample), ComplexSpectrumError) for sample in m]]
        assume(len(m))
        values, vectors, _ = coupled.matrix_modes(m)
        assert vectors[:, :2, 2:].tobytes() == (-vectors[:, :2, :2]).tobytes()
        assert vectors[:, 2:, 2:].tobytes() == vectors[:, 2:, :2].tobytes()
        for sample, sample_values, sample_vectors in zip(m, values, vectors):
            for value, vector in zip(sample_values, sample_vectors):
                assert_eigenpair(sample, value, vector)
            spanned = True
            for c in (-1.0, 1.0):
                block, disc = block_parts(sample, c)
                scalar = block[0, 1] == block[1, 0] == 0 and block[0, 0] == block[1, 1]
                spanned &= bool(scalar or abs(disc) >= 1e-20)
            if spanned:
                # at unit norm: a printed u of size 5e7 beside one of size 1
                # spans its block, but not to matrix_rank's tolerance at that scale
                unit = sample_vectors / np.linalg.norm(sample_vectors, axis=1, keepdims=True)
                assert np.linalg.matrix_rank(unit) == 4

    def test_empty_stack(self):
        values, vectors, fallback = coupled.matrix_modes(np.zeros((0, 4, 4)))
        assert values.shape == (0, 4) and vectors.shape == (0, 4, 4) and fallback.shape == (0,)

    def test_acceptance_stack_is_the_generator_matrix(self):
        # sample k of the check's stack is the symmetric traffic matrix of
        # its draw (s11, s12, s21, s22, s), read back from its first rows
        m = acceptance._random_coupled_matrices(np.random.default_rng(7), 200)
        for sample in m:
            (s11, s12, _, s), (s21, s22, _, _) = sample[:2]
            assert traffic_matrix(s11, s12, s21, s22, s).tobytes() == sample.tobytes()


class TestMeasurement:
    P = np.array([0.32, 0.68, 0.55, 0.45])

    def test_after_states(self):
        assert np.array_equal(coupled.measure_subsystem(self.P, "1A"), [1.0, 0.0, 0.55, 0.45])
        assert np.array_equal(coupled.measure_subsystem(self.P, "2A"), [0.0, 1.0, 0.55, 0.45])
        assert np.array_equal(coupled.measure_subsystem(self.P, "1B"), [0.32, 0.68, 1.0, 0.0])
        assert np.array_equal(coupled.measure_subsystem(self.P, "2B"), [0.32, 0.68, 0.0, 1.0])

    def test_idempotent(self):
        once = coupled.measure_subsystem(self.P, "1A")
        assert np.array_equal(coupled.measure_subsystem(once, "1A"), once)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            coupled.measure_subsystem(self.P, "3A")

    def test_projectors_idempotent_but_not_complementary(self):
        for target in coupled.TRAFFIC_TARGETS:
            p = coupled.projector(target)
            assert np.array_equal(p @ p, p)
        total = coupled.projector("1A") + coupled.projector("2A")
        assert not np.array_equal(total, np.eye(4))

    def test_back_action_on_other_subsystem(self):
        g4 = coupled.build_traffic_generator(
            gen2(0.0, 0.4, 0.3, -0.1), gen2(-0.2, 0.3, 0.5, 0.0), (0.3, 0.25, 0.35, 0.2)
        )
        p0 = np.array([0.6, 0.4, 0.5, 0.5])
        at_1 = numkit.ode_evolve(g4.matrix, p0, 0.0, 1.0, 1e-3).final
        measured = coupled.measure_subsystem(at_1, "1A")
        free_end = numkit.ode_evolve(g4.matrix, at_1, 1.0, 2.0, 1e-3).final
        measured_end = numkit.ode_evolve(g4.matrix, measured, 1.0, 2.0, 1e-3).final
        assert np.abs(measured_end[2:] - free_end[2:]).max() > 1e-6


# one generator of each form, for the basis it works in
FORMS = {
    "traffic": coupled.build_traffic_generator(
        gen2(0.0, 0.4, 0.3, -0.1), gen2(-0.2, 0.3, 0.5, 0.0), (0.3, 0.25, 0.35, 0.2)
    ),
    "symmetric": coupled.symmetric_traffic_generator(gen2(-0.3, 0.2, 0.1, -0.2), 0.1),
    "kron_sum": coupled.kron_sum_generator(gen2(-0.2, 0.1, 0.2, -0.1), gen2(-0.25, 0.15, 0.25, -0.15)),
    "interaction": coupled.interaction_generator(
        (-0.1, -0.2, -0.3, -0.4), {("1A1B", "1A2B"): 0.1}, np.eye(2), np.eye(2)
    ),
}

occupancy = st.floats(1e-3, 1.0)


def simplex_pair(a, b):
    return np.array([a, b]) / (a + b)


class TestProductBasisMeasurement:
    P = np.array([0.1, 0.2, 0.3, 0.4])

    def test_outcomes_condition_the_joint_distribution(self):
        expected = {
            "1A": np.array([0.1, 0.2, 0.0, 0.0]) / 0.3,
            "2A": np.array([0.0, 0.0, 0.3, 0.4]) / 0.7,
            "1B": np.array([0.1, 0.0, 0.3, 0.0]) / 0.4,
            "2B": np.array([0.0, 0.2, 0.0, 0.4]) / 0.6,
        }
        for target, after in expected.items():
            measured = coupled.measure_subsystem(self.P, target, "product")
            assert np.abs(measured - after).max() <= 1e-15
            assert measured.sum() == pytest.approx(self.P.sum(), abs=1e-15)

    def test_total_is_kept(self):
        measured = coupled.measure_subsystem(2.0 * self.P, "1B", "product")
        assert measured.sum() == pytest.approx(2.0, abs=1e-15)

    def test_zero_probability_outcome_raises(self):
        with pytest.raises(FloorViolationError):
            coupled.measure_subsystem(np.array([0.0, 0.0, 0.5, 0.5]), "1A", "product")

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            coupled.measure_subsystem(self.P, "1A", "joint")
        with pytest.raises(ValueError):
            coupled.subsystem_marginals(self.P, "joint")

    @settings(max_examples=100, deadline=None)
    @given(a=st.tuples(occupancy, occupancy), b=st.tuples(occupancy, occupancy),
           target=st.sampled_from(coupled.TRAFFIC_TARGETS))
    def test_product_measurement_is_the_traffic_collapse(self, a, b, target):
        p_a, p_b = simplex_pair(*a), simplex_pair(*b)
        traffic = coupled.measure_subsystem(np.concatenate((p_a, p_b)), target)
        product = coupled.measure_subsystem(
            coupled.product_from_marginals(p_a, p_b), target, "product"
        )
        assert np.abs(coupled.product_from_marginals(traffic[:2], traffic[2:]) - product).max() <= 4e-15

    @settings(max_examples=100, deadline=None)
    @given(form=st.sampled_from(sorted(FORMS)), target=st.sampled_from(coupled.TRAFFIC_TARGETS),
           a=st.tuples(occupancy, occupancy), b=st.tuples(occupancy, occupancy))
    def test_unmeasured_marginal_is_unchanged(self, form, target, a, b):
        basis = FORMS[form].basis
        p_a, p_b = simplex_pair(*a), simplex_pair(*b)
        if basis == "product":
            state = coupled.product_from_marginals(p_a, p_b)
        else:
            state = np.concatenate((p_a, p_b))
        other = 1 if target.endswith("A") else 0
        before = coupled.subsystem_marginals(state, basis)[other]
        after = coupled.subsystem_marginals(coupled.measure_subsystem(state, target, basis), basis)
        assert np.abs(after[other] - before).max() <= 4e-15
        # the measured subsystem is left in the outcome's state
        assert after[1 - other][int(target[0]) - 1] == pytest.approx(1.0, abs=4e-15)


class TestKronSum:
    def test_zero(self):
        g4 = coupled.kron_sum_generator(gen2(0, 0, 0, 0), gen2(0, 0, 0, 0))
        assert np.abs(g4.matrix(0.0)).max() == 0.0

    def test_diagonal_inputs(self):
        g4 = coupled.kron_sum_generator(gen2(1.0, 0, 0, 2.0), gen2(3.0, 0, 0, 4.0))
        assert np.array_equal(g4.matrix(0.0), np.diag([4.0, 5.0, 5.0, 6.0]))

    def test_generic_layout(self):
        sa = gen2(0.1, 0.2, 0.3, 0.4)
        sb = gen2(0.5, 0.6, 0.7, 0.8)
        m = coupled.kron_sum_generator(sa, sb).matrix(0.0)
        expected = np.array(
            [
                [0.1 + 0.5, 0.6, 0.2, 0.0],
                [0.7, 0.1 + 0.8, 0.0, 0.2],
                [0.3, 0.0, 0.4 + 0.5, 0.6],
                [0.0, 0.3, 0.7, 0.4 + 0.8],
            ]
        )
        assert np.abs(m - expected).max() < 1e-15
        kron_oracle = np.kron(sa.matrix(0.0), np.eye(2)) + np.kron(np.eye(2), sb.matrix(0.0))
        assert np.abs(m - kron_oracle).max() < 1e-15

    def test_spectrum_is_pairwise_sums(self):
        sa = gen2(0.3, 0.1, 0.4, -0.2)
        sb = gen2(-0.1, 0.6, 0.2, 0.5)
        va = np.sort(np.linalg.eigvals(sa.matrix(0.0)))
        vb = np.sort(np.linalg.eigvals(sb.matrix(0.0)))
        sums = np.sort(np.add.outer(va, vb).ravel())
        v4 = np.linalg.eigvals(coupled.kron_sum_generator(sa, sb).matrix(0.0))
        assert np.abs(np.sort(v4) - sums).max() <= 1e-10


class TestFactorization:
    def test_product_state(self):
        p = coupled.product_from_marginals([0.2, 0.8], [0.5, 0.5])
        assert coupled.factorization_defect(p) == 0.0

    def test_maximally_non_factoring(self):
        assert coupled.factorization_defect(np.array([0.5, 0.0, 0.0, 0.5])) == 0.25

    def test_kron_sum_flow_preserves_products(self):
        sa = gen2(0.0, 0.4, 0.6, -0.2)
        sb = gen2(0.1, 0.3, 0.2, -0.4)
        g4 = coupled.kron_sum_generator(sa, sb)
        p_a0 = np.array([0.3, 0.7])
        p_b0 = np.array([0.6, 0.4])
        p0 = coupled.product_from_marginals(p_a0, p_b0)
        traj = numkit.ode_evolve(g4.matrix, p0, 0.0, 5.0, 1e-2)
        for p in traj.states[::25]:
            assert coupled.factorization_defect(p) <= 1e-10
        # joint flow equals the outer product of the two independent flows
        p_a = epidemic.propagate_closed_form(sa, p_a0, 0.0, 5.0)
        p_b = epidemic.propagate_closed_form(sb, p_b0, 0.0, 5.0)
        assert np.abs(traj.final - coupled.product_from_marginals(p_a, p_b)).max() <= 1e-8

    def test_marginal_roundtrip(self):
        p = coupled.product_from_marginals([0.3, 0.7], [0.25, 0.75])
        p_a, p_b = coupled.marginals_from_product(p)
        assert np.abs(p_a - [0.3, 0.7]).max() < 1e-15
        assert np.abs(p_b - [0.25, 0.75]).max() < 1e-15


class TestInteractionGenerator:
    def test_diagonal_when_uncoupled(self):
        g4 = coupled.interaction_generator(
            [0.1, 0.2, 0.3, 0.4], {}, np.eye(2), np.eye(2)
        )
        assert np.array_equal(g4.matrix(0.0), np.diag([0.1, 0.2, 0.3, 0.4]))

    def test_single_coupling_single_entry(self):
        g4 = coupled.interaction_generator(
            [0.0, 0.0, 0.0, 0.0],
            {("1A1B", "2A2B"): 0.5},
            np.eye(2), np.eye(2),
        )
        m = g4.matrix(0.0)
        off = m - np.diag(np.diag(m))
        assert off[3, 0] == 0.5
        assert np.abs(off).sum() == 0.5

    def test_eigenbasis_layout(self):
        labels = coupled.PRODUCT_STATES
        couplings = {}
        value = 0.01
        for src, dst in coupled.ALLOWED_TRANSITIONS:
            couplings[(src, dst)] = value
            value += 0.01
        g4 = coupled.interaction_generator(
            [1.0, 2.0, 3.0, 4.0], couplings, np.eye(2), np.eye(2)
        )
        m = g4.matrix(0.0)
        index = {name: k for k, name in enumerate(labels)}
        expected = np.diag([1.0, 2.0, 3.0, 4.0])
        value = 0.01
        for src, dst in coupled.ALLOWED_TRANSITIONS:
            expected[index[dst], index[src]] = value
            value += 0.01
        assert np.abs(m - expected).max() < 1e-15
        # the two simultaneous-flip-adjacent slots stay empty
        assert m[1, 2] == 0.0
        assert m[2, 1] == 0.0

    def test_frame_conjugation(self):
        angle = 0.3
        frame = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        g4 = coupled.interaction_generator(
            [1.0, 2.0, 3.0, 4.0], {("1A1B", "1A2B"): 0.2}, frame, np.eye(2)
        )
        w = np.kron(frame, np.eye(2))
        eig_matrix = np.diag([1.0, 2.0, 3.0, 4.0])
        eig_matrix[1, 0] = 0.2
        assert np.abs(g4.matrix(0.0) - w @ eig_matrix @ w.T).max() < 1e-12

    def test_rejects_non_orthonormal_frames(self):
        with pytest.raises(ValueError):
            coupled.interaction_generator(
                [0, 0, 0, 0], {}, np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)
            )

    def test_rejects_unsupported_transition(self):
        with pytest.raises(ValueError):
            coupled.interaction_generator(
                [0, 0, 0, 0], {("1A2B", "2A1B"): 0.1}, np.eye(2), np.eye(2)
            )
