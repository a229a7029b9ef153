import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epiqmap import epidemic, numkit
from epiqmap.acceptance import _random_frame_generator
from epiqmap.errors import ComplexSpectrumError, DegenerateFrameError


def constant_gen(s11, s12, s21, s22):
    return epidemic.Generator2(s11, s12, s21, s22)


def node_trapezoid(table, t0, t):
    """The integral of a table's piecewise-linear rate over [t0, t], t >= t0.

    The trapezoid rule on t0, the table's nodes strictly inside, and t:
    exact, as the rate is linear between those points.
    """
    nodes, values = table[:, 0], table[:, 1]
    grid = np.concatenate(([t0], nodes[(nodes > t0) & (nodes < t)], [t]))
    return np.trapezoid(np.interp(grid, nodes, values), grid)


class TestRate:
    """A rate as RateMatrix holds it: a float, or the (k, 2) array of rate_table."""

    def test_constant_call_and_integral(self):
        gen = constant_gen(2.0, 0.0, 0.0, 0.0)
        assert type(gen.rates[0][0]) is float
        assert gen.matrix(5.0)[0, 0] == 2.0
        assert gen.integrated(0.0, 1.5)[0, 0] == 3.0

    def test_table_interpolation_and_exact_integral(self):
        ramp = epidemic.Generator2(0.0, [[0.0, 0.0], [1.0, 1.0]], 0.0, 0.0)
        assert ramp.rates[0][1].tolist() == [[0.0, 0.0], [1.0, 1.0]]
        assert ramp.matrix(0.5)[0, 1] == 0.5
        assert ramp.integrated(0.0, 1.0)[0, 1] == pytest.approx(0.5, abs=1e-15)
        # values held constant outside the node range
        assert ramp.matrix(2.0)[0, 1] == 1.0
        assert ramp.integrated(0.0, 2.0)[0, 1] == pytest.approx(1.5, abs=1e-15)

    def test_rejects_bad_table(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            epidemic.RateMatrix([[[[0.0, 1.0], [0.0, 2.0]]]])

    def test_rejects_a_function(self):
        with pytest.raises(TypeError):
            epidemic.Generator2(lambda t: 1.0, 0.0, 0.0, 0.0)


@st.composite
def rate_tables(draw):
    """A table of 2-6 nodes, strictly increasing in time with finite slopes."""
    k = draw(st.integers(2, 6))
    start = draw(st.floats(-50.0, 50.0))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=k - 1, max_size=k - 1))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=k, max_size=k))
    return np.column_stack([np.cumsum([start] + gaps), values])


def table_times(table):
    """Times inside, at and outside the nodes of table."""
    nodes = table[:, 0].tolist()
    return st.floats(nodes[0] - 20.0, nodes[-1] + 20.0) | st.sampled_from(nodes)


# each malformed table, and the message rate_table raises for it
MALFORMED = {
    "repeated_time": (lambda t: np.vstack([t[:1], t]), "rate table times must be strictly increasing"),
    "non_finite_slope": (lambda t: np.vstack([t[:-1], [[t[-1, 0], np.inf]]]),
                         "rate table slopes must be finite"),
    "one_row": (lambda t: t[:1], "rate table must be [[t, value], ...] with >= 2 rows"),
    "wrong_width": (lambda t: np.column_stack([t, t[:, 1]]),
                    "rate table must be [[t, value], ...] with >= 2 rows"),
}


class TestRateFormatProperty:
    """Each table entry is np.interp over its nodes, and its integral the node trapezoid."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), table=rate_tables(), at=st.tuples(st.integers(0, 2), st.integers(0, 2)))
    def test_table_entry_is_interp_and_node_trapezoid(self, data, table, at):
        grid = [[0.25, -1.5, 0.0], [2.0, -0.5, 1.0], [0.0, 3.0, -2.0]]
        grid[at[0]][at[1]] = table.tolist()
        rates = epidemic.RateMatrix(grid)
        ts = np.array(data.draw(st.lists(table_times(table), min_size=1, max_size=8)))
        expected = np.interp(ts, table[:, 0], table[:, 1])
        m = rates.matrix(ts)
        assert m[:, at[0], at[1]].tobytes() == expected.tobytes()
        assert rates.matrix(ts[0])[at].tobytes() == expected[0].tobytes()
        t0, t = sorted(data.draw(st.lists(table_times(table), min_size=2, max_size=2)))
        integral = rates.integrated(t0, t)
        assert np.float64(integral[at]).tobytes() == np.float64(node_trapezoid(table, t0, t)).tobytes()
        # the constant entries beside it
        assert integral[(at[0] + 1) % 3, at[1]] == grid[(at[0] + 1) % 3][at[1]] * (t - t0)

    @settings(max_examples=100, deadline=None)
    @given(table=rate_tables(), kind=st.sampled_from(sorted(MALFORMED)))
    def test_malformed_table_raises_as_before(self, table, kind):
        corrupt, message = MALFORMED[kind]
        bad = corrupt(table)
        for build in (epidemic.rate_table, lambda r: epidemic.RateMatrix([[r]]),
                      lambda r: epidemic.Generator2(0.0, r, 0.0, 0.0)):
            for spec in (bad, bad.tolist()):
                with pytest.raises(ValueError) as raised:
                    build(spec)
                assert str(raised.value) == message

    @pytest.mark.parametrize("build", [
        epidemic.rate_table, lambda r: epidemic.RateMatrix([[r]]),
        lambda r: epidemic.Generator2(0.0, 0.0, r, 0.0),
    ], ids=["rate_table", "rate_matrix", "generator2"])
    def test_callable_raises_type_error(self, build):
        with pytest.raises(TypeError):
            build(lambda t: 1.0)


class TestSpectralFrame:
    def test_symmetric_offdiagonal_eigenvalues(self):
        frame = epidemic.spectral_frame(constant_gen(0.0, 1.0, 1.0, 0.0), 0.0)
        assert frame.e1 == pytest.approx(-1.0)
        assert frame.e2 == pytest.approx(1.0)

    def test_example_against_numeric_oracle(self):
        gen = constant_gen(2.0, 0.5, 0.5, 0.0)
        frame = epidemic.spectral_frame(gen, 0.0)
        assert frame.e1 == pytest.approx(1.0 - np.sqrt(1.25), abs=1e-14)
        assert frame.e2 == pytest.approx(1.0 + np.sqrt(1.25), abs=1e-14)
        values = np.sort(np.linalg.eigvals(gen.matrix(0.0)))
        assert np.abs(np.array([frame.e1, frame.e2]) - values).max() < 1e-12
        m = gen.matrix(0.0)
        assert np.abs(m @ frame.v1 - frame.e1 * frame.v1).max() <= 1e-12
        assert np.abs(m @ frame.v2 - frame.e2 * frame.v2).max() <= 1e-12

    def test_vectors_components_sum_to_one(self):
        frame = epidemic.spectral_frame(constant_gen(1.0, 0.3, 0.4, 0.2), 0.0)
        assert frame.v1.sum() == pytest.approx(1.0, abs=1e-12)
        assert frame.v2.sum() == pytest.approx(1.0, abs=1e-12)
        assert frame.n1 == pytest.approx(frame.v1 @ frame.v1)
        assert frame.n2 == pytest.approx(frame.v2 @ frame.v2)

    def test_orthogonal_iff_symmetric_coupling(self):
        sym = epidemic.spectral_frame(constant_gen(1.0, 0.3, 0.3, 0.2), 0.0)
        assert abs(sym.v1 @ sym.v2) <= 1e-12
        skew = epidemic.spectral_frame(constant_gen(0.5, 0.2, 0.8, -0.3), 0.0)
        assert abs(skew.v1 @ skew.v2) > 1e-6

    def test_complex_spectrum_raises_with_discriminant(self):
        with pytest.raises(ComplexSpectrumError) as info:
            epidemic.spectral_frame(constant_gen(0.0, -1.0, 1.0, 0.0), 0.0)
        assert info.value.discriminant == pytest.approx(-4.0)

    def test_zero_s21_keeps_the_printed_scale(self):
        # only a vector whose components sum to nearly zero falls back, and
        # these, of a zero s21, sum to one
        frame = epidemic.spectral_frame(constant_gen(1.0, 0.5, 0.0, 0.2), 0.0)
        assert not frame.numeric_fallback
        m = constant_gen(1.0, 0.5, 0.0, 0.2).matrix(0.0)
        for value, v in ((frame.e1, frame.v1), (frame.e2, frame.v2)):
            assert v.sum() == pytest.approx(1.0, abs=1e-15)
            assert np.abs(m @ v - value * v).max() <= 1e-15

    def test_singular_prefactor_falls_back(self):
        # symmetric zero-diagonal case: the branch-1 denominator vanishes
        frame = epidemic.spectral_frame(constant_gen(0.0, 1.0, 1.0, 0.0), 0.0)
        assert frame.numeric_fallback

    def test_residual_sweep_1000_generators(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            gen = _random_frame_generator(rng)
            frame = epidemic.spectral_frame(gen, 0.0)
            m = gen.matrix(0.0)
            assert np.abs(m @ frame.v1 - frame.e1 * frame.v1).max() <= 1e-12
            assert np.abs(m @ frame.v2 - frame.e2 * frame.v2).max() <= 1e-12


class TestEnsembles:
    GEN = constant_gen(1.0, 0.3, 0.3, 0.2)

    def test_eigenvector_input(self):
        frame = epidemic.spectral_frame(self.GEN, 0.0)
        w = epidemic.ensemble_decompose(frame.v1, self.GEN, 0.0)
        assert np.abs(w - [1.0, 0.0]).max() < 1e-12

    def test_linearity(self):
        frame = epidemic.spectral_frame(self.GEN, 0.0)
        w = epidemic.ensemble_decompose(frame.v1 + frame.v2, self.GEN, 0.0)
        assert np.abs(w - [1.0, 1.0]).max() < 1e-12

    def test_roundtrip_symmetric_coupling(self):
        gen = constant_gen(1.0, 0.3, 0.3, 0.2)
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = rng.uniform(0.0, 1.0, size=2)
            w = epidemic.ensemble_decompose(p, gen, 0.0)
            back = epidemic.ensemble_reconstruct(w, gen, 0.0)
            assert np.abs(back - p).max() <= 1e-12

    # defective spectra, a nilpotent matrix and a Jordan block: each
    # frame's two vectors are (0, 1)
    @pytest.mark.parametrize("rates", [(0.0, 0.0, 1e-15, 0.0), (0.2, 0.0, 1e-10, 0.2)],
                             ids=["fallback", "closed_form"])
    def test_parallel_frame_vectors_raise(self, rates):
        gen = constant_gen(*rates)
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DegenerateFrameError, match="vectors are parallel"):
            epidemic.ensemble_decompose([0.7, 0.3], gen, 0.0)
        with pytest.raises(DegenerateFrameError, match="vectors are parallel"):
            epidemic.ensemble_decompose(np.full((5, 2), 0.5), gen, times)

    @pytest.mark.parametrize("s12, passes", [(1e-22, True), (1e-24, True), (1e-26, False)])
    def test_frame_sine_floor_is_the_boundary(self, s12, passes):
        # closed-form vectors (-sqrt(s12), 1) and (sqrt(s12), 1) of
        # [[0.2, s12], [1, 0.2]], at a sine of about 2 sqrt(s12) apart
        gen = constant_gen(0.2, s12, 1.0, 0.2)
        frame = epidemic.spectral_frame(gen, 0.0)
        (a, b), (c, d) = frame.v1, frame.v2
        sine = abs(a * d - b * c) / np.sqrt(frame.n1 * frame.n2)
        assert not frame.numeric_fallback and sine == pytest.approx(2.0 * np.sqrt(s12), rel=1e-4)
        if passes:
            w = epidemic.ensemble_decompose([0.7, 0.3], gen, 0.0)
            assert np.isfinite(w).all()
        else:
            with pytest.raises(DegenerateFrameError, match="vectors are parallel"):
                epidemic.ensemble_decompose([0.7, 0.3], gen, 0.0)

def table(rng, lo, hi):
    """A piecewise-linear rate table over [0, 1] with seeded values in [lo, hi]."""
    return [[t, v] for t, v in zip((0.0, 0.5, 1.0), rng.uniform(lo, hi, 3))]


def stack_generator(kind, seed):
    """A table-rate generator whose frames are closed-form, numeric or both.

    closed:   s12 and s21 positive, so the spectrum is real;
    fallback: every rate is f(t) times (-0.2, 0.1, 0.2, -0.1), so both columns
              sum to zero and one vector sums to zero at every time;
    mixed:    s11 runs through s12 + s22 - s21 at t = 0.5, where both columns
              sum alike, so only there the other vector sums to zero and falls back.
    """
    rng = np.random.default_rng(seed)
    if kind == "closed":
        return epidemic.Generator2(
            table(rng, -1.0, 1.0), table(rng, 0.1, 1.0), table(rng, 0.1, 1.0), table(rng, -1.0, 1.0)
        )
    if kind == "fallback":
        f = table(rng, 0.5, 1.5)
        return epidemic.Generator2(*([[t, s * v] for t, v in f] for s in (-0.2, 0.1, 0.2, -0.1)))
    s12, s21, s22 = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0), rng.uniform(-1.0, 0.0)
    middle = s12 + s22 - s21
    return epidemic.Generator2([[0.0, middle - 0.3], [1.0, middle + 0.3]], s12, s21, s22)


def assert_bitwise(stacked, looped):
    looped = np.array(looped)
    assert stacked.dtype == looped.dtype and stacked.shape == looped.shape
    assert stacked.tobytes() == looped.tobytes()


FRAME_FIELDS = [f.name for f in dataclasses.fields(epidemic.SpectralFrame2)]

stack_times = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


class TestStackedFrames:
    """A 1-d array of times gives, bit for bit, the stack of per-time results."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["closed", "fallback", "mixed"]),
           seed=st.integers(0, 2**32 - 1), times=stack_times)
    def test_spectral_frame_is_the_per_time_stack(self, kind, seed, times):
        gen = stack_generator(kind, seed)
        times = np.array(times + [0.5])
        frame = epidemic.spectral_frame(gen, times)
        loop = [epidemic.spectral_frame(gen, t) for t in times]
        for name in FRAME_FIELDS:
            assert_bitwise(getattr(frame, name), [getattr(f, name) for f in loop])
        if kind == "fallback":
            assert frame.numeric_fallback.all()
        elif kind == "mixed":
            assert frame.numeric_fallback[-1] and not frame.numeric_fallback[times != 0.5].any()

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["closed", "fallback", "mixed"]),
           seed=st.integers(0, 2**32 - 1), times=stack_times)
    def test_ensembles_are_the_per_time_stack(self, kind, seed, times):
        gen = stack_generator(kind, seed)
        times = np.array(times + [0.5])
        p = np.random.default_rng(seed).uniform(0.0, 1.0, size=(len(times), 2))
        weights = epidemic.ensemble_decompose(p, gen, times)
        assert_bitwise(weights, [epidemic.ensemble_decompose(q, gen, t) for q, t in zip(p, times)])
        back = epidemic.ensemble_reconstruct(weights, gen, times)
        assert_bitwise(
            back, [epidemic.ensemble_reconstruct(w, gen, t) for w, t in zip(weights, times)]
        )

    def test_scalar_discriminant_squares_like_the_stack(self):
        # s11 - s22 = 0.37499999999999994, whose ** 2 as a NumPy scalar
        # (libm pow) is one ulp off the square the stacked path takes
        gen = constant_gen(0.836, 0.01, 0.02, 0.461)
        frame = epidemic.spectral_frame(gen, np.zeros(1))
        scalar = epidemic.spectral_frame(gen, 0.0)
        for name in FRAME_FIELDS:
            assert_bitwise(getattr(frame, name), [getattr(scalar, name)])

    def test_return_frame_gives_the_frame_used(self):
        gen = stack_generator("mixed", 3)
        times = np.linspace(0.0, 1.0, 11)
        p = np.full((11, 2), 0.5)
        weights, frame = epidemic.ensemble_decompose(p, gen, times, return_frame=True)
        assert_bitwise(weights, epidemic.ensemble_decompose(p, gen, times))
        assert frame.numeric_fallback.sum() == 1

    def test_empty_stack(self):
        frame = epidemic.matrix_frame(np.zeros((0, 2, 2)))
        assert frame.e1.shape == frame.n1.shape == frame.numeric_fallback.shape == (0,)
        assert frame.v1.shape == frame.v2.shape == (0, 2)

    def test_scalar_time_keeps_scalar_fields(self):
        frame = epidemic.spectral_frame(stack_generator("fallback", 5), 0.25)
        assert type(frame.n1) is float and type(frame.numeric_fallback) is bool
        assert type(frame.e1) is np.float64 and frame.v1.shape == (2,)

    def test_complex_spectrum_raises_like_the_loop(self):
        gen = epidemic.Generator2(0.0, 1.0, [[0.0, 0.5], [1.0, -0.5]], 0.0)
        times = np.array([0.1, 0.7, 0.9])
        with pytest.raises(ComplexSpectrumError) as looped:
            for t in times:
                epidemic.spectral_frame(gen, t)
        for call in (epidemic.spectral_frame, epidemic.ensemble_reconstruct):
            args = (gen, times) if call is epidemic.spectral_frame else (np.ones((3, 2)), gen, times)
            with pytest.raises(ComplexSpectrumError) as stacked:
                call(*args)
            assert stacked.value.discriminant == looped.value.discriminant

    def test_vanishing_norms_raise_like_the_loop(self, monkeypatch):
        gen = constant_gen(1.0, 0.3, 0.3, 0.2)
        real = epidemic.spectral_frame

        def vanishing(generator, t):
            return dataclasses.replace(real(generator, t), n2=real(generator, t).n2 * 0.0)

        monkeypatch.setattr(epidemic, "spectral_frame", vanishing)
        with pytest.raises(DegenerateFrameError):
            epidemic.ensemble_decompose([0.5, 0.5], gen, 0.0)
        with pytest.raises(DegenerateFrameError):
            epidemic.ensemble_decompose(np.full((3, 2), 0.5), gen, np.zeros(3))

    def test_eigenmode_evolution_over_times(self):
        gen = constant_gen(1.0, 0.3, 0.4, 0.2)
        times = np.linspace(0.0, 2.0, 7)
        w0 = np.array([0.7, 0.4])
        assert_bitwise(
            epidemic.eigenmode_evolve_const(gen, w0, 0.0, times),
            [epidemic.eigenmode_evolve_const(gen, w0, 0.0, t) for t in times],
        )


class TestEnsembleRoundtripProperty:
    """Under symmetric coupling s12 = s21 the two frame vectors are orthogonal,
    so reconstructing decomposed weights returns the state."""

    @staticmethod
    def _symmetric_generator(kind, rng):
        sign = rng.choice([-1.0, 1.0])
        if kind == "constant":
            s11, s22 = rng.uniform(-1.0, 1.0, 2)
            s = sign * rng.uniform(0.05, 1.0)
            return constant_gen(s11, s, s, s22)
        coupling = [[t, sign * v] for t, v in table(rng, 0.05, 1.0)]
        return epidemic.Generator2(table(rng, -1.0, 1.0), coupling, coupling, table(rng, -1.0, 1.0))

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["constant", "table"]), seed=st.integers(0, 2**32 - 1),
           times=stack_times)
    def test_roundtrip_under_symmetric_coupling(self, kind, seed, times):
        rng = np.random.default_rng(seed)
        gen = self._symmetric_generator(kind, rng)
        times = np.array(times)
        # healthy frames: the closed form holds at every time
        assume(not epidemic.spectral_frame(gen, times).numeric_fallback.any())
        p = rng.uniform(0.0, 1.0, size=(len(times), 2))
        weights = epidemic.ensemble_decompose(p, gen, times)
        assert np.abs(epidemic.ensemble_reconstruct(weights, gen, times) - p).max() <= 1e-12
        weights = epidemic.ensemble_decompose(p[0], gen, times[0])
        assert np.abs(epidemic.ensemble_reconstruct(weights, gen, times[0]) - p[0]).max() <= 1e-12


class TestStepBudget:
    """Quadrature grids are checked against numkit.MAX_STEPS before they exist."""

    GEN = constant_gen(1.0, 0.5, 0.5, 0.2)

    def test_frame_evolve_refuses_a_grid_over_budget(self, monkeypatch):
        # the grid step is 1e-3: 1000 steps over [0, 1], 500 over [0, 0.5]
        monkeypatch.setattr(numkit, "MAX_STEPS", 600)
        with pytest.raises(ValueError, match="more than 600 steps"):
            epidemic.frame_evolve(self.GEN, 0.0, 0.0, [0.6, 0.4], 0.0, 1.0)
        w = epidemic.frame_evolve(self.GEN, 0.0, 0.0, [0.6, 0.4], 0.0, 0.5)
        assert np.isfinite(w).all()


class TestIntegratedGenerator:
    def test_constant(self):
        gen = constant_gen(2.0, 0.0, 0.0, 0.0)
        assert gen.integrated(0.0, 1.5)[0, 0] == 3.0

    def test_empty_interval(self):
        gen = constant_gen(1.0, 2.0, 3.0, 4.0)
        assert np.abs(gen.integrated(2.0, 2.0)).max() == 0.0

    def test_piecewise_linear_ramp(self):
        gen = epidemic.Generator2(0.0, [[0.0, 0.0], [1.0, 1.0]], 0.0, 0.0)
        assert gen.integrated(0.0, 1.0)[0, 1] == pytest.approx(0.5)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            constant_gen(1, 0, 0, 0).integrated(1.0, 0.0)

    def test_rate_matrix_of_any_size_integrates_entrywise(self):
        ramp, kink = [[0.0, 0.0], [1.0, 1.0]], [[-1.0, 0.5], [0.3, -0.2], [2.0, 0.4]]
        grid = [[0.1, ramp, -0.3], [kink, 2.0, 0.0], [0.7, kink, ramp]]
        rates = epidemic.RateMatrix(grid)
        for t0, t in ((0.0, 1.0), (-0.5, 1.7), (0.3, 0.3)):
            expected = np.array([
                [node_trapezoid(np.array(r), t0, t) if isinstance(r, list) else r * (t - t0)
                 for r in row]
                for row in grid
            ])
            if t == t0:
                expected[:] = 0.0
            assert rates.integrated(t0, t).tobytes() == expected.tobytes()
        assert rates.integrated(0.0, 1.0)[0, 1] == 0.5
        with pytest.raises(ValueError):
            rates.integrated(1.0, 0.0)


class TestClosedFormPropagator:
    def test_identity_at_t0(self):
        gen = constant_gen(0.3, 0.2, 0.1, -0.4)
        p0 = np.array([0.6, 0.4])
        assert np.abs(epidemic.propagate_closed_form(gen, p0, 1.0, 1.0) - p0).max() == 0.0

    def test_diagonal_decoupled(self):
        gen = constant_gen(0.5, 0.0, 0.0, -0.25)
        out = epidemic.propagate_closed_form(gen, np.array([1.0, 1.0]), 0.0, 2.0)
        assert np.abs(out - [np.e, np.exp(-0.5)]).max() < 1e-12

    def test_constant_vs_rk_oracle(self):
        gen = constant_gen(0.0, 0.4, 0.6, -0.2)
        p0 = np.array([0.7, 0.3])
        closed = epidemic.propagate_closed_form(gen, p0, 0.0, 1.0)
        reference = numkit.ode_evolve(gen.matrix, p0, 0.0, 1.0, 1e-4).final
        assert np.abs(closed - reference).max() <= 1e-8

    def test_negative_discriminant_branch(self):
        gen = constant_gen(0.1, -0.9, 0.8, -0.1)
        p0 = np.array([0.5, 0.5])
        closed = epidemic.propagate_closed_form(gen, p0, 0.0, 1.0)
        oracle = numkit.mat_exp(gen.matrix(0.0)) @ p0
        assert np.abs(closed - oracle).max() < 1e-12

    def test_matches_mat_exp_for_constants(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = rng.uniform(-1.0, 1.0, size=(2, 2))
            gen = constant_gen(*m.ravel())
            p0 = rng.uniform(0.0, 1.0, size=2)
            closed = epidemic.propagate_closed_form(gen, p0, 0.0, 1.3)
            oracle = numkit.mat_exp(m * 1.3) @ p0
            assert np.abs(closed - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())

    @settings(max_examples=200, deadline=None)
    @given(entries=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           t=st.floats(0.0, 2.0),
           p0=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    def test_real_spectrum_property_vs_mat_exp(self, entries, t, p0):
        s11, s12, s21, s22 = entries
        assume((s11 - s22) ** 2 + 4.0 * s12 * s21 >= 0.0)
        closed = epidemic.propagate_closed_form(constant_gen(*entries), p0, 0.0, t)
        propagator = numkit.mat_exp(np.array([[s11, s12], [s21, s22]]) * t)
        # mat_exp's documented relative error, below 1e-12 in the inf-norm,
        # dominates: cosh, sinh and exp of the closed form are good to a few
        # ulps (about 14 ulps of this scale were seen over 3000 draws)
        scale = np.abs(propagator).sum(axis=1).max() * max(p0)
        assert np.abs(closed - propagator @ p0).max() <= 1e-12 * scale

    def test_time_dependent_gap_is_reported(self):
        # commuting family: zero gap; non-commuting: the gap is real
        commuting = epidemic.Generator2([[-1.0, -2.0], [2.0, 4.0]], 0.0, 0.0,
                                        [[-1.0, 1.0], [2.0, -2.0]])
        p0 = np.array([0.5, 0.5])
        assert epidemic.propagation_gap(commuting, p0, 0.0, 1.0) < 1e-8
        skew = epidemic.Generator2([[0.0, 0.0], [1.0, 1.0]], 0.6, 0.4, 0.0)
        gap = epidemic.propagation_gap(skew, p0, 0.0, 1.0)
        assert np.isfinite(gap)
        assert gap > 1e-6


class TestOccupancyRatio:
    def test_initial_ratio(self):
        gen = constant_gen(0.1, 0.3, 0.2, -0.1)
        assert epidemic.occupancy_ratio(gen, np.array([0.6, 0.4]), 0.0, 0.0) == pytest.approx(1.5)

    def test_diagonal_growth(self):
        gen = constant_gen(0.4, 0.0, 0.0, 0.1)
        r = epidemic.occupancy_ratio(gen, np.array([0.5, 0.5]), 0.0, 2.0)
        assert r == pytest.approx(np.exp(0.8 - 0.2), rel=1e-12)

    def test_matches_propagated_components(self):
        gen = constant_gen(0.1, 0.3, 0.2, -0.1)
        p0 = np.array([0.6, 0.4])
        r = epidemic.occupancy_ratio(gen, p0, 0.0, 2.0)
        p = epidemic.propagate_closed_form(gen, p0, 0.0, 2.0)
        assert abs(r - p[0] / p[1]) <= 1e-10


# a table whose trapezoid over [0, 5] sums past the float range
OVERFLOWING_SUM = [[0.0, 1e308], [1.0, 1e308]]


class TestClosedFormOverflow:
    """A closed form whose result is not finite raises; no warning escapes.

    Rates near the float limit whose time integrals pass it give an inf
    integral without a warning, which the closed form refuses.
    """

    @pytest.mark.parametrize("evaluate, error, message", [
        # a frame vector's component sum passes near zero, so the eigenframe
        # quadrature is large and cosh(sqrt(d)/2) overflows
        (lambda: epidemic.frame_evolve(
            epidemic.Generator2([[0.0, -0.13010489554971594], [0.5, 0.9483723865185107],
                                 [1.0, 0.7953552162170976]], 0.9983522301301428,
                                0.30473822317597543, -0.5309795966603521),
            0.1, 0.0, [0.6, 0.4], 0.0, 0.2), OverflowError, "cosh/sinh"),
        (lambda: epidemic.propagate_closed_form(constant_gen(400.0, 0.0, 0.0, 400.0),
                                                [0.5, 0.5], 0.0, 2.0),
         OverflowError, "2x2 matrix exponential"),
        (lambda: epidemic.occupancy_ratio(constant_gen(0.0, 1000.0, 1000.0, 0.0),
                                          [0.5, 0.5], 0.0, 2.0), OverflowError, "cosh/sinh"),
        (lambda: epidemic.eigenmode_evolve_const(constant_gen(1.0, 0.5, 0.5, 0.2),
                                                 [0.7, 0.3], 0.0, [0.0, 1000.0]),
         OverflowError, "eigenmode"),
        (lambda: epidemic.propagate_closed_form(constant_gen(0.0, 1e308, 1e308, 0.0),
                                                [0.5, 0.5], 0.0, 10.0),
         ValueError, "non-finite integrated rates"),
        (lambda: epidemic.occupancy_ratio(constant_gen(0.0, 1e308, 1e-308, 0.0),
                                          [0.5, 0.5], 0.0, 1.0), OverflowError, "cosh/sinh"),
        (lambda: epidemic.occupancy_ratio(epidemic.Generator2(0.0, OVERFLOWING_SUM, 0.0, 0.0),
                                          [0.5, 0.5], 0.0, 5.0), OverflowError, "cosh/sinh"),
        (lambda: epidemic.propagate_closed_form(epidemic.Generator2(0.0, OVERFLOWING_SUM, 0.0, 0.0),
                                                [0.5, 0.5], 0.0, 5.0),
         ValueError, "non-finite integrated rates"),
        (lambda: epidemic.frame_evolve(constant_gen(0.0, 1e308, 1e308, 0.0), 0.0, 0.0,
                                       [0.5, 0.5], 0.0, 10.0), OverflowError, "cosh/sinh"),
        # a finite kernel whose numerator and denominator overflow
        (lambda: epidemic.occupancy_ratio(constant_gen(0.0, 1.0, 1.0, 0.0),
                                          [1e308, 1e308], 0.0, 1.0),
         OverflowError, "occupancy ratio overflows"),
    ], ids=["frame_evolve", "propagate_closed_form", "occupancy_ratio", "eigenmode_evolve_const",
            "propagate_constant_integral", "occupancy_constant_integral",
            "occupancy_table_integral", "propagate_table_integral", "frame_evolve_integral",
            "occupancy_terms"])
    def test_non_finite_result_raises(self, evaluate, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                evaluate()


class TestMeasurement:
    def test_projective_outcomes(self):
        p = np.array([0.3, 0.7])
        assert np.array_equal(epidemic.measure_projective(p, 1), [1.0, 0.0])
        assert np.array_equal(epidemic.measure_projective(p, 2), [0.0, 1.0])

    def test_projective_rejects_empty(self):
        with pytest.raises(ValueError):
            epidemic.measure_projective(np.array([0.0, 0.0]), 1)

    def test_sampling_frequency(self):
        rng = np.random.default_rng(37)
        p = np.array([0.3, 0.7])
        draws = 100_000
        ones = sum(epidemic.sample_outcome(p, rng) == 1 for _ in range(draws))
        assert abs(ones / draws - 0.3) < 0.01

    def test_weak_no_test_is_identity(self):
        p = np.array([0.4, 0.6])
        assert np.array_equal(epidemic.measure_weak(p, 50, 0, np.array([1.0, 0.0])), p)

    def test_weak_full_census(self):
        p_test = np.array([0.9, 0.1])
        out = epidemic.measure_weak(np.array([0.4, 0.6]), 50, 50, p_test)
        assert np.array_equal(out, p_test)

    def test_weak_update_formula(self):
        out = epidemic.measure_weak(np.array([0.5, 0.5]), 100, 20, np.array([1.0, 0.0]))
        assert np.abs(out - [0.6, 0.4]).max() < 1e-15

    def test_weak_rejects_over_testing(self):
        with pytest.raises(ValueError):
            epidemic.measure_weak(np.array([0.5, 0.5]), 10, 11, np.array([1.0, 0.0]))

    def test_simplex_violation(self):
        assert epidemic.simplex_violation(np.array([0.5, 0.5])) == 0.0
        assert epidemic.simplex_violation(np.array([-0.25, 1.0])) == 0.25


class TestEigenmodeDynamics:
    def test_identity_at_t0(self):
        gen = constant_gen(1.0, 0.5, 0.5, 0.2)
        w0 = np.array([0.7, 0.3])
        assert np.array_equal(epidemic.eigenmode_evolve_const(gen, w0, 0.0, 0.0), w0)

    def test_equal_effective_rates_freeze_the_ratio(self):
        # choose s11 + s22 so that e1/n1 == e2/n2, then pI/pII is constant
        d, s12, s21 = 0.8, 0.3, 0.5
        probe = constant_gen(d / 2.0, s12, s21, -d / 2.0)
        frame = epidemic.spectral_frame(probe, 0.0)
        r = 0.5 * np.sqrt((d) ** 2 + 4 * s12 * s21)
        sigma = r * (frame.n2 + frame.n1) / (frame.n2 - frame.n1)
        gen = constant_gen(sigma + d / 2.0, s12, s21, sigma - d / 2.0)
        assert abs(epidemic.rabi_rate(gen)) < 1e-12
        w0 = np.array([0.7, 0.3])
        for t in (0.5, 1.0, 2.0):
            w = epidemic.eigenmode_evolve_const(gen, w0, 0.0, t)
            assert w[0] / w[1] == pytest.approx(w0[0] / w0[1], abs=1e-12)

    def test_log_ratio_slope(self):
        gen = constant_gen(1.0, 0.5, 0.5, 0.2)
        w0 = np.array([0.7, 0.3])
        times = np.linspace(0.0, 1.0, 100)
        logs = [np.log(np.divide(*epidemic.eigenmode_evolve_const(gen, w0, 0.0, t))) for t in times]
        slope = np.polyfit(times, logs, 1)[0]
        assert abs(slope - epidemic.rabi_rate(gen)) <= 1e-9

    def test_semigroup_weights_grow_at_plain_eigenvalue_rate(self):
        # decomposing the actual probability flow gives weights moving at
        # rates (e1, e2); the norm-scaled law above is a different rule,
        # and the two coincide only for unit-norm frames
        gen = constant_gen(1.0, 0.5, 0.5, 0.2)
        frame = epidemic.spectral_frame(gen, 0.0)
        p0 = np.array([0.7, 0.3])
        w0 = epidemic.ensemble_decompose(p0, gen, 0.0)
        p1 = epidemic.propagate_closed_form(gen, p0, 0.0, 1.0)
        w1 = epidemic.ensemble_decompose(p1, gen, 0.0)
        assert w1[0] == pytest.approx(w0[0] * np.exp(frame.e1), rel=1e-10)
        assert w1[1] == pytest.approx(w0[1] * np.exp(frame.e2), rel=1e-10)

    # the frames ensemble_decompose refuses, whose vectors span one line
    @pytest.mark.parametrize("rates", [(0.0, 0.0, 1e-15, 0.0), (0.2, 0.0, 1e-10, 0.2)],
                             ids=["fallback", "closed_form"])
    def test_parallel_frame_vectors_raise(self, rates):
        gen = constant_gen(*rates)
        with pytest.raises(DegenerateFrameError, match="vectors are parallel"):
            epidemic.rabi_rate(gen)
        with pytest.raises(DegenerateFrameError, match="vectors are parallel"):
            epidemic.eigenmode_evolve_const(gen, [0.7, 0.3], 0.0, [0.0, 1.0])

    def test_requires_constant_generator(self):
        gen = epidemic.Generator2([[0.0, 0.0], [1.0, 1.0]], 0.3, 0.3, 0.0)
        with pytest.raises(ValueError):
            epidemic.eigenmode_evolve_const(gen, np.array([1.0, 1.0]), 0.0, 1.0)


class TestConstantOccupancyResidual:
    def test_constant_generator_reduces_to_absolute_eigenvalue_product(self):
        gen = constant_gen(1.0, 0.5, 0.5, 0.2)
        frame = epidemic.spectral_frame(gen, 0.0)
        # the frames at t and t +/- h are bit-identical, so every connection is 0
        assert epidemic.constant_occupancy_residual(gen, 0.5) == abs(frame.e1 * frame.e2)

    def test_quadratic_scaling_in_generator(self):
        # scaling rates by c and time by 1/c scales both derivative and
        # eigenvalue terms by c, so the residual scales by c^2
        base = np.array([[0.0, 0.5], [4.0, 0.9]])
        gen1 = epidemic.Generator2(0.1, base, base, 0.0)
        c = 3.0
        # c * base(c * t): times divided by c, values multiplied by it
        scaled = base / [c, 1.0 / c]
        gen_c = epidemic.Generator2(0.1 * c, scaled, scaled, 0.0)
        t = 0.7
        r_base = epidemic.constant_occupancy_residual(gen1, c * t)
        r_scaled = epidemic.constant_occupancy_residual(gen_c, t)
        assert r_scaled == pytest.approx(c * c * r_base, rel=1e-5)


class TestFrameEvolve:
    def test_identity_at_t0(self):
        gen = constant_gen(1.0, 0.5, 0.5, 0.2)
        w0 = np.array([0.6, 0.4])
        assert np.array_equal(epidemic.frame_evolve(gen, 0.0, 0.0, w0, 2.0, 2.0), w0)

    def test_constant_generator_diagonal_exponentials(self):
        # constant frame: connections vanish, weights scale by exp(e_i dt)
        gen = constant_gen(1.0, 0.5, 0.5, 0.2)
        frame = epidemic.spectral_frame(gen, 0.0)
        w0 = np.array([0.6, 0.4])
        w = epidemic.frame_evolve(gen, 0.0, 0.0, w0, 0.0, 1.0)
        expected = w0 * np.exp([frame.e1, frame.e2])
        assert np.abs(w - expected).max() < 1e-10

    @staticmethod
    def _ramped(slope):
        """Linear drifts as two-row tables over [-1, 2], past every time used."""
        def ramp(value, rate):
            return [[-1.0, value - rate], [2.0, value + 2.0 * rate]]

        return epidemic.Generator2(
            ramp(0.8, slope), ramp(0.3, -slope), ramp(0.5, slope), ramp(0.1, -slope)
        )

    @staticmethod
    def _frame_matrices(gen):
        """frame_matrix over a 1-d array of times, one time at a time."""
        return lambda ts: np.array([epidemic.frame_matrix(gen, 0.0, 0.0, t) for t in ts])

    def test_slowly_varying_vs_rk_oracle(self):
        gen = self._ramped(0.001)
        w0 = np.array([0.6, 0.4])
        closed = epidemic.frame_evolve(gen, 0.0, 0.0, w0, 0.0, 0.5)
        reference = numkit.ode_evolve(
            lambda ts: epidemic.frame_matrix(gen, 0.0, 0.0, ts), w0, 0.0, 0.5, 1e-3
        ).final
        assert np.abs(closed - reference).max() <= 1e-6

    def test_faster_variation_has_reported_ordering_gap(self):
        # exp-of-integral vs the time-ordered flow: the gap is real for a
        # non-commuting frame family and grows with the variation rate
        gen = self._ramped(0.01)
        w0 = np.array([0.6, 0.4])
        closed = epidemic.frame_evolve(gen, 0.0, 0.0, w0, 0.0, 1.0)
        reference = numkit.ode_evolve(
            lambda ts: epidemic.frame_matrix(gen, 0.0, 0.0, ts), w0, 0.0, 1.0, 1e-3
        ).final
        gap = np.abs(closed - reference).max()
        assert np.isfinite(gap)
        assert 1e-6 < gap < 1e-3

    @staticmethod
    def _per_time_frame_matrix(gen, e12, e21, t, h=1e-6):
        """frame_matrix at one time as three scalar frames, central differences and @ products."""
        frame = epidemic.spectral_frame(gen, t)
        ahead, behind = epidemic.spectral_frame(gen, t + h), epidemic.spectral_frame(gen, t - h)
        d1 = (ahead.v1 - behind.v1) / (2.0 * h)
        d2 = (ahead.v2 - behind.v2) / (2.0 * h)
        return np.array([[frame.e1 - frame.v1 @ d1, e21 - frame.v1 @ d2],
                         [e12 - frame.v2 @ d1, frame.e2 - frame.v2 @ d2]])

    @pytest.mark.parametrize("gen", [
        _ramped(0.01),
        epidemic.Generator2(0.3, [[0.0, 0.2], [0.4, 0.5], [1.0, 0.1]], 0.4, -0.2),
        # s21 = 0: a triangular generator, whose first vector is (1, 0)
        epidemic.Generator2([[-1.0, 0.4], [2.0, 0.7]], 0.2, 0.0, -0.1),
    ], ids=["ramped", "table", "fallback"])
    def test_stacked_frame_matrix_is_the_per_time_stack(self, gen):
        grid = np.linspace(0.0, 1.0, 201)
        stacked = epidemic.frame_matrix(gen, 0.0, 0.0, grid)
        assert stacked.shape == (201, 2, 2)
        assert stacked.tobytes() == self._frame_matrices(gen)(grid).tobytes()
        e12, e21 = 0.2, 0.05
        stacked = epidemic.frame_matrix(gen, e12, e21, grid)
        per_time = [self._per_time_frame_matrix(gen, e12, e21, t) for t in grid]
        assert stacked.tobytes() == np.array(per_time).tobytes()

    def test_cross_couplings_enter_off_diagonal(self):
        gen = constant_gen(1.0, 0.5, 0.5, 0.2)
        m = epidemic.frame_matrix(gen, e12=0.25, e21=0.75, t=0.0)
        assert m[0, 1] == pytest.approx(0.75, abs=1e-9)
        assert m[1, 0] == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    def test_scalar_frame_matrix_is_its_stack_of_one(self, t):
        gen = epidemic.Generator2(0.3, [[0.0, 0.2], [0.4, 0.5], [1.0, 0.1]], 0.4, -0.2)
        scalar = epidemic.frame_matrix(gen, 0.2, 0.05, t)
        stacked = epidemic.frame_matrix(gen, 0.2, 0.05, np.array([t]))
        assert scalar.shape == (2, 2) and stacked.shape == (1, 2, 2)
        assert scalar.tobytes() == stacked[0].tobytes()


class TestPropagateN:
    def test_matches_closed_form_for_two_levels(self):
        gen = constant_gen(0.0, 0.4, 0.6, -0.2)
        p0 = np.array([0.7, 0.3])
        out = numkit.ode_evolve(gen.matrix(0.0), p0, 0.0, 1.0, 1e-3).final
        closed = epidemic.propagate_closed_form(gen, p0, 0.0, 1.0)
        assert np.abs(out - closed).max() <= 1e-8

    def test_zero_generator(self):
        p0 = np.array([0.2, 0.3, 0.5])
        assert np.array_equal(numkit.ode_evolve(np.zeros((3, 3)), p0, 0.0, 4.0, 0.1).final, p0)

    def test_zero_column_sums_conserve_total(self):
        rng = np.random.default_rng(41)
        m = rng.uniform(0.0, 0.5, size=(4, 4))
        np.fill_diagonal(m, 0.0)
        m -= np.diag(m.sum(axis=0))
        p0 = np.array([0.4, 0.3, 0.2, 0.1])
        traj = numkit.ode_evolve(m, p0, 0.0, 10.0, 1e-2)
        totals = traj.states.sum(axis=1)
        assert np.abs(totals - 1.0).max() <= 1e-10
