import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epiqmap import coupled, density, epidemic, numkit
from epiqmap.errors import ComplexSpectrumError, NonFiniteStateError


def series_expm(m, terms=30):
    """Independent oracle: raw truncated power series, no scaling."""
    out = np.eye(m.shape[0])
    term = out.copy()
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out


def one_matrix_expm(m):
    """Reference: scaling and squaring of one matrix, as mat_exp sums each sample."""
    norm = np.linalg.norm(m, np.inf)
    squarings = int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0
    a = m / 2.0 ** squarings
    result = term = np.eye(len(m), dtype=m.dtype)
    for k in range(1, 60):
        term = term @ a / k
        result = result + term
        if np.linalg.norm(term, np.inf) < 1e-18 * max(1.0, np.linalg.norm(result, np.inf)):
            break
    for _ in range(squarings):
        result = result @ result
    return result


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
        # mat_exp and eig are real solvers, and both refuse a complex matrix
        for fn in (numkit.mat_exp, numkit.eig):
            for m in (1j * np.diag([1.0, 2.0]), np.zeros((0, 2, 2), dtype=complex)):
                with pytest.raises(ValueError, match="expected a real matrix, got dtype complex128"):
                    fn(m)

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


class TestMatExpStack:
    """An (n, d, d) stack is exponentiated sample by sample, one matrix as a stack of one."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 16),
           exponents=st.lists(st.floats(-8.0, 6.0), max_size=6))
    def test_each_sample_is_its_own_exponential(self, seed, d, exponents):
        # inf-norms 2**e: 2**-8 takes no squaring and 2**6 takes seven, so
        # every stack mixes samples that stop and square at different counts;
        # entries spread over nine decades, so a term summed after a sample's
        # stop would move the last bits of its small entries
        rng = np.random.default_rng(seed)
        exponents = [-8.0, 6.0] + exponents
        shape = (len(exponents), d, d)
        m = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.uniform(-9.0, 0.0, size=shape)
        m *= (2.0 ** np.array(exponents) / np.abs(m).sum(axis=2).max(axis=1))[:, None, None]
        out = numkit.mat_exp(m)
        assert out.shape == m.shape and out.dtype == m.dtype
        for k in range(len(m)):
            one = numkit.mat_exp(m[k])
            assert one.shape == (d, d) and one.dtype == out.dtype
            assert out[k].tobytes() == one.tobytes() == one_matrix_expm(m[k]).tobytes()

    def test_empty_stack(self):
        out = numkit.mat_exp(np.zeros((0, 3, 3)))
        assert out.shape == (0, 3, 3) and out.dtype == float

    def test_messages(self):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
            numkit.mat_exp(np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"square matrix stack, got shape \(2, 2, 3\)"):
            numkit.mat_exp(np.zeros((2, 2, 3)))
        for m in (np.array([[np.nan, 0.0], [0.0, 0.0]]), np.full((2, 2, 2), np.inf)):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                numkit.mat_exp(m)
        for m in (np.zeros((17, 17)), np.zeros((2, 17, 17))):
            with pytest.raises(ValueError, match="dimension 17 exceeds supported maximum 16"):
                numkit.mat_exp(m)


class TestMatExpOverflow:
    """A finite matrix whose scaling or exponential overflows raises OverflowError."""

    @pytest.mark.parametrize("m, message", [
        ([[1e308, 1e308], [0.0, 0.0]], "inf-norm exceeds 2\\*\\*1022"),
        ([[1e307, 1e307], [0.0, 0.0]], "matrix exponential overflows"),
    ])
    def test_alone_and_in_a_stack(self, m, message):
        m = np.array(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=message + "$"):
                numkit.mat_exp(m)
            with pytest.raises(OverflowError, match=message + " in sample 1$"):
                numkit.mat_exp(np.array([0.1 * np.eye(2), m]))
            with pytest.raises(OverflowError, match=message + " in sample 0$"):
                numkit.mat_exp(np.array([m, 0.1 * np.eye(2)]))


def spread_error(spread):
    """Relative error of exp(-1) within a sample whose scales spread by the given factor."""
    return abs(numkit.mat_exp(np.diag([-spread, -1.0]))[1, 1] - np.exp(-1.0)) / np.exp(-1.0)


class TestMatExpSpread:
    """An entry is off by a relative error of order ||m||_inf * eps, whatever its own scale."""

    @pytest.mark.parametrize("spread", [1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6])
    def test_error_is_of_order_the_spread(self, spread):
        assert spread_error(spread) <= max(16.0, spread) * np.finfo(float).eps

    def test_accurate_to_1e_13_up_to_1e3_and_past_1e_12_from_1e5(self):
        assert max(spread_error(s) for s in (1.0, 10.0, 1e2, 1e3)) < 1e-13
        assert min(spread_error(s) for s in (1e5, 1e6)) > 1e-12


class TestEig:
    """numkit.eig: the closed-form eigenpairs of an (n, 2, 2) real stack."""

    def test_diagonal_sorted(self):
        values, vectors = numkit.eig(np.diag([3.0, 1.0])[None])
        assert values.tolist() == [[1.0, 3.0]]
        # vectors[0, j] belongs to values[0, j], unnormalized: e2, then e1
        assert np.array_equal(vectors[0] != 0, [[False, True], [True, False]])

    def test_symmetric_offdiagonal(self):
        values, _ = numkit.eig(np.array([[[0.0, 1.0], [1.0, 0.0]]]))
        assert values.tolist() == [[-1.0, 1.0]]

    def test_sign_convention_deterministic(self):
        # eig's vectors are a function of m's bits; the caller's printed scale
        # or its unit-norm fallback (first nonnegligible component positive) signs them
        m = np.array([[[2.0, -1.0], [-1.0, 0.5]]])
        _, v1 = numkit.eig(m)
        _, v2 = numkit.eig(-(-m))
        assert v1.tobytes() == v2.tobytes()
        units, singular = numkit.scale_vectors(-v1, np.zeros(v1.shape[:2]), 1e-10)
        assert singular.all()
        assert np.allclose(np.vecdot(units, units), 1.0, rtol=0.0, atol=1e-15)
        for unit in units[0]:
            assert unit[np.argmax(np.abs(unit) > 1e-12)] > 0

    def test_random_symmetric_vs_char_poly_oracle(self):
        rng = np.random.default_rng(17)
        base = rng.uniform(-1.0, 1.0, size=(50, 2, 2))
        m = 0.5 * (base + base.swapaxes(1, 2))
        values, vectors = numkit.eig(m)
        for sample, w, v in zip(m, values, vectors):
            for value, vector in zip(w, v):
                resid = np.abs(sample @ vector - value * vector).max()
                assert resid <= 1e-14 * np.abs(sample).max() * np.abs(vector).max()
            # companion-matrix roots of the characteristic polynomial
            roots = np.sort(np.roots(char_poly_coefficients(sample)).real)
            assert np.abs(w - roots).max() < 1e-12

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            numkit.eig(np.eye(9))
        with pytest.raises(ValueError, match=r"expected an \(n, 2, 2\) stack, got shape \(3, 9, 9\)"):
            numkit.eig(np.zeros((3, 9, 9)))


def real_spectrum_stack(seed, n):
    """n seeded real 2x2 matrices of mixed kinds, every spectrum real."""
    rng = np.random.default_rng(seed)
    stack = []
    for kind in rng.integers(0, 4, n):
        m = rng.uniform(-1.0, 1.0, (2, 2))
        if kind == 0:
            m = m + m.T
        elif kind == 1:
            m = np.triu(m)
        elif kind == 2:
            m = np.diag(rng.uniform(-1.0, 1.0, 2)) + 1e-15 * m
        else:
            m[0, 1], m[1, 0] = abs(m[0, 1]), abs(m[1, 0])
        stack.append(m * 10.0 ** rng.uniform(-300.0, 300.0))
    return np.array(stack)


class TestStackedEig:
    """eig of an (n, 2, 2) stack is, bit for bit, the stack of its samples' results."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    def test_stack_is_the_per_matrix_stack(self, seed, n):
        stack = real_spectrum_stack(seed, n)
        values, vectors = numkit.eig(stack)
        loop = [numkit.eig(stack[k:k + 1]) for k in range(n)]
        for stacked, looped in ((values, [w[0] for w, _ in loop]), (vectors, [v[0] for _, v in loop])):
            assert stacked.dtype == float and all(x.dtype == float for x in looped)
            assert stacked.tobytes() == np.array(looped).tobytes()

    def test_stack_raises_like_the_loop(self):
        with pytest.raises(ValueError):
            numkit.eig(np.array([np.eye(2), np.full((2, 2), np.nan)]))
        with pytest.raises(ValueError):
            numkit.eig(np.zeros((2, 2, 3)))

    def test_empty_stack(self):
        values, vectors = numkit.eig(np.zeros((0, 2, 2)))
        assert values.shape == (0, 2) and vectors.shape == (0, 2, 2)


class TestEigRetry:
    """Matrices a general eigensolver misses on its first solution, solved at once.

    Entries 300 decades apart defeat LAPACK's balanced eig, and a matrix
    symmetric to 1e-14 only, eigh; the closed form meets its bound on both.
    """

    @pytest.mark.parametrize("m", [
        [[0.0, 0.0], [1e-15, 0.0]],
        [[-1.0, 1e-300], [1.0, -1e-300]],
    ], ids=["small_asymmetric", "spread_entries"])
    def test_refused_samples_are_solved(self, m):
        m = np.array(m)
        values, vectors = numkit.eig(m[None])
        assert np.abs(m @ vectors[0].T - vectors[0].T * values[0]).max() <= 1e-290
        stack = np.array([np.diag([1.0, 2.0]), m, [[0.5, 0.2], [0.8, -0.3]]])
        stacked = numkit.eig(stack)
        for k in range(3):
            alone = numkit.eig(stack[k:k + 1])
            assert stacked[0][k].tobytes() == alone[0][0].tobytes()
            assert stacked[1][k].tobytes() == alone[1][0].tobytes()

    def test_subnormal_sample_meets_its_own_norm(self):
        # a nilpotent matrix of one subnormal entry: both values 0, both vectors one line
        m = np.array([[0.0, 0.0], [2.22507386e-313, 0.0]])
        values, vectors = numkit.eig(m[None])
        assert values.tolist() == [[0.0, 0.0]]
        assert np.abs(m @ vectors[0].T - vectors[0].T * values[0]).max() == 0.0

    def test_a_complex_spectrum_is_still_refused(self):
        with pytest.raises(ComplexSpectrumError, match=r"discriminant = -4\.0$"):
            numkit.eig(np.array([np.eye(2), [[0.0, -1.0], [1.0, 0.0]]]))


# the edge values of a 2x2 entry, each drawn with either sign
EDGE_VALUES = [0.0, 1e-300, 1e-20, 1e-15, 1e-12, 1e-8, 1e-4, 0.3, 0.5, 1.0]
edge_entry = st.tuples(st.sampled_from(EDGE_VALUES), st.sampled_from([1.0, -1.0])).map(
    lambda pair: pair[0] * pair[1])
edge_matrix = st.lists(edge_entry, min_size=4, max_size=4).map(lambda e: np.reshape(e, (2, 2)))


def prescaled_discriminant(m):
    """delta**2 + 4 s12 s21 of m scaled by the power of two that brings max |entry| into [0.5, 1)."""
    (s11, s12), (s21, s22) = np.ldexp(m, -np.frexp(np.abs(m).max())[1])
    delta = s11 - s22
    return delta * delta + 4.0 * s12 * s21


def assert_eigenpair(m, value, vector):
    """m vector = value vector within 1e-14 of max |m| times max |vector|."""
    assert np.isfinite(vector).all() and vector.dtype == float
    residual = np.abs(m @ vector - value * vector).max()
    assert residual <= 1e-14 * np.abs(m).max() * np.abs(vector).max()


class TestEigClosedForm:
    """The closed form on entries over 300 decades, prescaled by a power of two.

    Every pair meets 1e-14 of max |m| |v|, the vectors of 2**k m are those
    of m bit for bit and its values 2**k times m's, ComplexSpectrumError
    is raised exactly where the prescaled discriminant is negative, and
    sample k of a stack is sample k alone.
    """

    @settings(max_examples=400, deadline=None)
    @given(draws=st.lists(edge_matrix, min_size=1, max_size=6), k=st.integers(-900, 900))
    # the epidemic2 generator whose unscaled discriminant underflows to 0
    @example(draws=[np.array([[0.0, -7.1e-301], [6.9e-301, 5.6e-301]])], k=0)
    @example(draws=[np.full((2, 2), 1e-300)], k=3)
    def test_closed_form(self, draws, k):
        m = np.array(draws)
        complex_ = np.array([prescaled_discriminant(sample) < 0 for sample in m])
        if complex_.any():
            with pytest.raises(ComplexSpectrumError) as stacked:
                numkit.eig(m)
            with pytest.raises(ComplexSpectrumError) as alone:
                numkit.eig(m[complex_][:1])
            assert str(stacked.value) == str(alone.value)
            m = m[~complex_]
        values, vectors = numkit.eig(m)
        assert (values[:, 0] <= values[:, 1]).all()
        for j in range(len(m)):
            for value, vector in zip(values[j], vectors[j]):
                assert_eigenpair(m[j], value, vector)
            alone = numkit.eig(m[j:j + 1])
            assert values[j].tobytes() == alone[0][0].tobytes()
            assert vectors[j].tobytes() == alone[1][0].tobytes()
        scaled = np.ldexp(m, k)
        # only a scaling that loses no bit of any entry
        assume(np.array_equal(np.ldexp(scaled, -k), m))
        scaled_values, scaled_vectors = numkit.eig(scaled)
        assert scaled_vectors.tobytes() == vectors.tobytes()
        tiny = np.finfo(float).tiny
        normal = ((values == 0) | (np.abs(values) >= tiny)) & (
            (scaled_values == 0) | (np.abs(scaled_values) >= tiny))
        with np.errstate(over="ignore"):
            assert np.array_equal(scaled_values[normal], np.ldexp(values[normal], k))

    def test_underflowing_discriminant_is_complex(self):
        # delta**2 + 4 s12 s21 is 0 at this scale, and -2.95 prescaled
        m = np.array([[[0.0, -7.1e-301], [6.9e-301, 5.6e-301]]])
        with pytest.raises(ComplexSpectrumError):
            numkit.eig(m)

    def test_overflowing_row_sums_warn_nothing(self):
        m = np.array([[[1e308, 1e308], [1e308, 1e308]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, vectors = numkit.eig(m)
        # the eigenvalues are 0 and 2e308, beyond the float range
        assert values.tolist() == [[0.0, np.inf]]
        assert np.isfinite(vectors).all()


# A 2x2 entry is 0 or of any magnitude from 1e-300 to 1.  A traffic
# matrix's entries are 0 or of magnitude [1e-3, 1], its diagonal rates
# nonzero, and s21 may be tiny.
nonzero = st.one_of(st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
unit = st.one_of(st.just(0.0), nonzero)


def signed(magnitudes):
    return st.sampled_from([1.0, -1.0]).flatmap(lambda sign: magnitudes.map(lambda x: sign * x))


spread = st.one_of(unit, signed(st.floats(1e-300, 1e-3)))
tiny = signed(st.floats(0.0, 1e-11))


@st.composite
def frame_fallbacks(draw):
    """A 2x2 rate matrix with a tiny s21, or with equal column sums, whose other vector sums to 0."""
    s11, s12, s22 = draw(spread), draw(spread), draw(spread)
    kind = draw(st.sampled_from(["s21", "denominator", "columns"]))
    if kind == "s21":
        return np.array([[s11, s12], [draw(tiny), s22]])
    if kind == "columns":
        # columns summing to zero
        s12 = abs(s12)
        return np.array([[-abs(s11), s12], [abs(s11), -s12]])
    # s21 = s12 - (s11 - s22): both columns sum to s12 + s22
    return np.array([[s11, s12], [s12 - (s11 - s22), s22]])


@st.composite
def traffic_fallbacks(draw):
    """A symmetric traffic matrix whose cross rate s is +-s21, so a block is triangular."""
    s11, s22 = draw(nonzero), draw(nonzero)
    s12, s21 = draw(unit), draw(st.one_of(unit, tiny))
    s = s21 * draw(st.sampled_from([1.0, -1.0]))
    return coupled.symmetric_traffic_generator(epidemic.Generator2(s11, s12, s21, s22), s).matrix(0.0)


def in_domain(m):
    """Whether m has a real spectrum (a 4x4 one: two real block spectra)."""
    try:
        epidemic.matrix_frame(m) if m.shape == (2, 2) else coupled.matrix_modes(m[None])
    except ComplexSpectrumError:
        return False
    return True


FRAME_FIELDS = [f.name for f in dataclasses.fields(epidemic.SpectralFrame2)]


def assert_printed(printed, raw, scale, floor):
    """printed is raw / scale, or, where |scale| < floor |raw|, raw of unit norm, signed.

    Returns whether the scale was singular.
    """
    size = np.hypot(*raw)
    if abs(scale) >= floor * size:
        assert printed.tobytes() == (raw / scale).tobytes()
        return False
    assert abs(printed @ printed - 1.0) <= 1e-15
    assert printed[np.argmax(np.abs(printed) > 1e-12)] > 0
    assert abs(printed[0] * raw[1] - printed[1] * raw[0]) <= 1e-15 * size
    return True


class TestCallerFallbacks:
    """Each caller's printed scale, and the unit-norm fallback where that scale is singular.

    matrix_frame divides each vector of numkit.eig by its component sum,
    matrix_modes each block vector u by c u[1], so that its second
    component is c; a vector whose scale is below the caller's floor
    (1e-10) of its norm has unit norm instead, its first nonnegligible
    component positive, and flags its sample.  Every vector is an
    eigenvector within 1e-14 of max |m| |v|, and a stack is its samples.
    """

    @settings(max_examples=150, deadline=None)
    @given(draws=st.lists(frame_fallbacks(), min_size=1, max_size=8))
    # a subnormal s21 alone
    @example(draws=[np.array([[0.0, 0.0], [2.22507386e-313, 0.0]])])
    def test_frame(self, draws):
        m = np.array([d for d in draws if in_domain(d)])
        assume(len(m))
        frame = epidemic.matrix_frame(m)
        values, raw = numkit.eig(m)
        for k in range(len(m)):
            singular = False
            for value, v, r in ((frame.e1[k], frame.v1[k], raw[k, 0]), (frame.e2[k], frame.v2[k], raw[k, 1])):
                assert_eigenpair(m[k], value, v)
                singular |= assert_printed(v, r, r.sum(), 1e-10)
            assert frame.numeric_fallback[k] == singular
            one = epidemic.matrix_frame(m[k])
            for name in FRAME_FIELDS:
                assert np.asarray(getattr(frame, name))[k].tobytes() == np.asarray(getattr(one, name)).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(draws=st.lists(traffic_fallbacks(), min_size=1, max_size=8))
    def test_modes(self, draws):
        m = np.array([d for d in draws if in_domain(d)])
        assume(len(m))
        values, vectors, fallback = coupled.matrix_modes(m)
        assert fallback.all()
        for k in range(len(m)):
            singular = False
            for j, c in enumerate((-1.0, -1.0, 1.0, 1.0)):
                assert_eigenpair(m[k], values[k, j], vectors[k, j])
                u = vectors[k, j, :2]
                assert vectors[k, j, 2:].tobytes() == (c * u).tobytes()
                if u[1] != c:
                    assert abs(u @ u - 1.0) <= 1e-15
                    assert u[np.argmax(np.abs(u) > 1e-12)] > 0
                    singular = True
            assert singular
            one = coupled.matrix_modes(m[k:k + 1])
            assert values[k].tobytes() == one[0][0].tobytes()
            assert vectors[k].tobytes() == one[1][0].tobytes()


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

    def test_state_of_more_than_max_dim_refused(self):
        # refused by rk4_path before it allocates the states
        with pytest.raises(ValueError, match="exceeds supported maximum 16"):
            numkit.ode_evolve(np.zeros((17, 17)), np.ones(17), 0, 1, 0.1)
        d = numkit.MAX_DIM
        assert np.array_equal(numkit.ode_evolve(np.zeros((d, d)), np.ones(d), 0, 1, 0.1).final,
                              np.ones(d))

    def test_state_of_more_than_max_dim_refused_before_the_time_grid(self):
        # the grid of MAX_STEPS steps alone would take 80 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds supported maximum 16"):
                numkit.ode_evolve(np.zeros((17, 17)), np.ones(17), 0, 1, numkit.MAX_STEPS ** -1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

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

        traj = numkit.rk4_path(rhs, np.array([1.0]), *grid(0.1, 0.7, 0.003), np.ndarray.tolist,
                               failing_block)
        h = (0.7 - 0.1) / (len(traj) - 1)
        expected = []
        for t in traj.times[:-1]:
            expected += [t, t + 0.5 * h, t + 0.5 * h, t + h]
        assert seen == expected

    def test_non_finite_reports_time(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as info:
            numkit.ode_evolve(np.array([[1e8]]), np.array([1.0]), 0.0, 10.0, 0.1)
        assert info.value.time > 0


def failing_block(f, y, stages, h, rows):
    """A fast pass that always fails, so rk4_path steps each block by its checked replay."""
    raise ValueError("no fast pass")


def broadcast(g):
    """g as a generator-protocol callable."""
    return lambda ts: np.broadcast_to(g, (len(ts),) + g.shape)


def random_system(seed, d, complex_valued):
    rng = np.random.default_rng(seed)
    g = rng.uniform(-1.0, 1.0, size=(d, d))
    y0 = rng.uniform(-1.0, 1.0, size=d)
    if complex_valued:
        g = g + 1j * rng.uniform(-1.0, 1.0, size=(d, d))
        y0 = y0 + 1j * rng.uniform(-1.0, 1.0, size=d)
    return g, y0


def stage_rk4_step(g1, g2, g3, y, h):
    """One RK4 step of dy/dt = G y on vectors, stage matrices g1, g2, g3."""
    k1 = g1 @ y
    k2 = g2 @ (y + 0.5 * h * k1)
    k3 = g2 @ (y + 0.5 * h * k2)
    k4 = g3 @ (y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestIncrementPath:
    """Each step of a linear system is y + D @ y, D = rk4_step_matrix(h G1, h G2, h G3)."""

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
        stage = per_step_rk4_path(matmul_rhs, y0, t0, t1, dt, broadcast(g))
        assert np.array_equal(const.times, stage.times)
        assert const.states.dtype == stage.states.dtype
        scale = np.abs(stage.states).max()
        assert np.abs(const.states - stage.states).max() <= 1e-12 * scale

    def test_spans_off_the_step_grid(self):
        # 0.7 / 0.3 is not a whole number of steps: the step shrinks to 0.7 / 3
        g, y0 = random_system(5, 4, False)
        const = numkit.ode_evolve(g, y0, 0.0, 0.7, 0.3)
        stage = per_step_rk4_path(matmul_rhs, y0, 0.0, 0.7, 0.3, broadcast(g))
        assert len(const) == 4 and const.times[-1] == 0.7
        assert np.abs(const.states - stage.states).max() <= 1e-14 * np.abs(stage.states).max()

    def test_empty_span(self):
        traj = numkit.ode_evolve(np.eye(2), np.array([1.0, 2.0]), 0.5, 0.5, 0.1)
        assert np.array_equal(traj.times, [0.5]) and np.array_equal(traj.states, [[1.0, 2.0]])

    def test_matrix_equals_callable_that_broadcasts_it(self):
        g, y0 = random_system(8, 4, True)
        n_steps = 2 * numkit.STAGE_BLOCK + 7
        const = numkit.ode_evolve(g, y0, 0.0, n_steps * 0.01, 0.01)
        called = numkit.ode_evolve(broadcast(g), y0, 0.0, n_steps * 0.01, 0.01)
        assert const.times.tobytes() == called.times.tobytes()
        assert const.states.dtype == called.states.dtype
        assert const.states.tobytes() == called.states.tobytes()

    def test_complex_matrix_makes_complex_states(self):
        g, _ = random_system(2, 2, True)
        traj = numkit.ode_evolve(g, np.array([1.0, 0.0]), 0.0, 1.0, 0.1)
        assert traj.states.dtype == complex
        assert np.abs(traj.states.imag).max() > 0

    def test_complex_generator_refuses_a_real_state(self):
        # the real states could not hold the imaginary parts
        with pytest.raises(ValueError, match="complex"):
            numkit.ode_evolve(lambda ts: np.broadcast_to([[0, 1j], [1j, 0]], (len(ts), 2, 2)),
                              [1.0, 0.0], 0, 1, 0.1)

    def test_step_matrix_is_one_rk4_step(self):
        g1, y0 = random_system(3, 4, True)
        g2, g3 = random_system(4, 4, True)[0], random_system(5, 4, True)[0]
        h = 0.05
        # one constant generator, then three distinct stage matrices
        for stages in ((g1, g1, g1), (g1, g2, g3)):
            step = y0 + numkit.rk4_step_matrix(*(h * g for g in stages)) @ y0
            assert np.abs(step - stage_rk4_step(*stages, y0, h)).max() <= 1e-14

    def test_step_matrix_of_a_stack(self):
        a1, a2, a3 = np.random.default_rng(9).uniform(-0.1, 0.1, size=(3, 5, 3, 3))
        batched = numkit.rk4_step_matrix(a1, a2, a3)
        assert batched.shape == (5, 3, 3)
        for k, d in enumerate(batched):
            assert np.array_equal(d, numkit.rk4_step_matrix(a1[k], a2[k], a3[k]))

    def test_constant_stretch_of_a_table_matches_per_step_reference(self):
        # s12 is flat up to t = 1 and rises after it: the first blocks form
        # one increment matrix, the block across t = 1 and those after it one
        # per step
        generator = epidemic.Generator2(-0.2, [[0.0, 0.1], [1.0, 0.1], [2.0, 0.4]], 0.2, -0.1)
        p0 = np.array([0.6, 0.4])
        traj = numkit.ode_evolve(generator.matrix, p0, 0.0, 2.0, 1e-3)
        reference = block_increment_path(generator.matrix, p0, 0.0, 2.0, 1e-3)
        stage = per_step_rk4_path(matmul_rhs, p0, 0.0, 2.0, 1e-3, generator.matrix)
        assert traj.states.tobytes() == reference.states.tobytes()
        assert np.abs(traj.states - stage.states).max() <= 1e-13 * np.abs(stage.states).max()

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
                per_step_rk4_path(matmul_rhs, y0, 0.0, sign * 10.0, dt, broadcast(g))
        assert const.value.time == stage.value.time

    def test_overflowed_doubling_is_replayed_step_by_step(self):
        # each step multiplies y by about 1e14: the states stay finite up
        # to t = 43, but the doubled increment of 32 steps overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as const:
                numkit.ode_evolve([[7000.0]], [1e-300], 0, 60, 1)
            with pytest.raises(NonFiniteStateError) as stage:
                per_step_rk4_path(matmul_rhs, np.array([1e-300]), 0, 60, 1,
                                  broadcast(np.array([[7000.0]])))
        assert const.value.time == stage.value.time == 44.0

    def test_fast_pass_warns_of_nothing(self):
        # the doubled increment of the unexcited 7000 mode overflows and
        # meets a zero component (nan): each block is replayed, and its
        # states are finite, so the caller sees no floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = numkit.ode_evolve(np.diag([7000.0, -1.0]), [0.0, 1.0], 0, 10, 0.01)
        assert (traj.states[:, 0] == 0).all() and np.isfinite(traj.states).all()

    def test_non_finite_initial_state_fails_at_first_step(self):
        y0 = np.array([np.nan, 1.0])
        with pytest.raises(NonFiniteStateError) as const:
            numkit.ode_evolve(np.eye(2), y0, 0.0, 1.0, 0.1)
        with pytest.raises(NonFiniteStateError) as stage:
            per_step_rk4_path(matmul_rhs, y0, 0.0, 1.0, 0.1, broadcast(np.eye(2)))
        assert const.value.time == stage.value.time == 0.1


def grid(t0, t1, dt):
    """(times, h) of the run's one grid, as numkit.rk4_chunks lays it out.

    step_count steps of h = (t1 - t0) / step_count, the last time
    exactly t1; a run of no steps is its one sample t0.
    """
    n_steps = numkit.step_count(t0, t1, dt)
    if n_steps == 0:
        return np.array([t0], dtype=float), 0.0
    h = (t1 - t0) / n_steps
    times = t0 + h * np.arange(n_steps + 1)
    times[-1] = t1
    return times, h


def per_step_rk4_path(f, y0, t0, t1, dt, stage_values=None):
    """Per-stage RK4, as rk4_path stepped before its per-block finiteness check.

    Each stage value is one NumPy index and every step's state is
    checked as it is made: the reference the sqrt flow must equal bit
    for bit, and the linear path to rounding, error for error.
    """
    times, h = grid(t0, t1, dt)
    y = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float).copy()
    n_steps = len(times) - 1
    half, sixth = 0.5 * h, h / 6.0
    states = np.empty((n_steps + 1, len(y)), dtype=y.dtype)
    states[0] = y
    for start in range(0, n_steps, numkit.STAGE_BLOCK):
        t = times[start:min(start + numkit.STAGE_BLOCK, n_steps)]
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
    return numkit.Trajectory(times, states)


def block_increment_path(generator, y0, t0, t1, dt):
    """ode_evolve as numkit._increment_block's docstring composes each block.

    A block of m steps whose stage matrices are all equal fills its
    states by doubling one increment E (the increment of n steps when n
    states are filled); any other block scans its per-step increments
    D_j, matrix by matrix, into the increment from its first state to
    each of its states.  Nothing is checked for finiteness.
    """
    times, h = grid(t0, t1, dt)
    y = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float).copy()
    n_steps = len(times) - 1
    states = np.empty((n_steps + 1, len(y)), dtype=y.dtype)
    states[0] = y
    for start in range(0, n_steps, numkit.STAGE_BLOCK):
        t = times[start:min(start + numkit.STAGE_BLOCK, n_steps)]
        m = len(t)
        a = h * generator(np.concatenate((t, t + 0.5 * h, t + h)))
        increments = numkit.rk4_step_matrix(a[:m], a[m:2 * m], a[2 * m:])
        rows = states[start + 1:start + 1 + m]
        if (a == a[0]).all():
            e = increments[0]
            rows[0] = y + e @ y
            n = 1
            while n < m:
                rows[n:2 * n] = rows[:n][:m - n] + rows[:n][:m - n] @ e.T
                e = e + e + e @ e
                n *= 2
        else:
            # round k composes each increment with the one k steps earlier
            k = 1
            while k < m:
                previous = increments.copy()
                for j in range(k, m):
                    increments[j] = (previous[j] + previous[j - k]
                                     + previous[j] @ previous[j - k])
                k *= 2
            for j in range(m):
                rows[j] = y + increments[j] @ y
        y = rows[-1]
    return numkit.Trajectory(times, states)


def matmul_rhs(g, y):
    return g @ y


def half_rates_rhs(generator):
    """The sqrt flow's right-hand side with @.

    Without the floor screen, which changes no value on these flows.
    """
    half = 0.5 * np.asarray(generator, dtype=float)

    def rhs(tau, a):
        return half @ (a * a) / a
    return rhs


def time_dependent(g, b):
    """G(t) = g + sin(t) b under the generator protocol."""
    return lambda ts: g + np.sin(ts)[:, None, None] * b


def spike_times(k, h):
    """An interval holding the middle stage time of step k (from t = 0) alone."""
    return (k - 0.75) * h, (k - 0.25) * h


class TestLeanStagePath:
    """The block-checked paths equal their per-step loops bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(2, False), (4, False), (8, False), (16, False),
                               (2, True), (4, True)]),
        varying=st.booleans(),
        t0=st.floats(-5.0, 5.0),
        n_steps=st.integers(1, 2 * numkit.STAGE_BLOCK + 60),
        dt=st.floats(0.001, 0.02),
        backward=st.booleans(),
    )
    def test_callable_generator_equals_per_step_loop(
        self, seed, shape, varying, t0, n_steps, dt, backward
    ):
        g, y0 = random_system(seed, *shape)
        b, _ = random_system(seed + 1, *shape)
        generator = time_dependent(g, b) if varying else broadcast(g)
        t1 = t0 - n_steps * dt if backward else t0 + n_steps * dt
        lean = numkit.ode_evolve(generator, y0, t0, t1, dt)
        reference = block_increment_path(generator, y0, t0, t1, dt)
        assert lean.times.tobytes() == reference.times.tobytes()
        assert lean.states.dtype == reference.states.dtype
        assert lean.states.tobytes() == reference.states.tobytes()
        stage = per_step_rk4_path(matmul_rhs, y0, t0, t1, dt, generator)
        assert np.abs(lean.states - stage.states).max() <= 1e-13 * np.abs(stage.states).max()

    @pytest.mark.parametrize("generator, p0", [
        (np.array([[-0.3, 0.2, 0.1], [0.2, -0.4, 0.3], [0.1, 0.2, -0.4]]),
         np.array([0.5, 0.3, 0.2])),
    ], ids=["constant"])
    @pytest.mark.parametrize("t1", [0.7003, -0.41])
    def test_sqrt_flow_equals_per_step_loop(self, generator, p0, t1):
        lean = density.evolve_sqrt_trajectory(generator, p0, 0.0, t1, 1e-3)
        reference = per_step_rk4_path(half_rates_rhs(generator), np.sqrt(p0), 0.0, t1, 1e-3)
        assert lean.states.tobytes() == reference.states.tobytes()

    # step k = 1 opens the run; 128 closes the first block and 129 opens
    # the second; 200 is inside it
    @pytest.mark.parametrize("k", [1, 128, 129, 200])
    def test_overflow_time_and_message(self, k):
        # G = 1e308 I at the middle stage time of step k: 2 k2 overflows
        # there, and so does the increment matrix folded from h G
        h = 0.01
        lo, hi = spike_times(k, h)

        def generator(ts):
            scale = np.where((ts > lo) & (ts < hi), 1e308, 0.1)
            return scale[:, None, None] * np.eye(2)

        y0 = np.array([1.0, 0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as lean:
                numkit.ode_evolve(generator, y0, 0.0, 3.0, h)
            with pytest.raises(NonFiniteStateError) as reference:
                per_step_rk4_path(matmul_rhs, y0, 0.0, 3.0, h, generator)
        assert lean.value.time == reference.value.time == grid(0.0, 3.0, h)[0][k]
        assert str(lean.value) == str(reference.value)

    @pytest.mark.parametrize("k", [1, 128, 129, 200])
    def test_rhs_raising_on_non_finite_input(self, k):
        # the stage derivative is 1e308 at the middle stage time of step k,
        # so the state of step k is inf while every stage input was finite;
        # the block's next step hands rhs an inf state, and rhs raises
        h = 0.01
        lo, hi = spike_times(k, h)

        def rhs(t, y):
            if not np.isfinite(y).all():
                raise ValueError("non-finite input")
            return np.full_like(y, 1e308 if lo < t < hi else 1.0)

        y0 = np.array([1.0, 0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as lean:
                numkit.rk4_path(rhs, y0, *grid(0.0, 3.0, h), np.ndarray.tolist, failing_block)
            with pytest.raises(NonFiniteStateError) as reference:
                per_step_rk4_path(rhs, y0, 0.0, 3.0, h)
        assert lean.value.time == reference.value.time
        assert str(lean.value) == str(reference.value)

    def test_rhs_error_on_a_finite_state_is_raised_unchanged(self):
        def rhs(t, y):
            if t > 1.5:
                raise ZeroDivisionError("rates undefined at t = %.17g" % t)
            return -y

        with pytest.raises(ZeroDivisionError) as lean:
            numkit.rk4_path(rhs, np.array([1.0]), *grid(0.0, 3.0, 0.01), np.ndarray.tolist,
                            failing_block)
        with pytest.raises(ZeroDivisionError) as reference:
            per_step_rk4_path(rhs, np.array([1.0]), 0.0, 3.0, 0.01)
        assert str(lean.value) == str(reference.value)


def blockwise(matrices, pattern, h, zero_stride):
    """A generator constant within each block of rk4_path, matrices[pattern[b]] in block b.

    The block is read from the first stage time a call is handed.  A
    zero-stride stack is constant without being compared; a copied one
    goes through the elementwise comparison.
    """
    def generator(ts):
        g = matrices[pattern[round(ts[0] / (numkit.STAGE_BLOCK * h))]]
        stack = np.broadcast_to(g, (len(ts),) + g.shape)
        return stack if zero_stride else stack.copy()
    return generator


class TestIncrementLadder:
    """A constant block reuses the ladder an earlier block of the same call built."""

    @pytest.mark.parametrize("zero_stride", [True, False])
    @pytest.mark.parametrize("shape", [(2, False), (4, True), (16, False)])
    def test_jumping_between_blocks_equals_reference(self, zero_stride, shape):
        # blocks 0-1 share a matrix, block 2 jumps, block 3 returns to the
        # first, and the last block (58 steps) repeats block 4's
        g0, y0 = random_system(11, *shape)
        g1, _ = random_system(12, *shape)
        g2, _ = random_system(13, *shape)
        matrices = (0.3 * g0, 0.3 * g1, 0.3 * g2)
        dt = 0.01
        n_steps = 5 * numkit.STAGE_BLOCK + 58
        generator = blockwise(matrices, [0, 0, 1, 0, 2, 2], dt, zero_stride)
        lean = numkit.ode_evolve(generator, y0, 0.0, n_steps * dt, dt)
        reference = block_increment_path(generator, y0, 0.0, n_steps * dt, dt)
        assert lean.states.tobytes() == reference.states.tobytes()

    @pytest.mark.parametrize("constant", ["matrix", "rate_matrix"])
    def test_one_ladder_per_call(self, monkeypatch, constant):
        built = []

        def counted(a1, a2, a3):
            built.append(a1.shape)
            return step_matrix(a1, a2, a3)

        step_matrix = numkit.rk4_step_matrix
        monkeypatch.setattr(numkit, "rk4_step_matrix", counted)
        g = np.array([[-0.3, 0.2], [0.3, -0.2]])
        generator = g if constant == "matrix" else epidemic.RateMatrix(g).matrix
        y0 = np.array([0.6, 0.4])
        span = 40 * numkit.STAGE_BLOCK * 0.01
        # 40 blocks, then 20 with twice the step: each call builds its own
        # ladder, where a shared one would step by the first call's h
        for dt in (0.01, 0.02):
            built.clear()
            lean = numkit.ode_evolve(generator, y0, 0.0, span, dt)
            assert built == [(2, 2)]
            reference = block_increment_path(broadcast(g), y0, 0.0, span, dt)
            assert lean.states.tobytes() == reference.states.tobytes()

    @pytest.mark.parametrize("zero_stride", [True, False])
    @pytest.mark.parametrize("first_bad_block", [0, 2])
    def test_nan_entry_fails_at_the_per_step_time(self, zero_stride, first_bad_block):
        good = np.array([[-0.3, 0.2], [0.3, -0.2]])
        bad = good.copy()
        bad[1, 0] = np.nan
        pattern = [0] * first_bad_block + [1] * 4
        generator = blockwise((good, bad), pattern, 0.01, zero_stride)
        y0 = np.array([0.6, 0.4])
        t1 = 3 * numkit.STAGE_BLOCK * 0.01
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as lean:
                numkit.ode_evolve(generator, y0, 0.0, t1, 0.01)
            with pytest.raises(NonFiniteStateError) as reference:
                per_step_rk4_path(matmul_rhs, y0, 0.0, t1, 0.01, generator)
        first_step = grid(0.0, t1, 0.01)[0][first_bad_block * numkit.STAGE_BLOCK + 1]
        assert lean.value.time == reference.value.time == first_step
        assert str(lean.value) == str(reference.value)


def joined(chunks):
    """(times, states) of a chunk stream, concatenated."""
    chunks = list(chunks)
    return np.concatenate([c.times for c in chunks]), np.concatenate([c.states for c in chunks])


def whole_grid_run(stream, *args):
    """stream(*args)'s run as one rk4_path call over the whole grid's times.

    A chunk of more steps than any run has makes the stream that one
    call, which is how a run was stepped before it was streamed.  args
    are (..., t0, t1, dt), as every stream of the package takes them.
    """
    with mock.patch.object(numkit, "RUN_CHUNK", numkit.MAX_STEPS):
        (run,) = stream(*args)
    assert run.times.tobytes() == grid(*args[2:5])[0].tobytes()
    return run


def assert_stream_is_run(chunks, run):
    """The stream's samples are the run's, byte for byte."""
    times, states = joined(chunks)
    assert times.tobytes() == run.times.tobytes()
    assert states.dtype == run.states.dtype
    assert states.tobytes() == run.states.tobytes()


# no steps, less than one chunk, and up to three chunks and a part block
chunk_steps = st.one_of(st.just(0), st.integers(1, numkit.RUN_CHUNK - 1),
                        st.integers(numkit.RUN_CHUNK - 1, 3 * numkit.RUN_CHUNK + 130))


class TestRunChunks:
    """ode_chunks streams ode_evolve's run in block-aligned chunks."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(1, False), (2, False), (4, False), (16, False),
                               (2, True), (4, True)]),
        varying=st.booleans(),
        t0=st.floats(-5.0, 5.0),
        n_steps=chunk_steps,
        dt=st.floats(0.001, 0.005),
        backward=st.booleans(),
        ragged=st.booleans(),
    )
    def test_chunks_concatenate_to_the_run(
        self, seed, shape, varying, t0, n_steps, dt, backward, ragged
    ):
        g, y0 = random_system(seed, *shape)
        b, _ = random_system(seed + 1, *shape)
        generator = time_dependent(0.3 * g, 0.3 * b) if varying else 0.3 * g
        # a ragged span ends off the dt grid, so the last step is shrunk
        span = (n_steps - 0.37 * ragged) * dt if n_steps else 0.0
        t1 = t0 - span if backward else t0 + span
        run = whole_grid_run(numkit.ode_chunks, generator, y0, t0, t1, dt)
        assert len(run) == n_steps + 1
        assert_stream_is_run(numkit.ode_chunks(generator, y0, t0, t1, dt), run)
        assert_stream_is_run([numkit.ode_evolve(generator, y0, t0, t1, dt)], run)

    @pytest.mark.parametrize("n_steps", [0, 1, numkit.RUN_CHUNK - 1, numkit.RUN_CHUNK,
                                         numkit.RUN_CHUNK + 1, 3 * numkit.RUN_CHUNK + 5])
    def test_one_rk4_path_call_per_chunk(self, monkeypatch, n_steps):
        # a counting wrapper in place of the module attribute, as the
        # benchmark's spans install theirs: steps are len(result) - 1
        steps = []

        def rk4_path(*args, **kwargs):
            result = original(*args, **kwargs)
            steps.append(len(result) - 1)
            return result

        original = numkit.rk4_path
        monkeypatch.setattr(numkit, "rk4_path", rk4_path)
        chunks = list(numkit.ode_chunks(np.eye(2), np.ones(2), 0.0, n_steps * 0.01, 0.01))
        assert len(steps) == max(1, -(-n_steps // numkit.RUN_CHUNK)) == len(chunks)
        assert sum(steps) == n_steps == sum(map(len, chunks)) - 1

    def test_one_ladder_per_run(self, monkeypatch):
        built = []

        def counted(a1, a2, a3):
            built.append(a1.shape)
            return step_matrix(a1, a2, a3)

        step_matrix = numkit.rk4_step_matrix
        monkeypatch.setattr(numkit, "rk4_step_matrix", counted)
        chunks = numkit.ode_chunks(np.array([[-0.3, 0.2], [0.3, -0.2]]), [0.6, 0.4],
                                   0.0, 3.5 * numkit.RUN_CHUNK * 0.01, 0.01)
        assert len(list(chunks)) == 4 and built == [(2, 2)]

    @pytest.mark.parametrize("zero_stride", [True, False])
    def test_nan_entry_past_the_first_chunk_fails_at_the_same_time(self, zero_stride):
        good = np.array([[-0.3, 0.2], [0.3, -0.2]])
        bad = good.copy()
        bad[1, 0] = np.nan
        first_bad_block = numkit.RUN_CHUNK // numkit.STAGE_BLOCK + 3
        pattern = [0] * first_bad_block + [1] * 4
        generator = blockwise((good, bad), pattern, 0.01, zero_stride)
        y0 = np.array([0.6, 0.4])
        t1 = (first_bad_block + 2) * numkit.STAGE_BLOCK * 0.01
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as run:
                numkit.ode_evolve(generator, y0, 0.0, t1, 0.01)
            with pytest.raises(NonFiniteStateError) as stream:
                list(numkit.ode_chunks(generator, y0, 0.0, t1, 0.01))
        assert stream.value.time == run.value.time
        assert str(stream.value) == str(run.value)

    def test_refused_before_stepping(self, monkeypatch):
        # the shape checks and the step budget at the call, the dimension
        # at the first chunk: nothing is stepped or allocated before either
        with pytest.raises(ValueError, match="exceeds supported maximum 16"):
            next(numkit.ode_chunks(np.zeros((17, 17)), np.ones(17), 0, 1, 0.1))
        with pytest.raises(ValueError, match="does not match"):
            numkit.ode_chunks(np.zeros((3, 3)), np.ones(2), 0, 1, 0.1)
        monkeypatch.setattr(numkit, "MAX_STEPS", 50)
        with pytest.raises(ValueError, match="more than 50 steps"):
            numkit.ode_chunks(np.zeros((2, 2)), np.ones(2), 0.0, 1.0, 0.01)

    def test_run_chunk_is_whole_blocks(self):
        assert numkit.RUN_CHUNK % numkit.STAGE_BLOCK == 0

    def test_collected_run_holds_its_trajectory_and_the_stream(self):
        # the traced peak less the returned Trajectory is the stream's
        # working set (the chunk being stepped and the one last copied), the
        # same at 20,001 and 200,001 samples; a collector that concatenated
        # the chunks would hold the states twice
        g = 0.05 * random_system(3, 16, False)[0]
        y0 = np.full(16, 0.25)
        numkit.ode_evolve(g, y0, 0.0, 1.0, 1e-3)
        excess = []
        for n_steps in (20_000, 200_000):
            tracemalloc.start()
            try:
                run = numkit.ode_evolve(g, y0, 0.0, n_steps * 1e-3, 1e-3)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(run) == n_steps + 1
            assert held >= run.times.nbytes + run.states.nbytes
            excess.append(peak - held)
        chunk = (numkit.RUN_CHUNK + 1) * 16 * 8  # one chunk of 16 float states
        assert abs(excess[1] - excess[0]) <= chunk
        assert max(excess) <= 3 * chunk

    @pytest.mark.parametrize("t1, collected_t1", [
        (3.0, 4.0),  # a shorter stream of several chunks
        (4.0, 3.0),  # a longer one
        (1.0, 0.5),  # a longer one whose first chunk is the whole run
        (0.5, 1.0),  # a shorter one of one chunk
    ])
    def test_collect_refuses_a_stream_of_another_run(self, t1, collected_t1):
        g = np.array([[-0.3, 0.2], [0.3, -0.2]])
        stream = numkit.ode_chunks(g, [0.6, 0.4], 0.0, t1, 1e-3)
        streamed = numkit.step_count(0.0, t1, 1e-3) + 1
        expected = numkit.step_count(0.0, collected_t1, 1e-3) + 1
        with pytest.raises(ValueError, match="has %d samples, .* has %d$" % (streamed, expected)):
            numkit.collect(stream, 0.0, collected_t1, 1e-3)


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

    # t0 = m 2**e less k spacings of the binade below m 2**e, so that with
    # m = 1 the run can start below a binade boundary and cross it; the
    # step h is ratio times t0's spacing, or twice that
    @settings(max_examples=300, deadline=None)
    @given(exponent=st.integers(-4, 60), mantissa=st.sampled_from([1.0, 1.5, 1.9999]),
           below=st.integers(0, 3000), ratio=st.floats(0.5, 6.0), coarse=st.booleans(),
           n=st.integers(2, numkit.RUN_CHUNK + 300), backward=st.booleans(),
           negative=st.booleans())
    def test_step_count_refuses_exactly_the_non_monotonic_grids(
            self, exponent, mantissa, below, ratio, coarse, n, backward, negative):
        top = mantissa * 2.0 ** exponent
        t0 = top - below * np.spacing(top / 2)
        t1 = t0 + n * ratio * np.spacing(t0) * (2.0 if coarse else 1.0)
        if backward:
            t0, t1 = t1, t0
        if negative:
            t0, t1 = -t0, -t1
        assume(t0 != t1)
        dt = abs(t1 - t0) / n
        # the grid rk4_chunks lays out, built whole
        steps = max(1, int(np.ceil(abs(t1 - t0) / dt - 1e-12)))
        h = (t1 - t0) / steps
        times = t0 + h * np.arange(steps + 1)
        times[-1] = t1
        if (np.diff(times) * np.sign(h) > 0).all():
            assert numkit.step_count(t0, t1, dt) == steps
        else:
            with pytest.raises(ValueError, match="not strictly monotonic"):
                numkit.step_count(t0, t1, dt)

    def test_refuses_steps_below_the_float_spacing(self):
        # floats are 16 apart at 1e17: 160 steps of 1 cannot be told apart,
        # 100 steps of 16 can, and a run of one step is always its two ends
        with pytest.raises(ValueError, match=r"steps of 1.0 from t = 1e\+17 are not strictly"):
            numkit.step_count(1e17, 1e17 + 160, 1.0)
        assert numkit.step_count(1e17, 1e17 + 1600, 16.0) == 100
        assert numkit.step_count(1e17, 1e17 + 16, 16.0) == 1
        # the grid of two steps of half a spacing below 1 to 1 is strictly
        # increasing, though 1's own spacing is twice that step
        assert numkit.step_count(1.0 - 2.0**-52, 1.0, 2.0**-53) == 2

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
            _, vectors = np.linalg.eigh(np.array([[0.0, t], [t, 0.0]]))
            return vectors[:, 0]

        out = numkit.numeric_derivative(vec, 1.0, 1e-5)
        assert np.abs(out).max() < 1e-10

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            numkit.numeric_derivative(lambda t: np.array([t]), 0.0, 0.0)
