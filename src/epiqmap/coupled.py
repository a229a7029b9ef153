"""Two coupled 2-level classical machines on a 4-state space.

Two bases are in play and both are supported with explicit conversion:

* traffic basis  (pA1, pA2, pB1, pB2): each subsystem's occupancies are
  stacked, and cross couplings sit on the anti-diagonal positions
  (1,4), (2,3), (3,2), (4,1);
* product basis  (p1A p1B, p1A p2B, p2A p1B, p2A p2B): joint occupancies
  of the pair, the natural home of the Kronecker-sum generator of two
  non-interacting machines.
"""

from dataclasses import dataclass

import numpy as np

from . import numkit
from .epidemic import Generator2, RateMatrix
from .errors import FloorViolationError

TRAFFIC_TARGETS = ("1A", "2A", "1B", "2B")
PRODUCT_STATES = ("1A1B", "1A2B", "2A1B", "2A2B")

# product-basis transitions that carry a coupling rate: the eight
# single-subsystem flips plus the two simultaneous double flips
ALLOWED_TRANSITIONS = (
    ("1A1B", "1A2B"), ("1A2B", "1A1B"),
    ("1A1B", "2A1B"), ("2A1B", "1A1B"),
    ("1A2B", "2A2B"), ("2A2B", "1A2B"),
    ("2A1B", "2A2B"), ("2A2B", "2A1B"),
    ("1A1B", "2A2B"), ("2A2B", "1A1B"),
)


@dataclass(frozen=True)
class Generator4:
    """Time-dependent 4x4 rate matrix in the traffic or the product basis.

    evaluate follows the generator protocol: a scalar time gives the
    (4, 4) matrix, a 1-d array of n times the (n, 4, 4) stack, built in
    one vectorized pass.
    """

    basis: str
    evaluate: object  # t -> (4, 4) or (n, 4, 4), as described above

    def matrix(self, t):
        return self.evaluate(t)


def build_traffic_generator(gen_a, gen_b, cross):
    """Couple two 2-level generators with four independent cross rates.

    cross lists the rates for positions (1,4), (2,3), (3,2), (4,1) in
    that order (1-indexed, traffic basis).
    """
    if not (isinstance(gen_a, Generator2) and isinstance(gen_b, Generator2)):
        raise TypeError("gen_a and gen_b must be Generator2")
    (a11, a12), (a21, a22) = gen_a.rates
    (b11, b12), (b21, b22) = gen_b.rates
    c14, c23, c32, c41 = cross
    rates = RateMatrix([
        [a11, a12, 0.0, c14],
        [a21, a22, c23, 0.0],
        [0.0, c32, b11, b12],
        [c41, 0.0, b21, b22],
    ])
    return Generator4("traffic", rates.matrix)


def symmetric_traffic_generator(gen, coupling):
    """Two identical subsystems with one common cross-coupling rate."""
    return build_traffic_generator(gen, gen, (coupling,) * 4)


def kron_sum_generator(gen_a, gen_b):
    """Kronecker sum S_A (x) I + I (x) S_B of two non-interacting machines."""
    if not (isinstance(gen_a, Generator2) and isinstance(gen_b, Generator2)):
        raise TypeError("gen_a and gen_b must be Generator2")
    eye = np.eye(2)

    def evaluate(t):
        # the leading 0.0 maps the -0.0 of a negative rate times a zero of
        # the identity to +0.0, so each entry is bitwise 0.0 + S_A + S_B
        return 0.0 + np.kron(gen_a.matrix(t), eye) + np.kron(eye, gen_b.matrix(t))

    return Generator4("product", evaluate)


def interaction_generator(level_rates, couplings, frame_a, frame_b):
    """General pair interaction assembled in the product eigenbasis.

    level_rates: four diagonal rates for the product states, in the
    order of PRODUCT_STATES.  couplings: mapping (source, destination)
    -> rate for transitions in ALLOWED_TRANSITIONS (the coupling enters
    the matrix at row destination, column source).  frame_a, frame_b:
    orthonormal 2x2 frames (eigenvector columns) used to conjugate the
    eigenbasis matrix into the physical product basis.
    """
    frame_a = np.asarray(frame_a, dtype=float)
    frame_b = np.asarray(frame_b, dtype=float)
    for name, f in (("frame_a", frame_a), ("frame_b", frame_b)):
        if np.abs(f.T @ f - np.eye(2)).max() > 1e-10:
            raise ValueError("%s is not orthonormal" % name)
    if len(level_rates) != 4:
        raise ValueError("expected four level rates")
    index = {name: k for k, name in enumerate(PRODUCT_STATES)}
    grid = [[level_rates[i] if i == j else 0.0 for j in range(4)] for i in range(4)]
    for key, rate in couplings.items():
        if tuple(key) not in ALLOWED_TRANSITIONS:
            raise ValueError("unsupported transition %r" % (key,))
        src, dst = key
        grid[index[dst]][index[src]] = rate
    eigenbasis = RateMatrix(grid)  # which checks every rate
    basis_change = np.kron(frame_a, frame_b)

    def evaluate(t):
        return basis_change @ eigenbasis.matrix(t) @ basis_change.T

    return Generator4("product", evaluate)


# ---------------------------------------------------------------------------
# closed-form eigenvectors of the symmetric traffic form
# ---------------------------------------------------------------------------

def matrix_modes(m):
    """Closed-form eigenpairs of an (n, 4, 4) stack of symmetric traffic matrices.

    Returns (values, vectors, numeric_fallback): values[k, j] and the
    vector vectors[k, j] are mode j of sample k, and numeric_fallback
    has shape (n,).  A symmetric traffic matrix is [[A, sJ], [sJ, A]]
    with J the 2x2 swap, so its modes are (u, c u) for each mode u of
    the 2x2 block A + c sJ, with that mode's value: modes 0 and 1
    (sign-indefinite) have c = -1, modes 2 and 3 have c = +1, each pair
    ascending.  numkit.eig solves all 2n blocks as one stack, and each u
    is scaled to its printed scale, second component c; a u whose second
    component is below numkit.SCALE_FLOOR of its norm has unit norm
    instead (numkit.scale_vectors), and its sample is flagged in
    numeric_fallback.  A complex block spectrum raises
    ComplexSpectrumError for the first such block of the first such
    sample.
    """
    m = np.asarray(m, dtype=float)
    c = np.array([-1.0, -1.0, 1.0, 1.0])
    # the blocks A - sJ and A + sJ of each sample, in that order
    blocks = m[:, None, :2, :2] + c[::2, None, None] * m[:, None, :2, 2:]
    values, u = numkit.eig(blocks.reshape(-1, 2, 2))
    u, singular = numkit.scale_vectors(u.reshape(-1, 4, 2), c * u[:, :, 1].reshape(-1, 4))
    vectors = np.concatenate((u, c[:, None] * u), axis=-1)
    return values.reshape(-1, 4), vectors, singular.any(axis=1)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

_PROJECTOR_DIAGS = {
    "1A": (1.0, 0.0, 1.0, 1.0),
    "2A": (0.0, 1.0, 1.0, 1.0),
    "1B": (1.0, 1.0, 1.0, 0.0),
    "2B": (1.0, 1.0, 0.0, 1.0),
}

_AFTER_STATES = {
    "1A": ((1.0, 0.0), None),
    "2A": ((0.0, 1.0), None),
    "1B": (None, (1.0, 0.0)),
    "2B": (None, (0.0, 1.0)),
}

# the product-basis components (1A1B, 1A2B, 2A1B, 2A2B) that agree with each outcome
_PRODUCT_OUTCOMES = {
    "1A": np.array([1.0, 1.0, 0.0, 0.0]),
    "2A": np.array([0.0, 0.0, 1.0, 1.0]),
    "1B": np.array([1.0, 0.0, 1.0, 0.0]),
    "2B": np.array([0.0, 1.0, 0.0, 1.0]),
}


def projector(target):
    """The printed diagonal projector for one measurement target.

    Note these are idempotent but NOT complementary in 4 dimensions:
    projector('1A') + projector('2A') != identity.
    """
    if target not in _PROJECTOR_DIAGS:
        raise ValueError("unknown measurement target %r" % (target,))
    return np.diag(_PROJECTOR_DIAGS[target])


def measure_subsystem(p, target, basis="traffic"):
    """Collapse one subsystem of a 4-state vector on the outcome target.

    Traffic basis: the measured pair of components is replaced by (1, 0)
    or (0, 1); the other subsystem's components pass through untouched.
    Product basis: the joint distribution is conditioned on the outcome,
    keeping the total, so 1A maps p to (p1, p2, 0, 0) * total / (p1 + p2)
    and 1B maps it to (p1, 0, p3, 0) * total / (p1 + p3); an outcome of
    zero probability raises FloorViolationError.
    """
    if target not in _AFTER_STATES:
        raise ValueError("unknown measurement target %r" % (target,))
    p = np.asarray(p, dtype=float)
    if basis == "product":
        kept = p * _PRODUCT_OUTCOMES[target]
        weight = kept.sum()
        if not weight > 0:
            raise FloorViolationError(
                "outcome %s has probability %r; it cannot be measured" % (target, weight)
            )
        return kept * p.sum() / weight
    if basis != "traffic":
        raise ValueError("basis must be 'traffic' or 'product'")
    out = p.copy()
    part_a, part_b = _AFTER_STATES[target]
    if part_a is not None:
        out[0], out[1] = part_a
    if part_b is not None:
        out[2], out[3] = part_b
    return out


def subsystem_marginals(p, basis="traffic"):
    """The occupancies (p_A, p_B) of each subsystem of a 4-state vector."""
    p = np.asarray(p, dtype=float)
    if basis == "product":
        return marginals_from_product(p)
    if basis != "traffic":
        raise ValueError("basis must be 'traffic' or 'product'")
    return p[:2], p[2:]


# ---------------------------------------------------------------------------
# product structure
# ---------------------------------------------------------------------------

def factorization_defect(p):
    """|p1 p4 - p2 p3| of each product-basis state of an (n, 4) stack; zero iff it factorizes.

    One state (4,) gives a Python float.
    """
    p = np.asarray(p, dtype=float)
    defect = np.abs(p[..., 0] * p[..., 3] - p[..., 1] * p[..., 2])
    return float(defect) if p.ndim == 1 else defect


def product_from_marginals(p_a, p_b):
    """Joint product-basis state from per-subsystem occupancies."""
    return np.kron(np.asarray(p_a, dtype=float), np.asarray(p_b, dtype=float))


def marginals_from_product(p):
    """Per-subsystem occupancies of a product-basis joint state."""
    p = np.asarray(p, dtype=float)
    return np.array([p[0] + p[1], p[2] + p[3]]), np.array([p[0] + p[2], p[1] + p[3]])
