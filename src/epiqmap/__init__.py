"""Classical stochastic finite-state machines, coupled position-based
qubits, and the exact 2N-state classical image of an N-level quantum
evolution, with numerical certificates for the claimed equivalences.

Submodules load on first access (``epiqmap.quantum``, ``from epiqmap
import mapping``), so ``import epiqmap`` loads none of them, nor NumPy.
"""

from .errors import (
    ComplexSpectrumError,
    DegenerateFrameError,
    FloorViolationError,
    NonFiniteStateError,
)

__version__ = "0.1.0"

__all__ = [
    "numkit",
    "epidemic",
    "coupled",
    "density",
    "quantum",
    "mapping",
    "ComplexSpectrumError",
    "DegenerateFrameError",
    "FloorViolationError",
    "NonFiniteStateError",
    "__version__",
]


def __getattr__(name):
    """Import a submodule named in __all__ on its first access."""
    if name in __all__:
        # through the import statement's machinery, so -X importtime lists it
        __import__(__name__ + "." + name)
        return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
