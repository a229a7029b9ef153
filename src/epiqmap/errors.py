"""Exception types shared across the package."""

import math


class ComplexSpectrumError(ValueError):
    """Raised when a closed-form spectrum would be complex.

    discriminant is scaled * 2**exponent (-0.0 or -inf beyond the float
    range); the message prints it, or, where it is not a normal float,
    scaled and its power of two.
    """

    def __init__(self, scaled, exponent):
        try:
            self.discriminant = math.ldexp(scaled, exponent)
        except OverflowError:
            self.discriminant = -math.inf
        normal = -math.inf < self.discriminant <= -2.0 ** -1022  # the least normal float
        shown = repr(self.discriminant) if normal else "%r * 2**%d" % (scaled, exponent)
        super().__init__("complex spectrum: discriminant = %s" % shown)


class DegenerateFrameError(ValueError):
    """Raised when an eigenframe quantity needed as a divisor is ~0."""


class FloorViolationError(ValueError):
    """A probability or split component fell below the working floor."""

    def __init__(self, message, time=None, component=None):
        self.time = time
        self.component = component
        super().__init__(message)


class NonFiniteStateError(RuntimeError):
    """Integration produced a non-finite state; records the failure time."""

    def __init__(self, time):
        self.time = time
        super().__init__("non-finite state encountered at t = %r" % (float(time),))
