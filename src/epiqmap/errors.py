"""Exception types shared across the package."""


class ComplexSpectrumError(ValueError):
    """Raised when a closed-form spectrum would be complex.

    Carries the offending discriminant so callers can report it.
    """

    def __init__(self, discriminant):
        self.discriminant = discriminant
        super().__init__("complex spectrum: discriminant = %r" % (float(discriminant),))


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

    def __init__(self, time, message=None):
        self.time = time
        if message is None:
            message = "non-finite state encountered at t = %r" % (float(time),)
        super().__init__(message)
