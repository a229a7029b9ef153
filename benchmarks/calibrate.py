"""Host-speed correction for timings on a shared machine.

On a small VM the speed of a vCPU changes within seconds, by up to 1.6x,
as other tenants load the host; a pure-Python loop shows the same swings
as the package does.  Raw times of one pass then spread by 30-50% from
run to run, wider than any useful regression bound.

So every timed operation sits between two runs of a fixed kernel that
looks like the package's inner loops: small NumPy matrix-vector products
interleaved with Python float arithmetic.  An operation's corrected time
is its wall time times ``REF_S / kernel time``, the kernel time being the
mean of the runs just before and just after it.  ``REF_S`` is the
kernel's time on an uncontended core of the reference machine (a 2-vCPU
Intel Xeon VM, Python 3.11, NumPy 2.x), so corrected times read as
seconds on that machine at full speed.  The process is pinned to one CPU
so that the kernel and the operation run on the same core.

The kernel is benchmark code; no change to the package moves it.
"""

import os
from time import perf_counter

import numpy as np

REF_S = 0.0030
# Set-up is process start-up and imports, which the kernel does not track
# (file reads, page faults, unmarshalling).  Its reference is instead a
# fresh interpreter that imports NumPy, which the package imports too;
# this is its time until it is ready on the reference machine.
STARTUP_REF_S = 0.14
STARTUP_REFERENCE = "import numpy; print('ready', flush=True)"
_ITERATIONS = 2000
_M = np.eye(4) * 0.5
_V = np.ones(4)


def kernel():
    x, s = _V, 0.0
    for i in range(_ITERATIONS):
        x = _M @ x + _V
        s += i * 0.5
    return s


def kernel_seconds():
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def pin():
    """Pin this process, and the children it starts later, to one CPU."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})


class Clock:
    """Times operations between runs of a reference; gives raw and corrected times.

    ``reference`` returns the seconds one run of the reference took, and
    ``ref_s`` is that time on the reference machine at full speed.
    """

    def __init__(self, reference=kernel_seconds, ref_s=REF_S):
        self.reference, self.ref_s = reference, ref_s
        reference()  # warm-up
        self.last = reference()

    def time(self, fn, *args):
        """Run fn(*args); returns (result, raw seconds, corrected seconds)."""
        def timed():
            t0 = perf_counter()
            result = fn(*args)
            return result, perf_counter() - t0

        return self.measured(timed)

    def measured(self, fn):
        """Run fn(), which returns (result, seconds it measured itself).

        Returns (result, raw seconds, corrected seconds).
        """
        before = self.last
        result, raw = fn()
        self.last = self.reference()
        return result, raw, raw * self.ref_s / (0.5 * (before + self.last))
