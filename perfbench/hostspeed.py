"""Host speed, measured around each interpreted call.

On a shared virtual machine the speed of interpreted numpy-scalar code
changes by up to 2x from one second to the next and drifts over minutes,
while the process is never descheduled (its CPU time equals its wall
time).  A fixed kernel of the same kind of work, timed right before and
right after a call, slows down and speeds up with it.  The call's time
is then reported at the reference speed:

    seconds = raw seconds * REFERENCE_S / (mean kernel time around it)

The kernel is this file's own code and does not call nlbranch, so a
change to the program moves the call's time and not the kernel's.

This is applied to interpreted calls: classify, in-process CLI classify
and set-up.  Simulations are reported as measured.  Their speed follows
the host's far less than the kernel's does, and neither this kernel nor
lane kernels (numpy over thousands of lanes, on one or two threads) nor
a memory-bandwidth kernel, timed around a simulation, narrowed its
spread across runs reliably.  Raw times are kept next to the scaled ones
in every record.
"""

from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import numpy as np

# median time of one kernel sample (REPS repetitions) on the reference
# host, an Intel Xeon (Sapphire Rapids, 2 vCPU under KVM) with numpy 2
REFERENCE_S = 7.5e-4
REPS = 3

_GRID = [10.0 ** k for k in range(-6, 9)]
_TERMS = ((1.0, 1.0), (2.0, 2.0), (0.5, 1.5))


def _kernel():
    """Power-law rates on a grid of 0-d arrays: the per-call numpy
    overhead that dominates model rates, phi and the quadrature
    integrands."""
    total = 0.0
    for u in _GRID:
        x = np.asarray(u, dtype=float)
        z = np.zeros_like(x)
        for b, r in _TERMS:
            z = z + b * np.power(x, r) * (x > 0)
        total += abs(float(z))
    return total


class HostSpeed:
    """Kernel samples taken around timed calls."""

    def __init__(self):
        self.samples = []
        _kernel()

    def sample(self) -> float:
        """Seconds for REPS kernel repetitions, now."""
        t0 = perf_counter()
        for _ in range(REPS):
            _kernel()
        s = perf_counter() - t0
        self.samples.append(s)
        return s

    @contextmanager
    def timing(self):
        """Times the block between two kernel samples.  The yielded
        object gets ``raw`` and ``seconds`` (at the reference speed) when
        the block ends, also when it raises."""
        t = SimpleNamespace(raw=0.0, seconds=0.0)
        before = self.sample()
        t0 = perf_counter()
        try:
            yield t
        finally:
            t.raw = perf_counter() - t0
            after = self.sample()
            t.seconds = t.raw * REFERENCE_S * 2.0 / (before + after)
