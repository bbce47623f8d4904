"""Host-speed correction of op times, from a fixed kernel timed between ops.

The benchmark runs on a shared host whose speed for identical work drifts by
up to a factor of two within seconds and minutes.  Process CPU time drifts
with wall time, so the cause is other tenants' load on the same cores and
caches, not time taken away from the process.  Run-to-run spreads of raw op
times therefore reflect the neighbours more than the program.

``HostSpeed`` times a fixed kernel -- small numpy products and solves, a
row operation on a tableau-sized array and plain Python arithmetic, the mix
of reachvenn's inner loops, but no reachvenn code -- before the first op
and again whenever ``CALIBRATE_EVERY_S`` has passed since the last timing.
Each op is scaled by ``KERNEL_REF_S`` over the mean of the two kernel
timings that bracket it: the result is the op's time on a host at which the
kernel takes ``KERNEL_REF_S``.  A change to reachvenn moves the ops and not
the kernel, so it shows in full; drift of the host moves both and cancels.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# About the kernel's median time on a 2-vCPU Xeon shared host; the scaled
# times are seconds on a host of that speed.  A constant, so that runs stay
# comparable.
KERNEL_REF_S = 0.002
CALIBRATE_EVERY_S = 0.1
KERNEL_REPEATS = 3  # median of three, so one interrupt does not skew a timing

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 64))
_M = _A @ _A.T + 64.0 * np.eye(64)
_B = _rng.standard_normal(64)
_T = _rng.standard_normal((24, 2048))


def _kernel() -> float:
    x = 0.0
    for k in range(20):
        x += float((_A @ _A[:, :32])[0, 0])
        x += float(np.linalg.solve(_M, _B)[0])
        x += float(np.argmin(_T[k] - 0.5 * _T[k + 1]))
        for j in range(300):
            x += j * 0.5
    return x


def kernel_time() -> float:
    _kernel()  # untimed: reload the kernel's data into the caches the op used
    times = []
    for _ in range(KERNEL_REPEATS):
        began = perf_counter()
        _kernel()
        times.append(perf_counter() - began)
    return statistics.median(times)


class HostSpeed:
    """Scale factors for a sequence of ops, one per op, in order."""

    def __init__(self):
        for _ in range(5):  # warm the kernel's code and data up
            _kernel()
        self.kernel_times = [kernel_time()]
        self._last = perf_counter()
        self._pending = 0
        self.factors = []

    def after_op(self) -> None:
        self._pending += 1
        if perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self._calibrate()

    def finish(self) -> list[float]:
        if self._pending:
            self._calibrate()
        return self.factors

    def _calibrate(self) -> None:
        self.kernel_times.append(kernel_time())
        bracket = (self.kernel_times[-2] + self.kernel_times[-1]) / 2.0
        self.factors += [KERNEL_REF_S / bracket] * self._pending
        self._pending = 0
        self._last = perf_counter()
