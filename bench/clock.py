"""A clock in reference seconds, steady on a shared machine.

On a host whose cores are shared with other tenants, the same Python work
can take 30 % longer from one second to the next, and the slowdown lasts
for minutes.  Raw wall times of one run then say more about the neighbours
than about the program.  This clock runs a small fixed kernel (exact
fractions, tuples and dict updates, the operations chromaplex spends its
time on) every ``INTERVAL_S`` of measured time, and scales each measured
segment by ``KERNEL_REF_S / kernel time``, with the kernel time taken as the
median of its last ``WINDOW`` runs.  A program change does not touch the
kernel, so it moves the scaled time as it moves the raw time; a neighbour
slows both, and the ratio cancels that.

``KERNEL_REF_S`` is the kernel's median time on the machine the benchmark
was written on (2 vCPUs, Python 3.11.7), so there one reference second is
about one wall-clock second.  Kernel runs are not part of any measured
segment.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterator

KERNEL_LOOPS = 500
KERNEL_REF_S = 1.5e-3
INTERVAL_S = 0.05
WINDOW = 5

perf = time.perf_counter
_ZERO = Fraction(0)


def _kernel() -> dict:
    acc: dict = {}
    for i in range(KERNEL_LOOPS):
        key = (i % 7, i % 11, i % 13)
        acc[key] = acc.get(key, _ZERO) + Fraction(i, 3)
    return acc


def kernel_seconds(runs: int = WINDOW) -> float:
    """Median time of ``runs`` kernel runs, for a process that measures a
    single segment and scales it itself (a child timing its own import)."""
    times = []
    for _ in range(runs):
        t0 = perf()
        _kernel()
        times.append(perf() - t0)
    return statistics.median(times)


class Clock:
    """``now()`` returns reference seconds measured so far; it calibrates
    when the last calibration is more than ``interval_s`` old.  The kernel
    and its reference time can be replaced, for work whose cost is of
    another kind (starting processes, for the CLI)."""

    def __init__(
        self,
        kernel: Callable[[], object] = _kernel,
        ref_s: float = KERNEL_REF_S,
        interval_s: float = INTERVAL_S,
    ) -> None:
        self._kernel = kernel
        self._ref_s = ref_s
        self._interval_s = interval_s
        self._kernel_s: deque[float] = deque(maxlen=WINDOW)
        self.total = 0.0
        self.raw_total = 0.0
        # called with each kernel run's seconds, so a tracer can keep them
        # out of the self time of the span they interrupt
        self.on_kernel: Callable[[float], None] | None = None
        self.calibrate()

    def calibrate(self) -> None:
        t0 = perf()
        self._kernel()
        t1 = perf()
        self._kernel_s.append(t1 - t0)
        if self.on_kernel is not None:
            self.on_kernel(t1 - t0)
        self.scale = self._ref_s / statistics.median(self._kernel_s)
        self._last = self._calibrated = t1

    def now(self) -> float:
        t = perf()
        dt = t - self._last
        scale = self.scale
        self._last = t
        if t - self._calibrated >= self._interval_s:
            self.calibrate()
            if dt >= self._interval_s:
                # a long segment had no calibration inside it: take the
                # speed before and after it into account alike
                scale = (scale + self.scale) / 2
        self.total += dt * scale
        self.raw_total += dt
        return self.total

    @contextmanager
    def ticking(self, targets: tuple[tuple[str, str], ...]) -> Iterator[None]:
        """Read the clock before every call of the given chromaplex
        functions, so that long calls are scaled segment by segment."""
        patched = []
        for mod_name, fn_name in targets:
            mod = sys.modules[f"chromaplex.{mod_name}"]
            fn = getattr(mod, fn_name)

            def tick(*args, __fn=fn, **kwargs):
                self.now()
                return __fn(*args, **kwargs)

            patched.append((mod, fn_name, fn))
            setattr(mod, fn_name, tick)
        try:
            yield
        finally:
            for mod, fn_name, fn in reversed(patched):
                setattr(mod, fn_name, fn)
