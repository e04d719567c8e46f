"""The host's current CPU speed, sampled with a fixed reference kernel.

On a shared host the speed of a CPU changes by up to two times for seconds
to minutes at a time, and the process's CPU time changes with it (the CPU
runs slower; the process is not descheduled). The benchmark therefore runs
every process on one CPU and samples that CPU's speed while it measures: a
:class:`Sampler` thread runs :func:`kernel` every ``INTERVAL_S`` seconds and
records the thread CPU time it took. A measured duration is then reported in
*reference seconds*: the wall time multiplied by the mean of
``REFERENCE_S / sample`` over the samples taken during it, i.e. the time the
same work takes when the kernel runs in ``REFERENCE_S``.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

# Thread CPU time of one kernel() call on an unloaded CPU of the machine the
# benchmark was built on (2-CPU shared Linux host, Python 3.11); only the
# unit of the reported times depends on it.
REFERENCE_S = 4.0e-4
INTERVAL_S = 0.02


class _Num:
    __slots__ = ("val", "eps")

    def __init__(self, val, eps):
        self.val = val
        self.eps = eps

    def __add__(self, other):
        return _Num(self.val + other.val, self.eps + other.eps)

    def __mul__(self, other):
        return _Num(self.val * other.val, self.val * other.eps + self.eps * other.val)

    def sin(self):
        return _Num(math.sin(self.val), math.cos(self.val) * self.eps)


_GRID = np.linspace(0.1, 1.0, 4096)


def kernel() -> float:
    """A fixed amount of work in the two styles ``adiakit`` computes in.

    Scalar dual-number arithmetic in the interpreter, as in the integrator's
    right-hand side, then elementwise numpy arithmetic on a few thousand
    values, as in the batched invariant series. A kernel of both tracks
    either kind of workload better than one of them alone.
    """
    x = _Num(0.3, 1.0)
    c = _Num(0.7, 0.0)
    acc = 0.0
    for _ in range(150):
        x = (x * c + c).sin() * c
        acc += x.eps
    a = _GRID
    for _ in range(3):
        a = np.sin(a) * _GRID + np.cos(_GRID) * a
    return acc + float(a[0])


def timed_kernel() -> float:
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


def factor(durations) -> float:
    """Mean of ``REFERENCE_S / duration``: reference seconds per wall second."""
    return sum(REFERENCE_S / d for d in durations) / len(durations)


def between(samples, start, end) -> list:
    """Kernel durations of the :class:`Sampler` samples taken in ``[start, end]``."""
    return [d for t, d in samples if start <= t <= end]


class Sampler:
    """Samples the speed of the CPU this process runs on, from a daemon thread."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler", daemon=True)

    def _loop(self):
        samples = self.samples
        while not self._stop.wait(INTERVAL_S):
            samples.append((time.monotonic(), timed_kernel()))

    def start(self):
        self._thread.start()
        return self

    def stop(self) -> list:
        """The samples: ``(monotonic time, kernel thread CPU seconds)`` pairs."""
        self._stop.set()
        self._thread.join()
        return self.samples
