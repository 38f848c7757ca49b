"""A fixed pure-Python kernel that gauges how fast the machine runs Python now.

On a shared host the same code runs up to 40% faster or slower from one
second to the next: other tenants take the CPU core, its caches and its
clock.  CPU time slows down with it, so neither wall nor CPU time of single
runs is steady.  The end-to-end time is therefore reported at a reference
speed.  While the workload runs, a `Sampler` thread times one short call of
this kernel every PERIOD_S seconds, in thread CPU time, so that it sees the
machine at the same moments as the workload.  A run's CPU time is scaled by
the mean speed of the kernel calls made during it (`speed_factor`).  A
program that gets faster or slower changes its own CPU time and not the
kernel's, so the rescaled figure moves with the program and not with the
host.

The kernel is the kind of work henoncert does, written out here so that it
never changes with the program: small objects with float slots, outward
rounding by `math.nextafter`, min/max of products, tuples, and a 3x3 matrix
product, on a Henon-like orbit of boxes.  It imports nothing from henoncert.
"""

from __future__ import annotations

import math
import threading
import time

# Boxes per sampled kernel call, and the pause between calls.  The sampler
# takes about a tenth of the CPU; the workload pays for it in wall time only.
CALL_BOXES = 15
PERIOD_S = 0.04
# A fixed figure near the median thread CPU time of one kernel call on the
# reference machine (a 2-core Intel Xeon VM at 2.1 GHz, CPython 3.11.7).  It
# only sets the scale of the rescaled times.
REFERENCE_S = 0.004

_nextafter = math.nextafter
_INF = math.inf


class _Iv:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def __add__(self, o):
        return _Iv(_nextafter(self.lo + o.lo, -_INF), _nextafter(self.hi + o.hi, _INF))

    def __mul__(self, o):
        a, b, c, d = self.lo, self.hi, o.lo, o.hi
        p = (a * c, a * d, b * c, b * d)
        return _Iv(_nextafter(min(p), -_INF), _nextafter(max(p), _INF))

    def scale(self, c):
        p, q = c * self.lo, c * self.hi
        if p > q:
            p, q = q, p
        return _Iv(_nextafter(p, -_INF), _nextafter(q, _INF))


def _step(box):
    x, y, z = box
    return (_Iv(1.76, 1.76) + (y * y).scale(-1.0) + z.scale(-0.1), x, y)


def _matmul(A, B):
    return tuple(
        tuple(_sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _sum(terms):
    terms = iter(terms)
    acc = next(terms)
    for t in terms:
        acc = acc + t
    return acc


def kernel(boxes: int = CALL_BOXES) -> float:
    """One fixed amount of work; returns a checksum so nothing is skipped."""
    total = 0.0
    for k in range(boxes):
        c = -0.9 + 1.8 * k / boxes
        box = (_Iv(c, c + 1e-3), _Iv(0.1, 0.1 + 1e-3), _Iv(-0.2, -0.2 + 1e-3))
        M = tuple(tuple(_Iv(0.1 * (i + j), 0.1 * (i + j) + 1e-9) for j in range(3))
                  for i in range(3))
        for _ in range(4):
            box = _step(box)
            M = _matmul(M, M)
        total += box[0].hi - box[0].lo + M[0][0].hi
    return total


class Sampler:
    """Background thread: thread CPU seconds of one kernel call every PERIOD_S."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            t0 = time.thread_time()
            kernel(CALL_BOXES)
            self.samples.append(time.thread_time() - t0)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def speed_factor(samples) -> float:
    """Mean speed of the samples relative to the reference; below 1 when slow.

    The calls are spread evenly in time, so the mean of their speeds is the
    machine's mean speed over the interval, which is what scales CPU time.
    """
    return sum(REFERENCE_S / s for s in samples) / len(samples)
