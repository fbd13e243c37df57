"""Host-speed calibration for timings taken on shared cores.

On a small shared virtual machine the same op can take 1.6 times as long
in one minute as in the next, in CPU time as much as in wall time, because
neighbours on the physical cores slow every instruction down. A fixed
kernel of exact rational arithmetic (standard library only, so no change
to the package can speed it up) slows down by the same factor. Sampling
it between ops and dividing the ops' times by

    factor = mean kernel time / REFERENCE_S

reports them at the reference host speed. Over seven 20-second runs of
one fixed list of certify-lp ops, while the raw time per op drifted by
1.65x, the normalised time stayed within 3.6%.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from random import Random
from time import perf_counter

# About one kernel run on an unloaded 2.1 GHz Xeon vCPU under CPython 3.11.
REFERENCE_S = 0.0025


def _matrix() -> list:
    rng = Random(7)
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(10)]
        for _ in range(9)
    ]


_MATRIX = _matrix()


def kernel() -> list:
    """Gauss-Jordan elimination of a fixed 9 x 10 rational matrix."""
    a = [row[:] for row in _MATRIX]
    n = len(a)
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            f = a[r][c]
            if r != c and f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a


class HostSpeed:
    """Kernel timings collected over a run; factor > 1 means a slow host."""

    def __init__(self):
        self.samples = []
        self.marks = []  # ops completed when each sample was taken

    def sample(self, mark: int = 0) -> None:
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)
        self.marks.append(mark)

    @property
    def factor(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_S

    def per_op(self, n_ops: int, window: int = 5) -> list:
        """A factor for each op: the mean of the `window` samples centred on
        the first sample taken after it, so slow stretches of a run scale
        only the ops they slowed."""
        half = window // 2
        smooth = [
            statistics.fmean(self.samples[max(0, k - half) : k + half + 1]) / REFERENCE_S
            for k in range(len(self.samples))
        ]
        out = []
        k = 0
        for op in range(n_ops):
            while k < len(self.marks) - 1 and self.marks[k] <= op:
                k += 1
            out.append(smooth[k])
        return out
