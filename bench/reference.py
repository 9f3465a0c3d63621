"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark runs on shared virtual machines, where the speed of one vCPU
drifts by a third and more over seconds to minutes as other tenants load the
host. Every op slows down with it, so a latency in milliseconds moves between
two runs of the same code by more than any bound a regression check could
use. The harness therefore runs this kernel between ops and reports op times
in units of it: the kernel's code never changes, so the ratio moves only
when the library does, or when an op and the kernel react differently to the
same slow spell.

How much a piece of code slows down in the machine's slow spells depends on
what it is: an interpreted loop over small numpy rows slows about twice as
much as survix ops do, elementwise numpy over a few hundred kilobytes about as
much. Over three workloads and 1.2-second windows, the log of survix op
times moved by 0.8 to 1.07 times the log of this kernel's time. The kernel
is about 70% elementwise work on 64k-element vectors (a quadrature-like
exp, log1p and cumulative sum, then a sort) and 30% a loop of mask, compare
and sum over 2048-element vectors, the pattern of the C-index and of the
imputers. Its arrays total about 2 MB; an untimed pass before each sample
refills the caches the preceding op evicted.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

_RNG = np.random.default_rng(20240917)
_ROWS = _RNG.exponential(1.0, (2, 2048))
_VECTOR = _RNG.uniform(0.0, 2.0, 65536)


def _work() -> float:
    y, risk = _ROWS
    acc = 0.0
    for i in range(0, 2048, 56):
        later = y > y[i]
        acc += int(later.sum()) + int(np.sum(risk[later] < risk[i]))
    curve = np.cumsum(np.exp(-_VECTOR) * np.log1p(_VECTOR))
    return acc + float(np.sort(_VECTOR * curve[-1] % 1.0)[4096])


def reference_ns() -> int:
    """Wall time of one kernel pass after an untimed one, in nanoseconds."""
    _work()
    t0 = perf_counter_ns()
    _work()
    return perf_counter_ns() - t0


class SpeedProbe:
    """Kernel samples taken between ops, at most one per ``interval_ns``.

    ``before_op`` runs the kernel when the last sample is older than the
    interval and returns the index of the latest sample. An op's reference is
    the mean of that sample and the next one, which brackets the op; ``close``
    takes the sample after the last op.
    """

    def __init__(self, interval_ns: int):
        self.interval_ns = interval_ns
        self.samples: list[int] = []
        self._last = 0

    def sample(self) -> int:
        self.samples.append(reference_ns())
        self._last = perf_counter_ns()
        return len(self.samples) - 1

    def before_op(self) -> int:
        if not self.samples or perf_counter_ns() - self._last >= self.interval_ns:
            return self.sample()
        return len(self.samples) - 1

    def close(self) -> None:
        self.sample()

    def around(self, index: int) -> float:
        return 0.5 * (self.samples[index] + self.samples[index + 1])
