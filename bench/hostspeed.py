"""The ruler every timing in the benchmark is read against.

This box is a 2-vCPU VM whose neighbours share its cores.  The same pass
of ``stream_bsp_int8`` reads 250 ms or 400 ms depending on what they
run, in episodes of 4-20 s, so over back-to-back 10 s windows the median
pass time spreads 12-28 % (distance between quartiles over median) and
no estimator over one window (median, fastest pass, fastest sample of
every call) does better than 10 %: the fast state is often absent for a
whole window.  The slow-down is not one factor either.  It depends on
what the code executes: the interpreter and numpy's call overhead lose
the most, numpy element-wise loops up to 40 %, BLAS ``dgemm`` up to
20 %, and not at the same moments.

So the benchmark carries its own ruler.  After every timed unit of work
it runs small fixed numpy computations (a *tick*) for about
``PROBE_SHARE`` of the time the unit took.  There are three of them,
one per kind of work the program is made of: ``dispatch`` (interpreter
and numpy call overhead), ``vector`` (an element-wise libm loop) and
``blas`` (a dgemm).  A workload names the kinds it is made of
(``Workload.rulers``) and a tick runs each of those once.  The *host
factor* of a stretch of work is, averaged over those kinds, the mean
tick time during the stretch over the tick time of this host when quiet
(``REFERENCE_US``).  Rates are multiplied and durations divided by the
factor of the stretch they were measured in, which reads them as they
would be on the quiet host.  Ticks never touch the program, so the same
ruler serves the parent commit and a change.

Spread of the median pass time of 20 fresh 5 s processes per workload,
as read and against the rulers (the best single one, then the pair the
workload uses):

    stream_bsp_int8      as read 28 %   vector 11 %   dispatch+vector 4.4 %
    single_user_1024     as read 29 %   vector  9 %   dispatch+vector 6.0 %
    fabric_stream        as read 24 %   vector 10 %   dispatch+vector 4.5 %
    prune_retrain        as read 18 %   vector  4 %   dispatch+blas   2.8 %
    stream_dense_float   as read 16 %   vector 11 %   blas            1.1 %

Only pass times are corrected.  Set-up time is reported as read: it is
imports, packing and file writes, which none of the rulers tracks (read
against one, it spread wider than as read on four workloads of five).
So are counts, bytes, memory and everything in a traced run's budget.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

#: Share of the timed work's duration spent ticking.
PROBE_SHARE = 0.04


def _dispatch_tick() -> Callable[[], None]:
    # 60 numpy calls on 8 elements: all call overhead, no arithmetic.
    a = np.ones(8)
    b = np.ones(8)
    out = np.empty(8)

    def tick() -> None:
        for _ in range(60):
            np.add(a, b, out=out)

    return tick


def _vector_tick() -> Callable[[], None]:
    # Element-wise libm work on an L1-resident array: the shape of a
    # GRU layer's gate activations at B=8, H=512.
    x = np.random.default_rng(3).standard_normal((8, 1536))
    out = np.empty_like(x)

    def tick() -> None:
        for _ in range(4):
            np.tanh(x, out=out)

    return tick


def _blas_tick() -> Callable[[], None]:
    # The recurrent matmul of a dense H=512 GRU layer at B=8: 6 MB of
    # weights streamed through one dgemm, as ``stream_dense_float`` does.
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 512))
    weight = rng.standard_normal((512, 1536))
    out = np.empty((8, 1536))

    def tick() -> None:
        np.matmul(x, weight, out=out)

    return tick


RULERS: Dict[str, Callable[[], Callable[[], None]]] = {
    "dispatch": _dispatch_tick,
    "vector": _vector_tick,
    "blas": _blas_tick,
}
#: Tick time on this host (Xeon @ 2.10 GHz VM, numpy 2.x / OpenBLAS, one
#: thread) in its quiet state, between the program's calls.  A
#: convention, not a measurement: it fixes the unit of every corrected
#: time and cancels whenever two runs are compared.
REFERENCE_US = {"dispatch": 26.0, "vector": 95.0, "blas": 600.0}

#: ``(seconds spent ticking, ticks, seconds per ruler)`` at some moment.
Mark = Tuple[float, int, Tuple[float, ...]]


class HostProbe:
    """Ticks its rulers in the gaps between timed units and reports the
    host factor over any stretch of them."""

    def __init__(self, rulers: Sequence[str]) -> None:
        self.rulers = tuple(rulers)
        self._ticks = [RULERS[name]() for name in self.rulers]
        self._references_s = [REFERENCE_US[name] * 1e-6 for name in self.rulers]
        self._tick_s = sum(self._references_s)
        self._owed_s = 0.0
        self._spent_s = [0.0] * len(self.rulers)
        self.spent_s = 0.0
        self.ticks = 0
        for _ in range(20):  # page in, warm the caches
            for tick in self._ticks:
                tick()

    def _timed_tick(self) -> None:
        for index, tick in enumerate(self._ticks):
            start = perf_counter()
            tick()
            took = perf_counter() - start
            self._spent_s[index] += took
            self.spent_s += took
        self.ticks += 1

    def after(self, unit_s: float) -> None:
        """Tick for ``PROBE_SHARE`` of a unit that took ``unit_s``."""
        self._owed_s += PROBE_SHARE * unit_s
        while self._owed_s >= self._tick_s:
            self._owed_s -= self._tick_s
            self._timed_tick()

    def mark(self) -> Mark:
        return self.spent_s, self.ticks, tuple(self._spent_s)

    def factor_since(self, mark: Mark) -> float:
        """Mean tick time since ``mark`` over the quiet host's, averaged
        over the rulers (ticks once first if the stretch was too short
        to have earned a tick)."""
        if self.ticks == mark[1]:
            self._timed_tick()
        ticks = self.ticks - mark[1]
        factors = [
            (spent - before) / ticks / reference
            for spent, before, reference in zip(self._spent_s, mark[2], self._references_s)
        ]
        return sum(factors) / len(factors)
