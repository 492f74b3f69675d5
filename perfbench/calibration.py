"""Machine-speed calibration for the end-to-end timings.

The benchmark's host runs this process at a speed that drifts by 20-30%
over fractions of a second to minutes (CPU time equals wall time
throughout, so the process is not descheduled; the core itself gets
slower). A raw wall time therefore measures the host as much as the
program.

So while an execution is timed, a `Sampler` interrupts it every PERIOD_S
seconds (SIGALRM) and, in the signal handler, times one calibration
sample: the next of three fixed pieces of work, in turn. The
execution's own time is its wall time minus the samples' time. The
speed of the moment is the sum of the three pieces' mean times: a
calibration round. Own time divided by the mean round time is the
execution's length in rounds, and times NOMINAL_S the wall time it
would have taken on a machine where one round takes NOMINAL_S seconds.
Because the samples are spread over the execution, a slow-down
anywhere in it slows the samples as well. Set-up, which runs in other
processes, is scaled by rounds taken right before and after each
set-up probe (`round_s`).

The sample does not touch the program under test, so an optimisation of
the program moves the scaled time exactly as it moves the raw one. Its
pieces resemble the program's hot loops: 64-bit integer mixing, dict and
set updates and tuple keys in pure Python (the generic stepping kernel
and stream-key derivation); numpy calls on arrays of a few hundred
elements (the complete-graph kernel); lookups spread over a dict of
some megabytes (the dict/set state of thousands of particles), which
slows down more than the others when the host contends for caches.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# About the median round time on the 2-vCPU Intel Xeon VM behind
# baseline.json.
NOMINAL_S = 0.005
PERIOD_S = 0.03

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_N = 1000  # vertices
_START = np.random.default_rng(0).integers(0, _N, 600)
_KEYS = np.arange(_START.size, dtype=np.uint64) * np.uint64(_GOLDEN)
_TABLE = {i: (i, i & 7) for i in range(1 << 15)}


def _python_part() -> int:
    occupied: dict = {}
    moving = set()
    x = 12345
    for i in range(3000):
        x = ((x ^ (x >> 31)) * _M1) & _MASK
        key = (i & 255, x & 7)
        occupied[key] = occupied.get(key, 0) + 1
        if x & 1:
            moving.add(i & 511)
        else:
            moving.discard(i & 511)
    return x


def _numpy_part() -> None:
    pos = _START.copy()
    counters = np.zeros(pos.size, dtype=np.int64)
    for _ in range(30):
        idx = np.nonzero(np.bincount(pos, minlength=_N)[pos] >= 2)[0]
        counters[idx] += 1
        z = _KEYS[idx] + np.uint64(_GOLDEN) * counters[idx].astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
        z ^= z >> np.uint64(31)
        pos[idx] = (z % np.uint64(_N)).astype(np.int64)


def _memory_part() -> int:
    x = 1
    total = 0
    for _ in range(3000):
        x = ((x ^ (x >> 31)) * _M1) & _MASK
        a, b = _TABLE[x & 0x7FFF]
        total += a + b
    return total


PIECES = (_python_part, _numpy_part, _memory_part)


def _timed(piece) -> float:
    t0 = perf_counter()
    piece()
    return perf_counter() - t0


def round_s(rounds: int = 30) -> float:
    """Mean round time over a block of back-to-back rounds."""
    return statistics.mean(sum(_timed(p) for p in PIECES) for _ in range(rounds))


class Sampler:
    """Context manager: times the next calibration piece every PERIOD_S
    seconds of wall time while the block runs, in the main thread."""

    def __init__(self):
        self.samples: list[list[float]] = [[] for _ in PIECES]
        self._next = 0

    def _on_alarm(self, signum, frame) -> None:
        k = self._next
        self._next = (k + 1) % len(PIECES)
        self.samples[k].append(_timed(PIECES[k]))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def round_s(self) -> float:
        """Mean round time during the block; a fresh block of rounds
        when the block was too short to sample every piece."""
        if not all(self.samples):
            return round_s()
        return sum(statistics.mean(times) for times in self.samples)

    def scaled(self, wall: float) -> float:
        """`wall` (which includes the samples) without the samples, at
        the nominal speed."""
        own = wall - sum(map(sum, self.samples))
        return own * NOMINAL_S / self.round_s()
