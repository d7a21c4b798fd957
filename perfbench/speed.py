"""A continuous interpreter-speed probe for a shared, noisy host.

On a host whose CPUs are shared with other tenants, the speed at which
this process runs Python drifts by tens of percent over a minute, and
that drift dominates the run-to-run spread of any raw timing. While a
:class:`SpeedProbe` runs, a ``SIGALRM`` every ``INTERVAL_S`` runs two
fixed pure-Python loops and records how long each took: one that stays
in the core's own caches, and one that reads scattered over a buffer
larger than the core's L2 cache, so it also slows when other tenants
load the shared L3 cache and memory. A timed interval is then reported
in *reference seconds*: its duration without the probe's own share,
scaled by the geometric mean of ``NOMINAL_S / mean(loop duration)`` and
``NOMINAL_WALK_S / mean(walk duration)`` over the interval. A change to
``repro`` moves the timed work but not the probe loops, so the scaling
keeps real speed-ups and slow-downs while cancelling the host's drift.
"""

import array
import gc
import math
import signal
import time

clock = time.perf_counter

INTERVAL_S = 0.05
#: The timed loop's and the walk's typical durations on the machine the
#: benchmark was written on (2 shared vCPUs, 2 MiB L2 cache per core,
#: CPython 3.11), so reference seconds are about seconds there.
NOMINAL_S = 0.00017
NOMINAL_WALK_S = 0.00044


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


_PAIR = _Pair(3, 5)
_TABLE = dict.fromkeys(range(256), 0)


def _step(pair: _Pair, table: dict, i: int) -> int:
    table[i & 255] = pair.a + i
    return pair.b ^ i


#: 8 MiB of zeros, four times a core's L2 cache.
_BUFFER = array.array("q", bytes(8 << 20))
_MASK = len(_BUFFER) - 1
#: Reads per walk.
WALK = 1024


def _walk(start: int) -> int:
    """Reads scattered over ``_BUFFER``; allocates no container."""
    total = 0
    for k in range(start, start + WALK):
        total += _BUFFER[(k * 2654435761) & _MASK]
    return total


def _loop(n: int = 800) -> int:
    """Calls, attribute reads, dict stores and integer arithmetic.

    Allocates no container, so it never triggers a garbage collection.
    """
    total = 0
    for i in range(n):
        total += _step(_PAIR, _TABLE, i)
    return total


class SpeedProbe:
    """Samples interpreter speed from ``start()`` until ``stop()``."""

    def __init__(self) -> None:
        self.samples = []  # (start, loop duration, walk duration) per probe
        self._cursor = 0

    def _sample(self, signum, frame) -> None:
        # A collection of the interrupted program's heap must not land
        # inside a sample.
        enabled = gc.isenabled()
        gc.disable()
        # The first loop refills the caches the program evicted since
        # the last sample; only the second is timed.
        _loop()
        start = clock()
        _loop()
        middle = clock()
        # Each walk reads other lines than the last, so it starts cold.
        _walk(self._cursor)
        self._cursor = (self._cursor + WALK) & _MASK
        self.samples.append((start, middle - start, clock() - middle))
        if enabled:
            gc.enable()

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, begin: float, end: float) -> float:
        """Reference seconds per measured second over ``[begin, end]``.

        Uses the probes that started inside the interval, or every probe
        so far when the interval holds none, and takes the mean of each
        loop's durations without the slowest and fastest tenth: a rare
        probe that a page-fault storm or a descheduling stretched tenfold
        must not set the scale. The probe's own share of the time (two
        loops and a walk per ``INTERVAL_S``) is taken out first.
        """
        inside = [p for p in self.samples if begin <= p[0] <= end] or self.samples
        if not inside:
            raise RuntimeError("the speed probe recorded no samples")
        loop = _trimmed_mean([p[1] for p in inside])
        walk = _trimmed_mean([p[2] for p in inside])
        share = (2 * loop + walk) / INTERVAL_S
        return (1.0 - share) * math.sqrt(NOMINAL_S / loop * NOMINAL_WALK_S / walk)


def _trimmed_mean(values) -> float:
    """Mean without the lowest and highest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)
