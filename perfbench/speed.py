"""Machine-speed probe: times are reported at a fixed reference speed.

On a shared machine the same check's wall time swings by more than the
bounds the benchmark sets, because the CPU the process gets runs
faster or slower from one minute to the next (on the reference box the
probe below shows two speed states about 1.6x apart).  Every timed
quantity is therefore measured twice: the wall time, and the time of a
fixed pure-Python kernel taken right next to it.  A wall time ``t``
next to probes averaging ``p`` is reported as ``t * REFERENCE_S / p``:
the time it would have taken on a machine where the kernel takes
``REFERENCE_S``.  Raw wall times stay in the human report.
"""

import statistics
import time

#: Kernel time, in seconds, of the reference speed the end-to-end time
#: metrics are reported at.
REFERENCE_S = 0.001

#: Kernel repetitions per probe; the probe is their median.
ROUNDS = 5


def _kernel() -> int:
    # Dict, tuple and list work, the interpreter paths the checker
    # spends its time on; about a millisecond.
    table = {}
    items = []
    for i in range(2000):
        key = (i % 97, i & 7)
        table[key] = table.get(key, 0) + i
        items.append(key)
    items.sort()
    return len(table)


def probe() -> float:
    """Seconds the kernel takes now (median of :data:`ROUNDS` runs)."""
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference(seconds: float, probe_seconds: float) -> float:
    """*seconds* of wall time scaled to the reference speed."""
    return seconds * REFERENCE_S / probe_seconds
