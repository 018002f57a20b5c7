"""A fixed CPU kernel that measures how fast the machine runs right now.

The shared 2-vCPU machines this benchmark runs on drift in speed by
±30% over seconds to minutes (a fixed ``check()`` takes 0.24 s in one
stretch and 0.42 s in the next; its CPU time moves with it, so it is not
descheduling). A run's raw medians inherit that drift. This kernel does
a fixed amount of the same kind of work the program does (tuple and
string building, dict grouping, sorting) and imports nothing from the
program, so its time follows the machine and never the code under test.
Timed next to every cycle, it turns a cycle's latency into a ratio that
keeps the program's speed and drops the machine's: on a fixed workload
the per-sample spread fell from 31% to 9% of the median.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Loop size: about 0.02 s on a 2-vCPU Xeon at 2.1 GHz.
KERNEL_ROWS = 12_000


def kernel(rows: int = KERNEL_ROWS) -> int:
    groups: dict[tuple[int, str], list[tuple[int, str]]] = {}
    for i in range(rows):
        key = (i % 613, f"b{i % 97}")
        groups.setdefault(key, []).append((i, key[1]))
    ordered = sorted(groups.items(), key=lambda item: (len(item[1]), item[0]))
    return sum(len(values) for __, values in ordered)


def calibrate(repeats: int = 3) -> float:
    """Median seconds of *repeats* :func:`kernel` calls, taken now.

    The median drops a call that an interrupt happened to hit. The
    collector is paused meanwhile: the kernel makes no reference cycles,
    and a collection it triggered would time the size of the workload's
    heap instead of the machine.
    """
    times = []
    gc.disable()
    try:
        for __ in range(repeats):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)
