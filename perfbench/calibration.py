"""How fast this machine runs Python right now, from a fixed reference loop.

On a shared machine the speed of the same process drifts by half or
more from one minute to the next, in CPU time as much as in wall time, so
raw timings of two runs of identical work do not agree.  The benchmark
therefore runs ``loop`` (which never calls ``ldlmon``) three times just
before each measured item, and reports that item's times scaled to the
reference speed::

    reported = measured * REFERENCE_S / min(three loop CPU times)

The minimum of three filters bursts of interference out of the
calibration; pairing each item with its own calibration follows the
drift.  On the shared virtual machine the benchmark was built on, this cut the spread of
identical work from 11 % to 3 % (interquartile range over median).  A
reported second is a second at the speed where one ``loop`` takes
``REFERENCE_S`` of CPU time, about this loop's time on a 2-core x86
virtual machine when it is not contended.  A change to ``ldlmon`` cannot move the
loop.  The raw figures and the speed factors are printed alongside.
"""
from __future__ import annotations

import time

REFERENCE_S = 0.005
LOOP_ROUNDS = 4000


def loop() -> int:
    """Fixed work in the style of the compiler: frozenset keys, dict
    updates, small strings and sorting."""
    table: dict = {}
    acc = 0
    for i in range(LOOP_ROUNDS):
        key = frozenset((i % 97, i % 89, (i * 7) % 83))
        table[key] = table.get(key, 0) + 1
        text = str(i % 1000)
        acc += len(sorted((text, str(i % 13), str(i % 7)))[0])
    return acc + len(table)


def sample() -> float:
    """CPU seconds of one ``loop``."""
    c0 = time.process_time()
    loop()
    return time.process_time() - c0


def factor() -> float:
    """How many times slower than the reference the machine runs now."""
    return min(sample() for _ in range(3)) / REFERENCE_S
