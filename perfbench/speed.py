"""CPU-speed reference: the benchmark reports times at a fixed reference speed.

On a shared machine the speed a process gets drifts by tens of percent
over seconds to minutes, as neighbours come and go, and the same op on
the same input takes that much longer.  The benchmark therefore times a
fixed chunk of pure-Python work (integer arithmetic, dict updates,
Fraction arithmetic, the operations spectower spends its time in) between
ops, and scales each measured time t to

    t * NOMINAL_S / (mean time of the reference chunks just before and after),

that is, to the time the op would have taken had the reference chunk run
in NOMINAL_S seconds.  NOMINAL_S is a constant, close to the chunk's
median time on a 2-CPU Xeon under Python 3.11, so the scaled values stay
near wall-clock seconds there.  Raw wall times are printed beside them.
"""

import time
from fractions import Fraction

NOMINAL_S = 0.0033


def reference_seconds():
    """Wall time of the fixed reference chunk."""
    t0 = time.perf_counter()
    table = {}
    x = 1
    for _ in range(6000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 1023] = table.get((x >> 10) & 1023, 0) + 1
    f = Fraction(1)
    for i in range(1, 90):
        f = f * Fraction(i + 1, i) - Fraction(1, i * i + 1)
    return time.perf_counter() - t0


def scale_each(times, refs):
    """Scale times[i] by the reference chunks timed just before and just
    after it: refs[i - 1] and refs[i]."""
    return [scale(t, refs[max(0, i - 1): i + 1]) for i, t in enumerate(times)]


def scale(t, refs):
    """Scale one time by the mean of the reference chunks taken around it."""
    return t * NOMINAL_S * len(refs) / sum(refs)
