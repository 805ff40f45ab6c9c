"""Machine-speed probe: puts times measured on a shared host on a steady scale.

Other tenants of a shared host slow this process down by up to 2x for
stretches of seconds to minutes, without any steal time showing. Raw times
of one run then say more about the neighbours than about planefol. The probe
times a fixed kernel of stdlib arithmetic (Fraction sums and dict updates,
the same mix as planefol's exact arithmetic, and no planefol code, so no
change to the program moves it) before every task and every 0.1 s of CPU
time during a task. A task's *nominal* time is its measured time scaled by
``NOMINAL_KERNEL_S`` over the kernel's median duration around the task: the
time it would have taken on the host the constant was taken on, unloaded.
Wall and CPU time are both scaled by the kernel's wall time: read inside
a SIGPROF handler, the kernel's CPU time came out as zero on the host this
was built on. The probe's own time is taken out first.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The kernel's duration on an unloaded 2-vCPU Xeon VM under CPython 3.11
# (1.65-1.9 ms measured; rounded). A fixed scale: it only sets the unit.
NOMINAL_KERNEL_S = 0.002
PERIOD_S = 0.1


def kernel():
    s = Fraction(0)
    d = {}
    for i in range(1, 400):
        s += Fraction(i, i * i + 1)
        d[(i % 17, i % 5)] = s.numerator % 97
    return s


class Probe:
    """Kernel timings taken between tasks and, on SIGPROF, during them."""

    def __init__(self):
        self.took = []

    def sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.took.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def factor(self, lo, hi):
        """Slowdown over samples [lo, hi): kernel median / nominal."""
        return statistics.median(self.took[lo:hi]) / NOMINAL_KERNEL_S
