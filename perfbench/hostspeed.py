"""The host's speed, sampled while a worker runs, and times scaled by it.

The benchmark runs on a few cores of a shared host whose speed drifts with
the host's load over seconds to minutes.  On the 2-core VM these numbers
come from, one fixed ``gordon`` call repeated 80 times in one process took
0.52 to 1.07 times its median, with CPU time equal to wall time, so the
slowdown is not time spent descheduled and no choice among the calls'
own times removes it.  A fixed pure-Python kernel timed between those
calls slowed with them (correlation 0.94), and the call time divided by
the kernel's time spread 0.06 of its median where the raw time spread 0.37.

``Probe`` runs the kernel from a ``SIGALRM`` handler every ``INTERVAL_S``
of wall time, in the worker's only thread, so it samples the host's speed
during the timed calls too.  ``Probe.spent`` is the time the kernel took,
which the worker takes out of the calls' times.  ``Probe.scale`` turns the
seconds a span of work took into the seconds it would take on a host where
the kernel takes ``NOMINAL_S``, a round figure near its time on that VM
(1.3 ms when run from the handler).
"""

import signal
import statistics
import time

INTERVAL_S = 0.1
NOMINAL_S = 1.0e-3
# samples a scale factor uses at least: the nearest ones by time when fewer
# than this many were taken inside the timed span
NEAREST = 9
_P = 1000003


def kernel():
    """Fixed integer work, about 1 ms: modular arithmetic and list indexing
    of the kind the package's linear algebra over F_p does.  It allocates
    no container, so it never starts a garbage collection."""
    table = _TABLE
    x = 12345
    for i in range(6000):
        x = (x * 48271 + table[x & 255]) % _P
        table[i & 255] = x
    return x


_TABLE = list(range(256))


class Probe:
    def __init__(self):
        self.samples = []  # (start, seconds) of each kernel run
        self.spent = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append((start, took))
        self.spent += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, seconds, start, end):
        """seconds of work done over [start, end], at the nominal speed: over
        the median kernel time inside the span, or of the NEAREST samples."""
        inside = [t for s, t in self.samples if start <= s <= end]
        if len(inside) < NEAREST:
            def distance(sample):
                return max(start - sample[0], sample[0] - end, 0.0)
            inside = [t for _, t in sorted(self.samples,
                                           key=distance)[:NEAREST]]
        return seconds * NOMINAL_S / statistics.median(inside)
