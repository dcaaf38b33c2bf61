"""The host's current speed, read from a fixed reference computation.

The timings of a shared host swing by up to a factor of two over periods of
seconds to minutes, as other tenants load the machine; a run's raw times
then say more about the host than about the library.  The reference below
is the benchmark's own code (it calls nothing in ``qkig``) and mixes what
the library's inner loops do: tuple keys in dicts, allocation and sorting,
and Fraction arithmetic.  Timing it every ``EVERY_S`` seconds during a run
tells how fast the host is now, and a time measured then is scaled by
``NOMINAL_S / reference time``: the benchmark reports times as they would
read on a host where the reference takes ``NOMINAL_S``.  A change to the
library leaves the reference alone, so it moves the scaled times as much as
the raw ones.

``NOMINAL_S`` and ``reference`` fix the unit of every reported time: change
either and the baseline must be measured again.
"""

import random
import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.003
EVERY_S = 0.1   # a reference run at most this often within a run
WINDOW = 9      # an item's scale: the median of the last WINDOW runs


def reference():
    d = {}
    for i in range(1500):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + i
    rng = random.Random(7)
    xs = sorted((rng.random(), i, (i, i + 1)) for i in range(1500))
    by_key = {x[2]: x[1] for x in xs}
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(i, i * i + 1)
    return len(d) + len(by_key) + acc.denominator % 7


def time_reference():
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


class Rolling:
    """Scale for times measured now, from the latest reference runs."""

    def __init__(self):
        self.recent = deque((time_reference() for _ in range(WINDOW)),
                            maxlen=WINDOW)
        self.count = WINDOW
        self.raw_s = 0.0
        self.next = perf_counter() + EVERY_S

    def sample(self):
        """Time the reference if EVERY_S has passed since it last ran."""
        if perf_counter() >= self.next:
            self.recent.append(time_reference())
            self.count += 1
            self.next = perf_counter() + EVERY_S

    def scaled(self, dt):
        """``dt``, measured just now, as it would read on the nominal host."""
        self.raw_s += dt
        return dt * NOMINAL_S / statistics.median(self.recent)
