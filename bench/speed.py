"""A gauge of the machine's momentary speed.

The reference VM shares its cores with other tenants, and the speed of
its processes drifts by up to 1.7x within minutes.  `gauge` times a fixed
mix of interpreter loops, dict updates and small matrix products, about
as long as a few milliseconds of the program's own work.  An operation
timed between two gauges, divided by their `pace`, gives its time at
the speed the gauge reads in a quiet stretch: "reference seconds".
Import after the BLAS thread count is set.
"""

import time

import numpy as np

REFERENCE_S = 0.008  # gauge time on the reference VM in a quiet stretch
_A = np.random.default_rng(0).standard_normal((120, 120))


def gauge():
    """Seconds taken by the fixed work mix."""
    t0 = time.perf_counter()
    s = 0
    for i in range(60000):
        s += i * i
    x = _A
    for _ in range(20):
        x = np.tanh(x @ _A * 0.01)
    counts = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    return time.perf_counter() - t0


def pace(before, after):
    """How many times slower than in a quiet stretch the machine ran, from
    the gauges taken just before and just after a timing."""
    return (before + after) / (2.0 * REFERENCE_S)
