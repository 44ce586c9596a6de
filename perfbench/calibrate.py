"""A fixed reference computation that measures the host's current speed.

On a shared host the same job can run 15-25% slower for minutes at a
time, in CPU time as well as wall time.  The harness therefore brackets
every timed job with this computation, run in the same process, and
reports the job's time divided by the computation's time, multiplied by
REFERENCE_S.  That is the job's time at the speed at which this
computation takes REFERENCE_S (about this host's typical speed, so the
reported figures read as seconds).  A change to the package cannot move
the reference: it is plain standard-library code, exact rational
elimination like the package's own arithmetic, on fixed inputs.
"""

import random
import time
from fractions import Fraction

# Typical wall time of one reference() call on a 2-core x86-64 host with
# CPython 3.11; fixed, so that scaled figures stay comparable.
REFERENCE_S = 0.235
SIZE = 26
# setup_s is mostly interpreter start-up, whose speed follows the host
# differently.  Its reference is a fresh interpreter running this file,
# which inverts a STARTUP_SIZE matrix; STARTUP_REFERENCE_S is the typical
# wall time of that process on the same host.
STARTUP_REFERENCE_S = 0.08
STARTUP_SIZE = 14


def _inverse_trace(size):
    """Trace of the inverse of a fixed size x size rational matrix, by
    Gauss-Jordan elimination over Fractions."""
    rng = random.Random(1302)
    aug = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(size)] + [Fraction(int(i == j))
                                     for j in range(size)]
           for i in range(size)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(size):
            factor = aug[r][col]
            if r != col and factor:
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return sum(aug[i][size + i] for i in range(size))


def reference():
    """(wall, cpu) seconds of one run of the reference computation."""
    wall, cpu = time.perf_counter(), time.process_time()
    _inverse_trace(SIZE)
    return time.perf_counter() - wall, time.process_time() - cpu


if __name__ == "__main__":
    _inverse_trace(STARTUP_SIZE)
