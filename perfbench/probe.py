"""Host speed probe.

On a shared host the same code runs up to about 1.8 times slower from one
minute to the next, because other machines' work takes the processor's
time, caches and memory bandwidth.  The probe is a fixed piece of
Python of the same kind as the program's work (jet-like series arithmetic:
method calls, tuple building, float multiply-adds, ``math`` calls; and
numpy on 3-vectors and 3x3 matrices) that never calls the program.  The worker times it right before every item; run.py divides each
item's time by the probe times around it and multiplies by ``NOMINAL_S``,
which gives the item's time at the host speed where one probe takes
``NOMINAL_S`` seconds.  A change to the program moves those times in full;
a change of host speed moves the probe with them and cancels out.

    python3 perfbench/probe.py      # prints the median of 51 probe times
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: probe time that defines the nominal host speed (about the median on a
#: 2-vCPU KVM guest of an Intel Xeon, model 207, under Python 3.11)
NOMINAL_S = 0.003
#: probe times around an item that its host speed is the median of
WINDOW = 3


class _Series:
    """Truncated power series: just enough arithmetic to keep the
    interpreter busy the way the program's Jet1/Jet2 classes do."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        a, b = self.c, other.c
        n = len(a)
        return _Series(tuple(sum(a[j] * b[k - j] for j in range(k + 1))
                             for k in range(n)))

    def __add__(self, other):
        return _Series(tuple(x + y for x, y in zip(self.c, other.c)))

    def exp(self):
        a = self.c
        out = [math.exp(a[0])]
        for k in range(1, len(a)):
            out.append(sum(j * a[j] * out[k - j] for j in range(1, k + 1))
                       / k)
        return _Series(tuple(out))


def probe(rounds=70):
    """Seconds a fixed amount of series and small-array arithmetic takes
    on this host."""
    start = time.perf_counter()
    x = _Series((0.3, 1.0, 0.0, 0.0, 0.0))
    y = _Series((0.1, 0.0, 1.0, 0.0, 0.0))
    acc = _Series((0.0,) * 5)
    frame = np.eye(3)
    for _ in range(rounds):
        acc = acc + (x * y).exp() * x
        x = _Series((x.c[0] * 0.999,) + x.c[1:])
        tangent = np.array(acc.c[:3])
        frame = frame + 1e-3 * np.outer(np.cross(tangent, frame[2]),
                                        frame[0])
        frame = frame / np.linalg.norm(frame, axis=1)[:, None]
    if not math.isfinite(acc.c[-1] + np.linalg.det(frame)):
        raise ArithmeticError("probe overflowed")
    return time.perf_counter() - start


def local_speed(probes):
    """For each position in ``probes``, the median of the WINDOW probe
    times centred on it, divided by NOMINAL_S: how much slower than
    nominal the host ran around that item."""
    half = WINDOW // 2
    return [statistics.median(probes[max(0, i - half):i + half + 1])
            / NOMINAL_S for i in range(len(probes))]


if __name__ == "__main__":
    probe()
    print(statistics.median(probe() for _ in range(51)))
