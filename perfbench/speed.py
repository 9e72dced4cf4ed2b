"""Machine-speed gauge: scale timings to a fixed reference speed.

The benchmark shares its cores with other machines' work.  On a 2-core
virtual machine (Xeon at 2.1 GHz) shared with other tenants, a fixed
pure-Python loop ran up to 1.8 times slower for seconds to minutes at a
time, with no hypervisor steal time recorded, so the loss is contention
for the core itself; process CPU time rises with wall time, and no median
taken inside one run removes a slow phase that lasts the whole run.  Raw medians of the same `cobar` job list
spread by a third (quartile distance over median) across six runs.

So the benchmark times `reference_work`, a fixed loop of the same kind of
work the library does (sparse rows of small fractions, tuple keys, dict
updates) that shares no code with it, at the start and end of each round
(and of set-up), and between jobs at least `GAP_S` apart.  The round's
timings are multiplied by (REFERENCE_S / median reference time of the
round) ** EXPONENT: the result is the time the work would take at the
speed where
`reference_work` takes REFERENCE_S, and equals the raw wall time when the
machine runs at that speed.  Scaling each round, not the whole run,
follows slow phases that start or end within a run; medians over rounds
remove what is left of short bursts.

The library slows less than the reference loop: when the reference takes
k times longer, the library's jobs take about k**EXPONENT times longer.
The slope of log job time against log reference time was 0.72 over 74
paired samples of h2_report(K, 7) plus a D product, and 0.64, 0.64 and
0.82 over ten runs each of cobar, pbw and replicate.  With the full ratio
the scaled round_s still rose with machine speed; with the exponent 0.75
its spread over ten runs (quartile distance over median) fell from 0.14 to
0.09 on cobar and from 0.15 to 0.05 on pbw.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# seconds reference_work() takes on an uncontended core of that machine
# (Python 3.11.7); a fixed constant, not re-measured
REFERENCE_S = 0.018
EXPONENT = 0.75
GAP_S = 0.5


_ROW = {j: Fraction(j % 7 + 1, j % 5 + 1) for j in range(400)}
_PIVOT = {j: Fraction(j % 3 + 1, 2) for j in range(0, 400, 3)}


def reference_work() -> int:
    # sparse row updates with small fractions, as in exact elimination
    for rep in range(30):
        f = Fraction(-(rep % 5 + 1), 3)
        row = dict(_ROW)
        for c, v in _PIVOT.items():
            s = row.get(c, 0) + f * v
            if s:
                row[c] = s
            else:
                row.pop(c, None)
    # tuple words accumulated in a dict, as in PBW normal forms
    acc: dict[tuple, int] = {}
    for i in range(30000):
        word = (i % 4, i % 3) + (i % 5, i % 2)
        acc[word] = acc.get(word, 0) + 1
    return len(row) + len(acc)


def time_reference() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


class Gauge:
    """Reference timings taken during one round (or the set-up)."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self):
        self.samples.append(time_reference())
        self._last = perf_counter()

    def sample_if_due(self):
        if perf_counter() - self._last >= GAP_S:
            self.sample()

    def scale(self) -> float:
        """Factor from raw seconds to seconds at the reference speed."""
        return (REFERENCE_S / statistics.median(self.samples)) ** EXPONENT
