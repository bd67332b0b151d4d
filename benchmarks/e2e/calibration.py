"""Machine-speed calibration: times are reported in reference ms.

This box runs the same pure-Python code 1.0 to 1.8 times slower from
one stretch of seconds to the next (a neighbour on the host), and a
stretch can outlast a whole invocation, so no number of rounds averages
it away.  The benchmark therefore runs a small fixed *chunk* of
interpreter work between requests, every ``GAP_S`` of wall time, and
divides each measured latency by how much slower than ``REFERENCE_S``
the chunks around it ran.  What is reported is the time the request
would have taken with the machine at reference speed.

The chunk uses nothing from ``src/``: allocating small objects, sorting
and grouping them, and a JSON round trip -- the kinds of interpreter
work the stack under test does.  Measured here over 50-60 passes per
workload while the box moved between its speeds, the median latency of
a window of 5 passes spread (IQR / median) 0.10-0.38 raw and 0.01-0.06
after this division; a tight arithmetic loop as the chunk did worse
(it feels a busy sibling thread more than the interpreter does).
"""

import bisect
import json
import statistics
import time
from typing import List, Sequence

#: Seconds one chunk takes on the reference machine (this 2-core
#: 2.1 GHz box, undisturbed).  A constant, so that numbers from
#: different runs and commits are in the same unit.
REFERENCE_S = 0.000300
#: Wall time between chunks while requests are issued.
GAP_S = 0.010
#: A latency is divided by the median of this many chunks either side.
NEIGHBOURS = 3


class _Row:
    __slots__ = ("key", "group", "label")

    def __init__(self, key: int):
        self.key = key
        self.group = (key * 7919) % 101
        self.label = "n-%d" % key

    def order(self):
        return (self.group, self.key)


_DOCUMENT = [{"emp": i, "name": "ada-%d" % i, "dept": i % 8,
              "salary": 30000 + 13 * i} for i in range(60)]


def chunk() -> int:
    """The fixed piece of work whose duration tells the machine's speed."""
    rows = [_Row(key) for key in range(250)]
    rows.sort(key=_Row.order)
    groups = {}
    for row in rows:
        groups.setdefault(row.group % 7, []).append(row.label)
    decoded = json.loads(json.dumps(_DOCUMENT, sort_keys=True))
    return len(groups) + len(decoded)


def timed_chunk() -> float:
    begin = time.perf_counter()
    chunk()
    return time.perf_counter() - begin


def slowdown(chunk_seconds: Sequence[float]) -> float:
    """How many times slower than the reference these chunks ran."""
    return statistics.median(chunk_seconds) / REFERENCE_S


class SpeedLog:
    """Chunk timings taken between the requests of one pass."""

    def __init__(self) -> None:
        self.positions: List[int] = []   # requests issued before the chunk
        self.seconds: List[float] = []
        self._last = 0.0

    def sample(self, position: int) -> None:
        self.positions.append(position)
        self.seconds.append(timed_chunk())
        self._last = time.perf_counter()

    def sample_if_due(self, position: int) -> None:
        if time.perf_counter() - self._last >= GAP_S:
            self.sample(position)

    def slowdown_at(self, position: int) -> float:
        """Local slowdown for the request issued at ``position``."""
        after = bisect.bisect_right(self.positions, position)
        return slowdown(self.seconds[max(0, after - NEIGHBOURS):
                                     after + NEIGHBOURS])

    def slowdown(self) -> float:
        return slowdown(self.seconds)

    def to_reference(self, latencies: Sequence[float]) -> List[float]:
        """Each measured latency as seconds at reference speed."""
        return [latency / self.slowdown_at(position)
                for position, latency in enumerate(latencies)]
