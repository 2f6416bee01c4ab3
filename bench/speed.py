"""Machine-speed reference for reporting times on a shared, drifting VM.

The benchmark's VM shares its cores with other tenants, and its speed moves by
up to half within seconds and across minutes as they come and go. Every timing
the benchmark reports is therefore normalised to a fixed unit of reference
work (the *probe*) run right next to it:

    reported = measured seconds x REFERENCE_S / (mean time of the nearby probes)

which is the time the same work would take on a machine where the probe takes
``REFERENCE_S``. The probe is code of the benchmark's own, so no change to
the program under test can move it; the raw seconds are kept in each run
record beside the normalised ones.

Contention from a neighbour slows code with a large instruction and data
footprint more than a tight loop, so the probe is a spread of the kinds of
work a query does: JSON parsing and rendering, a regular expression,
``Fraction`` sums, sorting, a bitmask breadth-first search like the
coalition evaluator's, and small numpy passes.
"""

from __future__ import annotations

import json
import random
import re
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import fmean

import numpy

# Time the probe takes on the reference machine: the 2-vCPU Xeon VM the
# baseline in README.md was measured on, read as the median over a minute.
REFERENCE_S = 0.0012
# A query is scaled by the mean of the probes run within WINDOW_S seconds of
# it, and by at least the MIN_NEIGHBOURS nearest when fewer ran that close.
# The mean drops the fastest and slowest fifth of them, so a probe that a
# pause hit does not scale its neighbours.
WINDOW_S = 2.0
MIN_NEIGHBOURS = 8


def _graph(seed: int, n_vertices: int, extra_edges: int) -> list[int]:
    """Adjacency bitmasks of a random spanning tree plus ``extra_edges``."""
    rng = random.Random(seed)
    adjacency = [0] * n_vertices
    edges = [(rng.randrange(v), v) for v in range(1, n_vertices)]
    edges += [tuple(rng.sample(range(n_vertices), 2)) for _ in range(extra_edges)]
    for u, v in edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    return adjacency


_ADJACENCY = _graph(7, 40, 30)
_MASKS = [m | 1 for m in (random.Random(8).getrandbits(40) for _ in range(100))]
_DOCUMENT = json.dumps({"vertices": 40,
                        "edges": [[v, (v * 7) % 40] for v in range(80)],
                        "primary": [1, 2, 3], "standard": list(range(4, 40))})
_METHOD = re.compile(r'"method": "([^"]+)"')


def _reached(mask: int) -> int:
    reached = frontier = 1
    while frontier:
        step = 0
        rest = frontier
        while rest:
            low = rest & -rest
            step |= _ADJACENCY[low.bit_length() - 1]
            rest ^= low
        frontier = step & mask & ~reached
        reached |= frontier
    return reached


def probe() -> float:
    """Time one fixed unit of reference work."""
    started = time.perf_counter()
    for _ in range(2):
        doc = json.loads(_DOCUMENT)
        _METHOD.search(json.dumps(doc, indent=2, sort_keys=True))
        total = Fraction(0)
        for i in range(1, 40):
            total += Fraction(i, i + 3)
        sorted((v % 7, v) for v in doc["standard"] * 5)
    sum(_reached(mask).bit_count() for mask in _MASKS)
    lanes = numpy.arange(1 << 12, dtype=numpy.int64)
    numpy.cumsum(numpy.bincount(lanes & 255))
    return time.perf_counter() - started


def probes(count: int) -> list[float]:
    return [probe() for _ in range(count)]


def normalise(starts: list[float], seconds: list[float],
              probe_starts: list[float], probe_seconds: list[float]) -> list[float]:
    """Scale each timed item (start and duration, on the ``perf_counter``
    clock) by the probes that ran around it."""
    scaled = []
    for start, t in zip(starts, seconds):
        lo = bisect_left(probe_starts, start - WINDOW_S)
        hi = bisect_right(probe_starts, start + t + WINDOW_S)
        if hi - lo < MIN_NEIGHBOURS:
            middle = bisect_left(probe_starts, start)
            lo = max(0, min(middle - MIN_NEIGHBOURS // 2,
                            len(probe_starts) - MIN_NEIGHBOURS))
            hi = lo + MIN_NEIGHBOURS
        scaled.append(t * REFERENCE_S / _trimmed_mean(probe_seconds[lo:hi]))
    return scaled


def scale(seconds: float, nearby: list[float]) -> float:
    return seconds * REFERENCE_S / _trimmed_mean(nearby)


def _trimmed_mean(values: list[float]) -> float:
    ordered = sorted(values)
    cut = len(ordered) // 5
    return fmean(ordered[cut:len(ordered) - cut])
