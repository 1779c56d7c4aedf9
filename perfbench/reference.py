"""A fixed piece of reference work that measures how fast the machine is
running right now, so that the end-to-end times can be given in
reference-machine seconds.

The benchmark's machine is a few cores of a shared host.  Its speed changes
by up to 1.8x from second to second and from minute to minute as other
tenants come and go, and that moves every time the program takes.  The
reference work mixes what a pass computes (Python dicts and strings, JSON,
sha256, NumPy element-wise arithmetic) but calls nothing of tripleforge, so a
change to the program cannot change it.  Timed next to the program, it slows
down when the machine does.  It writes no files: right after the pass's reset
has deleted hundreds of them, file writes run slower than elsewhere in the
pass, so the timing would depend on what ran just before it.
"""
from __future__ import annotations

import hashlib
import json
import time

import numpy

# the median time of ``run`` inside a benchmark run on the reference machine
# (2 vCPUs of an Intel Xeon); a time scaled by REFERENCE_S / measured reads
# as that machine's time
REFERENCE_S = 0.14
# small pieces, so that the reference work never sets the process's peak
# memory: tables of _ITEMS entries, element-wise blocks of _BLOCK rows (1.5 MB)
_TABLES = 20
_ITEMS = 400
_ROUNDS = 160
_BLOCK = 10


def run() -> float:
    """Do the reference work once; returns its wall time in seconds."""
    rng = numpy.random.default_rng(0)
    left, right = rng.random((_BLOCK, 64)), rng.random((300, 64))
    started = time.perf_counter()
    for t in range(_TABLES):
        table = {f"k{i}": {"id": i, "text": f"word {i} and {i * 7}", "v": [i, i + 1]}
                 for i in range(t * _ITEMS, (t + 1) * _ITEMS)}
        text = json.dumps(table, sort_keys=True)
        if len(json.loads(text)) != _ITEMS:
            raise RuntimeError("reference work: JSON round trip lost items")
        for i in range(5):
            hashlib.sha256(text[i * 1000:i * 1000 + 5000].encode("utf-8")).hexdigest()
    for _ in range(_ROUNDS):
        ((left[:, None, :] - right[None, :, :]) ** 2).sum(-1).min(1).mean()
    return time.perf_counter() - started


class Yardstick:
    """The reference work, timed before each measured item (a set-up or a
    segment of a pass) and once after the last, so that every item lies
    between two timings."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def mark(self) -> int:
        """Time the reference work now, just before an item; returns the
        item's mark."""
        self.times.append(run())
        return len(self.times) - 1

    def slowdown(self, mark: int) -> float:
        """How much slower than usual the machine ran around the item with
        this mark: the mean of the timings just before and just after it,
        over ``REFERENCE_S``."""
        return (self.times[mark] + self.times[mark + 1]) / (2 * REFERENCE_S)
