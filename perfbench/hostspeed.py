"""A fixed yardstick for the host's speed, independent of the simulator.

The benchmark's hosts are shared: their speed drifts by tens of percent
over minutes as other tenants come and go, which swamps the effect of a
code change on raw ops/s. :func:`probe` runs a fixed amount of work that
looks like the simulator to the CPU — a heap-ordered event loop with
string-keyed dict updates and small allocations over a working set too
large for the caches, small-array numpy calls like the rate solver's, and
copying and checksumming bytes like real-byte storage — and returns how
fast it ran. A :class:`ScaledTimer` probes before a set-up or an
episode, every ``INTERVAL`` seconds of it and after it, and weights each
stretch by the host speed probed at its ends, so a host that is 20% slow
for a while slows the probes as much as the work and the scaled time
holds.

None of this code comes from the simulator: a change to the simulator
cannot speed up the yardstick and cancel itself out.
"""

from __future__ import annotations

import heapq
import random
import time
import zlib

import numpy as np

#: Probe speed that scaled time refers to: about the median on a 2-vCPU
#: Intel Xeon VM at 2.1 GHz, whose speed drifts by a factor of two.
NOMINAL = 450_000.0

STEPS = 5_000  # event-loop steps per probe; a probe takes about 11 ms
NP_STEPS = 700  # numpy steps per probe
BYTE_STEPS = 4  # 512 KiB copies and checksums per probe
POOL = 200_000  # cells in the working set (about 20 MB)
INTERVAL = 0.2  # host seconds of episode between probes

# Cells are tuples of numbers, which the garbage collector stops tracking,
# so the working set does not slow the simulator's collections.
_pool: list = []
_caps = np.linspace(1.0, 2.0, 32)
_inc = (np.arange(32 * 32) % 5 == 0).reshape(32, 32) * 0.01
_inc_sum = np.linspace(2.0, 3.0, 32)
_blob = random.Random(2).randbytes(1 << 19)


def probe() -> float:
    """Run the fixed work once; return its speed in event-loop steps per second."""
    if not _pool:
        _pool.extend((float(i), 0) for i in range(POOL))
    pool = _pool
    rng = random.Random(1)
    heap = [(rng.random(), i, i) for i in range(64)]
    heapq.heapify(heap)
    table = {}
    seq = 64
    t0 = time.perf_counter()
    for step in range(STEPS):
        t, _, who = heapq.heappop(heap)
        at = (who * 7919 + step * 104729) % POOL
        v, n = pool[at]
        v = v * 0.5 + t
        pool[at] = (v, n + 1)
        key = f"n{who}:{step & 63}"
        table[key] = table.get(key, 0.0) + v
        seq += 1
        heapq.heappush(heap, (t + 0.001 * ((who + step) % 11 + 1), seq, who))
    # Small-array numpy calls, as in the rate solver.
    caps = _caps.copy()
    for i in range(NP_STEPS):
        share = caps / _inc_sum
        k = int(np.argmin(share))
        caps -= share[k] * _inc[k]
        caps[k] = 1.0 + i % 3
    # Streaming bytes: copy and checksum, as real-byte storage does.
    c = 0
    for i in range(BYTE_STEPS):
        c = zlib.crc32(bytes(_blob), c)
    return STEPS / (time.perf_counter() - t0)


class ScaledTimer:
    """Host time of a set-up or an episode: as measured, and scaled.

    Created just before the work; an episode calls :meth:`tick` after
    every op, and :meth:`stop` ends the work. With ``probing``, the host
    is probed at the start, at the first tick ``INTERVAL`` seconds or more
    after the last probe, and at the stop; the time probes take is left
    out of both figures. Without it (the warm-up, and traced episodes,
    where a probe would land inside a span), only ``raw_s`` is measured.
    """

    def __init__(self, probing: bool) -> None:
        self.probing = probing
        self.speeds = [probe()] if probing else []
        self.spans: list = []  # host seconds between consecutive probes
        self.mark = time.perf_counter()

    def tick(self) -> None:
        if self.probing and time.perf_counter() - self.mark >= INTERVAL:
            self._cut()

    def stop(self) -> None:
        self._cut()

    def _cut(self) -> None:
        self.spans.append(time.perf_counter() - self.mark)
        if self.probing:
            self.speeds.append(probe())
        self.mark = time.perf_counter()

    @property
    def raw_s(self) -> float:
        return sum(self.spans)

    @property
    def scaled_s(self) -> float:
        """Each stretch times the mean speed probed at its ends, over NOMINAL."""
        return sum(
            span * (a + b) / 2
            for span, a, b in zip(self.spans, self.speeds, self.speeds[1:])
        ) / NOMINAL
