"""Host-speed normalisation: a fixed reference block timed between slices of work.

The host this benchmark runs on changes speed by tens of percent within a
second (CPU frequency, a busy sibling hyperthread, neighbours on the same
machine).  Raw wall times of identical code therefore spread too widely to
compare two commits.  The benchmark runs a fixed block of reference work
in short slices interleaved with the workload and expresses every timing
in *reference seconds*::

    ref_s = wall_s * R0 / R_local

``R_local`` is the median block time of the slices around the timed
segment (``NEIGHBOURS`` on each side) and ``R0`` the block's wall time on
the reference host.  A segment that ran while the host was slow is scaled
down by the same factor the block slowed down by.

The block imitates what the simulator spends its time on: tuple heap
pushes/pops and attribute updates on small objects (the event loop), dict
accumulation (per-device accounting) and small numpy elementwise ops (chunk
numerics).  It does not import the program under test.
"""

from __future__ import annotations

import heapq
import statistics
import time
from contextlib import contextmanager

import numpy as np

__all__ = ["R0_S", "NEIGHBOURS", "RefClock", "reference_block"]

#: Median wall time of one :func:`reference_block` call on the reference
#: host (see README.md).  Fixed: changing it rescales every reported time.
R0_S = 0.80e-3

#: Block samples taken on each side of a segment to estimate host speed.
NEIGHBOURS = 3


class _Event:
    __slots__ = ("t", "dev", "n")

    def __init__(self, t: float, dev: int, n: int):
        self.t = t
        self.dev = dev
        self.n = n


_A = np.arange(4096, dtype=np.float64)
_B = _A[::-1].copy()
_C = np.empty_like(_A)


def reference_block() -> float:
    """One slice of fixed reference work; returns a value so it is not elided."""
    heap: list = []
    acc: dict[int, float] = {}
    for i in range(400):
        ev = _Event((i * 7919) % 1009 * 1e-3, i & 7, i)
        heapq.heappush(heap, (ev.t, i, ev))
        acc[ev.dev] = acc.get(ev.dev, 0.0) + ev.t
    while heap:
        _, _, ev = heapq.heappop(heap)
        ev.n += 1
    for _ in range(20):
        np.multiply(_A, 1.0001, out=_C)
        np.add(_C, _B, out=_C)
    return acc[0] + float(_C[0])


class RefClock:
    """Interleaves reference slices with timed work and normalises it.

    Work is timed in *calls* (one call into the program's entry point).
    Inside a call, :meth:`slice` may run further reference slices (from a
    callback the program makes into benchmark code); the slice's own time
    is cut out of the call and the call is split into segments, each
    normalised by the slices around it.
    """

    def __init__(self):
        #: Wall seconds of every reference slice, in run order.
        self.samples: list[float] = []
        #: (samples before the segment, wall seconds, call index)
        self.segments: list[tuple[int, float, int]] = []
        #: Per call: [tag, ops completed].
        self.calls: list[list] = []
        #: Extra latency samples not tied to one call: (sample index, wall, tag).
        self.latencies: list[tuple[int, float, str]] = []
        self._open: int | None = None
        self._mark = 0.0
        #: A LayerTracer recording spans only while a call is open.
        self.tracer = None

    def slice(self) -> None:
        """Run one reference slice; inside a call, cut it out of the call."""
        with self.outside():
            t0 = time.perf_counter()
            reference_block()
            self.samples.append(time.perf_counter() - t0)

    @contextmanager
    def outside(self):
        """Benchmark-side work inside a call (a slice, a check): not timed."""
        if self._open is not None:
            self.segments.append(
                (len(self.samples), time.perf_counter() - self._mark, self._open)
            )
        try:
            if self._open is not None and self.tracer is not None:
                with self.tracer.excluded():
                    yield
            else:
                yield
        finally:
            self._mark = time.perf_counter()

    def begin(self, tag: str) -> None:
        self.calls.append([tag, 0])
        self._open = len(self.calls) - 1
        if self.tracer is not None:
            self.tracer.active = True
        self._mark = time.perf_counter()

    def end(self, ops: int) -> None:
        now = time.perf_counter()
        assert self._open is not None
        self.segments.append((len(self.samples), now - self._mark, self._open))
        self.calls[self._open][1] = ops
        self._open = None
        if self.tracer is not None:
            self.tracer.active = False

    def latency(self, wall_s: float, tag: str) -> None:
        """A latency measured elsewhere (a served job), at the current point."""
        self.latencies.append((len(self.samples), wall_s, tag))

    def scale(self, idx: int) -> float:
        """R0 / local block median for a segment after ``idx`` samples."""
        lo = max(0, idx - NEIGHBOURS)
        window = self.samples[lo : idx + NEIGHBOURS] or self.samples
        return R0_S / statistics.median(window)

    def median_block_s(self) -> float:
        return statistics.median(self.samples)

    # -- derived figures ------------------------------------------------------

    def call_ref_s(self) -> list[float]:
        """Normalised duration of every call."""
        out = [0.0] * len(self.calls)
        for idx, wall, call in self.segments:
            out[call] += wall * self.scale(idx)
        return out

    def call_wall_s(self) -> list[float]:
        out = [0.0] * len(self.calls)
        for _, wall, call in self.segments:
            out[call] += wall
        return out

    def ops(self) -> int:
        return sum(ops for _, ops in self.calls)

    def latency_ref_s(self, tag: str | None = None) -> list[float]:
        return [
            wall * self.scale(idx)
            for idx, wall, t in self.latencies
            if tag is None or t == tag
        ]
