"""Per-layer attribution for the traced run.

The benchmark's own wrappers are installed around the public functions
of each layer of the program (nothing in the program is edited).  Each
wrapped call made while a timed call is open records a span — name,
start, end, parent span, thread — in memory; the spans are reduced to per-layer *self* time (a span minus the
part its child spans cover) when the run ends, and optionally written out
as JSON lines.

Nested calls into the same layer (a subclass ``__init__`` calling its
parent's, a scheduler's ``next`` calling ``super().next``) extend the
outer span instead of opening a new one, so a layer is never counted
twice.  Coroutine methods (service submit and engine lease) are timed as
flat spans outside the per-thread stack, because other tasks run on the
loop thread while they wait.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

__all__ = ["LayerTracer"]

EXCLUDED = "_excluded"


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class LayerTracer:
    """Installs span wrappers on the program's layer boundaries."""

    def __init__(self):
        #: [name, start, end, parent index, thread id]
        self.spans: list[list] = []
        #: Flat spans of coroutine methods: (name, duration_s).
        self.async_spans: list[tuple[str, float]] = []
        self.counts: Counter = Counter()
        #: Spans are recorded only while a timed call is open.
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        spans, lock = self.spans, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            with lock:
                idx = len(spans)
                spans.append([name, time.perf_counter(), None,
                              stack[-1] if stack else -1, threading.get_ident()])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    @contextmanager
    def excluded(self):
        """Benchmark-side work inside a traced call: a child span that is
        subtracted from its parent's self time and reported nowhere."""
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([EXCLUDED, time.perf_counter(), None,
                               stack[-1] if stack else -1, threading.get_ident()])
        self.active = False
        try:
            yield
        finally:
            self.active = True
            self.spans[idx][2] = time.perf_counter()

    def _wrap_async(self, name: str, fn):
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if not self.active:
                return await fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.async_spans.append((name, time.perf_counter() - t0))

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def method(self, cls, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` (plain, class or coroutine method) in a span."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
        elif inspect.iscoroutinefunction(raw):
            self._set(cls, attr, self._wrap_async(name, raw))
        else:
            self._set(cls, attr, self._wrap(name, raw))

    def methods(self, base, attr: str, name: str) -> None:
        """Wrap ``attr`` on ``base`` and every subclass that defines it."""
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                self.method(cls, attr, name)

    def function(self, fn, name: str, *, count_only: bool = False) -> None:
        """Replace ``fn`` wherever a loaded module of ours binds it."""
        wrapped = self._count(name, fn) if count_only else self._wrap(name, fn)
        for modname, mod in list(sys.modules.items()):
            if not (modname.startswith("repro") or modname in ("workloads", "numpy.random")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics name."""
        from repro.bench import runner
        from repro.engine.core import make_backend, resolve_backend, backend_names
        from repro.ir.lower import from_directive
        from repro.ir.passes import run_passes
        from repro.ir.verify import verify_program
        from repro.kernels.base import LoopKernel
        from repro.lang.pragma import parse_directive
        from repro.machine.device import Device
        from repro.machine.spec import MachineSpec
        from repro.memory.residency import ResidencyLedger
        from repro.runtime.data_env import TargetDataRegion
        from repro.runtime.offload_info import OffloadInfo
        from repro.runtime.runtime import HompRuntime
        from repro.sched.base import LoopScheduler
        from repro.sched.selector import select_algorithm
        from repro.service.pool import EnginePool
        from repro.service.service import OffloadService
        import repro.memory.residency as residency

        self.function(parse_directive, "lang.parse")
        self.function(from_directive, "ir.lower")
        self.function(verify_program, "ir.verify")
        self.function(run_passes, "ir.passes")
        self.method(MachineSpec, "subset", "machine.subset")
        self.method(MachineSpec, "to_dict", "machine.to_dict")
        self._set(MachineSpec, "to_dict", self._count("machine.to_dict_calls", MachineSpec.to_dict))
        self._set(Device, "__init__", self._count("machine.device_inits", Device.__init__))
        self.function(np.random.default_rng, "machine.rng_inits", count_only=True)
        self.method(OffloadInfo, "build", "runtime.offload_info")
        self.method(OffloadInfo, "from_ir", "runtime.offload_info")
        self.method(HompRuntime, "select_devices", "runtime.select")
        self.function(select_algorithm, "runtime.select")
        self.function(make_backend, "engine.backend_build")
        for cls in {resolve_backend(n) for n in backend_names()}:
            for attr in ("run", "run_many"):
                if attr in cls.__dict__:
                    self.method(cls, attr, "engine.run")
        self.methods(LoopScheduler, "next", "sched")
        self.methods(LoopScheduler, "observe", "sched")
        self.methods(LoopKernel, "__init__", "kernels.build")
        self.methods(LoopKernel, "execute_chunk", "kernels.numerics")
        self._set(LoopKernel, "execute_chunk", self._count("kernels.execute_chunk_calls", LoopKernel.execute_chunk))
        self.methods(LoopKernel, "reference", "kernels.reference")
        self.method(TargetDataRegion, "__enter__", "memory.region")
        self.method(TargetDataRegion, "__exit__", "memory.region")
        self.method(ResidencyLedger, "invalidate", "memory.invalidate")
        for cls in vars(residency).values():
            if isinstance(cls, type) and "charge_chunk" in cls.__dict__:
                self.method(cls, "charge_chunk", "memory.charge")
        self.function(runner.verify_result, "bench.verify")
        self.function(runner.run_grid, "bench.grid")
        self.method(OffloadService, "submit", "service.submit")
        self.method(EnginePool, "acquire", "service.lease_wait")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer name (flat async spans included whole)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is not None and name != EXCLUDED:
                out[name] += (end - start) - child[i]
        for name, dur in self.async_spans:
            out[name] += dur
        return out

    def inclusive(self, name: str) -> float:
        """Seconds inside ``name`` spans, less the excluded work they contain."""
        total = 0.0
        for i, (n, s, e, _, _) in enumerate(self.spans):
            if n == name and e is not None:
                total += e - s
        for n, s, e, parent, _ in self.spans:
            if n == EXCLUDED and parent >= 0 and e is not None and self._within(parent, name):
                total -= e - s
        return total

    def _within(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def top_level_s(self) -> float:
        """Seconds covered by layer spans with no parent (all threads)."""
        total = 0.0
        for n, s, e, parent, _ in self.spans:
            if e is None:
                continue
            if n == EXCLUDED:
                total -= (e - s) if parent >= 0 else 0.0
            elif parent < 0:
                total += e - s
        return total

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, tid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "thread": tid}) + "\n")
