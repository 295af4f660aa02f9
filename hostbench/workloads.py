"""The four workloads: offload, stream, sweep and service.

Each workload drives the program only through its public entry points
and is a closed loop from one process.  A run repeats whole *rounds* of
the same operations; the seed chooses the input data and the order of
operations within a round, never their kinds or sizes, so every run of a
workload does the same work per round whatever the seed.

``setup()`` builds machines, runtimes and the service, fills the input
pool and runs warm-up operations; ``run_round(clock, rec)`` executes one
timed round, interleaving reference slices (:mod:`refclock`) and
checking every output against :mod:`checks`.
"""

from __future__ import annotations

import asyncio
import pickle
import random
from dataclasses import dataclass

import numpy as np

import checks

from repro.apps import (
    OnlineSumKernel,
    SlidingStencilKernel,
    StreamingBlockMatchingKernel,
)
from repro.bench.cache import get_cache
from repro.bench.runner import ALL_POLICIES, run_grid
from repro.faults.plan import FaultPlan, Slowdown
from repro.kernels.registry import make_kernel
from repro.machine.presets import cpu_mic_node, full_node, gpu4_node
from repro.runtime import HompRuntime
from repro.service import OffloadJob, OffloadService, TenantQuota
from repro.service.loadgen import WorkloadTemplate

__all__ = ["WORKLOADS", "Recorder"]


class Recorder:
    """Operations attempted and failed, and the simulated outcome of each.

    The first round's simulated outcome is kept; every later round is
    compared with it (same seed, same operations: it must repeat exactly)
    and only the count of rounds that differed is kept, so memory does not
    grow with the number of rounds.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Simulated outcome rows of the current round (see checks.sim_row).
        self.rows: list[tuple] = []
        self.bytes_moved = 0.0
        self.bytes_elided = 0.0
        self.rounds = 0
        self.first_rows: list[tuple] = []
        self.first_bytes = (0.0, 0.0)
        self.rounds_differing = 0

    def op(self, ops: int, *problems: "str | None") -> None:
        self.attempted += ops
        bad = [p for p in problems if p]
        if bad:
            self.failed += ops
            if len(self.errors) < 5:
                self.errors.extend(bad[: 5 - len(self.errors)])

    def close_round(self) -> None:
        sim = (self.rows, (self.bytes_moved, self.bytes_elided))
        if self.rounds == 0:
            self.first_rows, self.first_bytes = sim
        elif sim != (self.first_rows, self.first_bytes):
            self.rounds_differing += 1
        self.rounds += 1
        self.rows = []
        self.bytes_moved = self.bytes_elided = 0.0


class Workload:
    """Defaults for the figures only some workloads have."""

    name = ""

    def cache_hits(self) -> int:
        """Results the sweep cache served (must stay 0)."""
        return 0

    def reset_log(self) -> None:
        """Forget per-job records kept so far (the traced half starts)."""

    def service_figures(self, ref_per_wall: float) -> dict:
        return {
            "queue_wait_p50": (0.0, "ref_ms", 0),
            "coalesce_ratio": (0.0, "ratio", 0),
            "batch_size_mean": (0.0, "count", 0),
        }

    def close(self) -> None:
        pass


def _data_seed(seed: int, k: int) -> int:
    return (seed * 1_000_003 + k) % (2**31)


# -- offload ------------------------------------------------------------------

#: Small offloads: per-offload fixed cost dominates, numerics are KB-MB.
OFFLOAD_KERNELS = (("axpy", 32768), ("sum", 65536), ("matvec", 256), ("stencil", 96))

#: The seven Table II algorithms, heuristic selection, and CUTOFF "auto".
OFFLOAD_POLICIES = tuple((p, 0.0) for p in ALL_POLICIES) + (
    ("AUTO", 0.0),
    ("MODEL_2_AUTO", "auto"),
)

_MAPS = {
    "axpy": (
        "map(tofrom: y[0:n] partition([ALIGN(loop)])) "
        "map(to: x[0:n] partition([ALIGN(loop)]), a, n) "
    ),
    "sum": "map(to: x[0:n] partition([ALIGN(loop)]), n) ",
}


@dataclass(frozen=True)
class _OffloadOp:
    kernel: str
    n: int
    policy: str
    cutoff: "float | str"
    path: str  # "directive" or "api"
    data_seed: int

    @property
    def tag(self) -> str:
        return f"{self.path}:{self.kernel}:{self.policy}:{self.cutoff}"

    def directive(self) -> str:
        sched = "distribute dist_schedule(target:[AUTO])" if self.policy == "AUTO" else ""
        return f"omp parallel target device(*) {_MAPS.get(self.kernel, '')}{sched}".strip()


class OffloadWorkload(Workload):
    name = "offload"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        ops = [
            _OffloadOp(k, n, p, c, path, _data_seed(seed, i))
            for i, (k, n) in enumerate(OFFLOAD_KERNELS)
            for p, c in OFFLOAD_POLICIES
            for path in ("directive", "api")
        ]
        rng.shuffle(ops)
        self.ops = ops

    def setup(self) -> None:
        self.rt = HompRuntime(full_node())
        warm = Recorder()
        for op in self.ops[:8]:
            self._run(op, None, warm)

    def _run(self, op: _OffloadOp, clock, rec: Recorder) -> None:
        kernel = make_kernel(op.kernel, op.n, seed=op.data_seed)
        inputs = kernel.snapshot_inputs()
        if clock is not None:
            clock.slice()
            clock.begin(op.path)
        if op.path == "directive":
            kwargs = {} if op.policy == "AUTO" else {"schedule": op.policy}
            result = self.rt.offload(op.directive(), kernel, cutoff_ratio=op.cutoff, **kwargs)
        else:
            result = self.rt.parallel_for(kernel, schedule=op.policy, cutoff_ratio=op.cutoff)
        if clock is not None:
            clock.end(1)
        want = checks.expected_outputs(kernel, inputs)
        rec.op(
            1,
            checks.check_outputs(kernel, want, result.reduction),
            checks.check_result(result, kernel.n_iters),
        )
        rec.rows.append(checks.sim_row(op.tag, result))

    def run_round(self, clock, rec: Recorder) -> None:
        for op in self.ops:
            self._run(op, clock, rec)


# -- stream -------------------------------------------------------------------

STREAM_BATCHES = 16
STREAM_WINDOW = 8
SLOW_FACTOR = 6.0
#: Static split, rate-aware rebalancing, and timing-driven dynamic chunks:
#: all must give bit-identical outputs on identical inputs.
STREAM_SCHEDULES = ("BLOCK", "STREAM_REBALANCE", "SCHED_DYNAMIC")

#: (factory, size): the three repro.apps.streaming kernels.
STREAM_KERNELS = (
    (OnlineSumKernel, 4096),
    (SlidingStencilKernel, 64),
    (StreamingBlockMatchingKernel, 48),
)


class StreamWorkload(Workload):
    name = "stream"

    def __init__(self, seed: int):
        self.seed = seed
        order = list(range(len(STREAM_KERNELS)))
        random.Random(seed).shuffle(order)
        self.order = order

    def setup(self) -> None:
        self.rt = HompRuntime(full_node())
        self.plans = {}
        for i, (factory, n) in enumerate(STREAM_KERNELS):
            # A mid-stream slowdown of device 0, placed on the fault-free
            # BLOCK timeline (virtual time does not depend on the data).
            sr = self.rt.stream(
                factory(n, seed=0), batches=STREAM_BATCHES,
                window=STREAM_WINDOW, schedule="BLOCK",
            )
            total = sr.total_time_s
            self.plans[i] = FaultPlan.of(
                Slowdown(devid=0, factor=SLOW_FACTOR, t_start=0.1 * total, t_end=0.7 * total)
            )
        self.run_round(None, Recorder())

    def _call(self, i: int, schedule: str, clock, rec: Recorder):
        factory, n = STREAM_KERNELS[i]
        kernel = factory(n, seed=_data_seed(self.seed, i))
        sums: list[int] = []

        def record():
            # The exact integer sum the next batch's reduction must equal.
            if kernel.is_reduction:
                sums.append(int(kernel.arrays["x"].astype(np.int64).sum()))

        record()
        advance = kernel.stream_advance

        def stream_advance(batch, window):
            dirty = advance(batch, window)
            if clock is None:
                record()
                return dirty
            with clock.outside():
                record()
            clock.slice()
            return dirty

        kernel.stream_advance = stream_advance
        if clock is not None:
            clock.slice()
            clock.begin(schedule)
        sr = self.rt.stream(
            kernel, batches=STREAM_BATCHES, window=STREAM_WINDOW,
            schedule=schedule, fault_plan=self.plans[i],
        )
        if clock is not None:
            clock.end(STREAM_BATCHES)
        problems = [checks.check_result(r, kernel.n_iters) for r in sr.results]
        if len(sr.results) != STREAM_BATCHES:
            problems.append(f"{kernel.name}: {len(sr.results)} batch results")
        if sr.bytes_elided <= 0:
            problems.append(f"{kernel.name}/{schedule}: no bytes elided after batch 0")
        if kernel.is_reduction:
            if sr.reductions != [float(s) for s in sums]:
                problems.append(f"{kernel.name}/{schedule}: reductions != exact integer sums")
            state = sr.reductions
        else:
            want = checks.expected_outputs(kernel, kernel.arrays)
            problems.append(checks.check_outputs(kernel, want, None))
            state = [kernel.arrays[name].copy() for name in sorted(want)]
        for k, r in enumerate(sr.results):
            rec.rows.append(checks.sim_row(f"{kernel.name}:{schedule}:{k}", r))
        rec.bytes_moved += sr.bytes_moved
        rec.bytes_elided += sr.bytes_elided
        return problems, state

    def run_round(self, clock, rec: Recorder) -> None:
        for i in self.order:
            outcomes = [self._call(i, schedule, clock, rec) for schedule in STREAM_SCHEDULES]
            _, base = outcomes[0]
            for schedule, (problems, state) in zip(STREAM_SCHEDULES, outcomes):
                if len(state) != len(base) or not all(
                    np.array_equal(a, b) for a, b in zip(state, base)
                ):
                    problems.append(f"stream {i}: {schedule} outputs differ from BLOCK")
                rec.op(STREAM_BATCHES, *problems)


# -- sweep --------------------------------------------------------------------

#: Reduced sizes, fixed here (REPRO_BENCH_SCALE is not read).
SWEEP_SIZES = (
    ("axpy", 200_000), ("sum", 400_000), ("matvec", 384),
    ("matmul", 96), ("stencil", 128), ("bm", 64),
)


class _SweepFactory:
    """Kernel factory that keeps each built kernel and a copy of its inputs.

    It has a ``fingerprint`` so the sweep cache *would* serve its cells;
    the benchmark turns the cache off and checks that it served none.
    Each call also runs one reference slice, so a grid call is timed in
    per-cell segments.
    """

    def __init__(self, kind: str, n: int, seed: int, workload):
        self.kind, self.n, self.seed = kind, n, seed
        self.workload = workload
        self.built: list = []

    def __call__(self):
        kernel = make_kernel(self.kind, self.n, seed=self.seed)
        clock = self.workload.clock
        if clock is None:
            self.built.append((kernel, kernel.snapshot_inputs()))
            return kernel
        with clock.outside():
            self.built.append((kernel, kernel.snapshot_inputs()))
        clock.slice()
        return kernel

    def fingerprint(self) -> dict:
        return {"workload": f"hostbench-{self.kind}", "n": self.n, "seed": self.seed}


class SweepWorkload(Workload):
    name = "sweep"

    def __init__(self, seed: int):
        self.seed = seed
        # The paper's three policy grids: an odd number of calls per round
        # keeps the median call inside one grid's latency mode.
        grids = [("fig5", gpu4_node), ("fig8", cpu_mic_node), ("fig9", full_node)]
        random.Random(seed).shuffle(grids)
        self.grids = grids
        self.clock = None

    def setup(self) -> None:
        self.machines = {name: make() for name, make in self.grids}
        self.cache_hits_at_start = get_cache().stats.hits
        self.run_round(None, Recorder())

    def cache_hits(self) -> int:
        return get_cache().stats.hits - self.cache_hits_at_start

    def run_round(self, clock, rec: Recorder) -> None:
        self.clock = clock
        for g, (name, _) in enumerate(self.grids):
            factories = {
                kind: _SweepFactory(kind, n, _data_seed(self.seed, 10 * g + i), self)
                for i, (kind, n) in enumerate(SWEEP_SIZES)
            }
            if clock is not None:
                clock.slice()
                clock.begin(name)
            grid = run_grid(
                self.machines[name], factories, policies=ALL_POLICIES, workers=0,
            )
            if clock is not None:
                clock.end(len(SWEEP_SIZES) * len(ALL_POLICIES))
            for kind, factory in factories.items():
                for policy, (kernel, inputs) in zip(ALL_POLICIES, factory.built):
                    result = grid.results[kind][policy]
                    want = checks.expected_outputs(kernel, inputs)
                    rec.op(
                        1,
                        checks.check_outputs(kernel, want, result.reduction),
                        checks.check_result(result, kernel.n_iters),
                        None if len(factory.built) == len(ALL_POLICIES)
                        else f"{kind}: {len(factory.built)} kernels built",
                    )
                    rec.rows.append(checks.sim_row(f"{name}:{kind}:{policy}", result))
        self.clock = None


# -- service ------------------------------------------------------------------

SERVICE_CLIENTS = 4
JOBS_PER_CLIENT = 4
#: Coalescible model/static policies plus solo timing-driven SCHED_DYNAMIC.
SERVICE_POLICIES = ("BLOCK", "MODEL_1_AUTO", "MODEL_2_AUTO", "SCHED_DYNAMIC")
SERVICE_TEMPLATES = (("axpy", 8192), ("matvec", 128))
TENANTS = {"gold": 3.0, "bronze": 1.0}
#: Every SAMPLE_EVERY-th job of a round is replayed as a direct call.
SAMPLE_EVERY = 4


class _ServedFactory:
    """Job factory that keeps every kernel the service builds from it.

    It keeps the template's ``fingerprint`` so coalescing still groups the
    jobs.  Each kernel is kept with a copy of its inputs, so once the job
    is served its output arrays can be checked against the numpy formulas.
    In a coalesced batch of a non-reduction kernel (both service templates)
    the first job's factory builds the kernel that every mate shares; the
    mates' factories build none.  The kernels are held to the end of the
    round, outside the timed segment, and add about 12 MB to the resident set.
    """

    def __init__(self, kind: str, n: int, seed: int):
        self.template = WorkloadTemplate(kind, n, seed)
        self.n = n
        self.built: list = []

    def __call__(self):
        kernel = self.template()
        self.built.append((kernel, kernel.snapshot_inputs()))
        return kernel

    def fingerprint(self) -> dict:
        return self.template.fingerprint()


class ServiceWorkload(Workload):
    """Closed-loop asyncio clients against one ``OffloadService``.

    One pool worker thread plus the event loop: the service never runs
    more threads than a two-core host has.
    """

    name = "service"

    def __init__(self, seed: int):
        self.seed = seed
        tenants = sorted(TENANTS)
        # Per client a fixed job cycle; tenants alternate by client.  The
        # seed sets only the data: which jobs meet in the queue (and so
        # coalesce) must not depend on it.
        self.plan = [
            [
                (
                    tenants[c % len(tenants)],
                    *SERVICE_TEMPLATES[(c + j) % len(SERVICE_TEMPLATES)],
                    SERVICE_POLICIES[(c * JOBS_PER_CLIENT + j) % len(SERVICE_POLICIES)],
                )
                for j in range(JOBS_PER_CLIENT)
            ]
            for c in range(SERVICE_CLIENTS)
        ]
        self.data_seed = _data_seed(seed, 0)
        self.machine = full_node()

    async def start(self) -> None:
        self.jobs_log: list = []
        self.svc = OffloadService(
            self.machine,
            pool_size=1,
            coalesce=True,
            use_cache=False,
            quotas={t: TenantQuota(weight=w, max_in_flight=64) for t, w in TENANTS.items()},
        )
        await self.svc.start()
        self.rounds = 0
        await self.run_round(None, Recorder())

    async def _client(self, c: int, results: list, clock) -> None:
        for j, (tenant, kind, n, policy) in enumerate(self.plan[c]):
            tag = f"r{self.rounds}c{c}j{j}"
            job = OffloadJob(
                _ServedFactory(kind, n, self.data_seed), policy=policy,
                tenant=tenant, tag=tag,
            )
            handle = await self.svc.submit(job)
            res = await handle
            results.append(res)
            self.jobs_log.append((res.ok, res.queue_wait_s, res.coalesced, res.batch_size))
            if clock is not None:
                clock.latency(res.latency_s, "coalesced" if res.coalesced else "solo")

    async def run_round(self, clock, rec: Recorder) -> None:
        if clock is not None:
            clock.slice()
            clock.begin("round")
        results: list = []
        await asyncio.gather(
            *(self._client(c, results, clock) for c in range(SERVICE_CLIENTS))
        )
        await self.svc.drain()
        if clock is not None:
            clock.end(len(results))
        expected_tags = {
            f"r{self.rounds}c{c}j{j}"
            for c in range(SERVICE_CLIENTS) for j in range(JOBS_PER_CLIENT)
        }
        tags = [r.job.tag for r in results]
        lost_or_dup = (
            None if sorted(tags) == sorted(expected_tags)
            else f"round {self.rounds}: lost or duplicate tags"
        )
        by_tag = sorted(results, key=lambda r: (r.job.tag[r.job.tag.index("c"):]))
        for k, res in enumerate(by_tag):
            problems = [lost_or_dup]
            if not res.ok:
                problems.append(f"job {res.job.tag} failed: {res.error!r}")
                rec.op(1, *problems)
                continue
            factory = res.job.factory
            # Both service templates iterate over n rows.
            problems.append(checks.check_result(res.result, factory.n))
            if not res.coalesced and len(factory.built) != 1:
                problems.append(f"job {res.job.tag}: solo job built {len(factory.built)} kernels")
            for kernel, inputs in factory.built:
                want = checks.expected_outputs(kernel, inputs)
                problems.append(checks.check_outputs(kernel, want, res.result.reduction))
            if k % SAMPLE_EVERY == 0:
                problems.append(self._direct_matches(res))
            rec.op(1, *problems)
            rec.rows.append(checks.sim_row(res.job.tag[res.job.tag.index("c"):], res.result))
        self.rounds += 1

    def _direct_matches(self, res) -> str | None:
        """A served result, and the arrays its job's kernel holds, must equal
        those of a direct ``parallel_for`` call."""
        job = res.job
        kernel = job.factory.template()
        direct = HompRuntime(self.machine, seed=job.seed).parallel_for(
            kernel, schedule=job.policy, cutoff_ratio=job.cutoff_ratio,
        )
        if pickle.dumps(direct) != pickle.dumps(res.result):
            return f"job {job.tag}: served result differs from a direct call"
        for served, _ in job.factory.built:
            if any(not np.array_equal(served.arrays[name], arr)
                   for name, arr in kernel.arrays.items()):
                return f"job {job.tag}: served arrays differ from a direct call"
        return None

    def reset_log(self) -> None:
        self.jobs_log = []

    def cache_hits(self) -> int:
        return int(self.svc.metrics.counter_value("service_cache_hits"))

    def service_figures(self, ref_per_wall: float) -> dict:
        jobs = [job for job in self.jobs_log if job[0]]
        waits = [wait * ref_per_wall * 1e3 for _, wait, _, _ in jobs]
        runs = sum(1.0 / size for *_, size in jobs)
        return {
            "queue_wait_p50": (float(np.median(waits)), "ref_ms", len(waits)),
            "coalesce_ratio": (sum(job[2] for job in jobs) / len(jobs), "ratio", len(jobs)),
            "batch_size_mean": (len(jobs) / runs, "count", round(runs)),
        }

    async def aclose(self) -> None:
        await self.svc.close()


WORKLOADS = {
    "offload": OffloadWorkload,
    "stream": StreamWorkload,
    "sweep": SweepWorkload,
    "service": ServiceWorkload,
}
