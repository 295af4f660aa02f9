"""Host-speed-normalised benchmark of the repro stack.

Usage (from the root of a checkout)::

    python3 hostbench/run.py --workload {offload,stream,sweep,service} \
        --seed N --seconds S --trace {0,1}

Runs whole rounds of the workload for ``S`` seconds, checks every output
against computations made apart from the program, and prints as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from a run whose first half is untraced (the
baseline for the tracing overhead) and whose second half is traced; that
run also prints the untraced half's end-to-end figures, so one command
shows every metric.
Every time is in reference seconds (see ``refclock.py``).  The program is
imported from ``src/`` of the checkout; without it the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import os
import sys

# Pin what the program reads from the environment before numpy loads.
PINNED_ENV = {
    "REPRO_BENCH_CACHE": "off",
    "REPRO_FAULTS": "on",
    "REPRO_OBS": "on",
    "REPRO_INPUT_POOL": "on",
    "REPRO_BENCH_WORKERS": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)
os.environ.pop("REPRO_BENCH_SCALE", None)

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from refclock import R0_S, RefClock  # noqa: E402

WORKLOAD_NAMES = ("offload", "stream", "sweep", "service")

#: Setup is measured in this many fresh processes per run (median reported).
SETUP_PROBES = 5


def import_program():
    """Import ``repro`` from this checkout's ``src/``, or exit with code 2."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"hostbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"hostbench: repro resolved outside {src}", file=sys.stderr)
        sys.exit(2)
    return repro


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="with --trace 1, also write the spans here (JSON lines)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Runner:
    """Runs a workload's rounds, sync or async, until a deadline passes."""

    def __init__(self, workload):
        self.w = workload
        self.is_async = hasattr(workload, "start")
        self.loop = asyncio.new_event_loop() if self.is_async else None

    def setup(self) -> None:
        if self.is_async:
            self.loop.run_until_complete(self.w.start())
        else:
            self.w.setup()

    def rounds(self, clock, rec, seconds: float) -> float:
        """Whole rounds until ``seconds`` have passed; returns wall seconds."""
        t0 = time.perf_counter()
        while True:
            if self.is_async:
                self.loop.run_until_complete(self.w.run_round(clock, rec))
            else:
                self.w.run_round(clock, rec)
            rec.close_round()
            wall = time.perf_counter() - t0
            if wall >= seconds:
                return wall

    def close(self) -> None:
        if self.is_async:
            self.loop.run_until_complete(self.w.aclose())
            self.loop.close()
        else:
            self.w.close()


def setup_probe(args) -> None:
    """Child mode: set up, say so, exit.  The parent times it."""
    import_program()
    from workloads import WORKLOADS

    runner = Runner(WORKLOADS[args.workload](args.seed))
    runner.setup()
    print("ready", flush=True)
    runner.close()


def measure_setup(args, clock: RefClock) -> list[float]:
    """Setup time of fresh processes, each normalised by slices around it."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        for _ in range(4):
            clock.slice()
        idx = len(clock.samples)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}")
        for _ in range(4):
            clock.slice()
        out.append(wall * clock.scale(idx))
    return out


# -- metrics ------------------------------------------------------------------


def _pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    values = sorted(values)
    return values[min(len(values) - 1, max(0, int(np.ceil(q * len(values))) - 1))]


def _latencies(workload: str, clock: RefClock, tag=None) -> list[float]:
    if workload == "service":
        return clock.latency_ref_s(tag)
    return [
        t for t, (call_tag, _) in zip(clock.call_ref_s(), clock.calls)
        if tag is None or call_tag == tag
    ]


def end_to_end(args, clock: RefClock, setup_ref_s: list[float]) -> dict:
    lat = _latencies(args.workload, clock)
    ops = clock.ops()
    return {
        "setup_s": (statistics.median(setup_ref_s), "s", len(setup_ref_s)),
        "ops_per_ref_s": (ops / sum(clock.call_ref_s()), "1/ref_s", ops),
        "latency_p50_ref_ms": (statistics.median(lat) * 1e3, "ref_ms", len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def per_layer(args, clock_u: RefClock, clock: RefClock, tracer, rec, extra: dict) -> dict:
    """Per-layer metrics of the traced phase (``clock``), per op."""
    k = R0_S / clock.median_block_s()
    ops = clock.ops()
    selfs = tracer.self_times()
    counts = tracer.counts
    round_rows = rec.first_rows
    ops_per_round = len(round_rows)
    chunks_per_round = sum(row[4] for row in round_rows)
    traced_chunks = chunks_per_round * ops / ops_per_round

    def ms(name):
        return (selfs.get(name, 0.0) * k * 1e3 / ops, "ref_ms", ops)

    def per_op(name):
        return (counts.get(name, 0) / ops, "count/op", ops)

    def p50(tag):
        lat = _latencies(args.workload, clock, tag)
        return (statistics.median(lat) * 1e3 if lat else 0.0, "ref_ms", len(lat))

    untraced = clock_u.ops() / sum(clock_u.call_ref_s())
    traced = ops / sum(clock.call_ref_s())
    tail = _latencies(args.workload, clock_u)
    call_wall = sum(clock.call_wall_s())
    m = {
        "lang.parse_ref_ms": ms("lang.parse"),
        "ir.lower_ref_ms": ms("ir.lower"),
        "ir.verify_ref_ms": ms("ir.verify"),
        "ir.passes_ref_ms": ms("ir.passes"),
        "machine.subset_ref_ms": ms("machine.subset"),
        "machine.device_inits": per_op("machine.device_inits"),
        "machine.rng_inits": per_op("machine.rng_inits"),
        "machine.to_dict_ref_ms": ms("machine.to_dict"),
        "machine.to_dict_calls": per_op("machine.to_dict_calls"),
        "runtime.offload_info_ref_ms": ms("runtime.offload_info"),
        "runtime.select_ref_ms": ms("runtime.select"),
        "engine.backend_build_ref_ms": ms("engine.backend_build"),
        "engine.run_self_ref_ms": ms("engine.run"),
        "engine.ref_us_per_chunk": (
            tracer.inclusive("engine.run") * k * 1e6 / traced_chunks, "ref_us", int(traced_chunks)),
        "engine.chunks": (chunks_per_round / ops_per_round, "count/op", ops),
        "sched.ref_ms": ms("sched"),
        "kernels.build_ref_ms": ms("kernels.build"),
        "kernels.pool_hit_ratio": extra["pool_hit_ratio"],
        "kernels.numerics_ref_ms": ms("kernels.numerics"),
        "kernels.execute_chunk_calls": per_op("kernels.execute_chunk_calls"),
        "kernels.reference_ref_ms": ms("kernels.reference"),
        "memory.region_ref_ms": ms("memory.region"),
        "memory.invalidate_ref_ms": ms("memory.invalidate"),
        "memory.charge_ref_ms": ms("memory.charge"),
        "bench.verify_ref_ms": ms("bench.verify"),
        "bench.grid_self_ref_ms": ms("bench.grid"),
        "bench.cache_hits": (extra["cache_hits"], "count", 1),
        "service.submit_ref_ms": ms("service.submit"),
        "service.queue_wait_p50_ref_ms": extra["queue_wait_p50"],
        "service.lease_wait_ref_ms": ms("service.lease_wait"),
        "service.coalesce_ratio": extra["coalesce_ratio"],
        "service.batch_size_mean": extra["batch_size_mean"],
        "service.solo_p50_ref_ms": p50("solo") if args.workload == "service" else (0.0, "ref_ms", 0),
        "service.coalesced_p50_ref_ms": (
            p50("coalesced") if args.workload == "service" else (0.0, "ref_ms", 0)),
        "offload.directive_p50_ref_ms": (
            p50("directive") if args.workload == "offload" else (0.0, "ref_ms", 0)),
        "offload.api_p50_ref_ms": p50("api") if args.workload == "offload" else (0.0, "ref_ms", 0),
        "latency_p99_ref_ms": (_pct(tail, 0.99) * 1e3, "ref_ms", len(tail)),
        # fsum: exact whatever order the seed put the round's ops in.
        "sim.makespan_sum_s": (math.fsum(row[1] for row in round_rows), "s", ops_per_round),
        "sim.chunks": (chunks_per_round, "count", ops_per_round),
        "sim.bytes_moved": (rec.first_bytes[0], "B", ops_per_round),
        "sim.bytes_elided": (rec.first_bytes[1], "B", ops_per_round),
        "host.wall_s": (extra["wall_s"], "s", 1),
        "host.ref_block_ms": (clock.median_block_s() * 1e3, "ms", len(clock.samples)),
        "host.unattributed_share": (
            max(0.0, 1.0 - tracer.top_level_s() / call_wall), "ratio", ops),
        "obs.trace_overhead_pct": (100.0 * (1.0 - traced / untraced), "%", ops),
    }
    return m


def provenance(repro) -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "repro_version": repro.__version__,
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "env": PINNED_ENV,
        "R0_s": R0_S,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    repro = import_program()
    from workloads import WORKLOADS, Recorder
    from repro.kernels.pool import pool_stats

    w = WORKLOADS[args.workload](args.seed)
    runner = Runner(w)
    runner.setup()
    rec = Recorder()
    clock_u = RefClock()
    if args.trace == 0:
        wall_u = runner.rounds(clock_u, rec, args.seconds)
    else:
        from layers import LayerTracer

        wall_u = runner.rounds(clock_u, rec, args.seconds / 2)
        tracer = LayerTracer()
        tracer.install()
        pool0 = pool_stats()
        clock = RefClock()
        clock.tracer = tracer
        w.reset_log()
        try:
            wall_t = runner.rounds(clock, rec, args.seconds / 2)
        finally:
            tracer.uninstall()
        pool1 = pool_stats()
    setup_ref_s = measure_setup(args, clock_u)
    cache_hits = w.cache_hits()
    runner.close()

    # Failed operations are counted in ``failed``; these problems make
    # the whole run's figures meaningless and mark it incorrect.
    problems = []
    if rec.rounds_differing:
        problems.append(f"simulated outcomes of {rec.rounds_differing} rounds differ from the first")
    if cache_hits:
        problems.append(f"the sweep cache served {cache_hits} results")

    e2e = end_to_end(args, clock_u, setup_ref_s)
    if args.trace == 0:
        metrics = e2e
    else:
        lookups = (pool1["hits"] - pool0["hits"]) + (pool1["misses"] - pool0["misses"])
        extra = {
            "pool_hit_ratio": (
                (pool1["hits"] - pool0["hits"]) / lookups if lookups else 0.0, "ratio", lookups),
            "cache_hits": cache_hits,
            "wall_s": wall_u + wall_t,
        }
        extra.update(w.service_figures(R0_S / clock.median_block_s()))
        metrics = per_layer(args, clock_u, clock, tracer, rec, extra)
        if args.spans:
            tracer.write(args.spans)

    def show(figures: dict) -> None:
        for name, (value, unit, n) in figures.items():
            print(f"{name:32s} {value:>14.6g} {unit:10s} n={n}")

    print(json.dumps({"provenance": provenance(repro)}))
    if args.trace == 1:
        print("# end-to-end figures of the untraced half:")
        show(e2e)
        print("# per-layer figures of the traced half (the result line):")
    show(metrics)
    # Raw figures behind the normalisation (reported, not gated).
    show({
        "raw.ops_per_wall_s": (clock_u.ops() / sum(clock_u.call_wall_s()), "1/s", clock_u.ops()),
        "raw.ref_block_ms": (clock_u.median_block_s() * 1e3, "ms", len(clock_u.samples)),
        "raw.wall_s": (wall_u, "s", 1),
    })
    for p in rec.errors:
        print(f"failed op: {p}")
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
