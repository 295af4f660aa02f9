"""Steadiness check: run every workload repeatedly and report the spread.

Usage (from the root of a checkout)::

    python3 hostbench/steady.py [--runs 10] [--first-seed 1]

Runs every workload of ``BENCHMARK.json`` ``--runs`` times for its
``run_seconds``, with seeds ``--first-seed``, ``--first-seed + 1``, ...,
alternating the workload order between repetitions so slow phases of the
host do not land on one workload.  For
every end-to-end metric of ``BENCHMARK.json`` it prints the median and
quartiles (``statistics.quantiles(n=4)``) and the spread
``(q3 - q1) / median``, flagging a spread above the metric's bound
(``!``) or above a third of it (``~``), the failed share of operations
per workload, and the same figures for the unnormalised wall-clock
throughput and reference-block time.  Exits 1 when any run is incorrect,
the failed share differs between runs, or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The unnormalised figures run.py prints before its result line.
    result["raw"] = {
        line.split()[0]: float(line.split()[1]) for line in lines if line.startswith("raw.")
    }
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            results[w].append(
                run_once(bench["command"], w, args.first_seed + i, bench["run_seconds"]))
            print(f"run {i + 1}/{args.runs} {w} done", file=sys.stderr, flush=True)
    bad = False
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{w}: failed share {sorted(shares)}  correct {all(r['correct'] for r in runs)}")
        bad |= not all(r["correct"] for r in runs) or len(shares) != 1
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "!" if spread > m["bound"] else ("~" if spread > m["bound"] / 3 else " ")
            bad |= flag == "!"
            print(f"  {flag} {m['name']:22s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                  f"  spread {spread:7.2%}  bound {m['bound']:.0%}")
        for name in runs[0]["raw"]:
            values = [r["raw"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"    {name:22s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                  f"  spread {(q3 - q1) / med:7.2%}  (not normalised)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
