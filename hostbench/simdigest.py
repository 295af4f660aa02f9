"""Simulated-outcome digests: show a host-only change left results identical.

Usage (from the root of a checkout)::

    python3 hostbench/simdigest.py write --out A.json
    python3 hostbench/simdigest.py compare A.json B.json

``write`` runs one untimed round of each workload, with seed
``DIGEST_SEED``, and records every operation's simulated outcome —
makespan, per-device iterations, reduction and chunk count — plus the
round's simulated bytes moved and elided.  Run it in two checkouts (say,
a commit and its parent) and ``compare`` the files: it lists the
operations whose outcome changed and exits 1 if any did.  Nothing is committed as a golden copy, so a change
that really corrects the model is not held back by a stale digest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run  # sets the pinned environment before the program loads

#: The seed of every digest, so two digests always describe the same inputs.
DIGEST_SEED = 1


def write(args) -> int:
    run.import_program()
    from workloads import WORKLOADS, Recorder

    out = {}
    for name in run.WORKLOAD_NAMES:
        runner = run.Runner(WORKLOADS[name](DIGEST_SEED))
        runner.setup()
        rec = Recorder()
        runner.rounds(None, rec, 0)
        runner.close()
        out[name] = {
            "failed": rec.failed,
            "rows": rec.first_rows,
            "bytes": rec.first_bytes,
        }
        print(f"{name}: {len(rec.first_rows)} operations, {rec.failed} failed", file=sys.stderr)
    Path(args.out).write_text(json.dumps({"workloads": out}, indent=1) + "\n")
    return 0


def compare(args) -> int:
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    differ = 0
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"{name}: only in {'A' if wb is None else 'B'}")
            differ += 1
            continue
        rows_b = {row[0]: row for row in wb["rows"]}
        changed = [row for row in wa["rows"] if rows_b.get(row[0]) != row]
        changed += [row for row in wb["rows"] if row[0] not in {r[0] for r in wa["rows"]}]
        if wa["bytes"] != wb["bytes"]:
            print(f"{name}: bytes moved/elided {wa['bytes']} -> {wb['bytes']}")
            differ += 1
        for row in changed[:10]:
            print(f"{name}: {row[0]}: {row[1:]} -> {rows_b.get(row[0], ['absent'])[1:]}")
        differ += len(changed)
        print(f"{name}: {len(wa['rows'])} operations, {len(changed)} changed")
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    w = sub.add_parser("write", help="digest one round of each workload")
    w.add_argument("--out", required=True)
    c = sub.add_parser("compare", help="compare two digests")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args(argv)
    return write(args) if args.cmd == "write" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
