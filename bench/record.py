"""Record reference outcomes: python3 bench/record.py [--workload W ...]

Runs every task any seed can select (each pool candidate, and the fixed
tasks) in a fresh interpreter per candidate, and stores for each task id its
exit code, the sha256 of its stdout and its time in reference.json. A task
that hits its workload's ceiling is stored as {"ceiling": true}; one that
raises is stored with the exception and is never selected. The recorded
times place candidates in the cost bands of workloads.SLOTS.

Run it at the commit whose outputs are the reference, on an idle machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads
from run import BENCH, RUN_LIMIT_S, spawn


def groups(workload):
    """Lists of task ids that share one fresh interpreter."""
    for kind in workloads.POOLS[workload]:
        for name in workloads.pool(kind):
            yield [t.id for t in workloads.candidate_tasks(kind, name)]
    for t in workloads.fixed_tasks(workload):
        yield [t.id]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    path = BENCH / "reference.json"
    try:
        reference = json.loads(path.read_text())
    except FileNotFoundError:
        reference = {"tasks": {}}
    for workload in args.workload or workloads.WORKLOADS:
        for ids in groups(workload):
            rep, _ = spawn(["--workload", workload, "--seed", "0",
                            "--task-ids", json.dumps(ids)],
                           time.monotonic() + RUN_LIMIT_S)
            for t in rep["tasks"]:
                if t["status"] == "ceiling":
                    rec = {"ceiling": True}
                elif t["status"] != "done":
                    rec = {"exception": t["status"].split(":", 1)[1]}
                else:
                    rec = {"exit": t["exit"], "sha256": t["sha256"]}
                rec["seconds"] = round(t["seconds"], 4)
                reference["tasks"][t["id"]] = rec
                print(f"{t['id']}: {rec}", file=sys.stderr, flush=True)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
