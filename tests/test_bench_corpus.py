"""Every candidate task of every benchmark workload keeps its recorded outcome.

Each workload's tasks (`bench/workloads.py` `every_task`: every input any
seed can draw, plus the fixed tasks) run once through
`bench/passrun.py --task-ids`, in a fresh interpreter as a benchmark pass
does, and are judged against `bench/reference.json`: the exit code and the
stdout digest must be as recorded, so any outcome other than `ok` or
`refused` fails; one stale `ceiling` record is held to its current output
instead (`FINISHED_SINCE_RECORDED`). A seeded pass runs only a sample of
these tasks; this runs them all. Marked slow: it takes about as long as one
benchmark run of each workload.
"""

import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _workloads_module():
    # executed from its source, so that nothing is written under bench/
    module = types.ModuleType("bench_workloads")
    path = BENCH / "workloads.py"
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = _workloads_module()

# Recorded as `ceiling` (508 s when the reference was made, so no seed draws
# it), this task now finishes in about 10 s, and the benchmark's judge reads
# the exit 0 of a command other than reduce or safe-resolve on a `ceiling`
# record as wrong. It is held to the exit code and stdout digest it has given
# since it stopped hanging, until the reference is re-recorded (ROADMAP item 7).
FINISHED_SINCE_RECORDED = {
    "lins(1)/first-integral--max-m3":
        (0, "74d5c9f821a278cd5930912c83098fd565282a996f218e935bde01bc3fbc4e69"),
}


def _passed(task):
    if task["id"] in FINISHED_SINCE_RECORDED:
        return (task["exit"], task["sha256"]) == FINISHED_SINCE_RECORDED[task["id"]]
    return task["outcome"] in ("ok", "refused")


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_every_candidate_task_keeps_its_reference_outcome(workload):
    ids = [t.id for t in WORKLOADS.every_task(workload)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the seed is required but unused when task ids are given
    cmd = [sys.executable, str(BENCH / "passrun.py"), "--workload", workload, "--seed", "0",
           "--spawned-at", repr(time.monotonic()), "--task-ids", json.dumps(ids)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    tasks = json.loads(proc.stdout.strip().splitlines()[-1])["tasks"]
    assert [t["id"] for t in tasks] == ids
    assert {t["id"]: t["outcome"] for t in tasks if not _passed(t)} == {}
