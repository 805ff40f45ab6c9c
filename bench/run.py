"""planefol benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Each pass of a workload runs its task list once in a fresh interpreter
(passrun.py), so every pass pays the library's caches cold, as a CLI user
does. With ``--trace 0`` passes repeat while the next one is expected to end
within ``--seconds`` (at least one runs), and the last line of stdout holds
the end-to-end metrics in nominal seconds (see speed.py): medians over the
passes, and set-up time as the median over at least five fresh
interpreters. With ``--trace 1`` one plain
pass and one traced pass run, and the last line holds the per-layer metrics
of the traced pass and ``trace.overhead_s``. Either way every task's exit
code and stdout digest are checked against reference.json.

Exit status 0 with a result line; 1 when a pass broke or the traced run
missed calls; 2 when the sources are not there.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 5

# Layers the traced run expects to stay idle on a workload (reported, not
# enforced: a later design may use them legitimately).
IDLE = {"extactic": ("algebraic", "roots", "blowup"), "generic": ("blowup.blow_up",)}


class BenchError(Exception):
    pass


def spawn(args, deadline):
    """Run one passrun.py process to completion; returns (report, seconds)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "passrun.py"), *args, "--spawned-at", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"pass did not end within the run's {RUN_LIMIT_S:.0f} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"pass exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1]), time.monotonic() - t0


def tally(passes):
    tasks = [t for p in passes for t in p["tasks"]]
    wrong = [t for t in tasks if t["outcome"].startswith("wrong")]
    failed = [t for t in tasks if t["outcome"] not in ("ok", "refused")]
    for t in failed:
        print(f"failed: {t['id']}: {t['outcome']}", file=sys.stderr)
    answered = sum(t["outcome"] == "ok" and t["exit"] == 0 for t in tasks)
    return tasks, wrong, failed, answered


def plain_run(args, deadline):
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.monotonic()
    passes, took = [], []
    while True:
        rep, dur = spawn(base, deadline)
        passes.append(rep)
        took.append(dur)
        if time.monotonic() - t0 + max(took) > args.seconds:
            break
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(base + ["--setup-only"], deadline)[0])

    tasks, wrong, failed, answered = tally(passes)
    n = len(tasks)

    def pass_median(key):
        return statistics.median(sum(t[key] for t in p["tasks"]) for p in passes)

    metrics = {
        "setup_s": (statistics.median(p["setup_nominal_s"] for p in setups), "s"),
        "wall_s": (pass_median("nominal_s"), "s"),
        "cpu_s": (pass_median("nominal_cpu_s"), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "completed_share": ((n - len(failed)) / n, "share"),
        "answered_share": (answered / n, "share"),
    }
    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es) of "
          f"{n // len(passes)} tasks, {len(setups)} set-ups; refused "
          f"{sum(t['outcome'] == 'refused' for t in tasks)}, failed {len(failed)}; "
          f"measured (not nominal) wall {pass_median('seconds'):.3f} s, cpu "
          f"{pass_median('cpu_s'):.3f} s, set-up "
          f"{statistics.median(p['setup_s'] for p in setups):.3f} s", file=sys.stderr)
    return tasks, wrong, failed, metrics


def traced_run(args, deadline):
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    plain, _ = spawn(base, deadline)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-{args.seed}.json.gz"
    traced, _ = spawn(base + ["--trace", "--spans", str(spans)], deadline)
    tasks, wrong, failed, _ = tally([plain, traced])
    for a, b in zip(plain["tasks"], traced["tasks"]):
        if (a["id"], a["exit"], a["sha256"]) != (b["id"], b["exit"], b["sha256"]) \
                and "ceiling" not in (a["outcome"], b["outcome"]):
            wrong.append(b)
            print(f"traced output differs: {b['id']}", file=sys.stderr)
    trace = traced["trace"]
    if trace["missing_calls"]:
        raise BenchError("traced run recorded no call of "
                         + ", ".join(trace["missing_calls"])
                         + f" on {args.workload}; a wrapper missed a binding")
    metrics = {k: (v["value"], v["unit"]) for k, v in trace["metrics"].items()}
    overhead = sum(t["nominal_s"] for t in traced["tasks"]) - sum(
        t["nominal_s"] for t in plain["tasks"])
    metrics["trace.overhead_s"] = (overhead, "s")
    for name in IDLE.get(args.workload, ()):
        key = name + ".calls"
        state = "confirmed" if metrics[key][0] == 0 else "NOT confirmed"
        print(f"layer map: {key} = {metrics[key][0]} on {args.workload} ({state})",
              file=sys.stderr)
    print(f"{trace['spans']} spans written to {spans.relative_to(ROOT)}; {trace['note']}",
          file=sys.stderr)
    return tasks, wrong, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "planefol" / "cli.py").is_file():
        print(f"error: no planefol sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: the planefol sources do not compile", file=sys.stderr)
        return 2
    try:
        run = traced_run if args.trace else plain_run
        tasks, wrong, failed, metrics = run(args, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(tasks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
