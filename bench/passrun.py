"""One pass of a workload in a fresh interpreter; prints one JSON line.

Started by run.py and record.py, never by hand. Set-up (importing planefol,
making the inputs, writing them to files) is timed from ``--spawned-at``, the
monotonic clock reading the parent took just before starting this process.
The pass itself runs every task once, each under a wall-clock ceiling, with
stdout captured; the result line holds each task's exit code and the sha256
of its stdout, and the pass's wall time, CPU time and peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


class CeilingHit(BaseException):
    """Raised by the alarm handler; a BaseException so no `except Exception`
    in the library can swallow it."""


def _alarm(signum, frame):
    raise CeilingHit()


def load_reference():
    try:
        with open(BENCH / "reference.json") as fh:
            return json.load(fh)["tasks"]
    except FileNotFoundError:  # record.py is making it
        return {}


def _materialise(task_list, tmp):
    """Write every input once; return each task's argv with paths filled in."""
    paths = {}
    argvs = []
    for task in task_list:
        names = {}
        for key, obj in task.inputs.items():
            text = json.dumps(obj, sort_keys=True)
            if text not in paths:
                path = Path(tmp) / f"in{len(paths)}.json"
                path.write_text(text)
                paths[text] = str(path)
            names[key] = paths[text]
        argvs.append([names[a[1:]] if a.startswith("@") else a for a in task.argv])
    return argvs


def run_task(cli, argv, ceiling):
    """Run one CLI call; returns (status, exit code, stdout sha256, wall
    seconds, CPU seconds)."""
    out = io.StringIO()
    status, code = "done", None
    c0 = time.process_time()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, ceiling)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--format", "json", *argv])
    except CeilingHit:
        status = "ceiling"
    except SystemExit as e:  # argparse rejects its arguments this way
        code = e.code if isinstance(e.code, int) else 2
    except Exception:
        status = "exception:" + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - t0
    cpu = time.process_time() - c0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return status, code, digest, seconds, cpu


def check_tree_leaves(fol_path, safe):
    """Verify a finished reduction of a task whose reference is the ceiling:
    every leaf singularity of the recomputed tree classifies afresh to its
    recorded kind, and that kind is reduced (as acceptance criterion 12)."""
    from planefol import (classify_point, make_foliation, parse_poly,
                          safe_resolution, seidenberg_reduce)
    from planefol.singularities import NON_REDUCED, UNDETERMINED

    with open(fol_path) as fh:
        data = json.load(fh)
    F = make_foliation(parse_poly(data["P"], ("x", "y")), parse_poly(data["Q"], ("x", "y")))
    tree = (safe_resolution if safe else seidenberg_reduce)(F)
    for node in tree.all_nodes():
        for tag, pt, kind in node.leaf_singularities:
            fld = node.chart1 if tag == 1 else node.chart2
            fresh = classify_point(make_foliation(fld[0], fld[1]), pt[0], pt[1])
            if fresh != kind or kind in (NON_REDUCED, UNDETERMINED):
                return False
    return True


def judge(task, argv, status, code, digest, ref, ceiling):
    """Outcome of one task against its reference: 'ok', 'refused' (the
    expected exit 3), 'ceiling', or 'wrong: ...'."""
    if status == "ceiling":
        return "ceiling"
    if status != "done":
        return "wrong: " + status
    if ref is None:
        return "wrong: no reference outcome"
    if ref.get("ceiling"):
        # Expected to hang at the recorded commit. A refusal is honest; a
        # finished tree is checked leaf by leaf instead of by digest.
        if code == 3:
            return "refused"
        if code != 0 or argv[0] not in ("reduce", "safe-resolve"):
            return f"wrong: exit {code}"
        signal.setitimer(signal.ITIMER_REAL, ceiling)
        try:
            ok = check_tree_leaves(argv[argv.index("--foliation") + 1],
                                   argv[0] == "safe-resolve")
        except CeilingHit:
            return "ceiling"
        except Exception as e:  # the CLI finished, so recomputing must too
            return f"wrong: recomputing the tree raised {e!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return "ok" if ok else "wrong: a leaf does not classify as recorded"
    if code != ref["exit"]:
        return f"wrong: exit {code}, expected {ref['exit']}"
    if digest != ref["sha256"]:
        return "wrong: stdout digest differs"
    return "refused" if code == 3 else "ok"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file the traced pass writes its spans to")
    ap.add_argument("--task-ids", help="JSON list: run these ids instead of a seeded pass")
    args = ap.parse_args(argv)

    import planefol.cli as cli

    reference = load_reference()
    if args.task_ids:
        wanted = json.loads(args.task_ids)
        table = {t.id: t for t in workloads.every_task(args.workload)}
        task_list = [table[i] for i in wanted]
    else:
        task_list = workloads.tasks(args.workload, args.seed, reference)
    ceiling = workloads.CEILING_S[args.workload]
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        argvs = _materialise(task_list, tmp)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer(args.workload)
            tracer.install()
        setup_s = time.monotonic() - args.spawned_at
        probe = speed.Probe()
        for _ in range(5):
            probe.sample()
        setup_nominal = setup_s / probe.factor(0, 5)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_nominal_s": setup_nominal}))
            return 0

        signal.signal(signal.SIGALRM, _alarm)
        results, marks = [], []
        if not tracer:  # probe samples inside spans would distort self times
            probe.start()
        for i, argv_i in enumerate(argvs):
            probe.sample()
            first = len(probe.took)
            if tracer:
                tracer.task = i
            # the ceiling is in nominal seconds too, so that a slow spell of
            # the host does not push a normal task over it
            slow = probe.factor(max(0, first - 3), first)
            results.append(run_task(cli, argv_i, ceiling * slow))
            marks.append((first, len(probe.took)))
            if tracer:
                tracer.finish_task()
        probe.stop()
        probe.sample()
        if tracer:
            tracer.uninstall()

        tasks_out = []
        for task, argv_i, (status, code, digest, wall, cpu), (lo, hi) in zip(
                task_list, argvs, results, marks):
            outcome = judge(task, argv_i, status, code, digest,
                            reference.get(task.id), ceiling)
            spent = sum(probe.took[lo:hi])
            factor = probe.factor(lo - 1, hi + 1)
            tasks_out.append({
                "id": task.id, "status": status, "exit": code, "sha256": digest,
                "outcome": outcome, "seconds": wall - spent, "cpu_s": cpu - spent,
                "nominal_s": (wall - spent) / factor,
                "nominal_cpu_s": (cpu - spent) / factor,
            })
    report = {
        "setup_s": setup_s,
        "setup_nominal_s": setup_nominal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tasks": tasks_out,
    }
    if tracer:
        report["trace"] = tracer.report([t.id for t in task_list], args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
