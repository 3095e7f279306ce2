#!/usr/bin/env python3
"""Run the benchmark: one workload per fresh subprocess, calibrated metrics out.

Two ways in, one measurement path (``perf/measure.py``):

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload (the form ``BENCHMARK.json`` declares).  Prints
    every metric as ``workload metric value unit`` and, as the last line of
    standard output, one JSON object ``{correct, attempted, failed,
    metrics}``: the end-to-end metrics with ``--trace 0``, the per-layer
    metrics with ``--trace 1``.

``python3 perf/run.py [--runs K] [--out FILE]``
    The ledger: all four workloads, ``K`` untraced runs each plus one traced
    pass, written as one JSON that ``perf/compare.py`` reads
    (``perf/BASELINE.json`` is one).

Either way this process is a supervisor that imports nothing heavy: it
starts each run as a child in its own session with a hard timeout, and after
it ends kills whatever the session still holds and removes shared-memory
segments the dead left behind.  A child that dies or hangs becomes
``fail_frac = 1`` for that workload in the ledger, and a non-zero exit in the
single-run form, instead of a hang.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

# Run as a script, sys.path[0] is perf/ itself, where trace.py would shadow
# the standard library's module of that name; the package root and the
# program's source tree go there instead.
if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perf import procs  # noqa: E402  (after the path fix above)

BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: The driver allows a run 180 s; leave room to clean up and report.
HARD_TIMEOUT_S = 165.0


def declared_benchmark() -> dict:
    """``BENCHMARK.json``: the workload names, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def supervise(child_args: List[str]) -> Tuple[int, Dict[str, int]]:
    """Run one child to completion; return ``(exit code, hygiene)``.

    The child gets its own session, so everything it starts (pool slots, tcp
    workers, the shared-memory resource tracker) can be found and stopped
    through the process group.  Whatever the session still holds two seconds
    after the child ended, or when the hard timeout strikes, is killed with
    the group (slots hold each other's channel ends, so they do not notice a
    dead owner), and segments the dead left mapped by nobody are unlinked.
    """
    started = time.time()
    child = subprocess.Popen(
        [sys.executable, str(PERF_DIR / "run.py"), "--child", *child_args],
        start_new_session=True,
    )
    try:
        child.wait(timeout=HARD_TIMEOUT_S)
        # The child ended by itself: its helpers get a moment to follow.
        deadline = time.monotonic() + 2.0
        while procs.session_alive(child.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
    except subprocess.TimeoutExpired:
        pass
    orphans = int(procs.session_alive(child.pid))
    if orphans:
        os.killpg(child.pid, signal.SIGKILL)
        while procs.session_alive(child.pid):
            time.sleep(0.05)
    code = child.wait()
    leaked = procs.orphan_segments(started)
    for segment in leaked:
        segment.unlink(missing_ok=True)
    return code, {"orphan_processes": orphans, "leaked_shm_segments": len(leaked)}


def _child_args(workload: str, args: argparse.Namespace, trace: int) -> List[str]:
    child_args = [
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    return child_args + ["--quick"] if args.quick else child_args


def run_single(args: argparse.Namespace) -> int:
    """The declared benchmark command: one workload, one run."""
    code, hygiene = supervise(_child_args(args.workload, args, args.trace))
    if code != 0:
        print(f"perf: workload {args.workload} did not finish (exit {code})", file=sys.stderr)
        return 1
    if any(hygiene.values()):
        print(f"perf: workload {args.workload} left behind: {hygiene}", file=sys.stderr)
        return 1
    return 0


def _quartile_summary(runs: List[dict]) -> Dict[str, dict]:
    """Median and quartiles of every end-to-end metric over the untraced runs."""
    summary: Dict[str, dict] = {}
    for name in runs[0]["metrics"] if runs else ():
        values = [run["metrics"][name]["value"] for run in runs]
        first, third = (
            statistics.quantiles(values, n=4)[::2] if len(values) > 1 else (values[0], values[0])
        )
        summary[name] = {
            "median": statistics.median(values),
            "q1": first,
            "q3": third,
            "unit": runs[0]["metrics"][name]["unit"],
            "runs": len(values),
        }
    return summary


def run_ledger(args: argparse.Namespace) -> int:
    """All four workloads: ``--runs`` untraced runs each, then one traced pass."""
    OUT_DIR.mkdir(exist_ok=True)
    ledger: Dict[str, object] = {
        "quick_not_for_reporting": bool(args.quick),
        "seed": args.seed,
        "run_seconds": args.seconds,
        "box": None,
        "workloads": {},
    }
    exit_code = 0
    for workload in (entry["name"] for entry in declared_benchmark()["workloads"]):
        entry: Dict[str, object] = {"runs": [], "traced": None}
        for trace in [0] * args.runs + [1]:
            detail_path = OUT_DIR / f"detail_{workload}.json"
            detail_path.unlink(missing_ok=True)
            code, hygiene = supervise(
                _child_args(workload, args, trace) + ["--detail", str(detail_path)]
            )
            if detail_path.exists():
                detail = json.loads(detail_path.read_text())
                detail_path.unlink()
                ledger["box"] = ledger["box"] or detail.pop("box", None)
            else:
                # A dead workload fails every operation it was asked for; the
                # other workloads still run.
                detail = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
                print(f"{workload} fail_frac 1 fraction  # child exit {code}")
            detail["hygiene"] = hygiene
            if not detail["correct"] or detail["failed"] or any(hygiene.values()):
                exit_code = 1
            if trace:
                entry["traced"] = detail
            else:
                entry["runs"].append(detail)
        entry["summary"] = _quartile_summary([run for run in entry["runs"] if run["metrics"]])
        ledger["workloads"][workload] = entry
    out_path = Path(args.out) if args.out else OUT_DIR / "ledger.json"
    out_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"perf: ledger written to {out_path}")
    return exit_code


def run_child(args: argparse.Namespace) -> int:
    """The measuring process: import the program and the harness, then measure."""
    if not (ROOT / "src" / "repro").is_dir():
        # Never measure a copy of the program installed somewhere else.
        print(f"perf: no program source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    from perf import measure

    return measure.run(args, declared_benchmark(), OUT_DIR)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """Parse the command line (see the module docstring for the two forms)."""
    declared = declared_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [workload["name"] for workload in declared["workloads"]]
    parser.add_argument("--workload", choices=names, help="run only this workload")
    parser.add_argument("--seed", type=int, default=11, help="seed of the generated inputs")
    parser.add_argument(
        "--seconds", type=float, default=declared["run_seconds"], help="length of the timed window"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny counts for the harness's tests, not for reporting"
    )
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload (ledger)")
    parser.add_argument("--out", help="where the ledger is written (default perf/out/ledger.json)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch to the child, the single run or the ledger."""
    args = parse_args(argv)
    # One BLAS thread per process, set before anything imports numpy and
    # inherited by the children and their pool slots: two OpenBLAS threads
    # burn 1.95 cores for no gain on these shapes (98 vs 90 ms/step) and
    # fight the two-slot pool for the two cores.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    if args.child:
        return run_child(args)
    if args.workload:
        return run_single(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
