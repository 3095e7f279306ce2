#!/usr/bin/env python3
"""Paired A/B of two source trees on one benchmark workload: a committed record.

Usage::

    python tools/ab.py --parent A --change B --workload mdgan_cnn_pool_pipe \\
        --pairs 10 --seeds 41 42 43 44 45 46 47 48 49 50 --out BENCH_<pr>.json

``A`` and ``B`` are two checkouts of this repository.  Each run is the
tree's own ``perf/run.py --workload W --seed S --seconds T --trace 0``,
unmodified, in a fresh process; pair ``i`` uses seed ``seeds[i % len]`` and
runs the two trees in alternating order (parent first on even pairs), so
drift on the box lands on both sides alike.  The record written to
``--out`` (merged into it by workload if it exists) holds every pair's
end-to-end metrics, each metric's median and quartiles per side, how many
pairs the change won, the seeds, ``nproc``, the BLAS build, and the verdict
by ``perf/compare.py``'s rule with ``BENCHMARK.json``'s bound.  The tool
measures and records; it asserts nothing about the outcome.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perf.compare import quartiles, verdict  # noqa: E402  (after the path fix above)

SIDES = ("parent", "change")
SCHEMA = 1

#: ``(tree, workload, seed, seconds) -> {correct, attempted, failed, metrics}``.
Runner = Callable[[Path, str, int, float], dict]


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of ``tree``'s own benchmark; its last stdout line, parsed."""
    command = [
        sys.executable, str(tree / "perf" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        # A run that died fails the one operation it was asked for.
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_pairs(
    trees: Dict[str, Path],
    workload: str,
    pairs: int,
    seeds: Sequence[int],
    seconds: float,
    runner: Runner = run_tree,
) -> List[dict]:
    """``pairs`` alternating pairs; each side's result keeps only metric values."""
    out = []
    for index in range(pairs):
        seed = seeds[index % len(seeds)]
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair: dict = {"seed": seed, "first": order[0]}
        for side in order:
            result = runner(trees[side], workload, seed, seconds)
            pair[side] = {key: result[key] for key in ("correct", "attempted", "failed")}
            pair[side]["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
        out.append(pair)
    return out


def summarize(pairs: Sequence[dict], declared: dict) -> Dict[str, dict]:
    """Per end-to-end metric: both sides' median and quartiles, change wins, verdict."""
    summary = {}
    for metric in declared["end_to_end"]:
        name, better = metric["name"], metric["better"]
        both = [p for p in pairs if all(name in p[side]["metrics"] for side in SIDES)]
        if not both:
            continue
        values = {side: [p[side]["metrics"][name] for p in both] for side in SIDES}
        sign = 1.0 if better == "lower" else -1.0
        entry = {"unit": metric["unit"], "better": better, "bound": metric["bound"]}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        entry["pairs"] = len(both)
        entry["change_wins"] = sum(
            sign * b < sign * a for a, b in zip(values["parent"], values["change"])
        )
        entry["verdict"] = verdict(values["parent"], values["change"], better, metric["bound"])
        summary[name] = entry
    return summary


def fail_frac(pairs: Sequence[dict], side: str) -> float:
    """Share of one side's operations that failed, over every run."""
    attempted = sum(p[side]["attempted"] for p in pairs)
    return sum(p[side]["failed"] for p in pairs) / attempted if attempted else 1.0


def tree_digest(tree: Path) -> str:
    """SHA-256 over the tree's ``src/`` Python files, names and contents in path order."""
    sha = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        sha.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def box() -> dict:
    """What the numbers were measured on."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def record(
    pairs: Sequence[dict],
    declared: dict,
    seeds: Sequence[int],
    seconds: float,
    trees: Dict[str, Path],
) -> dict:
    """One workload's record: the pairs, their summary, and how they were made."""
    return {
        "seeds": list(seeds),
        "seconds": seconds,
        "src_sha256": {side: tree_digest(trees[side]) for side in SIDES},
        "pairs": list(pairs),
        "summary": summarize(pairs, declared),
        "fail_frac": {side: fail_frac(pairs, side) for side in SIDES},
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[11])
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json's")
    parser.add_argument("--out", required=True, type=Path, help="record file, e.g. BENCH_<pr>.json")
    args = parser.parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = run_pairs(trees, args.workload, args.pairs, args.seeds, seconds, runner=run_tree)
    out = json.loads(args.out.read_text()) if args.out.exists() else {"schema": SCHEMA}
    out["box"] = box()
    out.setdefault("workloads", {})[args.workload] = record(
        pairs, declared, args.seeds, seconds, trees
    )
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for name, entry in out["workloads"][args.workload]["summary"].items():
        a, b = entry["parent"]["median"], entry["change"]["median"]
        wins = f"wins {entry['change_wins']}/{entry['pairs']}"
        print(f"{args.workload:22s} {name:12s} {a:12.4f} -> {b:12.4f}  {wins}  {entry['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
