#!/usr/bin/env python3
"""Compare two sets of ledger runs cell by cell: the regression gate.

``python3 perf/compare.py --base A.json [A2.json ...] --new B.json [B2.json ...]``

Each file is a ledger written by ``perf/run.py --out``; every untraced run
in the files of one side is one sample of that side.  For every workload x
end-to-end metric the tool prints both sides' median and quartiles and a
verdict, using the bound ``BENCHMARK.json`` fixes for that metric:

``regressed``
    the new median is worse than the base median by more than the bound;
``improved``
    it is better by more than the bound, or every new run beats every base run;
``unresolved``
    the run-to-run spread (interquartile range over the median, the larger
    of the two sides) exceeds the bound, so a difference of the size of the
    bound cannot be told from noise — unless every run of one side beats
    every run of the other, which settles it whatever the spread;
``unchanged``
    none of the above: the medians agree within the bound and the spread is
    small enough to say so.

The exit code is non-zero on any ``regressed`` cell, or when the new side
failed a larger share of its operations (``fail_frac``).  Per-layer values
of the traced passes are printed side by side, without verdicts: they have
no bound, and say where a difference sits, not whether there is one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

__all__ = ["quartiles", "verdict", "compare", "main"]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(first quartile, median, third quartile)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """Classify one cell (see the module docstring for the rules)."""
    sign = 1.0 if better == "lower" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    new_q1, new_median, new_q3 = quartiles(new)
    worse_by = sign * (new_median - base_median) / base_median
    spread = max((base_q3 - base_q1) / base_median, (new_q3 - new_q1) / new_median)
    new_wins_all = max(sign * v for v in new) < min(sign * v for v in base)
    base_wins_all = max(sign * v for v in base) < min(sign * v for v in new)
    if spread > bound and not (new_wins_all or base_wins_all):
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound or new_wins_all:
        return "improved"
    return "unchanged"


def _load(paths: Sequence[str]) -> Dict[str, dict]:
    """Merge ledgers: per workload, the untraced runs and the last traced pass."""
    merged: Dict[str, dict] = {}
    for path in paths:
        ledger = json.loads(Path(path).read_text())
        if ledger.get("quick_not_for_reporting"):
            raise SystemExit(f"{path} is a --quick ledger: not for reporting or comparing")
        for workload, entry in ledger["workloads"].items():
            side = merged.setdefault(workload, {"runs": [], "traced": None})
            side["runs"].extend(entry["runs"])
            side["traced"] = entry.get("traced") or side["traced"]
    return merged


def _values(runs: Sequence[dict], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def _fail_frac(runs: Sequence[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def compare(base: Dict[str, dict], new: Dict[str, dict], declared: dict, out=sys.stdout) -> int:
    """Print the table; return the number of cells that gate (regressions, failures)."""
    gating = 0
    header = f"{'workload':22s} {'metric':12s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s} {'new/base':>9s}  verdict"
    print(header, file=out)
    for entry in declared["workloads"]:
        workload = entry["name"]
        if workload not in base or workload not in new:
            print(f"{workload:22s} missing on one side", file=out)
            gating += 1
            continue
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a, b = _values(base[workload]["runs"], name), _values(new[workload]["runs"], name)
            if not a or not b:
                print(f"{workload:22s} {name:12s} no value on one side: regressed", file=out)
                gating += 1
                continue
            cell = verdict(a, b, metric["better"], metric["bound"])
            gating += cell == "regressed"
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            print(
                f"{workload:22s} {name:12s} {am:12.4f} [{a1:9.4f},{a3:9.4f}] "
                f"{bm:12.4f} [{b1:9.4f},{b3:9.4f}] {bm / am:9.4f}  {cell}",
                file=out,
            )
        fa, fb = _fail_frac(base[workload]["runs"]), _fail_frac(new[workload]["runs"])
        state = "regressed" if fb > fa else "unchanged"
        gating += fb > fa
        print(f"{workload:22s} {'fail_frac':12s} {fa:12.6f} {'':21s} {fb:12.6f} {'':31s}  {state}", file=out)
    _print_layers(base, new, declared, out)
    return gating


def _print_layers(base: Dict[str, dict], new: Dict[str, dict], declared: dict, out) -> None:
    for entry in declared["workloads"]:
        workload = entry["name"]
        a: Optional[dict] = base.get(workload, {}).get("traced")
        b: Optional[dict] = new.get(workload, {}).get("traced")
        if not a or not b or not a.get("metrics") or not b.get("metrics"):
            continue
        print(f"\nper-layer, traced pass, {workload}: base, new, unit (no verdicts)", file=out)
        for metric in declared["per_layer"]:
            name = metric["name"]
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if va or vb:
                print(f"  {name:34s} {va:16.4f} {vb:16.4f} {metric['unit']}", file=out)


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="ledger files of the parent")
    parser.add_argument("--new", nargs="+", required=True, help="ledger files of the change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    declared = json.loads(Path(args.benchmark).read_text())
    gating = compare(_load(args.base), _load(args.new), declared)
    if gating:
        print(f"\n{gating} gating cell(s): regressed, missing, or a higher fail_frac")
    return 1 if gating else 0


if __name__ == "__main__":
    sys.exit(main())
