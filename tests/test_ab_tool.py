"""``tools/ab.py``: the paired A/B record's schema and its verdict rule.

Synthetic pairs stand in for benchmark runs (an injected runner, no
subprocess).  The tests pin what a record holds and that its verdict is
``perf/compare.py``'s rule on the same values; they assert no particular
verdict for any measured code.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

from perf import compare  # noqa: E402  (tools/ab.py put the repo root on the path)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [metric["name"] for metric in DECLARED["end_to_end"]]


def _runner(table):
    """A runner that answers from ``table[(tree, seed)]`` and logs its calls."""
    calls = []

    def run(tree, workload, seed, seconds):
        calls.append((str(tree), seed))
        values = table[(str(tree), seed)]
        metrics = {name: {"value": value, "unit": "u"} for name, value in values.items()}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    return run, calls


def _synthetic(pairs: int, scale: float):
    """Parent values 100 + seed, change values scaled; every declared metric."""
    table = {}
    for seed in range(pairs):
        table[("A", seed)] = {name: 100.0 + seed for name in NAMES}
        table[("B", seed)] = {name: (100.0 + seed) * scale for name in NAMES}
    return table


def test_pairs_alternate_and_record_every_metric():
    run, calls = _runner(_synthetic(4, 0.9))
    pairs = ab.run_pairs({"parent": "A", "change": "B"}, "w", 4, [0, 1, 2, 3], 1.0, run)
    assert calls == [("A", 0), ("B", 0), ("B", 1), ("A", 1), ("A", 2), ("B", 2), ("B", 3), ("A", 3)]
    assert [pair["first"] for pair in pairs] == ["parent", "change", "parent", "change"]
    assert [pair["seed"] for pair in pairs] == [0, 1, 2, 3]
    for pair in pairs:
        for side in ("parent", "change"):
            assert set(pair[side]) == {"correct", "attempted", "failed", "metrics"}
            assert sorted(pair[side]["metrics"]) == sorted(NAMES)


def test_seeds_cycle_over_the_pairs():
    run, calls = _runner(_synthetic(2, 1.0))
    pairs = ab.run_pairs({"parent": "A", "change": "B"}, "w", 4, [0, 1], 1.0, run)
    assert [pair["seed"] for pair in pairs] == [0, 1, 0, 1]
    assert len(calls) == 8


@pytest.mark.parametrize("scale", (0.5, 0.97, 1.0, 1.03, 2.0))
def test_summary_is_compare_rule_on_the_same_values(scale):
    run, _ = _runner(_synthetic(5, scale))
    pairs = ab.run_pairs({"parent": "A", "change": "B"}, "w", 5, range(5), 1.0, run)
    summary = ab.summarize(pairs, DECLARED)
    assert sorted(summary) == sorted(NAMES)
    for metric in DECLARED["end_to_end"]:
        entry = summary[metric["name"]]
        parent = [100.0 + seed for seed in range(5)]
        change = [value * scale for value in parent]
        assert entry["verdict"] == compare.verdict(
            parent, change, metric["better"], metric["bound"]
        )
        for side, values in (("parent", parent), ("change", change)):
            q1, median, q3 = compare.quartiles(values)
            assert entry[side] == {"median": median, "q1": q1, "q3": q3}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * b < sign * a for a, b in zip(parent, change))
        assert entry["change_wins"] == wins
        assert entry["pairs"] == 5
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric["unit"], metric["better"], metric["bound"],
        )  # fmt: skip


def test_a_dead_run_counts_as_a_failed_operation(monkeypatch, tmp_path):
    class Done:
        stdout = "perf: workload died\n"

    monkeypatch.setattr(ab.subprocess, "run", lambda *args, **kwargs: Done())
    result = ab.run_tree(tmp_path, "w", 1, 1.0)
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    pairs = [{"parent": result, "change": {**result, "failed": 0, "attempted": 4}}]
    assert ab.fail_frac(pairs, "parent") == 1.0
    assert ab.fail_frac(pairs, "change") == 0.0


def test_record_file_schema(monkeypatch, tmp_path):
    for side in ("A", "B"):
        (tmp_path / side / "src" / "pkg").mkdir(parents=True)
        (tmp_path / side / "src" / "pkg" / "m.py").write_text(f"X = {side!r}\n")
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    table = {}
    for (tree, seed), values in _synthetic(3, 0.8).items():
        table[(str(tmp_path / tree), seed)] = values
    run, _ = _runner(table)
    monkeypatch.setattr(ab, "run_tree", run)
    out = tmp_path / "BENCH_0.json"
    args = ["--parent", str(tmp_path / "A"), "--change", str(tmp_path / "B"), "--pairs", "3",
            "--seeds", "0", "1", "2", "--out", str(out)]  # fmt: skip
    assert ab.main([*args, "--workload", "w1"]) == 0
    assert ab.main([*args, "--workload", "w2"]) == 0
    written = json.loads(out.read_text())
    assert written["schema"] == ab.SCHEMA
    assert {"nproc", "blas", "numpy", "python"} <= set(written["box"])
    assert sorted(written["workloads"]) == ["w1", "w2"]
    workload = written["workloads"]["w1"]
    assert set(workload) == {"seeds", "seconds", "src_sha256", "pairs", "summary", "fail_frac"}
    assert workload["seeds"] == [0, 1, 2]
    assert workload["seconds"] == DECLARED["run_seconds"]
    assert len(workload["pairs"]) == 3
    assert workload["fail_frac"] == {"parent": 0.0, "change": 0.0}
    hashes = workload["src_sha256"]
    assert hashes["parent"] != hashes["change"] and len(hashes["parent"]) == 64
    assert sorted(workload["summary"]) == sorted(NAMES)
