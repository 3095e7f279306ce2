"""Fast, deterministic checks of the benchmark harness itself (tier-1 collects this).

The arithmetic is pinned on hand-made numbers; the one test that runs the
program drives ``perf/run.py --quick`` end to end and only checks *what* is
reported (every declared metric, with its unit), never how fast.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from perf import calibrate, compare, layers, trace, workloads

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- nearest-rank percentile ---------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
    assert calibrate.percentile(values, 50) == 5
    assert calibrate.percentile(values, 90) == 9
    assert calibrate.percentile(values, 91) == 10
    assert calibrate.percentile(values, 100) == 10
    assert calibrate.percentile(values, 0) == 1
    # Always an observed sample, never an interpolation.
    assert calibrate.percentile([1.0, 2.0], 50) == 1.0
    with pytest.raises(ValueError):
        calibrate.percentile([], 50)


# -- calibrated-time arithmetic ------------------------------------------------------


class _ScriptedCalibrator(calibrate.Calibrator):
    """The real arithmetic over a fixed sequence of readings instead of bursts."""

    def __init__(self, readings, sensitivity=1.0):
        self._script = iter(readings)
        self.sensitivity = sensitivity
        self.readings = []

    def reading(self):
        value = next(self._script)
        self.readings.append(value)
        return value


def test_calibrated_time_is_wall_scaled_to_the_nominal_burst():
    assert calibrate.calibrated(2.0, 10.0) == pytest.approx(1.0)
    assert calibrate.calibrated(2.0, calibrate.CAL_NOMINAL_MS) == pytest.approx(2.0)
    # A workload that responds to the burst with exponent 0.5 is corrected
    # by the square root of the burst's slowdown.
    assert calibrate.calibrated(2.0, 4 * calibrate.CAL_NOMINAL_MS, 0.5) == pytest.approx(1.0)
    block = calibrate.Block(start=0.0, end=4.0, samples=[0.5, 1.5], work=6)
    block.finish(_ScriptedCalibrator([]), before=8.0, after=12.0)
    assert block.cal_ms == pytest.approx(10.0)
    assert block.scale == pytest.approx(0.5)
    assert block.calibrated_seconds == pytest.approx(2.0)
    assert calibrate.step_samples_ms([block]) == pytest.approx([250.0, 750.0])
    assert calibrate.step_samples_ms([block], calibrate=False) == pytest.approx([500.0, 1500.0])
    assert calibrate.block_rates([block]) == pytest.approx([3.0])
    assert calibrate.block_rates([block], calibrate=False) == pytest.approx([1.5])


def test_window_brackets_each_block_and_ends_on_a_whole_round():
    calibrator = _ScriptedCalibrator([4.0, 6.0, 8.0, 10.0])

    def run_block(block):
        block.attempted += 1
        block.work += 1
        block.samples.append(1.0)

    blocks = calibrate.run_window(calibrator, run_block, seconds=0.0, blocks_per_round=3)
    assert len(blocks) == 3
    # Each block's calibration is the mean of the readings on either side of
    # it; consecutive blocks share the reading between them.
    assert [block.cal_ms for block in blocks] == [5.0, 7.0, 9.0]
    assert calibrator.readings == [4.0, 6.0, 8.0, 10.0]


def test_a_real_burst_runs_on_every_thread_and_takes_time():
    calibrator = calibrate.Calibrator(threads=2)
    try:
        assert calibrator.reading() > 0
        assert calibrator.readings and calibrator.scale(calibrate.CAL_NOMINAL_MS) == 1.0
    finally:
        calibrator.close()


def test_window_stops_when_a_block_fails_entirely():
    calibrator = _ScriptedCalibrator([5.0] * 10)

    def run_block(block):
        block.attempted += 2
        block.failed += 2

    assert len(calibrate.run_window(calibrator, run_block, seconds=60.0, blocks_per_round=5)) == 1


# -- nested-span self time -----------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    spans = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": -1, "thread": "t"},
        {"name": "child", "start": 1.0, "end": 7.0, "parent": 0, "thread": "t"},
        {"name": "leaf", "start": 2.0, "end": 4.0, "parent": 1, "thread": "t"},
        {"name": "child", "start": 8.0, "end": 9.0, "parent": 0, "thread": "t"},
    ]
    selfs = trace.self_times(spans)
    assert selfs == [3.0, 4.0, 2.0, 1.0]
    # A tree's self times partition its root's duration.
    assert sum(selfs) == spans[0]["end"] - spans[0]["start"]

    inside = calibrate.Block(start=0.0, end=20.0, scale=0.5)
    summary = trace.summarize(spans, [inside])
    assert summary["child"] == {"count": 2, "total_ms": 3500.0, "self_ms": 2500.0}
    assert summary["root"]["self_ms"] == 1500.0
    # Spans that start outside every block are not counted.
    assert trace.summarize(spans, [calibrate.Block(start=0.5, end=20.0)]).get("root") is None


def test_tracer_records_nesting_per_thread():
    tracer = trace.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(inner).result()
    spans = tracer.spans()
    assert [span["name"] for span in spans] == ["outer", "inner", "inner", "inner"]
    assert [span["parent"] for span in spans] == [-1, 0, 0, -1]
    assert spans[3]["thread"] != spans[0]["thread"]
    assert all(span["end"] >= span["start"] for span in spans)


def test_a_raising_callable_still_closes_its_span():
    tracer = trace.Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    after = tracer.wrap("after", lambda: None)
    after()
    spans = tracer.spans()
    assert spans[0]["end"] >= spans[0]["start"] > 0
    assert spans[1]["parent"] == -1


# -- wrap targets --------------------------------------------------------------------


@pytest.mark.parametrize("target", trace.TARGETS, ids=lambda t: f"{t.module}.{t.attr}")
def test_every_wrap_target_resolves(target):
    # A rename of a wrapped public callable must fail here, not silently
    # report 0 ms for its layer.
    _, _, func = trace.resolve(target)
    assert callable(func)


def test_install_rebinds_and_uninstall_restores():
    originals = [trace.resolve(target)[2] for target in trace.TARGETS]
    tracer = trace.Tracer()
    tracer.install()
    try:
        wrapped = [trace.resolve(target)[2] for target in trace.TARGETS]
        assert all(new is not old for new, old in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert [trace.resolve(target)[2] for target in trace.TARGETS] == originals


def test_every_span_feeds_a_layer_and_every_layer_is_declared():
    layer_names = {metric.name.split(".")[0] for metric in layers.LAYER_METRICS}
    assert {target.span.split(".")[0] for target in trace.TARGETS} <= layer_names


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_schema():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DECLARED["command"] == ["python3", "perf/run.py"]
    assert DECLARED["paths"] == ["perf"]
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = []
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names), "every name is used once"
    setup = [metric for metric in DECLARED["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric in DECLARED["end_to_end"])
    # Total driver time: 4 + 22 runs per workload, each a window plus set-ups.
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in layers.LAYER_METRICS]


# -- compare -------------------------------------------------------------------------


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.01 for v in steady], "lower", 0.06) == "unchanged"
    assert compare.verdict(steady, [v * 1.10 for v in steady], "lower", 0.06) == "regressed"
    assert compare.verdict(steady, [v * 0.90 for v in steady], "lower", 0.06) == "improved"
    assert compare.verdict(steady, [v * 0.90 for v in steady], "higher", 0.06) == "regressed"
    noisy = [100.0, 120.0, 90.0, 110.0, 80.0]
    assert compare.verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.06) == "unresolved"
    # Every new run beats every base run: settled whatever the spread.
    assert compare.verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.06) == "improved"
    assert compare.verdict(noisy, [v * 2.0 for v in noisy], "lower", 0.06) == "regressed"
    # Separated but within the bound is not a regression.
    assert compare.verdict([100.0, 100.1], [100.2, 100.3], "lower", 0.06) == "unchanged"


# -- the program, end to end ---------------------------------------------------------


def _quick_run(workload: str, traced: int) -> dict:
    finished = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--workload", workload, "--quick",
         "--seconds", "0", "--seed", "5", "--trace", str(traced)],  # fmt: skip
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    assert finished.returncode == 0, finished.stderr[-2000:]
    return json.loads(finished.stdout.strip().splitlines()[-1])


def test_quick_run_emits_every_declared_metric_with_its_unit():
    cases = [(w["name"], traced) for w in DECLARED["workloads"] for traced in (0, 1)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda case: _quick_run(*case), cases))
    for (workload, traced), result in zip(cases, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, workload
        assert result["correct"] is True and result["failed"] == 0, workload
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        declared = DECLARED["per_layer"] if traced else DECLARED["end_to_end"]
        assert list(result["metrics"]) == [metric["name"] for metric in declared], workload
        for metric in declared:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"], (workload, metric["name"])
            assert math.isfinite(reported["value"]), (workload, metric["name"])
            if not traced:
                assert reported["value"] > 0, (workload, metric["name"])
