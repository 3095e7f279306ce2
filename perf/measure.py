"""One run of one workload, in this process: set up, time, check, report.

``perf/run.py`` starts this in a fresh subprocess per run.  The flow is the
same for every workload: generate the inputs from the seed; do the cold
set-ups (the last instance is kept); run the timed window in calibrated
blocks — for a traced run, a plain window first, then the wrappers go on and
the traced window follows; read the meters and the peak RSS before the pool
closes; check the outputs; print every metric and the result object.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import numpy

from . import calibrate, layers, procs, trace, workloads

__all__ = ["run"]

#: Share of a traced run's window that runs untraced first, as the base of
#: ``trace.overhead_frac``.
PLAIN_SHARE = 0.35


def _box() -> Dict[str, object]:
    """What the numbers were measured on."""
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _span_coverage_problems(spans: Sequence[dict], blocks: Sequence[calibrate.Block]) -> List[str]:
    """In-process, the spans' self times must add up to the wall of the timed steps."""
    self_ms = sum(entry["self_ms"] for entry in trace.summarize(spans, blocks).values())
    wall_ms = sum(calibrate.step_samples_ms(blocks))
    if wall_ms and abs(self_ms - wall_ms) > 0.05 * wall_ms:
        return [f"span self times sum to {self_ms:.1f} ms but the steps took {wall_ms:.1f} ms"]
    return []


def _end_to_end(blocks, setups, blocks_per_round: int, rss_mb: float, calibrated: bool) -> dict:
    samples = calibrate.step_samples_ms(blocks, calibrated)
    tails = calibrate.round_percentiles(blocks, blocks_per_round, 90, calibrated)
    rates = calibrate.block_rates(blocks, calibrated)
    return {
        "setup_s": statistics.median(
            block.calibrated_seconds if calibrated else block.seconds for block in setups
        ),
        "step_ms_p50": calibrate.percentile(samples, 50) if samples else 0.0,
        "step_ms_p90": statistics.median(tails) if tails else 0.0,
        "work_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": rss_mb,
    }


def run(args, declared: dict, out_dir: Path) -> int:
    """Measure ``args.workload`` once; return the process exit code."""
    scale = workloads.QUICK if args.quick else workloads.FULL
    inputs = workloads.make_inputs(args.seed, scale)
    workload = workloads.WORKLOADS[args.workload](inputs)
    calibrator = calibrate.Calibrator(workload.probe_threads, workload.sensitivity)

    setups: List[calibrate.Block] = []
    for index in range(scale.setups):
        if index:
            workload.teardown()
        # A torn-down trainer sits in reference cycles until the collector
        # happens by; whether its shards are still resident when the next
        # pool forks moved peak_rss_mb by 8 MB steps between runs.
        gc.collect()
        setups.append(calibrate.run_bracketed(calibrator, workload.setup))

    def window(seconds: float) -> List[calibrate.Block]:
        return calibrate.run_window(
            calibrator, workload.run_block, seconds, workload.blocks_per_round
        )

    tracer = trace.Tracer()
    plain_blocks: List[calibrate.Block] = []
    try:
        if args.trace:
            plain_blocks = window(args.seconds * PLAIN_SHARE)
            # After the pool forked: slot processes never see a wrapper.
            tracer.install()
        meters_before = layers.snapshot_meters(workload.resident())
        context_before = workload.context()
        blocks = window(args.seconds * (1.0 - PLAIN_SHARE) if args.trace else args.seconds)
        meters_after = layers.snapshot_meters(workload.resident())
        context_after = workload.context()
        rss_mb = procs.peak_rss_mb()
        problems, reference = workload.verify(calibrator, traced=bool(args.trace))
    finally:
        tracer.uninstall()
        workload.teardown()
        workload.close()
        calibrator.close()

    counted = plain_blocks + blocks
    attempted = sum(block.attempted for block in counted)
    failed = sum(block.failed for block in counted)
    samples = sum(len(block.samples) for block in blocks)
    if not samples:
        problems.append("no step completed")
    if attempted == 0:
        attempted, failed = 1, 1

    detail: Dict[str, object] = {
        "box": _box(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "quick_not_for_reporting": bool(args.quick),
        "problems": problems,
        "step_samples": samples,
        "blocks": len(blocks),
        "work": sum(block.work for block in blocks),
    }
    if args.trace:
        spans = tracer.spans()
        values = layers.layer_metrics(
            blocks=blocks,
            plain_blocks=plain_blocks,
            spans=spans,
            meters_before=meters_before,
            meters_after=meters_after,
            context_before=context_before,
            context_after=context_after,
            reference=reference,
            readings=calibrator.readings,
            serving=isinstance(workload, workloads.ServeRequests),
        )
        if workload.backend == "serial":
            problems.extend(_span_coverage_problems(spans, blocks))
        out_dir.mkdir(exist_ok=True)
        suffix = "_quick" if args.quick else ""
        (out_dir / f"trace_{args.workload}{suffix}.json").write_text(json.dumps({"spans": spans}))
        declared_metrics = declared["per_layer"]
    else:
        values = _end_to_end(blocks, setups, workload.blocks_per_round, rss_mb, calibrated=True)
        # Uncalibrated, for reference only: never compared.
        detail["raw"] = _end_to_end(blocks, setups, workload.blocks_per_round, rss_mb, False)
        detail["raw"]["cal_ms_p50"] = statistics.median(calibrator.readings)
        declared_metrics = declared["end_to_end"]

    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared_metrics
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    for problem in problems:
        print(f"perf: {args.workload}: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}")
    if not args.trace:
        share = failed / attempted
        print(f"{args.workload} fail_frac {share!r} fraction  # {failed} of {attempted}")
    print(
        f"# {args.workload}: step percentiles over {samples} samples"
        + (" (one per train() chunk)" if isinstance(workload, workloads.AsyncChunks) else "")
        + f", rate over {len(blocks)} blocks"
    )
    if args.detail:
        Path(args.detail).write_text(json.dumps({**result, **detail}))
    print(json.dumps(result))
    return 0 if result["correct"] and not failed else 1
