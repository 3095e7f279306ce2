"""The per-layer metrics: what each is, what it should move, how it is computed.

Layers carry this repo's module names.  Times are calibrated milliseconds per
*step* of the workload (a global iteration, a generator update, or a served
request) unless a metric says otherwise.  Three outside sources feed them:
span wrappers (:mod:`perf.trace`), the program's public meters read at the
end of the window, and arithmetic against the in-process reference run.

``moves`` is the prediction written down before measuring: which end-to-end
metric a change to that layer should move, on which workload.  Everywhere
else the prediction is no change.  A metric that does not apply to a
workload (``serving.*`` on a training run) reads 0 there.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .calibrate import Block, block_rates, percentile, step_samples_ms
from .trace import summarize
from .workloads import NUM_WORKERS, POOL_SLOTS

__all__ = ["LayerMetric", "LAYER_METRICS", "METER_OPS", "snapshot_meters", "layer_metrics"]


@dataclass(frozen=True)
class LayerMetric:
    """Declaration of one per-layer metric."""

    name: str
    unit: str
    better: str
    moves: str


_KERNEL = "step_ms_p50, work_per_s @ mdgan_cnn_serial; scaled by the parallel share @ mdgan_cnn_pool_pipe"
_WORKER = "step_ms_p50 @ mdgan_cnn_serial, mdgan_cnn_pool_pipe"
_WIRE = (
    "step_ms_p50, work_per_s @ mdgan_mlp_async_tcp mostly, "
    "then serve_mlp_pool_pipe, then mdgan_cnn_pool_pipe"
)
_INSTALL = "setup_s, peak_rss_mb @ the three pool workloads"
_CHANNEL = (
    "tcp: step_ms_p50 @ mdgan_mlp_async_tcp; "
    "pipe: step_ms_p50/p90 @ serve_mlp_pool_pipe, mdgan_cnn_pool_pipe"
)
_ENGINE = "work_per_s @ mdgan_mlp_async_tcp"
_SERVER = "step_ms_p50 @ the three training workloads"
_SWAP = "step_ms_p90 @ mdgan_mlp_async_tcp, mdgan_cnn_pool_pipe"
_SERVING = "all timing metrics @ serve_mlp_pool_pipe only"
_NONE = "nothing: describes the measurement"

LAYER_METRICS = (
    # nn — the kernel layer (owner-process time only).
    LayerMetric("nn.conv_fwd_ms", "ms", "lower", _KERNEL),
    LayerMetric("nn.conv_input_grad_ms", "ms", "lower", _KERNEL),
    LayerMetric("nn.conv_weight_grad_ms", "ms", "lower", _KERNEL),
    LayerMetric("nn.im2col_ms", "ms", "lower", _KERNEL),
    LayerMetric("nn.col2im_ms", "ms", "lower", _KERNEL),
    LayerMetric("nn.optim_step_ms", "ms", "lower", _KERNEL),
    LayerMetric("nn.other_fwd_bwd_ms", "ms", "lower", _KERNEL),
    LayerMetric("nn.conv_calls", "count", "lower", _KERNEL),
    LayerMetric("nn.share", "fraction", "lower", _KERNEL),
    # tasks — one worker's step, per call (from the in-process serial run).
    LayerMetric("tasks.worker_step_ms", "ms", "lower", _WORKER),
    LayerMetric("tasks.disc_update_ms", "ms", "lower", _WORKER),
    LayerMetric("tasks.feedback_ms", "ms", "lower", _WORKER),
    LayerMetric("tasks.steps_per_iter", "count", "lower", _WORKER),
    # resident — the pool protocol.
    LayerMetric("resident.dispatch_ms", "ms", "lower", _WIRE),
    LayerMetric("resident.collect_wait_ms", "ms", "lower", _WIRE),
    LayerMetric("resident.swap_ms", "ms", "lower", _WIRE),
    LayerMetric("resident.mirror_ms", "ms", "lower", _WIRE),
    LayerMetric("resident.generate_ms", "ms", "lower", _WIRE),
    LayerMetric("resident.transfer_ms", "ms", "lower", _WIRE),
    LayerMetric("resident.pool_overhead_ms", "ms", "lower", "step_ms_p50 @ mdgan_cnn_pool_pipe"),
    LayerMetric("resident.bytes_sent_per_step", "bytes", "lower", _WIRE),
    LayerMetric("resident.bytes_received_per_step", "bytes", "lower", _WIRE),
    LayerMetric("resident.bytes.run", "bytes", "lower", _WIRE),
    LayerMetric("resident.bytes.pull_params", "bytes", "lower", _WIRE),
    LayerMetric("resident.bytes.push_params", "bytes", "lower", _WIRE),
    LayerMetric("resident.bytes.generate", "bytes", "lower", _WIRE),
    LayerMetric("resident.bytes.pull_mirror", "bytes", "lower", _WIRE),
    LayerMetric("resident.install_count", "count", "lower", _INSTALL),
    LayerMetric("resident.param_bytes_per_step", "bytes", "lower", _WIRE),
    LayerMetric("resident.shm_bytes", "bytes", "lower", _INSTALL),
    # transport — the concrete channels.
    LayerMetric("transport.send_ms", "ms", "lower", _CHANNEL),
    LayerMetric("transport.recv_ms", "ms", "lower", _CHANNEL),
    LayerMetric("transport.poll_wait_ms", "ms", "lower", _CHANNEL),
    LayerMetric("transport.frames_per_step", "count", "lower", _CHANNEL),
    LayerMetric("transport.bytes_per_frame", "bytes", "lower", _CHANNEL),
    # engine — the schedule.
    LayerMetric(
        "engine.barrier_wait_ms",
        "ms",
        "lower",
        "step_ms_p90 @ mdgan_cnn_pool_pipe; " + _ENGINE,
    ),
    LayerMetric("engine.lookahead_hit_rate", "fraction", "higher", _ENGINE),
    LayerMetric("engine.mean_staleness", "count", "lower", _ENGINE),
    LayerMetric("engine.max_staleness", "count", "lower", _ENGINE),
    LayerMetric("engine.max_in_flight", "count", "higher", _ENGINE),
    LayerMetric("engine.train_call_overhead_ms", "ms", "lower", _ENGINE),
    # mdgan — the server role.
    LayerMetric("mdgan.generate_ms", "ms", "lower", _SERVER),
    LayerMetric("mdgan.aggregate_ms", "ms", "lower", _SERVER),
    LayerMetric("mdgan.server_self_ms", "ms", "lower", _SERVER),
    LayerMetric("mdgan.swap_share", "fraction", "lower", _SWAP),
    LayerMetric("mdgan.swap_extra_ms", "ms", "lower", _SWAP),
    # serving — the request path.
    LayerMetric("serving.latency_p50_ms", "ms", "lower", _SERVING),
    LayerMetric("serving.latency_p95_ms", "ms", "lower", _SERVING),
    LayerMetric("serving.latency_p99_ms", "ms", "lower", _SERVING),
    LayerMetric("serving.mean_coalesce", "count", "higher", _SERVING),
    LayerMetric("serving.dispatches_per_request", "count", "lower", _SERVING),
    LayerMetric("serving.samples_per_s", "1/s", "higher", _SERVING),
    LayerMetric("serving.failures", "count", "lower", _SERVING),
    LayerMetric("serving.queue_wait_ms", "ms", "lower", _SERVING),
    LayerMetric("serving.serial_inline_ratio", "ratio", "higher", _SERVING),
    # Counts the issue lists end to end; the benchmark contract wants
    # end-to-end metrics that are never 0, and these are 0 on a healthy
    # serial run, so they are reported here (and as attempted/failed).
    LayerMetric("wire_bytes_per_step", "bytes", "lower", _WIRE),
    LayerMetric("fail_frac", "fraction", "lower", "any increase is a regression, on every workload"),
    # The harness itself.
    LayerMetric("cal.ms_p50", "ms", "lower", _NONE),
    LayerMetric("cal.spread", "fraction", "lower", _NONE),
    LayerMetric("trace.overhead_frac", "fraction", "lower", _NONE),
)

#: Protocol ops whose bytes get a metric of their own.
METER_OPS = ("run", "pull_params", "push_params", "generate", "pull_mirror")


def snapshot_meters(backend) -> Dict[str, float]:
    """The resident backend's public meters as one flat dict (zeros without a pool)."""
    meters: Dict[str, float] = {
        "sent": 0.0,
        "received": 0.0,
        "transfer_s": 0.0,
        "param_bytes": 0.0,
        "install_count": 0.0,
        "shm_bytes": 0.0,
    }
    meters.update({f"bytes.{op}": 0.0 for op in METER_OPS})
    if backend is None:
        return meters
    meters["sent"] = float(backend.ipc_bytes_sent)
    meters["received"] = float(backend.ipc_bytes_received)
    meters["transfer_s"] = float(sum(backend.op_transfer_seconds.values()))
    meters["param_bytes"] = float(backend.param_bytes_sent)
    meters["install_count"] = float(backend.install_count)
    meters["shm_bytes"] = float(backend.shm_bytes_sent)
    for op in METER_OPS:
        meters[f"bytes.{op}"] = float(
            backend.op_bytes_sent.get(op, 0) + backend.op_bytes_received.get(op, 0)
        )
    return meters


class _Spans:
    """Per-name span totals of one window, in calibrated ms."""

    def __init__(self, summary: Dict[str, Dict[str, float]]) -> None:
        self._summary = summary

    def total(self, *names: str) -> float:
        return sum(self._summary.get(name, {}).get("total_ms", 0.0) for name in names)

    def own(self, *names: str) -> float:
        return sum(self._summary.get(name, {}).get("self_ms", 0.0) for name in names)

    def count(self, *names: str) -> float:
        return sum(self._summary.get(name, {}).get("count", 0) for name in names)

    def own_of_layer(self, prefix: str) -> float:
        return sum(
            entry["self_ms"] for name, entry in self._summary.items() if name.startswith(prefix)
        )

    def mean(self, name: str) -> float:
        count = self.count(name)
        return self.total(name) / count if count else 0.0


def _train_call_overhead_ms(spans: Sequence[dict], blocks: Sequence[Block]) -> float:
    """Mean per ``train()`` of its wall minus the wall of its update work.

    The update work of a call runs from its first child span (the first
    dispatch) to the end of its last generator optimizer step; what is left
    is opening and draining the collector and the mirror pull.
    """
    if not blocks:
        return 0.0
    scale = statistics.fmean(block.scale for block in blocks) * 1e3
    first_child: Dict[int, float] = {}
    last_update: Dict[int, float] = {}
    for span in spans:
        parent = span["parent"]
        if parent < 0 or spans[parent]["name"] != "mdgan.train":
            continue
        first_child[parent] = min(first_child.get(parent, span["start"]), span["start"])
        if span["name"] == "nn.optim_step":
            last_update[parent] = max(last_update.get(parent, span["end"]), span["end"])
    overheads = [
        (spans[index]["end"] - spans[index]["start"]) - (last_update[index] - first_child[index])
        for index in last_update
        if blocks[0].start <= spans[index]["start"] <= blocks[-1].end
    ]
    return statistics.fmean(overheads) * scale if overheads else 0.0


def _swap_extra_ms(blocks: Sequence[Block]) -> float:
    """Mean step time of the steps that carried a SWAP, over the median of the rest."""
    marked: List[float] = []
    plain: List[float] = []
    for block in blocks:
        marks = set(block.marks)
        for index, sample in enumerate(block.samples):
            (marked if index in marks else plain).append(sample * 1e3 * block.scale)
    if not marked or not plain:
        return 0.0
    return statistics.fmean(marked) - statistics.median(plain)


def layer_metrics(
    *,
    blocks: Sequence[Block],
    plain_blocks: Sequence[Block],
    spans: Sequence[dict],
    meters_before: Dict[str, float],
    meters_after: Dict[str, float],
    context_before: Dict[str, float],
    context_after: Dict[str, float],
    reference: Optional[Block],
    readings: Sequence[float],
    serving: bool,
) -> Dict[str, float]:
    """Every per-layer metric of one traced window.

    ``blocks`` is the traced window, ``plain_blocks`` the untraced one run
    just before it in the same process (for ``trace.overhead_frac``);
    ``reference`` brackets the in-process reference run, if the workload has
    one.
    """
    steps = sum(block.work for block in blocks)
    attempted = sum(block.attempted for block in blocks)
    failed = sum(block.failed for block in blocks)
    per_step = 1.0 / steps if steps else 0.0
    window = _Spans(summarize(spans, blocks))
    inproc = _Spans(summarize(spans, [reference])) if reference is not None else _Spans({})
    mean_scale = statistics.fmean(block.scale for block in blocks) if blocks else 1.0
    delta = {key: meters_after[key] - meters_before[key] for key in meters_after}
    context = context_after
    samples = step_samples_ms(blocks)
    wall_ms = sum(block.calibrated_seconds for block in blocks) * 1e3

    values: Dict[str, float] = {metric.name: 0.0 for metric in LAYER_METRICS}

    # nn
    values["nn.conv_fwd_ms"] = window.own("nn.conv2d_forward") * per_step
    values["nn.conv_input_grad_ms"] = window.own("nn.conv2d_input_grad") * per_step
    values["nn.conv_weight_grad_ms"] = window.own("nn.conv2d_weight_grad") * per_step
    values["nn.im2col_ms"] = window.total("nn.im2col") * per_step
    values["nn.col2im_ms"] = window.total("nn.col2im") * per_step
    values["nn.optim_step_ms"] = window.total("nn.optim_step") * per_step
    values["nn.other_fwd_bwd_ms"] = window.own("nn.forward", "nn.backward") * per_step
    values["nn.conv_calls"] = (
        window.count("nn.conv2d_forward", "nn.conv2d_input_grad", "nn.conv2d_weight_grad") * per_step
    )
    values["nn.share"] = window.own_of_layer("nn.") / wall_ms if wall_ms else 0.0

    # tasks: from the window when the worker step runs in-process, else from
    # the serial reference run (same model, same shapes).
    if window.count("tasks.worker_step"):
        tasks, task_iterations = window, steps
    else:
        tasks, task_iterations = inproc, reference.work if reference is not None else 0
    values["tasks.worker_step_ms"] = tasks.mean("tasks.worker_step")
    values["tasks.disc_update_ms"] = tasks.mean("tasks.disc_update")
    values["tasks.feedback_ms"] = tasks.mean("tasks.feedback")
    if tasks.count("tasks.worker_step") and task_iterations:
        values["tasks.steps_per_iter"] = tasks.count("tasks.worker_step") / task_iterations

    # resident
    collect = window.total("resident.collect_any")
    generation = window.total("resident.start_generation")
    if serving:
        generation += window.total("resident.result")
    else:
        collect += window.total("resident.result")
    values["resident.dispatch_ms"] = window.total("resident.start_steps", "resident.dispatch") * per_step
    values["resident.collect_wait_ms"] = collect * per_step
    values["resident.swap_ms"] = window.total("resident.pull_params", "resident.push_params") * per_step
    values["resident.mirror_ms"] = window.total("resident.pull_mirror") * per_step
    values["resident.generate_ms"] = generation * per_step
    values["resident.transfer_ms"] = delta["transfer_s"] * 1e3 * mean_scale * per_step
    values["resident.bytes_sent_per_step"] = delta["sent"] * per_step
    values["resident.bytes_received_per_step"] = delta["received"] * per_step
    for op in METER_OPS:
        values[f"resident.bytes.{op}"] = delta[f"bytes.{op}"] * per_step
    values["resident.install_count"] = meters_after["install_count"]
    values["resident.param_bytes_per_step"] = delta["param_bytes"] * per_step
    values["resident.shm_bytes"] = meters_after["shm_bytes"]
    if window.count("resident.start_steps") and window.count("mdgan.train_iteration"):
        # What the pool costs beyond perfectly parallel worker compute: the
        # owner's dispatch-to-collect time minus N worker steps over S slots.
        in_pool = window.total("resident.start_steps", "resident.result") * per_step
        values["resident.pool_overhead_ms"] = (
            in_pool - values["tasks.worker_step_ms"] * NUM_WORKERS / POOL_SLOTS
        )

    # transport
    frames = window.count("transport.send", "transport.recv")
    values["transport.send_ms"] = window.total("transport.send") * per_step
    values["transport.recv_ms"] = window.total("transport.recv") * per_step
    values["transport.poll_wait_ms"] = window.total("transport.poll") * per_step
    values["transport.frames_per_step"] = frames * per_step
    values["transport.bytes_per_frame"] = (delta["sent"] + delta["received"]) / frames if frames else 0.0

    # engine
    values["engine.barrier_wait_ms"] = (
        window.total("transport.poll") + window.own("resident.collect_any")
    ) * per_step
    generations = context.get("lookahead", 0.0) + context.get("immediate", 0.0)
    if generations:
        values["engine.lookahead_hit_rate"] = context["lookahead"] / generations
    values["engine.mean_staleness"] = context.get("mean_staleness", 0.0)
    values["engine.max_staleness"] = context.get("max_staleness", 0.0)
    values["engine.max_in_flight"] = context.get("max_in_flight", 0.0)
    values["engine.train_call_overhead_ms"] = _train_call_overhead_ms(spans, blocks)

    # mdgan
    values["mdgan.generate_ms"] = window.total("mdgan.generate") * per_step
    values["mdgan.aggregate_ms"] = window.total("mdgan.aggregate") * per_step
    values["mdgan.server_self_ms"] = window.own("mdgan.train_iteration", "mdgan.train") * per_step
    swaps = context.get("swaps", 0.0) - context_before.get("swaps", 0.0)
    values["mdgan.swap_share"] = swaps * per_step
    if any(block.marks for block in blocks):
        values["mdgan.swap_extra_ms"] = _swap_extra_ms(blocks)
    elif swaps:
        values["mdgan.swap_extra_ms"] = (
            window.total("resident.pull_params", "resident.push_params") / swaps
        )

    # serving
    if serving:
        requests = context.get("requests", 0.0)
        dispatches = context.get("dispatches", 0.0)
        for name in ("latency_p50_ms", "latency_p95_ms", "latency_p99_ms"):
            values[f"serving.{name}"] = context.get(name, 0.0) * mean_scale
        values["serving.mean_coalesce"] = context.get("mean_coalesce", 0.0)
        values["serving.dispatches_per_request"] = dispatches / requests if requests else 0.0
        values["serving.samples_per_s"] = context.get("samples_per_second", 0.0) / mean_scale
        values["serving.failures"] = context.get("failures", 0.0)
        window_dispatches = window.count("resident.start_generation")
        if samples and window_dispatches:
            values["serving.queue_wait_ms"] = (
                statistics.fmean(samples) - generation / window_dispatches
            )
        rates = block_rates(blocks)
        if rates and reference is not None:
            values["serving.serial_inline_ratio"] = (
                statistics.median(rates) * reference.calibrated_seconds / reference.work
            )

    values["wire_bytes_per_step"] = (delta["sent"] + delta["received"]) * per_step
    values["fail_frac"] = failed / attempted if attempted else 1.0

    # harness
    values["cal.ms_p50"] = statistics.median(readings)
    values["cal.spread"] = percentile(readings, 90) / percentile(readings, 10) - 1.0
    plain = step_samples_ms(plain_blocks)
    if samples and plain:
        values["trace.overhead_frac"] = percentile(samples, 50) / percentile(plain, 50) - 1.0
    return values
