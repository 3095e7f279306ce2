"""Span wrappers rebound around the program's public callables (traced pass only).

``repro`` has no telemetry of its own yet (ROADMAP item 4), so the per-layer
numbers come from outside: for the traced pass the harness rebinds a timing
wrapper around each callable in :data:`TARGETS`, in the owner process, after
the pool has forked — slot processes never see a wrapper.  Each call records
one span (name, start, end, parent).  A span's *self time* is its duration
minus the durations of its direct children, so the self times of a call tree
add up to the duration of its root.  Spans stay in memory and are dumped when
the run ends.

Every target is named by the module that *binds* the name at call time
(``from x import f`` makes a second binding), because that binding is what
the caller looks up.  :func:`resolve` fails loudly on a rename, and
``perf/test_harness.py`` resolves every target on the current tree.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["Target", "TARGETS", "Tracer", "resolve", "self_times", "summarize"]


@dataclass(frozen=True)
class Target:
    """One callable to wrap: the span it emits and where its name is bound."""

    span: str
    module: str
    attr: str


TARGETS: Tuple[Target, ...] = (
    # nn — the kernel layer.  conv2d_* as the conv layers call them; im2col
    # and col2im as the conv2d_* functions call them.
    Target("nn.conv2d_forward", "repro.nn.conv", "conv2d_forward"),
    Target("nn.conv2d_input_grad", "repro.nn.conv", "conv2d_input_grad"),
    Target("nn.conv2d_weight_grad", "repro.nn.conv", "conv2d_weight_grad"),
    Target("nn.im2col", "repro.nn.tensor_ops", "im2col"),
    Target("nn.col2im", "repro.nn.tensor_ops", "col2im"),
    Target("nn.forward", "repro.nn.model", "Sequential.forward"),
    Target("nn.backward", "repro.nn.model", "Sequential.backward"),
    Target("nn.optim_step", "repro.nn.optim", "Optimizer.step"),
    # tasks — one worker's share of an iteration (in-process backends only;
    # inside slot processes this time is invisible from the owner).
    Target("tasks.worker_step", "repro.core.mdgan", "run_mdgan_worker_task"),
    Target("tasks.disc_update", "repro.runtime.tasks", "discriminator_update"),
    Target("tasks.feedback", "repro.runtime.tasks", "generator_feedback"),
    # resident — the pool protocol, owner side.
    Target("resident.start_steps", "repro.runtime.resident", "ResidentBackend.start_steps"),
    Target("resident.result", "repro.runtime.resident", "PendingSteps.result"),
    Target("resident.dispatch", "repro.runtime.resident", "ResidentCollector.dispatch"),
    Target("resident.collect_any", "repro.runtime.resident", "ResidentCollector.collect_any"),
    Target("resident.pull_params", "repro.runtime.resident", "ResidentBackend.pull_params"),
    Target("resident.push_params", "repro.runtime.resident", "ResidentBackend.push_params"),
    Target("resident.pull_mirror", "repro.runtime.resident", "ResidentBackend.pull_mirror"),
    Target(
        "resident.start_generation", "repro.runtime.resident", "ResidentBackend.start_generation"
    ),
    # transport — the concrete channels: the pipe transport hands out raw
    # multiprocessing Connections, tcp its own framed channel.
    Target("transport.send", "multiprocessing.connection", "Connection.send_bytes"),
    Target("transport.recv", "multiprocessing.connection", "Connection.recv_bytes"),
    Target("transport.poll", "multiprocessing.connection", "Connection.poll"),
    Target("transport.send", "repro.runtime.transport.tcp", "TcpChannel.send_bytes"),
    Target("transport.recv", "repro.runtime.transport.tcp", "TcpChannel.recv_bytes"),
    Target("transport.poll", "repro.runtime.transport.tcp", "TcpChannel.poll"),
    # mdgan — the server role.
    Target("mdgan.train_iteration", "repro.core.mdgan", "MDGANTrainer.train_iteration"),
    Target("mdgan.train", "repro.core.mdgan", "MDGANTrainer.train"),
    Target("mdgan.generate", "repro.core.mdgan", "sample_generator_images"),
    Target("mdgan.aggregate", "repro.core.mdgan", "apply_feedback_to_generator"),
    # serving — the request path.
    Target("serving.serve", "repro.serving.service", "GeneratorService.serve"),
    Target("serving.submit", "repro.serving.service", "GeneratorService.submit"),
    Target("serving.result", "repro.serving.service", "PendingSamples.result"),
)


def resolve(target: Target) -> Tuple[object, str, Callable]:
    """Find ``(holder, attribute, callable)`` for a target, or raise.

    A renamed or removed callable raises ``ImportError``/``AttributeError``
    here instead of silently reporting zero time for its layer.
    """
    holder: object = importlib.import_module(target.module)
    *path, leaf = target.attr.split(".")
    for part in path:
        holder = getattr(holder, part)
    func = getattr(holder, leaf)
    if not callable(func):
        raise TypeError(f"{target.module}.{target.attr} is not callable")
    return holder, leaf, func


class Tracer:
    """Records spans from wrapped callables, one record list per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(thread name, records)``; a record is ``[name, start, end, parent]``
        #: with ``parent`` an index into the same list (-1 for a root).
        self._threads: List[Tuple[str, List[list]]] = []
        self._restore: List[Tuple[object, str, bool, object]] = []

    def _thread_state(self) -> Tuple[List[list], List[int]]:
        records: List[list] = []
        stack: List[int] = []
        self._local.state = (records, stack)
        with self._lock:
            self._threads.append((threading.current_thread().name, records))
        return records, stack

    def wrap(self, name: str, func: Callable) -> Callable:
        """Return ``func`` wrapped to record one span per call."""
        local = self._local
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = getattr(local, "state", None)
            records, stack = state if state is not None else self._thread_state()
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(records))
            records.append(record)
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        """Rebind every target to its wrapper (undone by :meth:`uninstall`)."""
        for target in targets:
            holder, leaf, func = resolve(target)
            own = leaf in vars(holder)
            self._restore.append((holder, leaf, own, vars(holder).get(leaf)))
            setattr(holder, leaf, self.wrap(target.span, func))

    def uninstall(self) -> None:
        """Put every rebound name back exactly as it was."""
        while self._restore:
            holder, leaf, own, original = self._restore.pop()
            if own:
                setattr(holder, leaf, original)
            else:
                delattr(holder, leaf)

    def spans(self) -> List[dict]:
        """Every finished span, parents as indices into the returned list."""
        out: List[dict] = []
        with self._lock:
            threads = list(self._threads)
        for thread_name, records in threads:
            base = len(out)
            for name, start, end, parent in list(records):
                out.append(
                    {
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": base + parent if parent >= 0 else -1,
                        "thread": thread_name,
                    }
                )
        return out


def self_times(spans: Sequence[dict]) -> List[float]:
    """Self time of each span: its duration minus its direct children's durations."""
    result = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] >= 0:
            result[span["parent"]] -= span["end"] - span["start"]
    return result


def summarize(spans: Sequence[dict], blocks: Sequence) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total and self time in calibrated milliseconds.

    Only spans that start inside a timed block count, each scaled by its own
    block's calibration; ``blocks`` are :class:`perf.calibrate.Block` in
    time order.  Unfinished spans (end 0) are skipped.
    """
    starts = [block.start for block in blocks]
    selfs = self_times(spans)
    summary: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, selfs):
        if span["end"] < span["start"]:
            continue
        index = bisect.bisect_right(starts, span["start"]) - 1
        if index < 0 or span["start"] > blocks[index].end:
            continue
        scale = blocks[index].scale * 1e3
        entry = summary.setdefault(span["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += (span["end"] - span["start"]) * scale
        entry["self_ms"] += own * scale
    return summary
