"""Calibrated time: wall-clock divided by an interleaved, frozen GEMM burst.

This box drifts.  It is a 2-vCPU guest whose host runs other tenants: the
same fixed matrix product takes 4 to 8 ms from one second to the next with
no steal time reported, and raw step times of identical code spread 15-25 %
between runs.  A compute probe run next to the work tracks the drift, and
the harness owns that probe — never ``repro`` code, so no change to the
program can move the yardstick.

A *burst* is ``CAL_REPEATS`` products ``A @ A`` of one fixed 256 x 256
float32 matrix.  A *reading* is the median of ``BURSTS_PER_READING`` bursts.
A timed window is cut into blocks; each block is bracketed by two readings,
``cal_ms`` is their mean, and every wall time ``t`` inside the block is
reported as ``t * (CAL_NOMINAL_MS / cal_ms) ** sensitivity`` — "the time it
would have taken while the burst takes 5 ms".  Bursts never run inside a
timed interval.

Two things per workload make the burst a fair witness (both fixed in
``perf/workloads.py``, both measured on scratch runs of this harness, 20
runs per workload over two hours of varying host load):

``probe_threads``
    The burst runs on as many threads as the workload keeps processes busy:
    one for the serial workload, two (GEMM releases the interpreter lock)
    for the two-slot pool workloads.  A single-thread burst sees one vCPU; a
    pool step waits for both.  Against the single-thread burst the pool
    step's run-to-run spread was 5.2 %, against the two-thread burst 2.3 %.
``sensitivity``
    The exponent of the workload's step time in the burst time.  The CNN
    workloads are compute-bound and follow the burst one for one (fitted
    0.98-1.02).  The MLP workloads spend most of a step in sleep-polls,
    wake-ups, sockets and pickling, which the host's load slows less than
    it slows GEMM: fitted 0.63-0.72 for ``mdgan_mlp_async_tcp`` and 0.4-0.5
    for ``serve_mlp_pool_pipe``.  Correcting them one for one over-corrects
    (spread 10.5 % and 15 %, against 3.6 % and 5.0 % with the exponent).

What calibration does not remove: interference faster than a block (about
10 % per step, averaged out over the window), and scheduling luck in the
oversubscribed serving loop.  It corrects compute-bound drift well and
fork/syscall-heavy time only partly, which is why ``setup_s`` contains a
warm-up.  A change that moves a workload from latency-bound to
compute-bound makes its ``sensitivity`` stale: the metric then gets noisier,
not biased, and the exponent should be re-fitted in a benchmark-only change.
"""

from __future__ import annotations

import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

__all__ = [
    "CAL_NOMINAL_MS",
    "Calibrator",
    "Block",
    "calibrated",
    "percentile",
    "run_bracketed",
    "run_window",
    "step_samples_ms",
    "round_percentiles",
    "block_rates",
]

#: A burst that takes this long means "scale factor 1".
CAL_NOMINAL_MS = 5.0
CAL_SIZE = 256
CAL_REPEATS = 20
CAL_SEED = 20190520
BURSTS_PER_READING = 3


def calibrated(wall: float, cal_ms: float, sensitivity: float = 1.0) -> float:
    """Wall time rescaled to what it would be while a burst takes the nominal time."""
    return wall * (CAL_NOMINAL_MS / cal_ms) ** sensitivity


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q % at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Calibrator:
    """Owns the frozen burst and remembers every reading it took.

    ``threads`` bursts run concurrently (GEMM releases the interpreter lock)
    and a burst's value is their mean time; ``sensitivity`` is the exponent
    of the workload's response to the burst (see the module docstring).
    """

    def __init__(self, threads: int = 1, sensitivity: float = 1.0) -> None:
        rng = np.random.default_rng(CAL_SEED)
        a = rng.standard_normal((CAL_SIZE, CAL_SIZE)).astype(np.float32)
        self._buffers = [(a.copy(), np.empty_like(a)) for _ in range(threads)]
        self._pool = ThreadPoolExecutor(threads, "calibrate") if threads > 1 else None
        self.sensitivity = sensitivity
        self.readings: List[float] = []
        # First touches page in the BLAS kernels, the buffers and the threads.
        self.burst()

    @staticmethod
    def _products(buffers) -> float:
        a, out = buffers
        started = time.perf_counter()
        for _ in range(CAL_REPEATS):
            np.matmul(a, a, out=out)
        return (time.perf_counter() - started) * 1e3

    def burst(self) -> float:
        """One burst, in milliseconds."""
        if self._pool is None:
            return self._products(self._buffers[0])
        return statistics.fmean(self._pool.map(self._products, self._buffers))

    def reading(self) -> float:
        """Median of a few bursts, in milliseconds; kept for ``cal.*`` metrics."""
        value = statistics.median(self.burst() for _ in range(BURSTS_PER_READING))
        self.readings.append(value)
        return value

    def scale(self, cal_ms: float) -> float:
        """Factor turning wall time measured at ``cal_ms`` into calibrated time."""
        return calibrated(1.0, cal_ms, self.sensitivity)

    def close(self) -> None:
        """Stop the burst threads."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)


@dataclass
class Block:
    """One timed block: its wall interval, its calibration, and what ran in it."""

    start: float
    end: float
    #: Mean of the readings on either side of the block, and the factor that
    #: turns the block's wall times into calibrated times.
    cal_ms: float = 0.0
    scale: float = 1.0
    #: Wall seconds of each step sample taken in the block.
    samples: List[float] = field(default_factory=list)
    #: Indices into ``samples`` of the steps that carried a SWAP.
    marks: List[int] = field(default_factory=list)
    #: Units of work the block completed (updates or requests).
    work: int = 0
    attempted: int = 0
    failed: int = 0

    @property
    def seconds(self) -> float:
        """Raw wall seconds the block took."""
        return self.end - self.start

    @property
    def calibrated_seconds(self) -> float:
        """Calibrated seconds the block took."""
        return self.seconds * self.scale

    def finish(self, calibrator: Calibrator, before: float, after: float) -> None:
        """Calibrate the block by the readings on either side of it."""
        self.cal_ms = (before + after) / 2.0
        self.scale = calibrator.scale(self.cal_ms)


def run_bracketed(calibrator: Calibrator, fn: Callable[[], object], work: int = 0) -> Block:
    """Run ``fn`` once as a block of its own, bracketed by its own two readings."""
    before = calibrator.reading()
    block = Block(start=time.perf_counter(), end=0.0, work=work, attempted=work)
    fn()
    block.end = time.perf_counter()
    block.finish(calibrator, before, calibrator.reading())
    return block


def run_window(
    calibrator: Calibrator,
    run_block: Callable[[Block], None],
    seconds: float,
    blocks_per_round: int = 1,
) -> List[Block]:
    """Run blocks until ``seconds`` of wall time are used up; return them.

    ``run_block`` fills in the block's samples and counts.  The window only
    ends on a multiple of ``blocks_per_round`` blocks, so periodic work (a
    SWAP every 25 iterations) is counted in whole periods.  A block that
    attempted nothing ends the window: the workload cannot continue.
    """
    deadline = time.perf_counter() + seconds
    blocks: List[Block] = []
    before = calibrator.reading()
    while True:
        block = Block(start=time.perf_counter(), end=0.0)
        run_block(block)
        block.end = time.perf_counter()
        after = calibrator.reading()
        block.finish(calibrator, before, after)
        before = after
        blocks.append(block)
        if block.attempted == 0 or block.failed == block.attempted:
            return blocks
        if len(blocks) % blocks_per_round == 0 and time.perf_counter() >= deadline:
            return blocks


def step_samples_ms(blocks: Sequence[Block], calibrate: bool = True) -> List[float]:
    """Every step sample of the window in milliseconds (calibrated by default)."""
    return [
        sample * 1e3 * (block.scale if calibrate else 1.0)
        for block in blocks
        for sample in block.samples
    ]


def round_percentiles(
    blocks: Sequence[Block], blocks_per_round: int, q: float, calibrate: bool = True
) -> List[float]:
    """The q-th percentile of the step samples of each whole round of blocks.

    A tail taken over the whole window moves with every burst of
    interference from the box's other tenants; the median of per-round
    tails does not, for the reason the rate is a block median.
    """
    rounds = [
        step_samples_ms(blocks[start : start + blocks_per_round], calibrate)
        for start in range(0, len(blocks) - blocks_per_round + 1, blocks_per_round)
    ]
    return [percentile(samples, q) for samples in rounds if samples]


def block_rates(blocks: Sequence[Block], calibrate: bool = True) -> List[float]:
    """Work per (calibrated) second of each block that completed any."""
    return [
        block.work / (block.calibrated_seconds if calibrate else block.seconds)
        for block in blocks
        if block.work
    ]
