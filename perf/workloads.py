"""The four benchmark workloads: what is set up, what one block runs, what is checked.

All four share one input (a seeded synthetic MNIST-like set, four i.i.d.
shards of 2 MB so shared-memory installs engage) and one configuration
(batch 16, k = 4 generated batches, one discriminator step, a SWAP every 25
iterations, float32, two pool slots = this box's core count).  The program
receives only these generated inputs; the seed is the harness's argument.

Why these four — each is the bypass workload for the others' mechanisms:

``mdgan_cnn_serial``
    The single-process anchor.  Conv kernels plus the worker step are about
    all of its time; protocol, transport and schedule do nothing.  Kernel
    work must show here and wire work must not.
``mdgan_cnn_pool_pipe``
    The same arithmetic, bitwise, over two slot processes: the owner's time
    is dispatch, barrier wait, collect, server update and SWAP.  Kernel gains
    show scaled by the parallel share; pool, shm and barrier changes show
    only here.
``mdgan_mlp_async_tcp``
    Compute is small; pickle frames, the per-``train()`` mirror pull, SWAP
    vectors, sleep-polling and the staleness gate are most of a step.  Codec,
    polling and engine changes show here and kernel changes barely do.
``serve_mlp_pool_pipe``
    The same pool, protocol and pipe the other way round: many small
    latency-bound request/replies from two closed-loop clients instead of
    bulk-synchronous steps.  A wire change that helps training steps but
    hurts small-request latency shows as a disagreement with workloads 2-3.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import TrainingConfig
from repro.core.mdgan import MDGANTrainer
from repro.datasets.partition import partition_iid
from repro.datasets.synthetic import make_mnist_like
from repro.models.registry import build_architecture
from repro.serving import GeneratorService

from .calibrate import Block, Calibrator, run_bracketed

__all__ = ["Scale", "FULL", "QUICK", "Inputs", "make_inputs", "WORKLOADS", "Workload"]

NUM_WORKERS = 4
POOL_SLOTS = 2
BATCH_SIZE = 16
NUM_CLIENTS = 2
MAX_STALENESS = 2

#: What a step raises when the pool, the service or a wait fails; anything
#: else is a harness bug and propagates.
STEP_FAILURES = (RuntimeError, OSError, TimeoutError)


@dataclass(frozen=True)
class Scale:
    """Sizes of one run.  ``QUICK`` exists for the harness's own tests only."""

    n_train: int
    #: Cold set-ups per run; ``setup_s`` is their median.
    setups: int
    #: ``train_iteration`` warm-up calls inside a set-up (workloads 1-2).
    warmup_iterations: int
    #: ``train_iteration`` calls per block (workloads 1-2).
    block_iterations: int
    #: Iterations between SWAPs; the CNN windows run whole periods.
    swap_period: int
    #: ``train()`` chunks per round (workload 3): one step sample per chunk.
    chunks_per_round: int
    #: Generator updates per ``train()`` chunk (workload 3).  Longer than the
    #: swap period so the SWAP due at update 25 falls inside every chunk: a
    #: 20-update chunk never reaches it and would measure no SWAP at all.
    chunk_updates: int
    #: Requests per client per block, and warm-up requests (workload 4).
    block_requests: int
    warm_requests: int
    #: Timed iterations whose losses are compared bitwise with serial.
    parity_iterations: int
    #: Served batches compared bitwise with a serial-inline service.
    parity_batches: int
    #: Serial-inline requests behind ``serving.serial_inline_ratio``.
    inline_requests: int


FULL = Scale(
    n_train=8192,
    setups=5,
    warmup_iterations=10,
    block_iterations=5,
    swap_period=25,
    chunks_per_round=10,
    chunk_updates=30,
    block_requests=100,
    warm_requests=200,
    parity_iterations=30,
    parity_batches=64,
    inline_requests=1000,
)

QUICK = Scale(
    n_train=512,
    setups=1,
    warmup_iterations=1,
    block_iterations=2,
    swap_period=2,
    chunks_per_round=1,
    chunk_updates=6,
    block_requests=5,
    warm_requests=4,
    parity_iterations=2,
    parity_batches=2,
    inline_requests=8,
)


@dataclass
class Inputs:
    """Everything generated from the seed, before any set-up is timed."""

    seed: int
    scale: Scale
    train: object


def make_inputs(seed: int, scale: Scale) -> Inputs:
    """Synthesize the dataset (input generation: excluded from ``setup_s``)."""
    train, _ = make_mnist_like(n_train=scale.n_train, n_test=160, image_size=16, seed=seed)
    return Inputs(seed=seed, scale=scale, train=train)


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _swaps(history) -> int:
    return len(history.events_of_kind("swap"))


class Workload:
    """One workload: cold set-up, timed blocks, correctness checks."""

    name = ""
    #: ``"mnist-cnn"`` or ``"mnist-mlp"``.
    architecture = ""
    backend = "serial"
    transport: Optional[str] = None
    #: Blocks per round: the window ends on a whole round, and the tail
    #: metric is the median of per-round tails, so a round holds at least 10
    #: step samples.
    blocks_per_round = 1
    #: How the calibration burst is run and applied for this workload (see
    #: ``perf/calibrate.py``): as many concurrent bursts as the workload
    #: keeps processes busy, and the measured exponent of its response.
    probe_threads = 1
    sensitivity = 1.0

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.scale = inputs.scale

    # -- construction ------------------------------------------------------------
    def factory(self):
        """The GAN architecture this workload trains or serves."""
        train = self.inputs.train
        options = dict(image_shape=train.spec.shape, num_classes=train.num_classes)
        if self.architecture == "mnist-cnn":
            options.update(width_factor=0.25, use_minibatch_discrimination=False)
        return build_architecture(self.architecture, **options)

    def config(self, **overrides) -> TrainingConfig:
        """The common configuration plus this workload's backend and schedule."""
        shard_size = self.scale.n_train // NUM_WORKERS
        options = dict(
            iterations=self.scale.chunk_updates,
            batch_size=BATCH_SIZE,
            num_batches=4,
            disc_steps=1,
            epochs_per_swap=self.scale.swap_period * BATCH_SIZE / shard_size,
            precision="float32",
            seed=self.inputs.seed,
            backend=self.backend,
            transport=self.transport,
            max_workers=POOL_SLOTS,
        )
        options.update(overrides)
        return TrainingConfig(**options)

    def shards(self):
        """The i.i.d. partition over the workers (part of every set-up)."""
        rng = np.random.default_rng(self.inputs.seed)
        return partition_iid(self.inputs.train, NUM_WORKERS, rng)

    # -- the benchmark's view ----------------------------------------------------
    def setup(self) -> None:
        """Cold set-up: build, open the pool, install, warm up."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Close the pool of the current instance (no state is reclaimed)."""
        raise NotImplementedError

    def run_block(self, block: Block) -> None:
        """Run one timed block, filling in its samples and counts."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what outlives the set-ups (after the last teardown)."""

    def owner(self):
        """The live ``BackendOwner`` (trainer or service) of the current instance."""
        raise NotImplementedError

    def resident(self):
        """The live resident backend whose meters are read, or ``None``."""
        backend = self.owner().executor
        return backend if getattr(backend, "supports_resident", False) else None

    def verify(self, calibrator: Calibrator, traced: bool) -> Tuple[List[str], Optional[Block]]:
        """Check the outputs; return the problems found and a reference block.

        The reference block brackets the in-process reference computation a
        check needs anyway (the serial run for pool parity, the serial-inline
        service for served-batch parity).  Under tracing it is where
        worker-side time, invisible inside slot processes, is read from.
        """
        raise NotImplementedError

    def context(self) -> Dict[str, float]:
        """Values the layer metrics read from the program's public meters."""
        return {}


class TrainIterations(Workload):
    """MD-GAN on the CNN, driven one ``train_iteration`` at a time (workloads 1-2)."""

    architecture = "mnist-cnn"

    def __init__(self, inputs: Inputs) -> None:
        super().__init__(inputs)
        self.blocks_per_round = max(1, self.scale.swap_period // self.scale.block_iterations)
        self.trainer: Optional[MDGANTrainer] = None
        self.iteration = 0
        #: Warm-up loss records of every cold set-up; all must be equal.
        self.warm_records: List[Tuple[List[float], List[float]]] = []

    def _build(self, **overrides) -> MDGANTrainer:
        return MDGANTrainer(self.factory(), self.shards(), self.config(**overrides))

    def _losses(self, trainer: MDGANTrainer, count: int) -> Tuple[List[float], List[float]]:
        history = trainer.history
        return history.generator_loss[:count], history.discriminator_loss[:count]

    def setup(self) -> None:
        self.trainer = self._build()
        self.iteration = 0
        for _ in range(self.scale.warmup_iterations):
            self.iteration += 1
            self.trainer.train_iteration(self.iteration)
        self.warm_records.append(self._losses(self.trainer, self.iteration))

    def teardown(self) -> None:
        self.trainer.close_backend()

    def owner(self):
        return self.trainer

    def run_block(self, block: Block) -> None:
        trainer = self.trainer
        history = trainer.history
        for _ in range(self.scale.block_iterations):
            block.attempted += 1
            swaps = _swaps(history)
            started = time.perf_counter()
            try:
                trainer.train_iteration(self.iteration + 1)
            except STEP_FAILURES:
                block.failed += 1
                break
            wall = time.perf_counter() - started
            self.iteration += 1
            losses = history.generator_loss[-1:] + history.discriminator_loss[-1:]
            if len(history.generator_loss) == self.iteration and _all_finite(losses):
                if _swaps(history) > swaps:
                    block.marks.append(len(block.samples))
                block.samples.append(wall)
                block.work += 1
            else:
                block.failed += 1

    def verify(self, calibrator: Calibrator, traced: bool) -> Tuple[List[str], Optional[Block]]:
        problems: List[str] = []
        if any(record != self.warm_records[0] for record in self.warm_records[1:]):
            problems.append("warm-up losses differ between cold set-ups of the same seed")
        history = self.trainer.history
        if not _all_finite(history.generator_loss + history.discriminator_loss):
            problems.append("non-finite loss")
        if self.backend == "serial":
            return problems, None
        # The repo's parity contract: the pool reproduces serial bitwise.
        count = min(self.scale.warmup_iterations + self.scale.parity_iterations, self.iteration)
        reference = self._build(backend="serial", transport=None)

        def run_reference() -> None:
            for iteration in range(1, count + 1):
                reference.train_iteration(iteration)

        block = run_bracketed(calibrator, run_reference, count)
        if self._losses(reference, count) != self._losses(self.trainer, count):
            problems.append(f"losses of the first {count} iterations differ from serial")
        return problems, block

    def context(self) -> Dict[str, float]:
        return {"swaps": float(_swaps(self.trainer.history))}


class SerialCNN(TrainIterations):
    """Workload 1."""

    name = "mdgan_cnn_serial"
    backend = "serial"


class PoolPipeCNN(TrainIterations):
    """Workload 2."""

    name = "mdgan_cnn_pool_pipe"
    backend = "resident"
    transport = "pipe"
    probe_threads = POOL_SLOTS


class AsyncChunks(Workload):
    """Workload 3: bounded-staleness async MD-GAN on the MLP over loopback tcp."""

    name = "mdgan_mlp_async_tcp"
    architecture = "mnist-mlp"
    backend = "resident"
    transport = "tcp"
    probe_threads = POOL_SLOTS
    sensitivity = 0.65

    def __init__(self, inputs: Inputs) -> None:
        super().__init__(inputs)
        self.blocks_per_round = self.scale.chunks_per_round
        self.trainer: Optional[MDGANTrainer] = None
        self.lookahead = 0.0
        self.immediate = 0.0
        self.max_in_flight = 0.0

    def setup(self) -> None:
        # transport_address stays None: the tcp transport binds an ephemeral
        # loopback port and spawns its own two workers.
        self.trainer = MDGANTrainer(
            self.factory(),
            self.shards(),
            self.config(aggregation="async", max_staleness=MAX_STALENESS, pipeline_depth=1),
        )
        self.trainer.train()

    def teardown(self) -> None:
        self.trainer.close_backend()

    def owner(self):
        return self.trainer

    def run_block(self, block: Block) -> None:
        trainer = self.trainer
        updates = self.scale.chunk_updates
        before = len(trainer.history.generator_loss)
        block.attempted += 1
        started = time.perf_counter()
        try:
            history = trainer.train()
        except STEP_FAILURES:
            block.failed += 1
            return
        wall = time.perf_counter() - started
        new_losses = history.generator_loss[before:] + history.discriminator_loss[before:]
        if len(new_losses) != 2 * updates or not _all_finite(new_losses):
            block.failed += 1
            return
        block.samples.append(wall / updates)
        block.work += updates
        overlap = history.overlap
        self.lookahead += overlap.get("lookahead_generations", 0.0)
        self.immediate += overlap.get("immediate_generations", 0.0)
        self.max_in_flight = max(self.max_in_flight, overlap.get("max_in_flight", 0.0))

    def verify(self, calibrator: Calibrator, traced: bool) -> Tuple[List[str], Optional[Block]]:
        problems: List[str] = []
        history = self.trainer.history
        if not _all_finite(history.generator_loss + history.discriminator_loss):
            problems.append("non-finite loss")
        if history.max_worker_staleness() > MAX_STALENESS:
            problems.append(f"worker staleness exceeds the bound {MAX_STALENESS}")
        if not history.overlap.get("lookahead_generations", 0.0) > 0:
            problems.append("the pipelined lookahead never generated a batch set")
        return problems, None

    def context(self) -> Dict[str, float]:
        history = self.trainer.history
        ages = [age for series in history.worker_staleness.values() for age in series]
        return {
            "swaps": float(_swaps(history)),
            "lookahead": self.lookahead,
            "immediate": self.immediate,
            "max_in_flight": self.max_in_flight,
            "mean_staleness": float(np.mean(ages)) if ages else 0.0,
            "max_staleness": float(history.max_worker_staleness()),
        }


class ServeRequests(Workload):
    """Workload 4: ``GeneratorService`` under two closed-loop clients.

    Closed loop because the service's callers wait for their samples: each
    client issues ``serve(seed=...)`` back to back, so a slower service
    receives less load.
    """

    name = "serve_mlp_pool_pipe"
    architecture = "mnist-mlp"
    backend = "resident"
    transport = "pipe"
    probe_threads = POOL_SLOTS
    sensitivity = 0.5

    def __init__(self, inputs: Inputs) -> None:
        super().__init__(inputs)
        # The load generator is the harness's, not the system's: it outlives
        # every set-up.
        self.clients = ThreadPoolExecutor(max_workers=NUM_CLIENTS, thread_name_prefix="client")
        self.service: Optional[GeneratorService] = None
        self.issued = [0] * NUM_CLIENTS
        #: ``(seed, images)`` of the first requests client 0 was served.
        self.served: List[Tuple[int, np.ndarray]] = []

    def _service(self, **overrides) -> GeneratorService:
        config = self.config(**overrides)
        factory = self.factory()
        rng = np.random.default_rng(self.inputs.seed)
        generator = factory.make_generator(rng, dtype=config.dtype)
        return GeneratorService(generator, factory, config)

    def setup(self) -> None:
        self.service = self._service()
        self.service.warmup()
        for index in range(self.scale.warm_requests):
            self.service.serve(seed=index)
        self.issued = [0] * NUM_CLIENTS
        self.served = []

    def teardown(self) -> None:
        self.service.close()

    def close(self) -> None:
        """Stop the client threads (after the last teardown)."""
        self.clients.shutdown(wait=True)

    def owner(self):
        return self.service

    @staticmethod
    def _seed(client: int, index: int) -> int:
        return 1_000_000 * (client + 1) + index

    def _client(self, service: GeneratorService, client: int, count: int, keep: bool):
        """Issue ``count`` requests back to back; return latencies and failures."""
        latencies: List[float] = []
        failed = 0
        expected = (BATCH_SIZE,) + tuple(self.inputs.train.spec.shape)
        for _ in range(count):
            seed = self._seed(client, self.issued[client])
            self.issued[client] += 1
            started = time.perf_counter()
            try:
                batch = service.serve(seed=seed, timeout=30.0)
            except STEP_FAILURES:
                failed += 1
                continue
            wall = time.perf_counter() - started
            if batch.images.shape != expected or not np.isfinite(batch.images).all():
                failed += 1
                continue
            latencies.append(wall)
            if keep and len(self.served) < self.scale.parity_batches:
                self.served.append((seed, batch.images))
        return latencies, failed

    def _run_clients(self, service: GeneratorService, count: int, keep: bool):
        futures = [
            self.clients.submit(self._client, service, client, count, keep and client == 0)
            for client in range(NUM_CLIENTS)
        ]
        return [future.result() for future in futures]

    def run_block(self, block: Block) -> None:
        count = self.scale.block_requests
        block.attempted += NUM_CLIENTS * count
        for latencies, failed in self._run_clients(self.service, count, keep=True):
            block.samples.extend(latencies)
            block.work += len(latencies)
            block.failed += failed

    def verify(self, calibrator: Calibrator, traced: bool) -> Tuple[List[str], Optional[Block]]:
        problems: List[str] = []
        if self.service.stats.failures:
            problems.append(f"ServingStats counts {self.service.stats.failures} failures")
        inline = self._service(backend="serial", transport=None)
        try:
            for seed, images in self.served:
                if not np.array_equal(inline.serve(seed=seed).images, images):
                    problems.append(f"served batch of seed {seed} differs from serial-inline")
                    break
            block = None
            if traced:
                # The same closed loop on the serial-inline service: the
                # no-pool, no-IPC anchor the pool's throughput is reported
                # next to.
                per_client = max(1, self.scale.inline_requests // NUM_CLIENTS)
                block = run_bracketed(
                    calibrator,
                    lambda: self._run_clients(inline, per_client, keep=False),
                    NUM_CLIENTS * per_client,
                )
        finally:
            inline.close()
        if len(self.served) < min(self.scale.parity_batches, self.issued[0]):
            problems.append("fewer served batches were kept than were requested")
        return problems, block

    def context(self) -> Dict[str, float]:
        return dict(self.service.stats.summary())


WORKLOADS = {
    workload.name: workload for workload in (SerialCNN, PoolPipeCNN, AsyncChunks, ServeRequests)
}
