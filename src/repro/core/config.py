"""Configuration objects for the three training algorithms.

The configuration mirrors the notation of the paper's Table I:

=============  =====================================================
``batch_size``    ``b`` — batch size
``iterations``    ``I`` — number of global training iterations
``disc_steps``    ``L`` — discriminator learning steps per iteration
``epochs_per_swap``  ``E`` — local epochs between discriminator swaps
                    (MD-GAN) or between federated rounds (FL-GAN)
``num_batches``   ``k`` — number of generated batches per iteration
                    (MD-GAN only; ``None`` means ``max(1, floor(log N))``)
=============  =====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = ["OptimizerConfig", "TrainingConfig", "paper_num_batches", "resolve_num_batches"]


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam settings for one network (generator or discriminator).

    The paper's CelebA experiment tunes the Adam hyper-parameters separately
    per competitor and per network, hence a dedicated config object.
    """

    learning_rate: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1/beta2 must lie in [0, 1)")

    def build(self):
        """Instantiate the corresponding :class:`repro.nn.Adam` optimizer."""
        from ..nn.optim import Adam

        return Adam(
            learning_rate=self.learning_rate,
            beta1=self.beta1,
            beta2=self.beta2,
            eps=self.eps,
        )


@dataclass(frozen=True)
class TrainingConfig:
    """Shared configuration for standalone, FL-GAN and MD-GAN training."""

    iterations: int = 1000
    batch_size: int = 10
    disc_steps: int = 1
    epochs_per_swap: float = 1.0
    num_batches: Optional[int] = None
    generator_opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    discriminator_opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    non_saturating: bool = True
    label_smoothing: float = 1.0
    seed: int = 0
    eval_every: int = 0
    eval_sample_size: int = 500
    #: Fraction of workers participating in each MD-GAN iteration
    #: (Section VII-4 extension; 1.0 reproduces the paper's algorithm).
    participation_fraction: float = 1.0
    #: Floating-point policy for models/optimizers: ``"float32"`` (fast path,
    #: matches the 32-bit wire format), ``"float64"`` (numerics opt-in), or
    #: ``None`` to follow the process-wide default from
    #: :mod:`repro.nn.precision`.
    precision: Optional[str] = None
    #: Execution backend for the per-worker phase of each global iteration:
    #: one resident protocol (a persistent pool holding worker state across
    #: iterations) whose slots are ``"serial"`` (reference: one inline slot
    #: whose residents are the workers' own objects) or ``"resident"``
    #: (child processes / worker hosts; see :mod:`repro.runtime`).
    #: Both backends produce bitwise-identical seeded runs; the pool only
    #: changes wall-clock time.
    backend: str = "serial"
    #: Slots of the ``resident`` pool (``None`` = cores - 1).
    max_workers: Optional[int] = None
    #: Transport carrying the resident pool's wire protocol: ``"pipe"``
    #: (local child processes over ``multiprocessing`` pipes), ``"tcp"``
    #: (length-prefixed frames over one socket per slot — loopback workers,
    #: or real machines running ``python -m repro.runtime.worker_host``), or
    #: ``None`` for the default (``pipe``) — the CLI's ``--transport`` flag
    #: threads into this field.  Bitwise-neutral: seeded runs are identical
    #: over either transport.  Ignored by ``serial``.
    transport: Optional[str] = None
    #: ``"HOST:PORT"`` the tcp transport should listen on for externally
    #: started worker hosts; ``None`` (with ``transport="tcp"``) binds
    #: loopback and spawns local workers.  Rejected unless the transport
    #: is ``"tcp"``.
    transport_address: Optional[str] = None
    #: Pipelined execution depth (:mod:`repro.runtime.pipeline`).  ``0`` (the
    #: default) keeps the strictly phase-serial schedule — bitwise identical
    #: across all backends.  ``d > 0`` lets the server run up to ``d``
    #: iterations ahead of the workers: MD-GAN pre-generates future batch
    #: sets while workers compute (introducing a bounded, recorded batch
    #: staleness ``<= d``), and FL-GAN on the ``resident`` backend keeps up
    #: to ``d`` local iterations in flight (no staleness — FL-GAN pipelining
    #: is parity-preserving).
    pipeline_depth: int = 0
    #: Feedback/merge aggregation discipline.  ``"sync"`` (the default) is
    #: the paper's algorithm: every iteration waits for all participants
    #: before the generator update / FedAvg merge — bitwise identical across
    #: all backends and pipeline depths.  ``"async"`` takes the merge off the
    #: critical path: worker contributions are collected in completion order
    #: (:meth:`repro.runtime.ResidentBackend.open_collector`), buffered, and
    #: applied with staleness-decayed weights under the bounded-staleness
    #: gate below.  Async runs are *not* bitwise-reproducible on concurrent
    #: backends (completion order is real-time nondeterminism); on the serial
    #: backend they degenerate to a deterministic round-robin.
    aggregation: str = "sync"
    #: Bounded-staleness window for ``aggregation="async"``: no worker's
    #: contribution may be folded in more than this many global updates after
    #: the state it was computed against.  Enforced by *blocking dispatch* —
    #: the scheduler refuses to apply an update that would push any in-flight
    #: worker past the bound, so fast workers throttle to the straggler only
    #: when the bound binds.  ``0`` degenerates to a completion-order barrier
    #: (every update sees only fresh contributions).  Ignored when
    #: ``aggregation="sync"``.
    max_staleness: int = 2
    #: Pool-membership policy when a resident slot dies mid-run (see
    #: :mod:`repro.runtime.membership`).  ``"fail_stop"`` (the default) is
    #: the paper's discipline: the pool poisons and the run fails — bitwise
    #: identical across all backends.  ``"degrade"`` quarantines the dead
    #: slot, evicts the workers living on it (their shards redistribute to
    #: survivors at the next aggregation boundary) and keeps training on the
    #: remaining pool; late joiners are admitted mid-run and revive evicted
    #: workers from the last merged mirror.  ``"wait"`` quarantines the slot
    #: but keeps its workers: the run blocks at the loss boundary until
    #: replacement capacity is respawned/admitted (up to
    #: ``rejoin_timeout``), then reassigns the lost workers there.  Requires
    #: ``backend="resident"``.
    on_slot_loss: str = "fail_stop"
    #: Elastic floor: an eviction that would leave fewer than this many live
    #: workers escalates to a run failure instead.  Only meaningful with
    #: ``on_slot_loss="degrade"``.
    min_workers: int = 1
    #: Seconds between replacement/rejoin attempts under elastic policies.
    rejoin_backoff: float = 0.25
    #: Seconds the ``"wait"`` policy blocks for replacement capacity before
    #: escalating to a run failure.
    rejoin_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError(f"iterations must be positive, got {self.iterations}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.disc_steps < 1:
            raise ValueError(f"disc_steps must be >= 1, got {self.disc_steps}")
        if not self.epochs_per_swap > 0:
            raise ValueError(
                "epochs_per_swap must be positive (use math.inf to disable swaps)"
            )
        if self.num_batches is not None and self.num_batches < 1:
            raise ValueError(f"num_batches must be >= 1, got {self.num_batches}")
        if not 0.0 < self.participation_fraction <= 1.0:
            raise ValueError("participation_fraction must be in (0, 1]")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0 (0 disables evaluation)")
        if self.precision is not None and self.precision not in ("float32", "float64"):
            raise ValueError(
                f"precision must be 'float32', 'float64' or None, got "
                f"{self.precision!r}"
            )
        from ..runtime.backend import BACKENDS

        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.transport is not None:
            from ..runtime.transport import TRANSPORTS

            if self.transport not in TRANSPORTS:
                raise ValueError(
                    f"transport must be one of {TRANSPORTS} or None, got "
                    f"{self.transport!r}"
                )
        if self.transport_address is not None:
            from ..runtime.transport import TRANSPORT_DEFAULT, parse_address

            parse_address(self.transport_address)  # raises ValueError if malformed
            if (self.transport or TRANSPORT_DEFAULT) != "tcp":
                raise ValueError(
                    "transport_address is only meaningful with transport='tcp'"
                )
        if self.pipeline_depth < 0:
            raise ValueError(
                f"pipeline_depth must be >= 0 (0 = synchronous), got "
                f"{self.pipeline_depth}"
            )
        if self.aggregation not in ("sync", "async"):
            raise ValueError(
                f"aggregation must be 'sync' or 'async', got {self.aggregation!r}"
            )
        if self.max_staleness < 0:
            raise ValueError(
                f"max_staleness must be >= 0, got {self.max_staleness}"
            )
        self._membership_policy()  # validates the elastic fields
        # Mode composition (aggregation x pipeline x membership x
        # participation) is validated against the execution engine's
        # capability matrix — the single source of truth for which
        # combinations run and why the rest do not.
        from .engine import check_composition

        check_composition(self)

    @property
    def dtype(self):
        """Resolved numpy dtype of the configured precision policy."""
        from ..nn.precision import resolve_dtype

        return resolve_dtype(self.precision)

    def _membership_policy(self):
        from ..runtime.membership import MembershipPolicy

        return MembershipPolicy(
            on_slot_loss=self.on_slot_loss,
            min_workers=self.min_workers,
            rejoin_backoff=self.rejoin_backoff,
            rejoin_timeout=self.rejoin_timeout,
        )

    def membership_policy(self):
        """The resolved :class:`repro.runtime.membership.MembershipPolicy`.

        Returns ``None`` under the default fail-stop discipline, so the
        entire elastic path stays unreferenced (and trivially bitwise-inert)
        unless explicitly opted into.
        """
        if self.on_slot_loss == "fail_stop":
            return None
        return self._membership_policy()

    def build_backend(self):
        """Instantiate the configured :class:`repro.runtime.ResidentBackend`.

        The ``transport`` / ``transport_address`` / membership settings are
        the ``resident`` backend's options; ``serial`` takes none.
        """
        from ..runtime.backend import create_backend

        if self.backend != "resident":
            return create_backend(self.backend, self.max_workers)
        return create_backend(
            self.backend,
            self.max_workers,
            transport=self.transport,
            transport_address=self.transport_address,
            membership_policy=self.membership_policy(),
        )

    def with_overrides(self, **kwargs) -> "TrainingConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def paper_num_batches(num_workers: int) -> int:
    """The paper's default ``k = max(1, floor(log N))``."""
    return max(1, int(math.floor(math.log(num_workers))) if num_workers > 1 else 1)


def resolve_num_batches(config: TrainingConfig, num_workers: int) -> int:
    """Resolve the paper's ``k`` parameter for a given worker count.

    ``None`` selects :func:`paper_num_batches`; explicit values are clamped
    to ``[1, N]`` (the paper requires ``k <= N``).
    """
    if num_workers <= 0:
        raise ValueError(f"num_workers must be positive, got {num_workers}")
    if config.num_batches is None:
        k = paper_num_batches(num_workers)
    else:
        k = config.num_batches
    return max(1, min(k, num_workers))
