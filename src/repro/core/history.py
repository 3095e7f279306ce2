"""Structured training history shared by all trainers.

Records per-iteration losses, periodic evaluation scores, communication
statistics and notable events (swaps, federated rounds, crashes).  The
experiment harness consumes histories to produce the series plotted in
Figures 3-6 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..metrics.evaluator import EvaluationResult

__all__ = ["TrainingHistory"]


@dataclass
class TrainingHistory:
    """Time series collected during one training run."""

    algorithm: str
    config: Dict[str, object] = field(default_factory=dict)
    iterations: List[int] = field(default_factory=list)
    generator_loss: List[float] = field(default_factory=list)
    discriminator_loss: List[float] = field(default_factory=list)
    evaluations: List[EvaluationResult] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)
    traffic: Dict[str, float] = field(default_factory=dict)
    compute: Dict[str, float] = field(default_factory=dict)
    #: Per-iteration batch staleness under the pipelined execution mode
    #: (``TrainingConfig.pipeline_depth > 0``): how many generator updates the
    #: iteration's generated batches were missing relative to the synchronous
    #: schedule.  Parallel to :attr:`iterations` when pipelining is active;
    #: empty for synchronous runs.
    staleness: List[int] = field(default_factory=list)
    #: Per-worker staleness observations under asynchronous aggregation
    #: (``TrainingConfig.aggregation="async"``): for each worker index, the
    #: age in global updates of every contribution of theirs that was folded
    #: into the model.  The bounded-staleness contract —
    #: ``max(per-worker staleness) <= config.max_staleness`` — is checked
    #: against exactly this record.  Empty for synchronous runs.
    worker_staleness: Dict[int, List[int]] = field(default_factory=dict)
    #: Summary of the pipelined run's achieved overlap (depth, lookahead /
    #: fan-out generation counts, staleness aggregates, max in-flight window);
    #: empty for synchronous runs.  See
    #: :meth:`repro.runtime.pipeline.PipelineStats.as_overlap_dict`.
    overlap: Dict[str, float] = field(default_factory=dict)
    #: Membership-event counts by pool event kind (slot losses, joins,
    #: evictions, reassignments, ...): exactly the ``membership_*`` /
    #: ``slot_loss`` events recorded in :attr:`events`, over every pool the
    #: trainer used.  Empty under the default fail-stop discipline.
    membership: Dict[str, int] = field(default_factory=dict)

    # -- recording -------------------------------------------------------------
    def record_losses(self, iteration: int, gen_loss: float, disc_loss: float) -> None:
        """Append per-iteration generator / discriminator losses."""
        self.iterations.append(int(iteration))
        self.generator_loss.append(float(gen_loss))
        self.discriminator_loss.append(float(disc_loss))

    def record_staleness(self, iteration: int, staleness: int) -> None:
        """Append one pipelined iteration's batch staleness.

        Only called by the pipelined training loops, right after the matching
        :meth:`record_losses`, so ``staleness[i]`` describes ``iterations[i]``.
        """
        if len(self.staleness) >= len(self.iterations):
            raise ValueError(
                "record_staleness must follow record_losses for the same "
                f"iteration (iteration {iteration})"
            )
        self.staleness.append(int(staleness))

    def record_worker_staleness(self, worker_index: int, staleness: int) -> None:
        """Append one applied contribution's staleness for ``worker_index``."""
        self.worker_staleness.setdefault(int(worker_index), []).append(int(staleness))

    def record_evaluation(self, result: EvaluationResult) -> None:
        """Append a periodic evaluation result."""
        self.evaluations.append(result)

    def record_event(self, iteration: int, kind: str, **details: object) -> None:
        """Append a structured event (swap, round, crash, ...)."""
        self.events.append({"iteration": int(iteration), "kind": kind, **details})

    # -- queries ---------------------------------------------------------------
    @property
    def score_series(self) -> Dict[str, List[float]]:
        """Evaluation series keyed by metric name."""
        return {
            "iteration": [e.iteration for e in self.evaluations],
            "score": [e.score for e in self.evaluations],
            "fid": [e.fid for e in self.evaluations],
            "modes_covered": [e.modes_covered for e in self.evaluations],
        }

    @property
    def final_evaluation(self) -> Optional[EvaluationResult]:
        """Last recorded evaluation, or ``None`` if evaluation was disabled."""
        return self.evaluations[-1] if self.evaluations else None

    def best_score(self) -> float:
        """Best (highest) dataset score observed."""
        if not self.evaluations:
            return float("nan")
        return max(e.score for e in self.evaluations)

    def best_fid(self) -> float:
        """Best (lowest) FID observed."""
        if not self.evaluations:
            return float("nan")
        return min(e.fid for e in self.evaluations)

    def mean_generator_loss(self, last: int = 0) -> float:
        """Mean generator loss over the whole run or the last ``last`` iterations."""
        losses = self.generator_loss[-last:] if last else self.generator_loss
        return float(np.mean(losses)) if losses else float("nan")

    def events_of_kind(self, kind: str) -> List[Dict[str, object]]:
        """All recorded events of the given kind."""
        return [e for e in self.events if e["kind"] == kind]

    def mean_staleness(self) -> float:
        """Mean recorded batch staleness (0.0 for synchronous runs)."""
        return float(np.mean(self.staleness)) if self.staleness else 0.0

    def max_worker_staleness(self) -> int:
        """Largest applied-contribution staleness across all workers (0 if none).

        Under ``aggregation="async"`` this is the quantity the
        bounded-staleness contract caps at ``config.max_staleness``.
        """
        values = [s for series in self.worker_staleness.values() for s in series]
        return max(values) if values else 0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict export (JSON-serialisable) used by the report writers."""
        return {
            "algorithm": self.algorithm,
            "config": dict(self.config),
            "iterations": list(self.iterations),
            "generator_loss": list(self.generator_loss),
            "discriminator_loss": list(self.discriminator_loss),
            "evaluations": [e.as_dict() for e in self.evaluations],
            "events": list(self.events),
            "traffic": dict(self.traffic),
            "compute": dict(self.compute),
            "staleness": list(self.staleness),
            "worker_staleness": {
                str(worker): list(series)
                for worker, series in self.worker_staleness.items()
            },
            "overlap": dict(self.overlap),
            "membership": dict(self.membership),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TrainingHistory":
        """Rebuild a history from an :meth:`as_dict` export (JSON round-trip).

        Unknown keys are ignored and missing keys default, so histories
        serialised by older versions (without the pipeline fields) load
        cleanly.
        """
        return cls(
            algorithm=str(payload["algorithm"]),
            config=dict(payload.get("config", {})),
            iterations=[int(i) for i in payload.get("iterations", [])],
            generator_loss=[float(v) for v in payload.get("generator_loss", [])],
            discriminator_loss=[float(v) for v in payload.get("discriminator_loss", [])],
            evaluations=[
                EvaluationResult(**e) for e in payload.get("evaluations", [])
            ],
            events=[dict(e) for e in payload.get("events", [])],
            traffic=dict(payload.get("traffic", {})),
            compute=dict(payload.get("compute", {})),
            staleness=[int(s) for s in payload.get("staleness", [])],
            worker_staleness={
                int(worker): [int(s) for s in series]
                for worker, series in payload.get("worker_staleness", {}).items()
            },
            overlap=dict(payload.get("overlap", {})),
            membership={
                str(kind): int(count)
                for kind, count in payload.get("membership", {}).items()
            },
        )
