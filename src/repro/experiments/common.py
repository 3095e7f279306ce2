"""Shared infrastructure for the experiment runners.

Every experiment of the paper's evaluation section has a runner module in
this package.  Runners are deterministic functions taking an
:class:`ExperimentScale` (how big to make the run) and returning an
:class:`ExperimentResult` (named rows plus free-text notes), so the same code
regenerates a table/figure at smoke-test size inside the benchmark suite and
at near-paper size from the command line.

Three scale presets are provided:

* ``SMOKE`` — seconds per experiment; used by the pytest benchmarks.
* ``SMALL`` — a few minutes per experiment; the default for the example
  scripts.
* ``PAPER`` — the paper's dataset sizes, image geometry and iteration counts
  (50,000 iterations, 28x28/32x32 images, full-width architectures).  Only
  practical with substantial CPU time; provided for completeness.

Every training runner is one grid: :func:`prepare` loads the shared inputs,
the runner lists its competitors as cells (:class:`Cell`) over one
:func:`base_config`, :func:`run_grid` trains them, and the runner projects
the histories into rows (:func:`final_scores`, :func:`add_curves`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core import (
    FLGANTrainer,
    MDGANTrainer,
    StandaloneGANTrainer,
    TrainingConfig,
    TrainingHistory,
)
from ..datasets import ImageDataset, load_dataset, partition_iid
from ..metrics import GeneratorEvaluator
from ..models import build_architecture
from ..models.base import GANFactory

__all__ = [
    "ExperimentScale",
    "SMOKE",
    "SMALL",
    "PAPER",
    "SCALES",
    "get_scale",
    "ExperimentResult",
    "format_table",
    "TRAINERS",
    "Cell",
    "Setup",
    "prepare",
    "base_config",
    "run_grid",
    "final_scores",
    "add_curves",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling how large an experiment run is."""

    name: str
    n_train: int
    n_test: int
    image_size: int
    iterations: int
    eval_every: int
    num_workers: int
    batch_size_small: int
    batch_size_large: int
    width_factor: float
    classifier_epochs: int
    eval_sample_size: int
    seed: int = 0


SMOKE = ExperimentScale(
    name="smoke",
    n_train=600,
    n_test=200,
    image_size=16,
    iterations=120,
    eval_every=60,
    num_workers=4,
    batch_size_small=8,
    batch_size_large=32,
    width_factor=0.125,
    classifier_epochs=10,
    eval_sample_size=128,
)

SMALL = ExperimentScale(
    name="small",
    n_train=4000,
    n_test=1000,
    image_size=16,
    iterations=2000,
    eval_every=250,
    num_workers=10,
    batch_size_small=10,
    batch_size_large=100,
    width_factor=0.25,
    classifier_epochs=6,
    eval_sample_size=500,
)

PAPER = ExperimentScale(
    name="paper",
    n_train=60_000,
    n_test=10_000,
    image_size=28,
    iterations=50_000,
    eval_every=1_000,
    num_workers=10,
    batch_size_small=10,
    batch_size_large=100,
    width_factor=1.0,
    classifier_epochs=10,
    eval_sample_size=500,
)

SCALES: Dict[str, ExperimentScale] = {"smoke": SMOKE, "small": SMALL, "paper": PAPER}


def get_scale(name_or_scale) -> ExperimentScale:
    """Resolve a scale preset by name, or pass an explicit scale through."""
    if isinstance(name_or_scale, ExperimentScale):
        return name_or_scale
    try:
        return SCALES[str(name_or_scale)]
    except KeyError as exc:
        raise ValueError(
            f"Unknown scale {name_or_scale!r}; known: {sorted(SCALES)}"
        ) from exc


@dataclass
class ExperimentResult:
    """Named rows produced by one experiment runner."""

    name: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)

    def add_row(self, **values: object) -> None:
        """Append one result row."""
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        """Append a free-text note shown below the table."""
        self.notes.append(note)

    def to_text(self) -> str:
        """Render the result as a plain-text report table."""
        lines = [f"== {self.name} ==", self.description, ""]
        if self.rows:
            headers = list(self.rows[0].keys())
            lines.append(format_table(headers, self.rows))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Dict[str, object]]) -> str:
    """Format a list of dict rows into an aligned plain-text table."""
    table = [[_fmt(row.get(h, "")) for h in headers] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in table)) if table else len(str(h))
        for i, h in enumerate(headers)
    ]
    sep = "  "
    out = [sep.join(str(h).ljust(w) for h, w in zip(headers, widths))]
    out.append(sep.join("-" * w for w in widths))
    for r in table:
        out.append(sep.join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# the experiment grid
# ---------------------------------------------------------------------------

#: Algorithm name -> trainer class.  Every trainer is built as
#: ``cls(factory, data, config, evaluator=..., **trainer_kwargs)``.
TRAINERS = {"md-gan": MDGANTrainer, "fl-gan": FLGANTrainer, "standalone": StandaloneGANTrainer}


@dataclass(frozen=True)
class Cell:
    """One competitor of a grid: an algorithm and how it departs from the base.

    ``overrides`` are :class:`~repro.core.TrainingConfig` fields applied on
    top of the grid's config; ``shards`` replaces the setup's i.i.d. shards
    (ignored by ``standalone``, which trains on the full train set);
    ``trainer_kwargs`` go to the trainer's constructor (e.g. Figure 5's
    ``crash_schedule``).
    """

    name: str
    algorithm: str
    overrides: Mapping[str, object] = field(default_factory=dict)
    shards: Optional[Sequence[ImageDataset]] = None
    trainer_kwargs: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Setup:
    """The inputs every cell of a grid shares."""

    scale: ExperimentScale
    train: ImageDataset
    factory: GANFactory
    evaluator: Optional[GeneratorEvaluator] = None

    def iid_shards(self, num_workers: int) -> List[ImageDataset]:
        """Partition the train set i.i.d. over the workers (paper Section III-a)."""
        rng = np.random.default_rng(self.scale.seed + 11)
        return partition_iid(self.train, num_workers, rng)

    @cached_property
    def shards(self) -> List[ImageDataset]:
        """The default worker shards: i.i.d. over ``scale.num_workers``."""
        return self.iid_shards(self.scale.num_workers)


def prepare(
    dataset: str, architecture: str, scale: ExperimentScale, evaluate: bool = True
) -> Setup:
    """Load ``dataset`` at ``scale`` and size ``architecture`` for it.

    ``evaluate`` also trains the frozen score classifier behind the
    evaluator; runners that read no score skip it.
    """
    train, test = load_dataset(
        dataset, scale.n_train, scale.n_test, image_size=scale.image_size, seed=scale.seed
    )
    evaluator = None
    if evaluate:
        evaluator = GeneratorEvaluator.from_datasets(
            train, test, scale.eval_sample_size, scale.classifier_epochs, seed=scale.seed + 97
        )
    kwargs = dict(image_shape=train.spec.shape, num_classes=train.num_classes)
    if architecture == "mnist-mlp":
        kwargs["width_factor"] = max(scale.width_factor, 0.25)
    elif architecture != "toy-ring":
        kwargs["width_factor"] = scale.width_factor
    factory = build_architecture(architecture, **kwargs)
    return Setup(scale, train, factory, evaluator)


def base_config(scale: ExperimentScale, **fields) -> TrainingConfig:
    """The runners' shared config at ``scale``; ``fields`` override it."""
    defaults = dict(
        iterations=scale.iterations,
        batch_size=scale.batch_size_small,
        epochs_per_swap=1.0,
        eval_every=scale.eval_every,
        eval_sample_size=scale.eval_sample_size,
        seed=scale.seed,
    )
    return TrainingConfig(**{**defaults, **fields})


def run_grid(
    setup: Setup, config: TrainingConfig, cells: Sequence[Cell]
) -> List[Tuple[Cell, TrainingHistory, float]]:
    """Train every cell on ``setup``; return ``(cell, history, wall seconds)``.

    Every cell's algorithm, data and config are resolved (and so validated)
    before the first cell trains: a bad sweep point fails in seconds, not
    after the earlier points have trained.  Cells then train in order, each
    trainer closed on exit.
    """
    plan = []
    for cell in cells:
        if cell.algorithm not in TRAINERS:
            raise ValueError(
                f"Unknown algorithm {cell.algorithm!r} in cell {cell.name!r}; "
                f"known {sorted(TRAINERS)}"
            )
        if cell.algorithm == "standalone":
            data = setup.train
        else:
            data = setup.shards if cell.shards is None else cell.shards
            if not data:
                raise ValueError(f"Cell {cell.name!r} has no worker shards")
        plan.append((cell, data, config.with_overrides(**cell.overrides)))
    runs = []
    for cell, data, cell_config in plan:
        started = time.perf_counter()
        trainer = TRAINERS[cell.algorithm](
            setup.factory, data, cell_config, evaluator=setup.evaluator, **cell.trainer_kwargs
        )
        with trainer:
            history = trainer.train()
        runs.append((cell, history, time.perf_counter() - started))
    return runs


def final_scores(history: TrainingHistory) -> Dict[str, float]:
    """The final evaluation's score and FID (NaN when the run has none)."""
    final = history.final_evaluation
    return {
        "score": final.score if final else float("nan"),
        "fid": final.fid if final else float("nan"),
    }


def add_curves(result: ExperimentResult, runs, *extra: str) -> None:
    """Add one row per evaluation of every run and keep the histories.

    Rows are ``competitor, iteration, score, fid`` plus the ``extra``
    evaluation fields; ``result.extras["histories"]`` maps cell names to
    the exported histories.
    """
    for cell, history, _ in runs:
        for evaluation in history.evaluations:
            result.add_row(
                competitor=cell.name,
                iteration=evaluation.iteration,
                score=evaluation.score,
                fid=evaluation.fid,
                **{name: getattr(evaluation, name) for name in extra},
            )
    result.extras["histories"] = {cell.name: h.as_dict() for cell, h, _ in runs}
