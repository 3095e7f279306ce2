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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

import numpy as np

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
    "prepare_dataset",
    "prepare_evaluator",
    "prepare_factory",
    "prepare_shards",
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

    def scaled(self, **overrides) -> "ExperimentScale":
        """Return a copy with some fields overridden."""
        return replace(self, **overrides)


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

    def column(self, key: str) -> List[object]:
        """Extract one column across all rows (missing values become None)."""
        return [row.get(key) for row in self.rows]

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
# experiment building blocks
# ---------------------------------------------------------------------------

def prepare_dataset(
    dataset: str, scale: ExperimentScale
) -> tuple[ImageDataset, ImageDataset]:
    """Load the train/test pair of a dataset at the given scale."""
    return load_dataset(
        dataset,
        n_train=scale.n_train,
        n_test=scale.n_test,
        image_size=scale.image_size,
        seed=scale.seed,
    )


def prepare_evaluator(
    train: ImageDataset, test: ImageDataset, scale: ExperimentScale
) -> GeneratorEvaluator:
    """Train the frozen score classifier and wrap it in an evaluator."""
    return GeneratorEvaluator.from_datasets(
        train,
        test,
        sample_size=scale.eval_sample_size,
        classifier_epochs=scale.classifier_epochs,
        seed=scale.seed + 97,
    )


def prepare_factory(
    architecture: str, dataset: ImageDataset, scale: ExperimentScale, **overrides
) -> GANFactory:
    """Build a GAN architecture sized for the dataset at the given scale."""
    kwargs = dict(
        image_shape=dataset.spec.shape,
        num_classes=dataset.num_classes,
    )
    if architecture != "mnist-mlp" and architecture != "toy-ring":
        kwargs["width_factor"] = scale.width_factor
    if architecture == "mnist-mlp":
        kwargs["width_factor"] = max(scale.width_factor, 0.25)
    kwargs.update(overrides)
    return build_architecture(architecture, **kwargs)


def prepare_shards(
    train: ImageDataset, num_workers: int, seed: int
) -> List[ImageDataset]:
    """Partition the training set i.i.d. over the workers (paper Section III-a)."""
    rng = np.random.default_rng(seed + 11)
    return partition_iid(train, num_workers, rng)
