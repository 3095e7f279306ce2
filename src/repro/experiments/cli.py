"""Command-line interface for the experiment harness.

Usage::

    python -m repro.experiments <artefact> [--scale smoke|small|paper]
                                            [--precision float32|float64]
                                            [--dataset mnist|cifar10|celeba]
                                            [--architecture mnist-mlp|...]
                                            [--json PATH] [--csv PATH]
                                            [--markdown PATH] [--chart]
                                            [runtime flags]

where ``<artefact>`` is one of ``table2``, ``table3``, ``table4``, ``fig2``,
``fig3``, ``fig4``, ``fig5``, ``fig6``, ``ablation-k``, ``ablation-swap``,
``ablation-extensions``, ``ablation-noniid``, ``traffic-check``,
``serve-bench``, ``staleness-sweep``, ``timing`` or ``all``.

The runtime flags (``--backend``, ``--max-workers``, ``--transport``,
``--pipeline-depth``, ``--on-slot-loss``, ...) are
:class:`~repro.core.TrainingConfig` fields.  Only the flags given are
collected, validated once by ``TrainingConfig(**runtime)`` and handed to
every training artefact, whose runner passes them straight into the configs
it builds.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from .ablations import run_ablation_extensions, run_ablation_k, run_ablation_swap
from .celeba_experiment import run_fig6
from ..core.config import TrainingConfig
from ..nn.precision import precision_scope
from .common import ExperimentResult
from .convergence import run_fig3
from .fault_tolerance import run_fig5
from .noniid import run_ablation_noniid
from .reporting import ascii_chart, save_csv, save_json, series_from_rows, to_markdown
from ..runtime.backend import BACKENDS
from ..runtime.transport import TRANSPORTS
from .scalability import run_fig4
from .serve_bench import run_serve_bench
from .staleness import run_staleness_sweep
from .tables import run_fig2, run_table2, run_table3, run_table4
from .timing import run_timing_estimate
from .traffic_check import run_traffic_check

__all__ = ["main", "ARTIFACTS"]

#: artefact name -> runner
ARTIFACTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "ablation-k": run_ablation_k,
    "ablation-swap": run_ablation_swap,
    "ablation-extensions": run_ablation_extensions,
    "ablation-noniid": run_ablation_noniid,
    "traffic-check": run_traffic_check,
    "serve-bench": run_serve_bench,
    "staleness-sweep": run_staleness_sweep,
    "timing": run_timing_estimate,
}

#: artefacts whose runners take (dataset, architecture, scale) keyword
#: arguments plus the runtime.
_TRAINING_ARTIFACTS = {
    "fig3",
    "fig4",
    "fig5",
    "ablation-k",
    "ablation-swap",
    "ablation-extensions",
    "ablation-noniid",
    "traffic-check",
    "serve-bench",
    "staleness-sweep",
}
#: artefacts that take only a scale plus the runtime.
_SCALE_ONLY_ARTIFACTS = {"fig6"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("artefact", choices=sorted(ARTIFACTS) + ["all"])
    parser.add_argument("--scale", default="smoke", choices=("smoke", "small", "paper"))
    parser.add_argument(
        "--precision",
        default="float32",
        choices=("float32", "float64"),
        help="floating-point policy for all models (float32 is the fast default)",
    )
    # Defaults live in TrainingConfig: a flag the user did not give is absent
    # from the parsed namespace.
    runtime = parser.add_argument_group(
        "runtime",
        "TrainingConfig execution fields, handed to every training artefact "
        "(traffic-check's resident section and serve-bench's rows pin their "
        "own backend)",
        argument_default=argparse.SUPPRESS,
    )
    runtime.add_argument(
        "--backend",
        choices=BACKENDS,
        help=(
            "execution backend for the per-worker training phase; results are "
            "bitwise identical across backends (resident only changes "
            "wall-clock time: it keeps worker state in pool slots, child "
            "processes or worker hosts, and ships only per-iteration deltas)"
        ),
    )
    runtime.add_argument(
        "--max-workers",
        type=int,
        metavar="N",
        help=(
            "number of slots of the resident pool (default: cores - 1)"
        ),
    )
    runtime.add_argument(
        "--transport",
        choices=TRANSPORTS,
        help=(
            "transport carrying the resident pool's wire protocol: 'pipe' "
            "(local child processes, the default) or 'tcp' (one socket per "
            "pool slot — loopback workers, or remote hosts running "
            "python -m repro.runtime.worker_host); only meaningful with "
            "--backend resident; results are bitwise identical either way"
        ),
    )
    runtime.add_argument(
        "--transport-address",
        metavar="HOST:PORT",
        help=(
            "with --transport tcp: listen on HOST:PORT and wait for "
            "externally started worker hosts to connect (default: bind "
            "loopback and spawn local workers)"
        ),
    )
    runtime.add_argument(
        "--pipeline-depth",
        type=int,
        metavar="D",
        help=(
            "pipelined execution depth (0 = synchronous, the default): the "
            "server runs up to D iterations ahead of the workers, overlapping "
            "batch generation/aggregation with worker compute; D > 0 "
            "introduces a bounded, per-iteration-recorded batch staleness for "
            "MD-GAN (FL-GAN pipelining stays bitwise identical)"
        ),
    )
    runtime.add_argument(
        "--on-slot-loss",
        choices=("fail_stop", "degrade", "wait"),
        help=(
            "resident-pool policy when a slot dies mid-run: 'fail_stop' "
            "(poison the pool and raise, the default — bitwise identical to "
            "pre-membership behaviour), 'degrade' (evict the slot's workers "
            "crash-style and redistribute their shards across survivors; "
            "late joiners revive them), or 'wait' (block up to the rejoin "
            "timeout for replacement capacity and reassign the lost workers "
            "there); requires --backend resident"
        ),
    )
    runtime.add_argument(
        "--min-workers",
        type=int,
        metavar="N",
        help=(
            "fail the run when elastic degradation leaves fewer than N live "
            "workers (enforced for --on-slot-loss degrade only)"
        ),
    )
    runtime.add_argument(
        "--rejoin-backoff",
        type=float,
        metavar="SECONDS",
        help=(
            "elastic membership: delay between reconnect/replacement "
            "attempts while healing a lost slot"
        ),
    )
    parser.add_argument("--dataset", default="mnist")
    parser.add_argument("--architecture", default="mnist-mlp")
    parser.add_argument("--json", help="write the result rows to a JSON file")
    parser.add_argument("--csv", help="write the result rows to a CSV file")
    parser.add_argument("--markdown", help="write the result as a markdown table")
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render an ASCII FID-vs-iteration chart when the result has one",
    )
    return parser


def _runtime(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Dict[str, object]:
    """The runtime flags the user gave, as ``TrainingConfig`` field values."""
    group = next(g for g in parser._action_groups if g.title == "runtime")
    return {a.dest: getattr(args, a.dest) for a in group._group_actions if hasattr(args, a.dest)}


def _run_one(name: str, args: argparse.Namespace, runtime: Dict[str, object]) -> ExperimentResult:
    runner = ARTIFACTS[name]
    if name in _TRAINING_ARTIFACTS:
        return runner(
            dataset=args.dataset,
            architecture=args.architecture,
            scale=args.scale,
            **runtime,
        )
    if name in _SCALE_ONLY_ARTIFACTS:
        return runner(scale=args.scale, **runtime)
    return runner()


def _emit(result: ExperimentResult, args: argparse.Namespace) -> None:
    print(result.to_text())
    if args.chart and result.rows and "iteration" in result.rows[0]:
        series = series_from_rows(result.rows, "competitor", "iteration", "fid")
        print()
        print(ascii_chart(series, title=f"{result.name}: FID vs iterations", y_label="FID"))
    if args.json:
        print(f"wrote {save_json(result, args.json)}")
    if args.csv:
        print(f"wrote {save_csv(result, args.csv)}")
    if args.markdown:
        from pathlib import Path

        path = Path(args.markdown)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(to_markdown(result))
        print(f"wrote {path}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    runtime = _runtime(parser, args)
    try:
        TrainingConfig(**runtime)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = sorted(ARTIFACTS) if args.artefact == "all" else [args.artefact]
    with precision_scope(args.precision):
        for name in names:
            _emit(_run_one(name, args, runtime), args)
            print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
