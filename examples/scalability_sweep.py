#!/usr/bin/env python3
"""Scalability sweep: MD-GAN quality vs the number of workers (paper Figure 4).

Splits the same dataset over an increasing number of workers (so each local
shard shrinks as ``|B| / N``) and reports the final dataset score / FID for
four MD-GAN configurations: swap on/off crossed with constant-worker vs
constant-server workload.

Run::

    python examples/scalability_sweep.py [--scale smoke|small]
                                         [--backend serial|resident]

The ``--backend`` flag fans the per-worker phase out through the
``repro.runtime`` execution backends; the numbers are bitwise identical
across backends, only the wall-clock time changes.
"""

from __future__ import annotations

import argparse

from repro.experiments import format_table, get_scale, run_fig4
from repro.runtime import BACKENDS


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="smoke", choices=("smoke", "small", "paper"))
    parser.add_argument(
        "--workers",
        type=int,
        nargs="*",
        default=None,
        help="explicit ladder of worker counts (default depends on the scale)",
    )
    parser.add_argument(
        "--backend",
        default="serial",
        choices=BACKENDS,
        help="execution backend for the per-worker phase (same results, "
        "different wall-clock)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="slots of the resident pool (default: cores - 1)",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    scale = get_scale(args.scale)
    worker_counts = tuple(args.workers) if args.workers else None

    print(
        f"Figure 4 sweep on the MNIST-like dataset / MLP architecture "
        f"(scale={scale.name}, {scale.iterations} iterations per point)"
    )
    result = run_fig4(
        scale=scale,
        worker_counts=worker_counts,
        backend=args.backend,
        max_workers=args.max_workers,
    )
    print()
    print(
        format_table(
            ["num_workers", "mode", "swap", "batch_size", "local_shard_size", "score", "fid"],
            result.rows,
        )
    )
    for note in result.notes:
        print(f"\nnote: {note}")
    print(
        "\nExpected shape (paper, Figure 4): beyond a handful of workers the\n"
        "constant-worker-workload curves dominate the constant-server ones (the\n"
        "server simply sees more data per iteration), and enabling the swap\n"
        "improves the score because discriminators stop overfitting their shard."
    )


if __name__ == "__main__":
    main()
