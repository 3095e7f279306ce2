#!/usr/bin/env python3
"""Communication planning: when is MD-GAN cheaper than FL-GAN on the wire?

Uses the analytic communication model (paper Tables III/IV and Figure 2) to
answer the deployment question the paper raises: given a GAN architecture, a
dataset geometry and a batch size, which scheme moves fewer bytes per
iteration at the workers and at the server, and where is the crossover?

The script also estimates per-iteration transfer times for the three
deployment profiles the paper motivates (datacenter, geo-distributed WAN,
edge devices).

Run::

    python examples/communication_planning.py [--workers 10] [--batch-size 10]
"""

from __future__ import annotations

import argparse

from repro.analysis import (
    crossover_batch_size,
    ingress_traffic_per_iteration,
    ingress_traffic_sweep,
    table4_costs,
)
from repro.experiments import cost_inputs, format_table, paper_architecture_params
from repro.simulation import LinkModel


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=10)
    parser.add_argument("--batch-size", type=int, default=10)
    parser.add_argument(
        "--architecture",
        default="cifar10-cnn",
        choices=("mnist-mlp", "mnist-cnn", "cifar10-cnn"),
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    params = paper_architecture_params()[args.architecture]
    inputs = cost_inputs(args.architecture, params, args.batch_size, args.workers)

    print(f"architecture: {args.architecture}  "
          f"(|w|={params['generator']:,}, |theta|={params['discriminator']:,}, "
          f"d={inputs.object_size} floats)")
    print(f"N={args.workers} workers, b={args.batch_size}\n")

    print("Per-communication costs (MB), paper Table IV layout:")
    costs = table4_costs(inputs)
    rows = [
        {"communication": row, "fl-gan": values["fl-gan"], "md-gan": values["md-gan"]}
        for row, values in costs.items()
    ]
    print(format_table(["communication", "fl-gan", "md-gan"], rows))

    crossover = crossover_batch_size(inputs)
    print(f"\nworker-side crossover batch size: b* ~= {crossover:.0f} images")
    print("below b*, MD-GAN moves fewer bytes per communication at a worker\n")

    print("Per-iteration worker ingress (bytes) across batch sizes (Figure 2):")
    sweep_rows = ingress_traffic_sweep(inputs, [1, 10, 50, 100, 500, 1000, 5000])
    print(format_table(
        ["batch_size", "mdgan_worker", "flgan_worker", "mdgan_server", "flgan_server"],
        sweep_rows,
    ))

    print("\nEstimated transfer time per communication at a worker:")
    traffic = ingress_traffic_per_iteration(inputs)
    link_rows = []
    for link in (LinkModel.datacenter(), LinkModel.wan(), LinkModel.edge()):
        link_rows.append(
            {
                "link": link.name,
                "md-gan (s)": link.transfer_time(int(traffic["worker"]["md-gan"])),
                "fl-gan (s)": link.transfer_time(int(traffic["worker"]["fl-gan"])),
            }
        )
    print(format_table(["link", "md-gan (s)", "fl-gan (s)"], link_rows))
    print(
        "\nNote: FL-GAN pays its cost once per federated round (m*E/b iterations),\n"
        "MD-GAN pays per iteration — multiply by the round counts of Table III to\n"
        "compare end-to-end volumes."
    )


if __name__ == "__main__":
    main()
