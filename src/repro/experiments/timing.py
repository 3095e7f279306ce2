"""Deployment-time estimate: how long would one global iteration take?

The paper's emulation cannot report wall-clock numbers ("raw timing
performances of learning tasks are in this context inaccessible and are left
to futurework").  This experiment fills that gap with the estimator of
:mod:`repro.simulation.timeline`: for each paper architecture and for the
three deployment profiles the paper motivates (datacenter, geo-distributed
WAN, edge devices), it breaks one MD-GAN and one FL-GAN iteration into
compute and communication phases and reports where the bottleneck sits.
Compute is priced with the operation counts the trainers charge to their
compute ledgers (:mod:`repro.analysis.cost`).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..simulation import HardwareProfile, LinkModel, estimate_iteration_time
from .common import ExperimentResult
from .tables import cost_inputs, paper_architecture_params

__all__ = ["run_timing_estimate"]

#: (link model, hardware profile) per deployment scenario.
_SCENARIOS: Dict[str, Tuple[LinkModel, HardwareProfile]] = {
    "datacenter": (LinkModel.datacenter(), HardwareProfile.datacenter()),
    "wan": (LinkModel.wan(), HardwareProfile()),
    "edge": (LinkModel.edge(), HardwareProfile.edge()),
}


def run_timing_estimate(
    batch_size: int = 10,
    num_workers: int = 10,
    disc_steps: int = 1,
    architectures: Sequence[str] = ("mnist-mlp", "cifar10-cnn"),
    scenarios: Sequence[str] = ("datacenter", "wan", "edge"),
) -> ExperimentResult:
    """Estimate per-iteration wall-clock time across deployment scenarios."""
    unknown = set(scenarios) - set(_SCENARIOS)
    if unknown:
        raise ValueError(f"Unknown scenarios {sorted(unknown)}; known {sorted(_SCENARIOS)}")
    params = paper_architecture_params()
    result = ExperimentResult(
        name="Timing estimate",
        description=(
            "Estimated duration of one global iteration (seconds), broken into "
            f"compute and communication phases (b={batch_size}, N={num_workers}, "
            f"L={disc_steps}); the paper leaves measured timings to future work."
        ),
    )
    for architecture in architectures:
        if architecture not in params:
            raise ValueError(
                f"Unknown architecture {architecture!r}; known {sorted(params)}"
            )
        inputs = cost_inputs(
            architecture, params[architecture], batch_size, num_workers, disc_steps=disc_steps
        )
        for scenario in scenarios:
            link, hardware = _SCENARIOS[scenario]
            for algorithm in ("md-gan", "fl-gan"):
                timeline = estimate_iteration_time(
                    algorithm,
                    inputs,
                    swap_this_iteration=(algorithm == "fl-gan"),
                    hardware=hardware,
                    link=link,
                )
                phases = timeline.as_dict()
                communication = (
                    phases["downlink_s"] + phases["uplink_s"] + phases["swap_s"]
                )
                compute = phases["total_s"] - communication
                result.add_row(
                    architecture=architecture,
                    scenario=scenario,
                    algorithm=algorithm,
                    compute_s=compute,
                    communication_s=communication,
                    total_s=phases["total_s"],
                    bottleneck=(
                        "communication" if communication > compute else "compute"
                    ),
                )
    result.add_note(
        "FL-GAN rows include a full model up/down transfer (a round boundary); "
        "between rounds FL-GAN iterations have no communication at all."
    )
    result.add_note(
        "MD-GAN becomes communication-bound on WAN/edge links because it ships "
        "generated images and feedback every iteration — the motivation for the "
        "compression directions discussed in Section VII-2."
    )
    return result
