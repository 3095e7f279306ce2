"""Measured-vs-analytic communication cross-check.

Runs a short MD-GAN and FL-GAN training and compares the bytes the trainers
charge to the cluster's Table III meter (one charge wherever a payload is
handed over) against the closed-form Table III formulas.
This ties the analytic model (Tables III/IV, Figure 2) to the actual
implementation: if the algorithm ever shipped different payloads than the
model assumes, this check would diverge.

A second pass re-runs MD-GAN through the resident pool and compares the
backend's *measured* per-op transport meters (``op_bytes_sent`` /
``op_bytes_received`` / ``op_transfer_seconds``) against the same Table III
payload model and the ``LinkModel`` link presets — real bytes on a real
transport (pipe by default, sockets under ``--transport tcp``) against the
cost model's prediction.
"""

from __future__ import annotations

import math

from ..analysis import CommunicationInputs, table3_communication
from ..core import FLGANTrainer, MDGANTrainer
from ..nn.serialize import FLOAT_BYTES
from ..simulation import LinkModel, MessageKind
from .common import ExperimentResult, ExperimentScale, base_config, get_scale, prepare

__all__ = ["run_traffic_check"]


def run_traffic_check(
    dataset: str = "mnist",
    architecture: str = "mnist-mlp",
    scale: ExperimentScale | str = "smoke",
    **runtime,
) -> ExperimentResult:
    """Compare measured per-iteration traffic to the analytic formulas.

    ``runtime`` (any :class:`TrainingConfig` execution field) goes verbatim
    into the config of every run; the Table III bytes do not depend on it.
    The resident cross-check section then pins ``backend="resident"`` after
    it (with ``min(4, N)`` slots unless ``max_workers`` is given), so
    ``transport="tcp"`` makes the per-op rows measure real socket traffic.
    """
    scale = get_scale(scale)
    setup = prepare(dataset, architecture, scale, evaluate=False)
    factory, shards = setup.factory, setup.shards
    iterations = max(10, min(50, scale.iterations))
    config = base_config(scale, iterations=iterations, eval_every=0, **runtime)

    counts = factory.parameter_counts()
    inputs = CommunicationInputs(
        generator_params=counts["generator"],
        discriminator_params=counts["discriminator"],
        object_size=factory.object_size,
        batch_size=config.batch_size,
        num_workers=scale.num_workers,
        iterations=iterations,
        local_dataset_size=len(shards[0]),
        epochs_per_round=1.0,
    )
    analytic = table3_communication(inputs)

    result = ExperimentResult(
        name="Traffic cross-check",
        description=(
            "Bytes charged to the Table III meter vs the Table III analytic "
            f"formulas ({dataset} / {architecture}, N={scale.num_workers}, "
            f"I={iterations}, b={config.batch_size})."
        ),
    )

    # --- MD-GAN ---------------------------------------------------------------
    with MDGANTrainer(factory, shards, config) as mdgan:
        mdgan.train()
    meter = mdgan.cluster.meter
    measured_c_to_w = meter.total_bytes(MessageKind.GENERATED_BATCHES)
    measured_w_to_c = meter.total_bytes(MessageKind.ERROR_FEEDBACK)
    measured_swap = meter.total_bytes(MessageKind.DISCRIMINATOR_SWAP)
    expected_c_to_w = (
        analytic["server_to_worker_at_server"]["md-gan"] * iterations * FLOAT_BYTES
    )
    expected_w_to_c = (
        analytic["worker_to_server_at_server"]["md-gan"] * iterations * FLOAT_BYTES
    )
    swap_rounds = math.floor(iterations / max(1, mdgan.swap_period))
    result.add_row(
        algorithm="md-gan",
        quantity="server->workers bytes",
        measured=float(measured_c_to_w),
        analytic=float(expected_c_to_w),
        ratio=measured_c_to_w / expected_c_to_w if expected_c_to_w else float("nan"),
    )
    result.add_row(
        algorithm="md-gan",
        quantity="workers->server bytes",
        measured=float(measured_w_to_c),
        analytic=float(expected_w_to_c),
        ratio=measured_w_to_c / expected_w_to_c if expected_w_to_c else float("nan"),
    )
    result.add_row(
        algorithm="md-gan",
        quantity="worker<->worker swap rounds",
        measured=float(len(mdgan.history.events_of_kind("swap"))),
        analytic=float(swap_rounds),
        ratio=(
            len(mdgan.history.events_of_kind("swap")) / swap_rounds
            if swap_rounds
            else float("nan")
        ),
    )
    result.add_row(
        algorithm="md-gan",
        quantity="swap bytes upper bound",
        measured=float(measured_swap),
        analytic=float(
            swap_rounds
            * scale.num_workers
            * counts["discriminator"]
            * FLOAT_BYTES
        ),
        ratio=float("nan"),
    )

    # --- FL-GAN ---------------------------------------------------------------
    with FLGANTrainer(factory, shards, config) as flgan:
        flgan.train()
    meter = flgan.cluster.meter
    rounds = len(flgan.history.events_of_kind("federated_round"))
    measured_updates = meter.total_bytes(MessageKind.MODEL_UPDATE)
    measured_broadcast = meter.total_bytes(MessageKind.MODEL_BROADCAST)
    expected_per_round = analytic["worker_to_server_at_server"]["fl-gan"] * FLOAT_BYTES
    result.add_row(
        algorithm="fl-gan",
        quantity="workers->server bytes",
        measured=float(measured_updates),
        analytic=float(expected_per_round * rounds),
        ratio=(
            measured_updates / (expected_per_round * rounds)
            if rounds
            else float("nan")
        ),
    )
    result.add_row(
        algorithm="fl-gan",
        quantity="server->workers bytes",
        measured=float(measured_broadcast),
        analytic=float(expected_per_round * rounds),
        ratio=(
            measured_broadcast / (expected_per_round * rounds)
            if rounds
            else float("nan")
        ),
    )
    # --- resident transport: measured per-op bytes vs the cost model ----------
    # Re-run a few MD-GAN iterations through the resident pool and read the
    # backend's per-op transport meters.  The dominant op is "run": its
    # request carries the generated batches (the analytic 2*b*d floats per
    # worker per iteration) and its reply the error feedback (b*d floats per
    # worker), so the measured warm-iteration bytes should sit a small pickle
    # overhead above the Table III prediction.  ``transport="tcp"`` makes
    # these rows measure real socket traffic.
    resident_iterations = min(iterations, 5)
    resident_config = config.with_overrides(
        backend="resident",
        max_workers=config.max_workers or min(4, scale.num_workers),
        iterations=resident_iterations,
    )
    with MDGANTrainer(factory, shards, resident_config) as resident:
        resident.train_iteration(1)  # cold iteration: install payloads ship
        backend = resident.executor
        warm_sent = backend.op_bytes_sent["run"]
        warm_received = backend.op_bytes_received["run"]
        warm_seconds = backend.op_transfer_seconds["run"]
        for iteration in range(2, resident_iterations + 1):
            resident.train_iteration(iteration)
        warm_iters = resident_iterations - 1
        run_sent = (backend.op_bytes_sent["run"] - warm_sent) / max(1, warm_iters)
        run_received = (backend.op_bytes_received["run"] - warm_received) / max(
            1, warm_iters
        )
        run_seconds = (backend.op_transfer_seconds["run"] - warm_seconds) / max(
            1, warm_iters
        )
        transport_name = getattr(backend._transport, "name", "pipe")
    model_sent = analytic["server_to_worker_at_server"]["md-gan"] * FLOAT_BYTES
    model_received = analytic["worker_to_server_at_server"]["md-gan"] * FLOAT_BYTES
    link = LinkModel.datacenter()
    modeled_seconds = link.transfer_time(int(run_sent)) + link.transfer_time(
        int(run_received)
    )
    result.add_row(
        algorithm="md-gan",
        quantity=f"resident 'run' op bytes/iter sent ({transport_name})",
        measured=float(run_sent),
        analytic=float(model_sent),
        ratio=run_sent / model_sent if model_sent else float("nan"),
    )
    result.add_row(
        algorithm="md-gan",
        quantity=f"resident 'run' op bytes/iter received ({transport_name})",
        measured=float(run_received),
        analytic=float(model_received),
        ratio=run_received / model_received if model_received else float("nan"),
    )
    result.add_row(
        algorithm="md-gan",
        quantity=f"resident 'run' op transfer s/iter vs {link.name} LinkModel",
        measured=float(run_seconds),
        analytic=float(modeled_seconds),
        ratio=run_seconds / modeled_seconds if modeled_seconds else float("nan"),
    )

    result.add_note(
        "MD-GAN swap bytes are an upper bound because the random permutation "
        "may map a worker to itself (no transfer for that worker that round)."
    )
    result.add_note(
        "The resident rows compare the pool transport's per-op byte meters "
        "(warm iterations, installs excluded) against the Table III payload "
        "model and the LinkModel datacenter link.  The received ratio sits a "
        "small pickle overhead above 1; the sent ratio can drop below 1 "
        "because pickling dedups shared objects — with k < N the same "
        "generated batch serves several per-worker payloads in one slot "
        "message, so it crosses the transport once where the model counts it "
        "per worker.  The time ratio can exceed 1 at small scales: the "
        "datacenter model charges almost nothing for tiny payloads, while "
        "real transfer pays per-message overhead regardless of size.  It "
        "falls below the slower wan/edge links as payloads grow — "
        "benchmarks/test_socket_transport.py pins that direction."
    )
    return result
