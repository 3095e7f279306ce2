"""Benchmark: measured socket-transport bytes vs the Table III / LinkModel cost model.

Runs MD-GAN through the resident pool over both transports and pins the
backend's per-op byte meters against the paper's analytic communication
model, in a geometry chosen so the model is *exact*:

* ``num_batches = max_workers = N`` — every worker sits on its own pool slot
  and receives two **distinct** generated batches (``X_g = batches[n]``,
  ``X_d = batches[n+1 mod N]``), so pickle's object-graph dedup never merges
  payloads and the server->worker volume is exactly the Table III ``2bdN``
  floats per iteration (plus small pickle overhead).  At smaller ``k`` the
  same batch serves several workers and the measured bytes drop *below* the
  model — that regime is reported by ``experiments/traffic_check.py``; here
  we want the tight pin.
* Warm iterations only — install payloads (state, shards) ship once on the
  cold iteration and are excluded from the per-iteration figures.

Pinned claims:

* the pickled request/reply bytes are **identical across transports** (the
  frames are the same pickle streams; tcp only adds its 8-byte header, which
  the meter deliberately excludes — it counts protocol payload);
* warm per-iteration ``run`` bytes sit within [1.0, 1.35] of the analytic
  ``2bdN`` (sent) and ``bdN`` (received) predictions;
* measured loopback transfer time beats the wan/edge ``LinkModel``
  predictions for the same byte volume (sanity direction: the emulated links
  are slower than localhost).

All figures land in ``benchmark.extra_info`` for the CI slow lane's
``BENCH_<run>_<sha>.json`` artifact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import CostInputs, table3_communication
from repro.core import MDGANTrainer, TrainingConfig
from repro.datasets import make_mnist_like, partition_iid
from repro.models import build_architecture
from repro.nn.serialize import FLOAT_BYTES
from repro.simulation import LinkModel

pytestmark = [
    pytest.mark.slow,  # multi-transport training runs; excluded from the fast lane
    pytest.mark.paper_artifact("socket-transport"),
]

_NUM_WORKERS = 4
_BATCH_SIZE = 16
_ITERATIONS = 5  # 1 cold (installs) + 4 warm (measured)


@pytest.fixture(scope="module")
def mlp_setup():
    """A 4-worker MD-GAN whose run-op traffic matches Table III exactly."""
    train, _ = make_mnist_like(n_train=2048, n_test=64, image_size=16, seed=7)
    factory = build_architecture(
        "mnist-mlp",
        image_shape=train.spec.shape,
        num_classes=train.num_classes,
    )
    shards = partition_iid(train, _NUM_WORKERS, np.random.default_rng(3))
    return factory, shards


def _measure_run_op(mlp_setup, transport: str) -> dict:
    """Warm per-iteration 'run' op meters for one transport."""
    factory, shards = mlp_setup
    config = TrainingConfig(
        iterations=_ITERATIONS,
        batch_size=_BATCH_SIZE,
        num_batches=_NUM_WORKERS,  # k = N: two distinct batches per worker
        seed=11,
        backend="resident",
        max_workers=_NUM_WORKERS,  # one worker per slot: no shared-slot dedup
        transport=transport,
    )
    trainer = MDGANTrainer(factory, shards, config)
    try:
        trainer.train_iteration(1)  # cold: installs ship, excluded below
        backend = trainer.executor
        base = (
            backend.op_bytes_sent["run"],
            backend.op_bytes_received["run"],
            backend.op_transfer_seconds["run"],
        )
        for iteration in range(2, _ITERATIONS + 1):
            trainer.train_iteration(iteration)
        warm = _ITERATIONS - 1
        return {
            "sent": (backend.op_bytes_sent["run"] - base[0]) / warm,
            "received": (backend.op_bytes_received["run"] - base[1]) / warm,
            "seconds": (backend.op_transfer_seconds["run"] - base[2]) / warm,
        }
    finally:
        trainer.close()


def test_socket_bytes_match_cost_model(mlp_setup, benchmark):
    factory, shards = mlp_setup
    counts = factory.parameter_counts()
    analytic = table3_communication(
        CostInputs(
            generator_params=counts["generator"],
            discriminator_params=counts["discriminator"],
            object_size=factory.object_size,
            batch_size=_BATCH_SIZE,
            num_workers=_NUM_WORKERS,
            iterations=_ITERATIONS,
            local_dataset_size=len(shards[0]),
        )
    )
    model_sent = analytic["server_to_worker_at_server"]["md-gan"] * FLOAT_BYTES
    model_received = analytic["worker_to_server_at_server"]["md-gan"] * FLOAT_BYTES

    pipe = _measure_run_op(mlp_setup, "pipe")
    tcp = _measure_run_op(mlp_setup, "tcp")

    # The protocol bytes are transport-independent: same pickle streams.
    assert tcp["sent"] == pipe["sent"]
    assert tcp["received"] == pipe["received"]

    sent_ratio = tcp["sent"] / model_sent
    received_ratio = tcp["received"] / model_received
    # Exact-geometry pin: payload floats are the model's floats, the rest is
    # bounded pickle overhead.
    assert 1.0 <= sent_ratio <= 1.35, (
        f"warm run-op sent {tcp['sent']:.0f} B/iter vs modeled 2bdN = "
        f"{model_sent:.0f} B/iter (ratio {sent_ratio:.3f})"
    )
    assert 1.0 <= received_ratio <= 1.35, (
        f"warm run-op received {tcp['received']:.0f} B/iter vs modeled bdN = "
        f"{model_received:.0f} B/iter (ratio {received_ratio:.3f})"
    )

    benchmark.extra_info["model_sent_bytes_iter"] = round(model_sent, 1)
    benchmark.extra_info["model_received_bytes_iter"] = round(model_received, 1)
    benchmark.extra_info["measured_sent_bytes_iter"] = round(tcp["sent"], 1)
    benchmark.extra_info["measured_received_bytes_iter"] = round(tcp["received"], 1)
    benchmark.extra_info["sent_ratio"] = round(sent_ratio, 4)
    benchmark.extra_info["received_ratio"] = round(received_ratio, 4)
    benchmark.extra_info["tcp_transfer_s_iter"] = round(tcp["seconds"], 6)
    benchmark.extra_info["pipe_transfer_s_iter"] = round(pipe["seconds"], 6)

    # LinkModel direction check: localhost sockets must beat the emulated
    # wan/edge links for the same per-iteration byte volume (N round trips).
    volume = tcp["sent"] + tcp["received"]
    for link in (LinkModel.datacenter(), LinkModel.wan(), LinkModel.edge()):
        modeled_s = (
            2 * _NUM_WORKERS * link.latency_s + volume / link.bandwidth_bytes_per_s
        )
        benchmark.extra_info[f"{link.name}_modeled_s_iter"] = round(modeled_s, 6)
        if link.name != "datacenter":
            assert tcp["seconds"] < modeled_s, (
                f"loopback tcp spent {tcp['seconds']:.4f}s/iter on run-op "
                f"transfer, slower than the {link.name} model ({modeled_s:.4f}s)"
            )

    benchmark.pedantic(
        _measure_run_op, args=(mlp_setup, "tcp"), rounds=1, iterations=1
    )
    print(
        f"run-op bytes/iter at N={_NUM_WORKERS}, b={_BATCH_SIZE}, k=N: "
        f"sent {tcp['sent']:.0f} (model {model_sent:.0f}, x{sent_ratio:.3f}), "
        f"received {tcp['received']:.0f} (model {model_received:.0f}, "
        f"x{received_ratio:.3f}); tcp transfer {tcp['seconds'] * 1e3:.2f} ms/iter "
        f"vs pipe {pipe['seconds'] * 1e3:.2f} ms/iter"
    )
