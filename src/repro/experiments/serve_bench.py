"""Serving benchmark: throughput and latency of ``GeneratorService.serve()``.

MD-GAN's north star is a central generator serving samples to a fleet; this
runner measures the request-facing serving layer (:mod:`repro.serving`)
under concurrent load, on both resident transports:

* ``N`` client threads each issue a stream of one-batch generation
  requests (per-request seeds, so samples are independent of arrival
  order); the service keeps a coalesced k-batch dispatch in flight on
  every idle pool slot, starting at the least-loaded one.
* Per transport (``pipe`` and ``tcp``) the run reports throughput
  (samples/s, requests/s), latency percentiles (p50/p95/p99), the mean
  coalescing factor, and the parameter bytes shipped — which the versioned
  param cache holds at *one install per slot* no matter how many requests
  follow (an unchanged generator ships zero bytes per request).
* A ``serial-inline`` row (the same service on the serial backend) anchors
  the numbers: it is the no-pool, no-IPC reference the warm pool must beat
  at scale.

The CI slow lane's benchmark suite (``benchmarks/test_serve_bench.py``)
runs this at smoke scale and lands the rows in the
``BENCH_<run>_<sha>.json`` artifact.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from ..core.config import TrainingConfig
from ..serving import GeneratorService
from .common import ExperimentResult, ExperimentScale, base_config, get_scale, prepare

__all__ = ["run_serve_bench"]


def _bench_service(
    factory,
    config: TrainingConfig,
    label: str,
    num_clients: int,
    requests_per_client: int,
) -> dict:
    """Drive one service configuration under concurrent load; return a row."""
    generator = factory.make_generator(np.random.default_rng(config.seed))
    with GeneratorService(generator, factory, config) as service:
        # Warm-up: opens the pool and primes every slot's generator install
        # and param cache, so the measured window reflects steady-state
        # serving (zero param bytes per request on an unchanged generator).
        service.warmup()
        backend = service._backend
        warm_param_bytes = getattr(backend, "param_bytes_sent", 0)

        def client(client_index: int) -> None:
            for i in range(requests_per_client):
                service.serve(seed=1 + client_index * 10_000 + i)

        with ThreadPoolExecutor(max_workers=num_clients) as pool:
            for future in [pool.submit(client, c) for c in range(num_clients)]:
                future.result()

        summary = service.stats.summary()
        row = {
            "config": label,
            "clients": num_clients,
            "requests": int(summary["requests"]),
            "batch_size": config.batch_size,
            "samples_per_s": summary["samples_per_second"],
            "requests_per_s": summary["requests_per_second"],
            "latency_p50_ms": summary["latency_p50_ms"],
            "latency_p95_ms": summary["latency_p95_ms"],
            "latency_p99_ms": summary["latency_p99_ms"],
            "mean_coalesce": summary["mean_coalesce"],
            "steady_param_bytes": float(
                getattr(backend, "param_bytes_sent", 0) - warm_param_bytes
            ),
        }
    return row


def run_serve_bench(
    dataset: str = "mnist",
    architecture: str = "mnist-mlp",
    scale: ExperimentScale | str = "smoke",
    transports: Sequence[str] = ("pipe", "tcp"),
    num_clients: int = 4,
    requests_per_client: int = 8,
    **runtime,
) -> ExperimentResult:
    """Benchmark ``GeneratorService`` under concurrent load on both transports.

    ``runtime`` (any :class:`TrainingConfig` execution field) goes verbatim
    into the base config; the pool has ``min(4, N)`` slots unless
    ``max_workers`` is given.  Every row then pins ``backend`` after it
    (``"resident"`` per transport in ``transports``, which also pins
    ``transport``, and ``"serial"`` with ``on_slot_loss="fail_stop"`` for
    the inline reference).
    """
    scale = get_scale(scale)
    factory = prepare(dataset, architecture, scale, evaluate=False).factory

    result = ExperimentResult(
        name="Serving benchmark",
        description=(
            f"GeneratorService.serve() under {num_clients} concurrent clients x "
            f"{requests_per_client} requests ({dataset} / {architecture}, "
            f"b={scale.batch_size_small}); warm resident pool per transport vs "
            "the serial inline reference."
        ),
    )

    base = base_config(scale, **runtime)
    base = base.with_overrides(max_workers=base.max_workers or min(4, scale.num_workers))
    configs = {
        f"resident/{transport}": base.with_overrides(backend="resident", transport=transport)
        for transport in transports
    }
    # The inline reference has no pool slots to lose.
    configs["serial-inline"] = base.with_overrides(backend="serial", on_slot_loss="fail_stop")
    for label, config in configs.items():
        result.add_row(
            **_bench_service(
                factory,
                config,
                label=label,
                num_clients=num_clients,
                requests_per_client=requests_per_client,
            )
        )
    result.add_note(
        "steady_param_bytes counts generator parameter bytes shipped after "
        "warm-up: the versioned param cache keeps it at 0 for an unchanged "
        "generator, regardless of request count."
    )
    result.add_note(
        "per-request seeds make samples independent of arrival order; the "
        "same seeds produce bitwise-identical batches on every config."
    )
    return result
