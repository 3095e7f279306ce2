#!/usr/bin/env python3
"""Generation-as-a-service demo: serve samples from a warm resident pool.

Builds a :class:`repro.serving.GeneratorService` on the resident backend and
walks its contracts end to end:

* **concurrent clients** — N threads issue seeded requests against the
  shared pool; the dispatcher keeps a group in flight on every idle slot
  (coalescing what queues while every slot is busy), and a seeded request
  returns the same bits no matter the arrival order or the slot;
* **the versioned param cache** — after ``warmup()`` the byte meter shows
  zero generator parameter bytes shipped per request; ``update_generator``
  bumps the handle version and re-ships exactly once per slot;
* **checkpoint/restore** — the service snapshot round-trips through a file
  and a restored service (here onto the *serial* backend, simulating a
  restart on a different deployment) answers bitwise-identically.

Run::

    python examples/serve_demo.py [--clients 4] [--requests 8] [--workers 2]

Expected output (shape, not exact timings)::

    serving: mnist-mlp generator (~... params) on a 2-slot resident pool
    warmed 2 slots: N param bytes shipped, now steady
    32 requests from 4 clients: ... samples/s, p50=...ms p95=...ms
    param bytes during the measured window: 0
    seeded request is reproducible: True
    after update_generator: 2 re-ships (... bytes), then steady again
    restored-from-checkpoint service matches: True
"""

from __future__ import annotations

import argparse
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.core import TrainingConfig
from repro.datasets import make_mnist_like
from repro.models import build_architecture
from repro.serving import (
    GeneratorService,
    load_checkpoint,
    restore_service,
    save_checkpoint,
    service_checkpoint,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=4, help="concurrent client threads")
    parser.add_argument("--requests", type=int, default=8, help="requests per client")
    parser.add_argument("--workers", type=int, default=2, help="resident pool slots")
    parser.add_argument("--batch-size", type=int, default=16, help="samples per request")
    parser.add_argument("--seed", type=int, default=11)
    return parser.parse_args()


def main() -> None:
    args = parse_args()

    train, _ = make_mnist_like(n_train=256, n_test=64, image_size=16, seed=7)
    factory = build_architecture(
        "mnist-mlp", image_shape=train.spec.shape, num_classes=train.num_classes
    )
    generator = factory.make_generator(np.random.default_rng(args.seed))
    config = TrainingConfig(
        batch_size=args.batch_size,
        seed=args.seed,
        backend="resident",
        max_workers=args.workers,
    )
    print(
        f"serving: mnist-mlp generator (~{generator.num_parameters:,} params) "
        f"on a {args.workers}-slot resident pool"
    )

    with GeneratorService(generator, factory, config) as service:
        # One atomic pool-sized dispatch installs the generator and fills the
        # versioned param cache on every slot.
        service.warmup()
        pool = service.executor
        print(
            f"warmed {args.workers} slots: {pool.param_bytes_sent:,} param "
            "bytes shipped, now steady"
        )

        # Concurrent clients share the pool; per-request seeds make each
        # answer independent of arrival order.
        baseline = pool.param_bytes_sent

        def client(index: int) -> None:
            for i in range(args.requests):
                service.serve(seed=1 + index * 10_000 + i)

        with ThreadPoolExecutor(max_workers=args.clients) as executor:
            for future in [executor.submit(client, c) for c in range(args.clients)]:
                future.result()
        summary = service.stats.summary()
        print(
            f"{int(summary['requests'])} requests from {args.clients} clients: "
            f"{summary['samples_per_second']:,.0f} samples/s, "
            f"p50={summary['latency_p50_ms']:.2f}ms "
            f"p95={summary['latency_p95_ms']:.2f}ms"
        )
        print(
            "param bytes during the measured window: "
            f"{pool.param_bytes_sent - baseline}"
        )

        repeat = service.serve(seed=42)
        again = service.serve(seed=42)
        print(
            "seeded request is reproducible: "
            f"{np.array_equal(repeat.images, again.images)}"
        )

        # New weights invalidate the cache: exactly one re-ship per slot.
        baseline = pool.param_bytes_sent
        params = service.generator.get_parameters()
        service.update_generator((params * 0.9).astype(params.dtype))
        service.warmup()
        shipped = pool.param_bytes_sent - baseline
        print(
            f"after update_generator: {shipped // params.nbytes} re-ships "
            f"({shipped:,} bytes), then steady again"
        )

        # Checkpoint the service and a reference answer...
        checkpoint = service_checkpoint(service)
        expected = service.serve(seed=7)

    # ...then restore after the pool is gone — here onto the serial backend,
    # as a stand-in for a restart on a different deployment.  Same bits.
    with tempfile.TemporaryDirectory() as tmp:
        path = save_checkpoint(checkpoint, Path(tmp) / "service.ckpt")
        restored = restore_service(
            load_checkpoint(path), config=config.with_overrides(backend="serial")
        )
        with restored:
            answer = restored.serve(seed=7)
    print(
        "restored-from-checkpoint service matches: "
        f"{np.array_equal(answer.images, expected.images)}"
    )


if __name__ == "__main__":
    main()
