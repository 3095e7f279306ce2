#!/usr/bin/env python3
"""Bitwise digest of seeded runs, for parent-vs-change comparisons.

Runs a fixed, named list of small seeded configurations and records one
SHA-256 per (config, field): losses, events, staleness, traffic, the
compute ledgers (every node's flops, ``by_category`` in key order and
peak), every model's flat parameters, BatchNorm running statistics,
optimizer state vectors, the resident pool's per-op byte meters, served
samples, and every column of the analytic runners' rows (Tables II-IV,
Figure 2, the timing estimate).  Two digests of trees that compute the same
bits are equal; ``--compare`` names each (config, field) that is not.

Usage::

    python tools/digest.py --out change.json
    python tools/digest.py --src /path/to/parent/src --out parent.json
    python tools/digest.py --compare parent.json change.json
    python tools/digest.py --compare parent.json change.json --expect tools/digest_expected.txt

``--compare`` exits non-zero on any difference; with ``--expect FILE`` only
on a difference FILE does not list (or a listed pair that no longer differs).
``--src`` selects the ``repro`` package to digest (default: this checkout's
``src``), so one copy of the tool digests any tree.  ``--configs`` runs a
subset.  BLAS runs single-threaded unless the environment says otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ITERATIONS = 10
BATCH_SIZE = 8


def canonical(value) -> bytes:
    """A byte encoding that differs whenever two values differ bitwise."""
    import numpy as np

    if isinstance(value, np.ndarray):
        head = f"nd:{value.dtype.str}:{value.shape}:".encode()
        return head + np.ascontiguousarray(value).tobytes()
    if isinstance(value, np.generic):
        return canonical(np.asarray(value))
    if isinstance(value, float):
        return f"f:{value.hex()}".encode()
    if isinstance(value, dict):
        items = (canonical(k) + b"=" + canonical(v) for k, v in value.items())
        return b"{" + b",".join(items) + b"}"
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(canonical(v) for v in value) + b"]"
    return f"{type(value).__name__}:{value!r}".encode()


def sha(value) -> str:
    return hashlib.sha256(canonical(value)).hexdigest()


# -- what a run leaves behind ---------------------------------------------------


def _models_and_optimizers(trainer):
    models, optimizers = {}, {}
    if hasattr(trainer, "server_generator"):  # FL-GAN
        models.update(server_generator=trainer.server_generator)
        models["server_discriminator"] = trainer.server_discriminator
        for worker in trainer.workers:
            models[f"w{worker.index}.generator"] = worker.generator
            optimizers[f"w{worker.index}.gen_opt"] = worker.gen_opt
    else:  # MD-GAN
        models["generator"] = trainer.generator
        optimizers["generator_opt"] = getattr(trainer, "_gen_opt", None)
    for worker in trainer.workers:
        models[f"w{worker.index}.discriminator"] = worker.discriminator
        optimizers[f"w{worker.index}.disc_opt"] = worker.disc_opt
    return models, optimizers


def _optimizer_state(opt):
    if opt is None:
        return None
    names = getattr(opt, "_state_names", ())
    return [opt.iterations] + [getattr(opt, name, None) for name in names]


def _batchnorm_stats(model):
    return [
        (layer.running_mean, layer.running_var)
        for layer in model.layers
        if hasattr(layer, "running_mean")
    ]


def trainer_fields(trainer, history) -> dict:
    models, optimizers = _models_and_optimizers(trainer)
    nodes = [trainer.cluster.server, *trainer.cluster.workers]
    fields = {
        "losses": (history.iterations, history.generator_loss, history.discriminator_loss),
        "events": history.events,
        "staleness": (history.staleness, history.worker_staleness),
        "traffic": (
            history.traffic,
            {str(key): (s.messages, s.bytes) for key, s in trainer.cluster.meter.links.items()},
        ),
        "compute": (
            history.compute,
            [
                (n.name, n.compute.flops, n.compute.by_category, n.compute.peak_memory_floats)
                for n in nodes
            ],
        ),
        "params": {name: model.get_parameters() for name, model in models.items()},
        "batchnorm": {name: _batchnorm_stats(model) for name, model in models.items()},
        "optimizer": {name: _optimizer_state(opt) for name, opt in optimizers.items()},
    }
    # The wire meters of the resident backend only: serial's inline slot
    # moves no bytes.
    executor = getattr(trainer, "executor", None)
    if getattr(executor, "name", None) != "resident":
        return fields
    for meter in ("op_bytes_sent", "op_bytes_received"):
        for op, nbytes in sorted(getattr(executor, meter, {}).items()):
            fields[f"{meter}[{op}]"] = nbytes
    return fields


# -- the configurations -----------------------------------------------------------


def _toy():
    import numpy as np

    from repro.datasets import make_gaussian_ring, partition_iid
    from repro.models import build_toy_gan

    train, _ = make_gaussian_ring(n_train=160, n_test=40, image_size=8, seed=7)
    factory = build_toy_gan(
        image_shape=train.spec.shape, num_classes=train.num_classes, latent_dim=8, hidden=16
    )
    return factory, partition_iid(train, 4, np.random.default_rng(3))


def _cnn(minibatch_discrimination=False):
    import numpy as np

    from repro.datasets import make_mnist_like, partition_iid
    from repro.models import build_mnist_cnn_gan

    train, _ = make_mnist_like(n_train=256, n_test=40, image_size=16, seed=7)
    factory = build_mnist_cnn_gan(
        image_shape=train.spec.shape,
        num_classes=train.num_classes,
        width_factor=0.25,
        use_minibatch_discrimination=minibatch_discrimination,
    )
    return factory, partition_iid(train, 4, np.random.default_rng(3))


def _cnn_mbd():
    """The paper's mnist-cnn discriminator (Dropout, minibatch discrimination), width 1/4."""
    return _cnn(minibatch_discrimination=True)


def _config(backend="serial", **overrides):
    from repro.core import TrainingConfig

    if backend == "resident-tcp":
        backend, overrides["transport"] = "resident", "tcp"
    options = dict(
        iterations=ITERATIONS,
        batch_size=BATCH_SIZE,
        num_batches=2,
        disc_steps=2,
        seed=11,
        backend=backend,
        max_workers=2,
    )
    options.update(overrides)
    return TrainingConfig(**options)


def _train(trainer_cls, data, config, **kwargs) -> dict:
    factory, shards = data
    with trainer_cls(factory, shards, config, **kwargs) as trainer:
        return trainer_fields(trainer, trainer.train())


def _mdgan(data, backend="serial", **overrides):
    def run():
        from repro.core import MDGANTrainer

        return _train(MDGANTrainer, data(), _config(backend, **overrides))

    return run


def _flgan(backend, data=_toy, **overrides):
    def run():
        from repro.core import FLGANTrainer

        config = _config(backend, **{"epochs_per_swap": 0.5, **overrides})
        return _train(FLGANTrainer, data(), config)

    return run


def _mdgan_crash():
    from repro.core import MDGANTrainer
    from repro.simulation import CrashSchedule

    crashes = CrashSchedule({3: ["worker-1"]})
    return _train(MDGANTrainer, _toy(), _config(), crash_schedule=crashes)


def _mdgan_degrade_kill():
    """Elastic ``degrade``: slot 1 dies while iteration 2 is in flight."""
    from repro.core import MDGANTrainer
    from repro.runtime import ChaosTransport, ResidentBackend, serve_slot
    from repro.runtime.transport import LocalPipeTransport

    factory, shards = _toy()
    config = _config("resident", on_slot_loss="degrade", rejoin_backoff=0.05)
    trainer = MDGANTrainer(factory, shards, config)
    transport = ChaosTransport(LocalPipeTransport(serve_slot))
    backend = ResidentBackend(
        max_workers=2, transport=transport, membership_policy=config.membership_policy()
    )
    trainer.adopt_backend(backend, owned=True)
    merge = trainer._merge_worker_phase

    def merge_under_kill(iteration, live_workers, handle):
        if iteration == 2:
            transport.kill_slot(1)
        return merge(iteration, live_workers, handle)

    trainer._merge_worker_phase = merge_under_kill
    with trainer:
        return trainer_fields(trainer, trainer.train())


def _standalone():
    from repro.core import StandaloneGANTrainer

    factory, shards = _toy()
    with StandaloneGANTrainer(factory, shards[0], _config()) as trainer:
        history = trainer.train()
    models = {"generator": trainer.generator, "discriminator": trainer.discriminator}
    return {
        "losses": (history.iterations, history.generator_loss, history.discriminator_loss),
        "params": {name: model.get_parameters() for name, model in models.items()},
        "batchnorm": {name: _batchnorm_stats(model) for name, model in models.items()},
        "optimizer": [_optimizer_state(trainer._gen_opt), _optimizer_state(trainer._disc_opt)],
    }


def _service():
    import numpy as np

    from repro.serving import GeneratorService

    factory, _ = _cnn()
    generator = factory.make_generator(np.random.default_rng(5))
    with GeneratorService(generator, factory, _config("resident")) as service:
        service.warmup()
        samples = [service.serve(seed=seed).images for seed in range(4)]
        samples += [service.serve(batch_size=3).images for _ in range(2)]
    return {"samples": samples, "batchnorm": _batchnorm_stats(service.generator)}


def _rows(runner_name):
    """One field per column of a runner's rows, plus its notes."""

    def run():
        import repro.experiments as experiments

        result = getattr(experiments, runner_name)()
        columns = dict.fromkeys(key for row in result.rows for key in row)
        fields = {key: [row.get(key) for row in result.rows] for key in columns}
        return {**fields, "notes": result.notes}

    return run


CONFIGS = {
    "mdgan-serial": _mdgan(_toy),
    "mdgan-resident-pipe": _mdgan(_toy, "resident"),
    "mdgan-resident-tcp": _mdgan(_toy, "resident-tcp"),
    "mdgan-depth1": _mdgan(_toy, pipeline_depth=1),
    "mdgan-participation0.5": _mdgan(_toy, participation_fraction=0.5),
    "mdgan-crash": _mdgan_crash,
    "mdgan-async-serial": _mdgan(_toy, aggregation="async"),
    "mdgan-async-depth1-serial": _mdgan(_toy, aggregation="async", pipeline_depth=1),
    "mdgan-degrade-kill": _mdgan_degrade_kill,
    "cnn-k2-serial": _mdgan(_cnn, precision="float32"),
    "cnn-k2-resident": _mdgan(_cnn, "resident", precision="float32"),
    "cnn-k2-depth1": _mdgan(_cnn, precision="float32", pipeline_depth=1),
    "cnn-k2-depth1-resident": _mdgan(_cnn, "resident", precision="float32", pipeline_depth=1),
    "cnn-mbd-serial": _mdgan(_cnn_mbd, precision="float32"),
    "flgan-serial": _flgan("serial"),
    "flgan-async-serial": _flgan("serial", aggregation="async"),
    # Rounds of 4 iterations: a depth-1 window holds steps between rounds.
    "flgan-depth1-serial": _flgan("serial", epochs_per_swap=0.8, pipeline_depth=1),
    "flgan-resident": _flgan("resident"),
    "flgan-cnn-serial": _flgan("serial", _cnn, precision="float32"),
    "flgan-cnn-resident": _flgan("resident", _cnn, precision="float32"),
    "service-samples": _service,
    "standalone": _standalone,
    "run_table2": _rows("run_table2"),
    "run_table3": _rows("run_table3"),
    "run_table4": _rows("run_table4"),
    "run_fig2": _rows("run_fig2"),
    "run_timing_estimate": _rows("run_timing_estimate"),
}


def digest(names) -> dict:
    out = {}
    for name in names:
        start = time.perf_counter()
        try:
            fields = {field: sha(value) for field, value in CONFIGS[name]().items()}
        except Exception as exc:  # an older tree may lack a config's API
            fields = {"error": f"{type(exc).__name__}: {exc}"}
        out[name] = fields
        print(f"{name}: {len(fields)} fields, {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return out


def read_expected(path: str) -> set:
    """The ``(config, field)`` pairs a change moves on purpose: one ``config field`` a line.

    Blank lines and ``#`` comments are skipped; a config that only one side
    has is listed by its name alone.
    """
    pairs = set()
    for line in Path(path).read_text().splitlines():
        words = line.split("#", 1)[0].split()
        if words:
            pairs.add((words[0], words[1] if len(words) > 1 else ""))
    return pairs


def compare(a_path: str, b_path: str, expected: frozenset = frozenset()) -> int:
    """Print each differing (config, field); return how many are not ``expected``.

    An ``expected`` pair that does not differ counts too: the list is stale.
    """
    a, b = (json.loads(Path(p).read_text())["digest"] for p in (a_path, b_path))
    differing, unexpected = set(), 0
    for config in [*a, *(c for c in b if c not in a)]:
        fa, fb = a.get(config), b.get(config)
        if fa is None or fb is None:
            pairs = {(config, ""): f"only in {a_path if fb is None else b_path}"}
        else:
            fields = sorted(set(fa) | set(fb))
            pairs = {(config, f): "differs" for f in fields if fa.get(f) != fb.get(f)}
        for (name, field), what in pairs.items():
            note = " (expected)" if (name, field) in expected else ""
            print(f"{name}{' ' + field if field else ''}: {what}{note}")
            unexpected += not note
        differing.update(pairs)
    for name, field in sorted(expected - differing):
        print(f"{name}{' ' + field if field else ''}: expected to differ, but equal")
        unexpected += 1
    print(f"{len(differing)} differing (config, field) pairs" if differing else "equal")
    return unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--out", help="write the digest JSON here (default: stdout)")
    parser.add_argument("--configs", nargs="+", choices=sorted(CONFIGS), default=list(CONFIGS))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument(
        "--expect", metavar="FILE", help="with --compare: the pairs allowed to differ"
    )
    args = parser.parse_args(argv)
    if args.compare:
        expected = read_expected(args.expect) if args.expect else set()
        return 1 if compare(*args.compare, frozenset(expected)) else 0
    sys.path.insert(0, args.src)
    start = time.perf_counter()
    payload = {"src": args.src, "digest": digest(args.configs)}
    print(f"total {time.perf_counter() - start:.1f} s", file=sys.stderr)
    text = json.dumps(payload, indent=1, sort_keys=False)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
