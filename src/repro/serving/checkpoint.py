"""Checkpoint / restore for the serving layer and the MD-GAN trainer.

A warm resident pool holds nothing that cannot be rebuilt from the owner's
authoritative objects — that is the resident design's recovery story — so a
checkpoint never serialises pool *processes*; it serialises the owner-side
state from which a fresh pool re-installs bitwise-identically after a
process restart:

* **Service checkpoints** capture the served generator (weights *and*
  BatchNorm running statistics travel inside the pickled network), the
  handle version and the service config.  :func:`restore_service` builds a
  new :class:`~repro.serving.GeneratorService` that answers requests
  exactly as the old one would have.
* **Trainer checkpoints** capture everything a mid-run
  :class:`~repro.core.mdgan.MDGANTrainer` needs to continue training
  bitwise-exactly: the generator and its optimizer, the generator-update
  counter, the server RNG state, and per worker its
  :func:`~repro.runtime.tasks.mirror_payload`: the discriminator, its
  optimizer, the worker RNG state and the **full**
  :meth:`~repro.datasets.sampler.EpochSampler.cursor_state` (mid-epoch
  shuffle order included).  Resident worker state is synced back into the
  trainer first, so the checkpoint always reflects the pool's latest steps.

Checkpoint format (version 1): a dict with ``format`` =
``"repro-checkpoint"``, ``version`` = 1, ``kind`` (``"service"`` or
``"mdgan-trainer"``) and a ``state`` payload of plain pickled objects —
the whole stack is pure NumPy, so :mod:`pickle` round-trips it exactly.
:func:`save_checkpoint` / :func:`load_checkpoint` handle the file form.
"""

from __future__ import annotations

import copy
import pickle
from pathlib import Path
from typing import Any, Dict, Union

from ..runtime.tasks import mirror_payload, restore_mirror

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "service_checkpoint",
    "restore_service",
    "trainer_checkpoint",
    "restore_trainer",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1


def _envelope(kind: str, state: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "state": state,
    }


def _check_envelope(checkpoint: Dict[str, Any], kind: str) -> Dict[str, Any]:
    if checkpoint.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} checkpoint: {checkpoint.get('format')!r}")
    if checkpoint.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {checkpoint.get('version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    if checkpoint.get("kind") != kind:
        raise ValueError(f"expected a {kind!r} checkpoint, got {checkpoint.get('kind')!r}")
    return checkpoint["state"]


# -- service ------------------------------------------------------------------------


def service_checkpoint(service) -> Dict[str, Any]:
    """Snapshot a :class:`~repro.serving.GeneratorService` (deep-copied)."""
    factory = service.factory
    with service._lock:
        state = {
            "generator": copy.deepcopy(service.generator),
            "handle_version": service.handle.version,
            # Factories capture builder closures, which do not survive
            # pickling; the service only draws noise/labels, so the frozen
            # FactorySpec view is sufficient — and file-serialisable.
            "factory": factory.spec() if hasattr(factory, "spec") else factory,
            "config": service.config,
            "max_coalesce": service.max_coalesce,
        }
    return _envelope("service", state)


def restore_service(checkpoint: Dict[str, Any], config=None):
    """Rebuild a service from a :func:`service_checkpoint` snapshot.

    ``config`` overrides the checkpointed one (e.g. to restore onto a
    different transport or pool size — the samples are bitwise identical
    either way).  The restored service starts with a fresh version-0 handle
    on a cold pool, so the first dispatch installs and ships parameters
    once per slot, then the cache takes over again.
    """
    from .service import GeneratorService

    state = _check_envelope(checkpoint, "service")
    return GeneratorService(
        copy.deepcopy(state["generator"]),
        state["factory"],
        config if config is not None else state["config"],
        max_coalesce=state["max_coalesce"],
    )


# -- MD-GAN trainer -----------------------------------------------------------------


def trainer_checkpoint(trainer) -> Dict[str, Any]:
    """Snapshot a mid-run MD-GAN trainer for bitwise-exact continuation.

    Syncs resident worker state back into the trainer's objects first (a
    no-op for cold pools and non-resident backends), then deep-copies the
    authoritative state so further training does not mutate the snapshot.
    """
    trainer.sync_worker_state()
    state = {
        "generator": copy.deepcopy(trainer.generator),
        "gen_opt": copy.deepcopy(trainer._gen_opt),
        "gen_update_count": trainer._gen_update_count,
        "server_rng_state": copy.deepcopy(trainer._rng.bit_generator.state),
        "workers": [
            copy.deepcopy(mirror_payload(trainer._resident_state(worker)))
            for worker in trainer.workers
        ],
    }
    return _envelope("mdgan-trainer", state)


def restore_trainer(trainer, checkpoint: Dict[str, Any]) -> None:
    """Restore a :func:`trainer_checkpoint` into ``trainer``, in place.

    ``trainer`` must have been constructed with the same factory, shards and
    config as the checkpointed one (shards are immutable and deliberately
    not serialised — only the sampler *cursor* over them is).  The warm pool,
    if any, is released first: its resident copies and param-cache entries
    describe the pre-restore state, and the next ``train()`` re-installs
    from the restored objects — which is exactly the resident recovery path.

    RNG states are restored *in place* on the existing ``Generator`` objects
    (each worker's RNG is the same object its sampler draws from; replacing
    it would sever that identity).
    """
    state = _check_envelope(checkpoint, "mdgan-trainer")
    if len(state["workers"]) != len(trainer.workers):
        raise ValueError(
            f"checkpoint has {len(state['workers'])} workers, trainer has "
            f"{len(trainer.workers)}"
        )
    trainer.close_backend()
    trainer.generator = copy.deepcopy(state["generator"])
    trainer._gen_opt = copy.deepcopy(state["gen_opt"])
    trainer._gen_update_count = state["gen_update_count"]
    trainer._generator_handle.bump()
    trainer._rng.bit_generator.state = copy.deepcopy(state["server_rng_state"])
    for worker, saved in zip(trainer.workers, state["workers"]):
        restore_mirror(worker, copy.deepcopy(saved))


# -- file form ----------------------------------------------------------------------


def save_checkpoint(checkpoint: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a checkpoint dict to ``path`` (pickle, highest protocol)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        pickle.dump(checkpoint, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a checkpoint dict written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        checkpoint = pickle.load(fh)
    if not isinstance(checkpoint, dict) or checkpoint.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    return checkpoint
