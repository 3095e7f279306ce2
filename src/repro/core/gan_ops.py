"""Shared GAN training steps used by every trainer.

The MD-GAN algorithm splits the classic generator update into two halves:
workers compute the gradient of the generator objective *with respect to the
generated images* (the error feedback ``F_n``), and the server chains that
feedback through the generator to obtain parameter gradients.  The helpers in
this module expose exactly those halves, so the standalone trainer, FL-GAN's
local updates and MD-GAN's split updates all share one implementation of the
loss mathematics (Section II of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..models.base import GANFactory, generator_input
from ..nn.losses import ACGANLoss, GANLoss
from ..nn.model import Sequential
from ..nn.optim import Optimizer

__all__ = [
    "GANObjective",
    "GeneratedBatch",
    "discriminator_update",
    "generator_feedback",
    "apply_feedback_to_generator",
    "generator_update",
    "draw_generator_input",
    "sample_generator_images",
]


@dataclass
class GeneratedBatch:
    """A batch of generated images together with its generation inputs.

    ``snapshot`` is the generator as the forward that made ``images`` left it
    (:meth:`~repro.nn.model.Sequential.snapshot`), valid only until the
    generator's parameters change; without it (stale, or made on a pool
    slot) the owner replays the forward from ``noise``/``labels``.
    """

    images: np.ndarray
    noise: np.ndarray
    labels: Optional[np.ndarray]
    batch_index: int = 0
    snapshot: Optional[Sequential] = field(default=None, repr=False)


class GANObjective:
    """Adversarial objective dispatching between vanilla GAN and ACGAN.

    ``factory`` may be a full :class:`~repro.models.base.GANFactory` or its
    picklable :class:`~repro.models.base.FactorySpec` view — the objective
    (and the helpers below) only consult the dimensional facts, never the
    builders, so trainers hand the spec to worker tasks that must survive a
    pickle round-trip into a resident pool slot.
    """

    def __init__(
        self,
        factory: GANFactory,
        non_saturating: bool = True,
        label_smoothing: float = 1.0,
    ) -> None:
        self.factory = factory
        self.conditional = factory.conditional
        if self.conditional:
            self._loss = ACGANLoss(
                num_classes=factory.num_classes,
                non_saturating=non_saturating,
                label_smoothing=label_smoothing,
            )
        else:
            self._loss = GANLoss(
                non_saturating=non_saturating, label_smoothing=label_smoothing
            )

    # -- discriminator side ------------------------------------------------------
    def discriminator_loss(
        self,
        real_outputs: np.ndarray,
        real_labels: Optional[np.ndarray],
        fake_outputs: np.ndarray,
        fake_labels: Optional[np.ndarray],
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        """Loss and gradients w.r.t. the discriminator's raw outputs."""
        if self.conditional:
            return self._loss.discriminator_loss(
                real_outputs, real_labels, fake_outputs, fake_labels
            )
        return self._loss.discriminator_loss(real_outputs, fake_outputs)

    def discriminator_real_term(
        self, real_outputs: np.ndarray, real_labels: Optional[np.ndarray]
    ) -> Tuple[float, np.ndarray]:
        """Real-data term of the discriminator loss (the paper's A-tilde).

        The discriminator loss is additive over the real and generated
        batches, so each term is computed on its own batch's outputs — one
        segment each of :func:`discriminator_update`'s pass.
        """
        from ..nn.losses import bce_with_logits, softmax_cross_entropy

        smoothing = self._loss.label_smoothing
        if self.conditional:
            adv, cls = self._loss.split(real_outputs)
            loss_adv, grad_adv = bce_with_logits(adv, np.full_like(adv, smoothing))
            loss_cls, grad_cls = softmax_cross_entropy(cls, real_labels)
            grad = np.concatenate([grad_adv, self._loss.aux_weight * grad_cls], axis=1)
            return float(loss_adv + self._loss.aux_weight * loss_cls), grad
        loss, grad = bce_with_logits(
            real_outputs, np.full_like(real_outputs, smoothing)
        )
        return float(loss), grad

    def discriminator_fake_term(
        self, fake_outputs: np.ndarray, fake_labels: Optional[np.ndarray]
    ) -> Tuple[float, np.ndarray]:
        """Generated-data term of the discriminator loss (the paper's B-tilde)."""
        from ..nn.losses import bce_with_logits, softmax_cross_entropy

        if self.conditional:
            adv, cls = self._loss.split(fake_outputs)
            loss_adv, grad_adv = bce_with_logits(adv, np.zeros_like(adv))
            loss_cls, grad_cls = softmax_cross_entropy(cls, fake_labels)
            grad = np.concatenate([grad_adv, self._loss.aux_weight * grad_cls], axis=1)
            return float(loss_adv + self._loss.aux_weight * loss_cls), grad
        loss, grad = bce_with_logits(fake_outputs, np.zeros_like(fake_outputs))
        return float(loss), grad

    # -- generator side ------------------------------------------------------------
    def generator_loss(
        self, fake_outputs: np.ndarray, fake_labels: Optional[np.ndarray]
    ) -> Tuple[float, np.ndarray]:
        """Loss and gradient w.r.t. the discriminator outputs on fake data."""
        if self.conditional:
            return self._loss.generator_loss(fake_outputs, fake_labels)
        return self._loss.generator_loss(fake_outputs)


def draw_generator_input(
    generator: Sequential, factory: GANFactory, batch_size: int, rng: np.random.Generator
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Draw one batch's noise (and labels if conditional): ``(noise, labels, g_input)``.

    Noise is drawn in float64 by the caller's RNG and cast once to the
    generator's policy dtype, so the stored batch replays without per-step
    upcasts.  Every generation path (inline, resident, serving) draws here,
    in batch order, which is what keeps them on one RNG stream.
    """
    noise = rng.normal(0.0, 1.0, size=(batch_size, factory.latent_dim))
    noise = noise.astype(generator.dtype, copy=False)
    labels = rng.integers(0, factory.num_classes, size=batch_size) if factory.conditional else None
    return noise, labels, generator_input(noise, labels, factory.num_classes)


def sample_generator_images(
    generator: Sequential,
    factory: GANFactory,
    batch_size: int,
    rng: np.random.Generator,
    batch_index: int = 0,
    training: bool = True,
    count: int = 1,
) -> List[GeneratedBatch]:
    """Draw noise (and labels if conditional), run the generator forward, snapshot if training.

    Returns ``count`` batches (indices from ``batch_index``), drawn in batch
    order and generated by one forward of ``count`` segments: bitwise
    ``count`` single-batch calls, each batch's snapshot backpropagating its
    own segment.
    """
    drawn = [draw_generator_input(generator, factory, batch_size, rng) for _ in range(count)]
    images = generator.forward(
        np.concatenate([g for _, _, g in drawn]), training=training, segments=(batch_size,) * count
    )
    batches = []
    for j, (noise, labels, _) in enumerate(drawn):
        start, stop = j * batch_size, (j + 1) * batch_size
        snapshot = generator.snapshot((j, start, stop)) if training else None
        batches.append(
            GeneratedBatch(images[start:stop], noise, labels, batch_index + j, snapshot)
        )
    return batches


def discriminator_update(
    discriminator: Sequential,
    objective: GANObjective,
    optimizer: Optimizer,
    real_images: Optional[np.ndarray],
    real_labels: Optional[np.ndarray],
    fake_images: np.ndarray,
    fake_labels: Optional[np.ndarray],
    real_loss: Optional[float] = None,
) -> float:
    """One discriminator learning step (paper Section II-1).

    The discriminator loss is the sum of a real-batch term (A-tilde) and a
    generated-batch term (B-tilde), each on its own batch, so the two
    batches go through one pass as two segments, ``[real, fake]`` — bitwise
    a pass per batch, real first: every layer accumulates the real batch's
    gradient, then the generated one's — and a single optimizer step is
    applied.  Nobody reads the gradient with respect to the images here, so
    the pass does not compute it.  Returns the total loss.

    Given ``real_loss``, the real batch's pass has run (its gradient alone in
    ``grads``): only the generated batch's runs, the second separate pass.
    """
    x, segments = fake_images, None
    if real_loss is None:
        discriminator.zero_grad()
        x = np.concatenate([real_images, fake_images])
        segments = (len(real_images), len(fake_images))
    outputs = discriminator.forward(x, training=True, segments=segments)
    n = len(outputs) - len(fake_images)
    loss_fake, grad = objective.discriminator_fake_term(outputs[n:], fake_labels)
    if real_loss is None:
        real_loss, grad_real = objective.discriminator_real_term(outputs[:n], real_labels)
        grad = np.concatenate([grad_real, grad])
    discriminator.backward(grad, input_grad=False, segments=segments)
    optimizer.step(discriminator)
    return float(real_loss + loss_fake)


def generator_feedback(
    discriminator: Sequential,
    objective: GANObjective,
    generated: GeneratedBatch,
) -> Tuple[float, np.ndarray]:
    """Compute MD-GAN's error feedback ``F_n`` for a generated batch.

    Returns ``(generator_loss, dJ_gen/d_images)`` where the gradient has the
    same shape as ``generated.images``.  The worker never updates its
    discriminator from the generator objective, so the backward pass is the
    input-gradient-only one — no weight gradient is computed — and the
    discriminator's parameter gradients are left cleared.
    """
    outputs = discriminator.forward(generated.images, training=True)
    loss, grad_outputs = objective.generator_loss(outputs, generated.labels)
    feedback = discriminator.backward(grad_outputs, param_grads=False)
    discriminator.zero_grad()
    return float(loss), feedback


def apply_feedback_to_generator(
    generator: Sequential,
    factory: GANFactory,
    batches: Sequence[GeneratedBatch],
    feedbacks: Sequence[np.ndarray],
    weights: Optional[Sequence[float]] = None,
) -> None:
    """Turn error feedbacks into generator parameter gradients (server side).

    Each (weighted) feedback is backpropagated through its batch's snapshot,
    or through a replay of its forward on the stored noise when it has none;
    gradients accumulate in order.  A snapshot's BatchNorm statistics are
    folded in, so running stats take one update per feedback either way.
    Weights default to ``1 / len(feedbacks)``, the paper's averaging of
    worker feedbacks (Section IV-B2).

    The caller is responsible for calling ``generator.zero_grad()`` before
    and for applying the optimizer step afterwards.
    """
    if len(batches) != len(feedbacks):
        raise ValueError(
            f"Got {len(batches)} batches but {len(feedbacks)} feedbacks"
        )
    if not batches:
        return
    if weights is None:
        weights = [1.0 / len(feedbacks)] * len(feedbacks)
    if len(weights) != len(feedbacks):
        raise ValueError("weights must match feedbacks in length")
    for batch, feedback, weight in zip(batches, feedbacks, weights):
        if feedback.shape != batch.images.shape:
            raise ValueError(
                f"Feedback shape {feedback.shape} does not match generated "
                f"batch shape {batch.images.shape}"
            )
        forward = batch.snapshot or generator
        if batch.snapshot is None:
            generator.forward(generator_input(batch.noise, batch.labels, factory.num_classes))
        else:
            generator.fold_batch_stats(forward.batch_stats())
        forward.backward(np.asarray(feedback, dtype=generator.dtype) * weight, input_grad=False)


def generator_update(
    generator: Sequential,
    discriminator: Sequential,
    factory: GANFactory,
    objective: GANObjective,
    optimizer: Optimizer,
    batch_size: int,
    rng: np.random.Generator,
) -> float:
    """Classic single-machine generator update (used by standalone / FL-GAN).

    Implemented with the same two-half mechanics as MD-GAN — compute the
    image-space gradient through the discriminator, then chain it through
    the generator — which keeps the mathematics identical across all three
    algorithms.
    """
    [generated] = sample_generator_images(generator, factory, batch_size, rng)
    loss, feedback = generator_feedback(discriminator, objective, generated)
    generator.zero_grad()
    apply_feedback_to_generator(generator, factory, [generated], [feedback])
    optimizer.step(generator)
    return float(loss)
