"""Loss functions for GAN training.

Each functional loss returns ``(value, grad_wrt_logits_or_probs)`` so the
trainers can seed the backward pass directly.  Gradients are averaged over the
batch, matching the ``1/b`` factors in the paper's :math:`\\tilde A` and
:math:`\\tilde B` terms.

Two GAN objectives are provided:

* :class:`GANLoss` — the original (saturating) objective from Goodfellow et
  al., which is the one written out in the MD-GAN paper, plus the widely-used
  non-saturating generator variant.
* :class:`ACGANLoss` — the auxiliary-classifier GAN objective used for the
  paper's experiments (ACGAN, Odena et al.), which adds a class-prediction
  head to the discriminator.

Precision policy: the loss *internals* always run in float64 — the arrays are
tiny (one logit row per sample) and the log/exp arithmetic benefits from the
headroom — but returned gradients are cast back to the dtype of the incoming
logits, so a float32 model receives float32 seeds for its backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "sigmoid",
    "bce_with_logits",
    "softmax_cross_entropy",
    "mse_loss",
    "GANLoss",
    "ACGANLoss",
]

_EPS = 1e-12


def _grad_like(grad: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Cast a float64-computed gradient back to the caller's dtype."""
    dtype = np.asarray(reference).dtype
    if not np.issubdtype(dtype, np.floating):
        return grad
    return grad.astype(dtype, copy=False)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """Binary cross-entropy evaluated on raw logits.

    Returns the mean loss and its gradient with respect to the logits
    (already divided by the number of elements).
    """
    logits_in = logits
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ValueError(f"Shape mismatch: logits {logits.shape} vs targets {targets.shape}")
    # log(1 + exp(-|x|)) formulation avoids overflow.
    loss = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    probs = sigmoid(logits)
    grad = (probs - targets) / logits.size
    return float(loss.mean()), _grad_like(grad, logits_in)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Softmax cross-entropy with integer class labels.

    ``logits`` has shape ``(N, K)`` and ``labels`` shape ``(N,)``.  Returns
    the mean loss and gradient w.r.t. the logits.
    """
    logits_in = logits
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(n), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return float(loss), _grad_like(grad, logits_in)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. the prediction."""
    pred_in = pred
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    diff = pred - target
    return float(np.mean(diff**2)), _grad_like(2.0 * diff / diff.size, pred_in)


@dataclass
class GANLoss:
    """Standard (vanilla) GAN objective on discriminator logits.

    The discriminator outputs one raw logit per sample (no sigmoid layer —
    the loss applies it internally for numerical stability).

    Parameters
    ----------
    non_saturating:
        If ``True`` the generator maximises ``log D(G(z))`` instead of
        minimising ``log(1 - D(G(z)))``.  The paper's formulation is the
        saturating one; the non-saturating variant is the practical default
        in most implementations and is exposed for the ablations.
    label_smoothing:
        Real-label smoothing value (e.g. ``0.9``) applied to the
        discriminator's real targets; ``1.0`` disables smoothing.
    """

    non_saturating: bool = True
    label_smoothing: float = 1.0

    def discriminator_loss(
        self, real_logits: np.ndarray, fake_logits: np.ndarray
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        """Return ``(loss, grad_real_logits, grad_fake_logits)``."""
        real_targets = np.full_like(real_logits, self.label_smoothing, dtype=np.float64)
        fake_targets = np.zeros_like(fake_logits, dtype=np.float64)
        loss_r, grad_r = bce_with_logits(real_logits, real_targets)
        loss_f, grad_f = bce_with_logits(fake_logits, fake_targets)
        return loss_r + loss_f, grad_r, grad_f

    def generator_loss(self, fake_logits: np.ndarray) -> Tuple[float, np.ndarray]:
        """Return ``(loss, grad_fake_logits)`` for the generator objective."""
        if self.non_saturating:
            targets = np.ones_like(fake_logits, dtype=np.float64)
            return bce_with_logits(fake_logits, targets)
        # Saturating form: minimise log(1 - D(G(z))) = maximise BCE with
        # target 0, so the gradient flips sign.
        targets = np.zeros_like(fake_logits, dtype=np.float64)
        loss, grad = bce_with_logits(fake_logits, targets)
        return -loss, -grad


@dataclass
class ACGANLoss:
    """Auxiliary-classifier GAN objective (Odena et al., 2017).

    The discriminator outputs ``1 + num_classes`` raw values per sample: the
    first column is the real/fake logit, the remaining columns are class
    logits.  Both discriminator and generator add the classification loss on
    their respective batches, weighted by ``aux_weight``.
    """

    num_classes: int
    non_saturating: bool = True
    label_smoothing: float = 1.0
    aux_weight: float = 1.0

    def split(self, outputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split raw discriminator outputs into (adversarial logit, class logits)."""
        if outputs.ndim != 2 or outputs.shape[1] != 1 + self.num_classes:
            raise ValueError(
                f"ACGAN discriminator must output {1 + self.num_classes} values "
                f"per sample, got shape {outputs.shape}"
            )
        return outputs[:, :1], outputs[:, 1:]

    def discriminator_loss(
        self,
        real_outputs: np.ndarray,
        real_labels: np.ndarray,
        fake_outputs: np.ndarray,
        fake_labels: np.ndarray,
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        """Return ``(loss, grad_real_outputs, grad_fake_outputs)``."""
        adv = GANLoss(self.non_saturating, self.label_smoothing)
        real_adv, real_cls = self.split(real_outputs)
        fake_adv, fake_cls = self.split(fake_outputs)
        loss_adv, g_real_adv, g_fake_adv = adv.discriminator_loss(real_adv, fake_adv)
        loss_rc, g_real_cls = softmax_cross_entropy(real_cls, real_labels)
        loss_fc, g_fake_cls = softmax_cross_entropy(fake_cls, fake_labels)
        grad_real = np.concatenate([g_real_adv, self.aux_weight * g_real_cls], axis=1)
        grad_fake = np.concatenate([g_fake_adv, self.aux_weight * g_fake_cls], axis=1)
        total = loss_adv + self.aux_weight * (loss_rc + loss_fc)
        return float(total), grad_real, grad_fake

    def generator_loss(
        self, fake_outputs: np.ndarray, fake_labels: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Return ``(loss, grad_fake_outputs)`` for the generator objective."""
        adv = GANLoss(self.non_saturating, self.label_smoothing)
        fake_adv, fake_cls = self.split(fake_outputs)
        loss_adv, g_adv = adv.generator_loss(fake_adv)
        loss_cls, g_cls = softmax_cross_entropy(fake_cls, fake_labels)
        grad = np.concatenate([g_adv, self.aux_weight * g_cls], axis=1)
        return float(loss_adv + self.aux_weight * loss_cls), grad
