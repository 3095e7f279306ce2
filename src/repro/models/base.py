"""GAN architecture factories.

The distributed trainers need to instantiate *several* copies of the same
architecture (one discriminator per worker in MD-GAN, a full GAN per worker
in FL-GAN), each with its own parameters.  A :class:`GANFactory` captures the
architecture recipe — latent dimensionality, conditioning mode, builder
callables for generator and discriminator — and stamps out freshly
initialised :class:`~repro.nn.model.Sequential` models on demand.

Conditioning follows the ACGAN recipe used in the paper's experiments: the
discriminator's final dense layer emits ``1 + num_classes`` values (real/fake
logit plus class logits) and the generator receives the class as a one-hot
vector concatenated to the latent noise.  ``conditional=False`` yields the
plain GAN variant used for the CelebA experiment (single-logit
discriminator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..nn.model import Sequential
from ..nn.precision import PrecisionLike, resolve_dtype

__all__ = ["FactorySpec", "GANFactory", "one_hot", "generator_input"]


@dataclass(frozen=True)
class FactorySpec:
    """Picklable architecture facts of a :class:`GANFactory`.

    The concrete factories capture builder *closures* (hidden sizes, layer
    stacks), which do not survive pickling.  The per-worker tasks of
    :mod:`repro.runtime` never stamp out new models — they only need the
    dimensional facts used by the loss/feedback helpers — so the trainers
    hand them this frozen view instead of the full factory, keeping the
    resident pool's pickled install frames possible for every architecture.
    """

    name: str
    latent_dim: int
    image_shape: Tuple[int, int, int]
    num_classes: int
    conditional: bool

    @property
    def generator_input_dim(self) -> int:
        """Size of the generator's input vector (noise plus optional one-hot)."""
        return self.latent_dim + (self.num_classes if self.conditional else 0)

    @property
    def discriminator_output_dim(self) -> int:
        """Number of discriminator outputs (1, or 1 + num_classes for ACGAN)."""
        return 1 + (self.num_classes if self.conditional else 0)

    @property
    def object_size(self) -> int:
        """Number of scalar features per data object — the paper's ``d``."""
        c, h, w = self.image_shape
        return c * h * w


def one_hot(
    labels: np.ndarray, num_classes: int, dtype: PrecisionLike = None
) -> np.ndarray:
    """One-hot encode integer labels into shape ``(N, num_classes)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}); got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.size, num_classes), dtype=resolve_dtype(dtype))
    out[np.arange(labels.size), labels] = 1.0
    return out


def generator_input(
    noise: np.ndarray, labels: Optional[np.ndarray], num_classes: int
) -> np.ndarray:
    """Assemble the generator input from noise and (optionally) labels.

    The one-hot block is materialised in the noise's dtype so the
    concatenation does not upcast under a float32 policy.
    """
    if labels is None:
        return noise
    noise = np.asarray(noise)
    dtype = noise.dtype if np.issubdtype(noise.dtype, np.floating) else None
    return np.concatenate([noise, one_hot(labels, num_classes, dtype)], axis=1)


@dataclass
class GANFactory:
    """Recipe for creating matched generator / discriminator pairs.

    Attributes
    ----------
    name:
        Architecture identifier, e.g. ``"mnist-mlp"``.
    latent_dim:
        Dimensionality ``l`` of the noise vector ``z``.
    image_shape:
        Per-sample output shape ``(C, H, W)`` of the generator.
    num_classes:
        Number of classes for the auxiliary classifier head.
    conditional:
        Whether the ACGAN conditioning is enabled.
    generator_builder / discriminator_builder:
        Zero-argument-free callables ``builder(factory) -> list[Layer]``
        returning the layer stacks (unbuilt).
    """

    name: str
    latent_dim: int
    image_shape: Tuple[int, int, int]
    num_classes: int
    conditional: bool
    generator_builder: Callable[["GANFactory"], list]
    discriminator_builder: Callable[["GANFactory"], list]
    metadata: Dict[str, object] = field(default_factory=dict)

    # -- derived dimensions ----------------------------------------------------
    def spec(self) -> FactorySpec:
        """The picklable dimensional facts of this architecture."""
        return FactorySpec(
            name=self.name,
            latent_dim=self.latent_dim,
            image_shape=tuple(self.image_shape),
            num_classes=self.num_classes,
            conditional=self.conditional,
        )

    @property
    def generator_input_dim(self) -> int:
        """Size of the generator's input vector (noise plus optional one-hot)."""
        return self.latent_dim + (self.num_classes if self.conditional else 0)

    @property
    def discriminator_output_dim(self) -> int:
        """Number of discriminator outputs (1, or 1 + num_classes for ACGAN)."""
        return 1 + (self.num_classes if self.conditional else 0)

    @property
    def object_size(self) -> int:
        """Number of scalar features per data object — the paper's ``d``."""
        c, h, w = self.image_shape
        return c * h * w

    # -- model construction ------------------------------------------------------
    def make_generator(
        self, rng: np.random.Generator, dtype: PrecisionLike = None
    ) -> Sequential:
        """Create and build a freshly initialised generator.

        ``dtype`` selects the precision policy for the model's parameters and
        activations; ``None`` follows the process-wide default (float32).
        """
        layers = self.generator_builder(self)
        model = Sequential(layers, name=f"{self.name}-G", dtype=dtype)
        model.build((self.generator_input_dim,), rng)
        if model.output_shape != self.image_shape:
            raise ValueError(
                f"Generator of {self.name!r} produces shape {model.output_shape}, "
                f"expected {self.image_shape}"
            )
        return model

    def make_discriminator(
        self, rng: np.random.Generator, dtype: PrecisionLike = None
    ) -> Sequential:
        """Create and build a freshly initialised discriminator.

        ``dtype`` selects the precision policy for the model's parameters and
        activations; ``None`` follows the process-wide default (float32).
        """
        layers = self.discriminator_builder(self)
        model = Sequential(layers, name=f"{self.name}-D", dtype=dtype)
        model.build(self.image_shape, rng)
        if model.output_shape != (self.discriminator_output_dim,):
            raise ValueError(
                f"Discriminator of {self.name!r} produces shape "
                f"{model.output_shape}, expected ({self.discriminator_output_dim},)"
            )
        return model

    def parameter_counts(self) -> Dict[str, int]:
        """Return ``{'generator': |w|, 'discriminator': |theta|}``.

        Used by the analytic complexity and communication models
        (Tables II-IV, Figure 2).
        """
        rng = np.random.default_rng(0)
        return {
            "generator": self.make_generator(rng).num_parameters,
            "discriminator": self.make_discriminator(rng).num_parameters,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"GANFactory(name={self.name!r}, latent={self.latent_dim}, "
            f"image={self.image_shape}, conditional={self.conditional})"
        )
