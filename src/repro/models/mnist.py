"""MNIST architectures from the paper (Section V-A-b).

Two variants are provided:

* **MLP** — generator and discriminator of three fully-connected layers each
  (512, 512, 784 and 512, 512, 11 neurons).  With the paper's latent size of
  100 this gives 716,560 generator parameters, matching the paper's count;
  the ACGAN conditioning used here (one-hot concatenated to the noise) adds
  ``num_classes x 512`` parameters on the first layer.
* **CNN** — generator of one dense layer (6,272 neurons = 128 x 7 x 7) and two
  transposed convolutions (32 and ``C`` kernels of 5x5); discriminator of six
  3x3 convolutions (16..512 kernels), a minibatch-discrimination layer and a
  final dense layer.

Both builders accept a ``width_factor`` that scales every hidden width, and
adapt to any image size divisible by 4, so the same code runs the paper-exact
28x28 architectures and the scaled-down configurations used for CPU-friendly
tests and benchmarks.
"""

from __future__ import annotations

from typing import List, Tuple

from ..nn import (
    BatchNorm,
    Conv2D,
    Conv2DTranspose,
    Dense,
    Dropout,
    Flatten,
    LeakyReLU,
    MinibatchDiscrimination,
    ReLU,
    Reshape,
    Tanh,
)
from ..nn.layers import Layer
from .base import GANFactory

__all__ = ["build_mnist_mlp_gan", "build_mnist_cnn_gan", "conv_channel_schedule"]


def _scaled(width: int, factor: float) -> int:
    """Scale a layer width, keeping at least one unit."""
    return max(1, int(round(width * factor)))


def conv_channel_schedule(width_factor: float) -> List[int]:
    """The paper's six-layer discriminator channel schedule, scaled."""
    return [_scaled(c, width_factor) for c in (16, 32, 64, 128, 256, 512)]


def build_mnist_mlp_gan(
    image_shape: Tuple[int, int, int] = (1, 28, 28),
    latent_dim: int = 100,
    num_classes: int = 10,
    conditional: bool = True,
    hidden: int = 512,
    width_factor: float = 1.0,
) -> GANFactory:
    """MLP-based GAN for MNIST-like data (paper's first architecture)."""
    h = _scaled(hidden, width_factor)
    c, height, width = image_shape
    flat = c * height * width

    def gen_builder(factory: GANFactory) -> List[Layer]:
        return [
            Dense(h, name="g_fc1"),
            ReLU(),
            Dense(h, name="g_fc2"),
            ReLU(),
            Dense(flat, name="g_out"),
            Tanh(),
            Reshape(image_shape),
        ]

    def disc_builder(factory: GANFactory) -> List[Layer]:
        return [
            Flatten(),
            Dense(h, name="d_fc1"),
            LeakyReLU(0.2),
            Dropout(0.3),
            Dense(h, name="d_fc2"),
            LeakyReLU(0.2),
            Dropout(0.3),
            Dense(factory.discriminator_output_dim, name="d_out"),
        ]

    return GANFactory(
        name="mnist-mlp",
        latent_dim=latent_dim,
        image_shape=image_shape,
        num_classes=num_classes,
        conditional=conditional,
        generator_builder=gen_builder,
        discriminator_builder=disc_builder,
        metadata={"hidden": h, "width_factor": width_factor},
    )


def build_mnist_cnn_gan(
    image_shape: Tuple[int, int, int] = (1, 28, 28),
    latent_dim: int = 100,
    num_classes: int = 10,
    conditional: bool = True,
    width_factor: float = 1.0,
    use_minibatch_discrimination: bool = True,
) -> GANFactory:
    """CNN-based GAN for MNIST-like data (paper's second architecture).

    The generator upsamples from ``H/4 x W/4`` with two stride-2 transposed
    convolutions of 5x5 kernels; the discriminator stacks six 3x3
    convolutions with the 16..512 channel schedule (three of them stride-2),
    a minibatch-discrimination layer and a dense output layer.
    """
    c, height, width = image_shape
    if height % 4 or width % 4:
        raise ValueError(
            f"MNIST CNN architecture needs image sides divisible by 4, got {image_shape}"
        )
    base_h, base_w = height // 4, width // 4
    g_ch1 = _scaled(128, width_factor)
    g_ch2 = _scaled(32, width_factor)
    d_channels = conv_channel_schedule(width_factor)

    def gen_builder(factory: GANFactory) -> List[Layer]:
        return [
            Dense(g_ch1 * base_h * base_w, name="g_fc"),
            ReLU(),
            Reshape((g_ch1, base_h, base_w)),
            BatchNorm(),
            Conv2DTranspose(
                g_ch2, 5, stride=2, padding=2, output_padding=1, name="g_deconv1"
            ),
            BatchNorm(),
            ReLU(),
            Conv2DTranspose(
                c, 5, stride=2, padding=2, output_padding=1, name="g_deconv2"
            ),
            Tanh(),
        ]

    def disc_builder(factory: GANFactory) -> List[Layer]:
        layers: List[Layer] = []
        for i, channels in enumerate(d_channels):
            stride = 2 if i % 2 == 0 else 1
            layers.append(
                Conv2D(channels, 3, stride=stride, padding=1, name=f"d_conv{i + 1}")
            )
            layers.append(LeakyReLU(0.2))
            if i in (2, 4):
                layers.append(Dropout(0.3))
        layers.append(Flatten())
        if use_minibatch_discrimination:
            layers.append(MinibatchDiscrimination(num_kernels=16, kernel_dim=8))
        layers.append(Dense(factory.discriminator_output_dim, name="d_out"))
        return layers

    return GANFactory(
        name="mnist-cnn",
        latent_dim=latent_dim,
        image_shape=image_shape,
        num_classes=num_classes,
        conditional=conditional,
        generator_builder=gen_builder,
        discriminator_builder=disc_builder,
        metadata={
            "width_factor": width_factor,
            "generator_channels": (g_ch1, g_ch2),
            "discriminator_channels": tuple(d_channels),
        },
    )
