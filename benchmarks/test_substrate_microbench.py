"""Micro-benchmarks of the NumPy substrate's hot paths.

Not a paper artefact: these quantify the cost of the building blocks that
dominate training time (convolution forward/backward, a full MD-GAN global
iteration, a federated averaging round), so regressions in the substrate are
visible independently of the experiment-level benchmarks.

The convolution rows come at two scales on purpose.  The 16x16 rows are the
overhead-bound regime the perf ledger's workloads live in (a call is tens of
microseconds, so Python and allocation overhead decide); the ``paper`` rows
are the six conv layers of the paper's MNIST discriminator as built
(28x28, ``width_factor=1.0``, batch 32), where the GEMM and the memory traffic
of the column matrix decide.  A formulation that only wins in the first regime
shows up as a slower ``paper`` row.
"""

import numpy as np
import pytest

from repro.core import (
    GANObjective,
    MDGANTrainer,
    TrainingConfig,
    discriminator_update,
    generator_feedback,
    sample_generator_images,
)
from repro.datasets import make_gaussian_ring, partition_iid
from repro.models import build_mnist_cnn_gan, build_toy_gan
from repro.nn import Adam, Conv2D
from repro.nn.precision import resolve_dtype
from repro.nn.tensor_ops import conv2d_forward, conv2d_input_grad, conv2d_weight_grad


@pytest.fixture(scope="module")
def conv_inputs():
    # Timed in the policy dtype (float32 by default), which is what the
    # layers feed these kernels — not in rng.normal's float64.
    rng = np.random.default_rng(0)
    dtype = resolve_dtype()
    x = rng.normal(size=(16, 16, 16, 16)).astype(dtype)
    w = rng.normal(size=(32, 16, 3, 3)).astype(dtype)
    grad = rng.normal(size=(16, 32, 8, 8)).astype(dtype)
    return x, w, grad


def test_conv2d_forward(benchmark, conv_inputs):
    x, w, _ = conv_inputs
    out = benchmark(conv2d_forward, x, w, 2, 1)
    assert out.shape == (16, 32, 8, 8)


def test_conv2d_input_grad(benchmark, conv_inputs):
    x, w, grad = conv_inputs
    out = benchmark(conv2d_input_grad, grad, w, (16, 16), 2, 1)
    assert out.shape == x.shape


def test_conv2d_weight_grad(benchmark, conv_inputs):
    x, w, grad = conv_inputs
    out = benchmark(conv2d_weight_grad, x, grad, (3, 3), 2, 1)
    assert out.shape == w.shape


def _layer_pair(layer, x, grad):
    """One training pass of a conv layer: forward, then the full backward."""
    layer.forward(x)
    return layer.backward(grad)


def test_conv_layer_forward_backward(benchmark, conv_inputs):
    x, _, grad = conv_inputs
    layer = Conv2D(32, 3, stride=2, padding=1)
    layer.build(x.shape[1:], np.random.default_rng(0))
    out = benchmark(_layer_pair, layer, x, grad)
    assert out.shape == x.shape


PAPER_LAYERS = [f"d_conv{i}" for i in range(1, 7)]


@pytest.fixture(scope="module")
def paper_scale_layers():
    """The paper-scale discriminator's conv layers, each with an input and an output gradient."""
    rng = np.random.default_rng(0)
    factory = build_mnist_cnn_gan(image_shape=(1, 28, 28), width_factor=1.0)
    discriminator = factory.make_discriminator(rng)
    cases = {}
    for layer in discriminator.layers:
        if isinstance(layer, Conv2D):
            x = rng.normal(size=(32,) + layer.input_shape).astype(layer.dtype)
            grad = rng.normal(size=(32,) + layer.output_shape).astype(layer.dtype)
            cases[layer.name] = (layer, x, grad)
    assert list(cases) == PAPER_LAYERS
    return cases


def _paper(benchmark, function, *args):
    # Fixed rounds: the largest layer takes ~10 ms a call and the default
    # one-second calibration per row would add half a minute to the lane.
    return benchmark.pedantic(function, args=args, rounds=12, warmup_rounds=2)


@pytest.mark.parametrize("name", PAPER_LAYERS)
def test_conv2d_forward_paper(benchmark, paper_scale_layers, name):
    layer, x, grad = paper_scale_layers[name]
    out = _paper(benchmark, conv2d_forward, x, layer.params["W"], layer.stride, layer.padding)
    assert out.shape == grad.shape


@pytest.mark.parametrize("name", PAPER_LAYERS)
def test_conv2d_input_grad_paper(benchmark, paper_scale_layers, name):
    layer, x, grad = paper_scale_layers[name]
    out = _paper(
        benchmark,
        conv2d_input_grad,
        grad,
        layer.params["W"],
        x.shape[2:],
        layer.stride,
        layer.padding,
    )
    assert out.shape == x.shape


@pytest.mark.parametrize("name", PAPER_LAYERS)
def test_conv2d_weight_grad_paper(benchmark, paper_scale_layers, name):
    layer, x, grad = paper_scale_layers[name]
    kernel = (layer.kernel_size, layer.kernel_size)
    out = _paper(benchmark, conv2d_weight_grad, x, grad, kernel, layer.stride, layer.padding)
    assert out.shape == layer.params["W"].shape


@pytest.mark.parametrize("name", PAPER_LAYERS)
def test_conv_layer_forward_backward_paper(benchmark, paper_scale_layers, name):
    layer, x, grad = paper_scale_layers[name]
    out = _paper(benchmark, _layer_pair, layer, x, grad)
    assert out.shape == x.shape


def test_cnn_discriminator_step(benchmark):
    rng = np.random.default_rng(1)
    factory = build_mnist_cnn_gan(image_shape=(1, 16, 16), width_factor=0.25)
    generator = factory.make_generator(rng)
    discriminator = factory.make_discriminator(rng)
    objective = GANObjective(factory)
    optimizer = Adam()
    real = rng.uniform(-1, 1, size=(16, 1, 16, 16))
    labels = rng.integers(0, 10, size=16)
    [fake] = sample_generator_images(generator, factory, 16, rng)

    def step():
        return discriminator_update(
            discriminator, objective, optimizer, real, labels, fake.images, fake.labels
        )

    loss = benchmark(step)
    assert np.isfinite(loss)


def test_error_feedback_computation(benchmark):
    rng = np.random.default_rng(2)
    factory = build_mnist_cnn_gan(image_shape=(1, 16, 16), width_factor=0.25)
    generator = factory.make_generator(rng)
    discriminator = factory.make_discriminator(rng)
    objective = GANObjective(factory)
    [batch] = sample_generator_images(generator, factory, 16, rng)

    def feedback():
        return generator_feedback(discriminator, objective, batch)

    loss, grad = benchmark(feedback)
    assert grad.shape == batch.images.shape


def test_mdgan_global_iteration(benchmark):
    rng = np.random.default_rng(3)
    train, _ = make_gaussian_ring(n_train=400, n_test=50, seed=4)
    factory = build_toy_gan(num_classes=train.num_classes)
    shards = partition_iid(train, 8, rng)
    config = TrainingConfig(iterations=1, batch_size=16, seed=5)
    trainer = MDGANTrainer(factory, shards, config)
    counter = iter(range(1, 10_000))

    def one_iteration():
        trainer.train_iteration(next(counter))

    benchmark(one_iteration)
    assert trainer.cluster.meter.total_messages() > 0
