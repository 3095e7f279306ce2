"""Numerical gradient checks across full layer stacks.

These tests validate the backward pass of every layer family in composition,
including the input-gradient path MD-GAN's error feedback relies on.  Smooth
activations (Tanh) are used so that finite differences are well behaved.

Every stack is checked under both precision policies.  float64 is the sharp
check: central differences with ``eps=1e-6`` and tolerances of a few 1e-4.
float32 — the default policy, and the dtype every kernel actually runs in —
cannot resolve that: a loss of O(10) carries ~1e-6 of rounding noise, so the
step is ``1e-2`` (noise/eps ~1e-4, truncation ~eps^2), the relative tolerance
is 5e-2, and gradients below ``1e-2`` are compared absolutely.  That is loose,
but a kernel that is wrong only in float32 (a stride, a dtype-dependent
branch, an upcast that hides an overflow) is wrong by far more.
"""

import numpy as np
import pytest

from repro.nn import precision_scope

from repro.nn import (
    BatchNorm,
    Conv2D,
    Conv2DTranspose,
    Dense,
    Flatten,
    LayerNorm,
    MinibatchDiscrimination,
    Reshape,
    Sequential,
    Tanh,
    UpSampling2D,
)


def _fd_settings(model, tol):
    """``(eps, relative tolerance, absolute floor)`` for the model's dtype."""
    if model.dtype == np.float32:
        return 1e-3, 5e-2, 1e-2
    return 1e-6, tol, 1e-8


def check_parameter_gradients(model, x, target, samples, rng, tol=2e-4):
    """Compare analytic parameter gradients against central differences."""
    eps, tol, floor = _fd_settings(model, tol)

    def loss_of(flat):
        model.set_parameters(flat)
        out = model.forward(x)
        return 0.5 * float(np.sum((out - target) ** 2))

    flat0 = model.get_parameters()
    model.set_parameters(flat0)
    model.zero_grad()
    out = model.forward(x)
    model.backward(out - target)
    analytic = model.get_gradients()

    indices = rng.choice(flat0.size, size=min(samples, flat0.size), replace=False)
    for i in indices:
        up = flat0.copy()
        up[i] += eps
        down = flat0.copy()
        down[i] -= eps
        numeric = (loss_of(up) - loss_of(down)) / (2 * eps)
        denom = abs(numeric) + abs(analytic[i]) + floor
        assert abs(numeric - analytic[i]) / denom < tol, (
            f"parameter {i}: numeric {numeric} vs analytic {analytic[i]}"
        )
    model.set_parameters(flat0)


def check_input_gradients(model, x, target, samples, rng, tol=2e-4):
    """Compare the analytic input gradient against central differences."""
    eps, tol, floor = _fd_settings(model, tol)
    model.zero_grad()
    out = model.forward(x)
    grad_in = model.backward(out - target)

    def loss_of_input(xflat):
        out = model.forward(xflat.reshape(x.shape))
        return 0.5 * float(np.sum((out - target) ** 2))

    flat = x.ravel()
    indices = rng.choice(flat.size, size=min(samples, flat.size), replace=False)
    for i in indices:
        up = flat.copy()
        up[i] += eps
        down = flat.copy()
        down[i] -= eps
        numeric = (loss_of_input(up) - loss_of_input(down)) / (2 * eps)
        analytic = grad_in.ravel()[i]
        denom = abs(numeric) + abs(analytic) + floor
        assert abs(numeric - analytic) / denom < tol, (
            f"input {i}: numeric {numeric} vs analytic {analytic}"
        )


@pytest.fixture(autouse=True, params=["float64", "float32"])
def _precision_policy(request):
    """Every stack is built and checked under both precision policies."""
    with precision_scope(request.param):
        yield


@pytest.fixture()
def grad_rng():
    return np.random.default_rng(2024)


def test_dense_tanh_stack(grad_rng):
    model = Sequential(
        [Dense(10), Tanh(), Dense(6), Tanh(), Dense(2)],
        input_shape=(5,),
        rng=grad_rng,
    )
    x = grad_rng.normal(size=(4, 5))
    target = grad_rng.normal(size=(4, 2))
    check_parameter_gradients(model, x, target, samples=40, rng=grad_rng)
    check_input_gradients(model, x, target, samples=15, rng=grad_rng)


def test_conv_discriminator_stack(grad_rng):
    model = Sequential(
        [
            Conv2D(4, 3, stride=2, padding=1),
            Tanh(),
            Conv2D(6, 3, stride=1, padding=1),
            Tanh(),
            Flatten(),
            Dense(1),
        ],
        input_shape=(2, 8, 8),
        rng=grad_rng,
    )
    x = grad_rng.normal(size=(3, 2, 8, 8))
    target = grad_rng.normal(size=(3, 1))
    check_parameter_gradients(model, x, target, samples=30, rng=grad_rng)
    check_input_gradients(model, x, target, samples=15, rng=grad_rng)


def test_transposed_conv_generator_stack(grad_rng):
    model = Sequential(
        [
            Dense(3 * 4 * 4),
            Tanh(),
            Reshape((3, 4, 4)),
            Conv2DTranspose(2, 5, stride=2, padding=2, output_padding=1),
            Tanh(),
        ],
        input_shape=(6,),
        rng=grad_rng,
    )
    x = grad_rng.normal(size=(3, 6))
    target = grad_rng.normal(size=(3, 2, 8, 8))
    check_parameter_gradients(model, x, target, samples=30, rng=grad_rng)
    check_input_gradients(model, x, target, samples=12, rng=grad_rng)


def test_batchnorm_layernorm_stack(grad_rng):
    model = Sequential(
        [Dense(8), BatchNorm(), Tanh(), Dense(8), LayerNorm(), Dense(3)],
        input_shape=(5,),
        rng=grad_rng,
    )
    x = grad_rng.normal(size=(6, 5))
    target = grad_rng.normal(size=(6, 3))
    check_parameter_gradients(model, x, target, samples=30, rng=grad_rng, tol=5e-4)
    check_input_gradients(model, x, target, samples=12, rng=grad_rng, tol=5e-4)


def test_minibatch_discrimination_stack(grad_rng):
    model = Sequential(
        [Dense(6), Tanh(), MinibatchDiscrimination(3, 2), Dense(1)],
        input_shape=(4,),
        rng=grad_rng,
    )
    # The layer's |M_i - M_j| has a kink wherever two projected samples meet.
    # At the initialiser's scale (0.05) they sit within a float32-sized step
    # of each other; spread them so a finite difference stays on one side.
    model.layers[2].params["T"] *= 20.0
    x = grad_rng.normal(size=(5, 4))
    target = grad_rng.normal(size=(5, 1))
    check_parameter_gradients(model, x, target, samples=30, rng=grad_rng)
    check_input_gradients(model, x, target, samples=12, rng=grad_rng)


def test_upsampling_stack(grad_rng):
    model = Sequential(
        [
            Dense(2 * 3 * 3),
            Tanh(),
            Reshape((2, 3, 3)),
            UpSampling2D(2),
            Conv2D(1, 3, padding=1),
            Tanh(),
        ],
        input_shape=(4,),
        rng=grad_rng,
    )
    x = grad_rng.normal(size=(2, 4))
    target = grad_rng.normal(size=(2, 1, 6, 6))
    check_parameter_gradients(model, x, target, samples=25, rng=grad_rng)
    check_input_gradients(model, x, target, samples=8, rng=grad_rng)
