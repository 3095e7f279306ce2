"""The snapshot invariant every layer keeps (see :class:`repro.nn.Layer`).

``Sequential.snapshot()`` freezes a model's backward caches by reference,
which is sound only because no layer writes into an array an earlier forward
cached.  For every layer ``repro.nn`` exports: forward(a) -> snapshot ->
forward(b) -> backward from the snapshot must equal backward right after
forward(a), bitwise — input gradient and parameter gradients, which the
snapshot accumulates into the original model.
"""

import copy

import numpy as np
import pytest

import repro.nn as nn

#: Per exported layer: a constructor and a per-sample input shape.
CASES = {
    "Dense": (lambda: nn.Dense(5), (6,)),
    "Flatten": (nn.Flatten, (2, 3, 3)),
    "Reshape": (lambda: nn.Reshape((3, 2)), (6,)),
    "Dropout": (lambda: nn.Dropout(0.5), (6,)),
    "ReLU": (nn.ReLU, (6,)),
    "LeakyReLU": (lambda: nn.LeakyReLU(0.2), (6,)),
    "Sigmoid": (nn.Sigmoid, (6,)),
    "Tanh": (nn.Tanh, (6,)),
    "Softmax": (nn.Softmax, (6,)),
    "BatchNorm": (nn.BatchNorm, (3, 4, 4)),
    "LayerNorm": (nn.LayerNorm, (3, 4, 4)),
    "UpSampling2D": (lambda: nn.UpSampling2D(2), (2, 3, 3)),
    "GaussianNoise": (lambda: nn.GaussianNoise(0.5), (6,)),
    "Conv2D": (lambda: nn.Conv2D(4, 3, stride=2, padding=1), (2, 5, 5)),
    "Conv2DTranspose": (
        lambda: nn.Conv2DTranspose(3, 3, stride=2, padding=1, output_padding=1),
        (2, 4, 4),
    ),
    "MaxPool2D": (lambda: nn.MaxPool2D(2), (2, 4, 4)),
    "AvgPool2D": (lambda: nn.AvgPool2D(2), (2, 4, 4)),
    "MinibatchDiscrimination": (lambda: nn.MinibatchDiscrimination(4, 3), (6,)),
}

EXPORTED_LAYERS = sorted(
    name
    for name in nn.__all__
    if isinstance(getattr(nn, name), type)
    and issubclass(getattr(nn, name), nn.Layer)
    and getattr(nn, name) is not nn.Layer
)


@pytest.mark.parametrize("name", EXPORTED_LAYERS)
def test_snapshot_backpropagates_the_forward_it_froze(name):
    assert name in CASES, f"add a snapshot case for the exported layer {name}"
    make, shape = CASES[name]
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4,) + shape)
    b = rng.normal(size=(4,) + shape)
    model = nn.Sequential([make()], input_shape=shape, rng=np.random.default_rng(1))
    reference = copy.deepcopy(model)

    out_a = model.forward(a)
    grad = rng.normal(size=out_a.shape).astype(out_a.dtype)
    frozen = model.snapshot()
    model.forward(b)
    model.zero_grad()
    got = frozen.backward(grad)

    assert np.array_equal(reference.forward(a), out_a)
    reference.zero_grad()
    want = reference.backward(grad)
    assert np.array_equal(got, want)
    assert np.array_equal(model.get_gradients(), reference.get_gradients())


def test_batchnorm_fold_reproduces_the_training_forward_update(rng):
    model = nn.Sequential([nn.BatchNorm()], input_shape=(3, 4, 4), rng=rng)
    folded = copy.deepcopy(model)
    model.forward(rng.normal(size=(6, 3, 4, 4)), training=True)
    folded.fold_batch_stats(model.batch_stats())
    for got, want in zip(folded.layers, model.layers):
        assert np.array_equal(got.running_mean, want.running_mean)
        assert np.array_equal(got.running_var, want.running_var)
