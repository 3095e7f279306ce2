"""Segmented passes: one pass over several batches is bitwise a pass per batch.

``Sequential.forward(x, segments=...)`` / ``backward(..., segments=...)``
carry consecutive batches through one pass; whatever reduces over samples
(BatchNorm statistics, minibatch discrimination, every parameter gradient)
does so per segment, in segment order.  For every layer ``repro.nn`` exports,
wrapped between parameter layers so that it meets batch-innermost conv
layouts and C-contiguous ones, the segmented pass must equal the separate
passes bit for bit — outputs, input gradients, accumulated parameter
gradients, BatchNorm statistics and the random streams — and so must a
``snapshot`` restricted to one segment.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_snapshot import CASES, EXPORTED_LAYERS

import repro.nn as nn
from repro.core.gan_ops import apply_feedback_to_generator, sample_generator_images
from repro.models import build_mnist_cnn_gan


def same(a, b) -> bool:
    """Bitwise equality (NaNs included) of two arrays, or both ``None``."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def wrapped(name: str, conv_layout: bool = True) -> nn.Sequential:
    """The layer between parameter layers, fed a conv layout or a C-contiguous one."""
    make, shape = CASES[name]
    layer = make()
    if len(shape) == 3 and conv_layout:
        # A padded transposed convolution hands on a cropped, batch-innermost view.
        before, input_shape = [nn.Conv2DTranspose(shape[0], 3, padding=1)], (2,) + shape[1:]
    elif len(shape) == 3:
        before, input_shape = [nn.Dense(int(np.prod(shape))), nn.Reshape(shape)], (5,)
    elif conv_layout:
        # Flattened batch-innermost conv output: a (N, F) view with sample stride one.
        before, input_shape = [nn.Conv2D(shape[0], 1), nn.Flatten()], (2, 1, 1)
    else:
        before, input_shape = [nn.Dense(shape[0])], (5,)
    after = [nn.Flatten(), nn.Dense(3)]
    if len(layer.compute_output_shape(shape)) == 3:
        after.insert(0, nn.Conv2D(2, 3, padding=1))
    layers = before + [layer] + after
    return nn.Sequential(layers, input_shape=input_shape, rng=np.random.default_rng(1))


def observed(model: nn.Sequential) -> list:
    """Everything a pass leaves in a model besides its return values."""
    state = [model.grads_flat]
    for layer in model.layers:
        if isinstance(layer, nn.BatchNorm):
            state += [layer.running_mean, layer.running_var]
        if hasattr(layer, "_rng"):
            state.append(repr(layer._rng.bit_generator.state))
    return state


def check_state(a: nn.Sequential, b: nn.Sequential) -> None:
    for x, y in zip(observed(a), observed(b), strict=True):
        assert x == y if isinstance(x, str) else same(x, y)


passes = st.fixed_dictionaries(
    {
        "name": st.sampled_from(EXPORTED_LAYERS),
        "conv_layout": st.booleans(),
        "sizes": st.lists(st.integers(1, 16), min_size=1, max_size=4),
        "training": st.booleans(),
        "flags": st.sampled_from([(True, True), (True, False), (False, True)]),
        "seed": st.integers(0, 2**16),
    }
)


def inputs(model, sizes, seed):
    rng = np.random.default_rng(seed)
    xs = [rng.normal(size=(n,) + model.input_shape) for n in sizes]
    grads = [rng.normal(size=(n,) + model.output_shape).astype(model.dtype) for n in sizes]
    return xs, grads


@settings(max_examples=120, deadline=None)
@given(passes)
def test_segmented_pass_is_bitwise_the_separate_passes(case):
    model = wrapped(case["name"], case["conv_layout"])
    segmented = copy.deepcopy(model)
    sizes, training = case["sizes"], case["training"]
    param_grads, input_grad = case["flags"]
    xs, grads = inputs(model, sizes, case["seed"])

    outs, grads_in, stats = [], [], []
    for x, grad in zip(xs, grads):
        outs.append(model.forward(x, training=training))
        stats.append(model.batch_stats() if training else None)
        grads_in.append(model.backward(grad, param_grads=param_grads, input_grad=input_grad))

    out = segmented.forward(np.concatenate(xs), training=training, segments=sizes)
    grad_in = segmented.backward(
        np.concatenate(grads), param_grads=param_grads, input_grad=input_grad, segments=sizes
    )
    assert same(out, np.concatenate(outs))
    assert same(grad_in, np.concatenate(grads_in) if input_grad else None)
    check_state(model, segmented)
    for j, want in enumerate(stats):
        if want is not None:
            for (mean, var), (m, v) in zip(segmented.batch_stats(j), want, strict=True):
                assert same(mean, m) and same(var, v)


@settings(max_examples=80, deadline=None)
@given(passes)
def test_segment_snapshot_backpropagates_its_segment_alone(case):
    model = wrapped(case["name"], case["conv_layout"])
    segmented = copy.deepcopy(model)
    sizes, training = case["sizes"], case["training"]
    param_grads, input_grad = case["flags"]
    xs, grads = inputs(model, sizes, case["seed"])

    segmented.forward(np.concatenate(xs), training=training, segments=sizes)
    bounds = np.cumsum([0] + sizes)
    frozen = [segmented.snapshot((j, bounds[j], bounds[j + 1])) for j in range(len(sizes))]
    for j, (x, grad) in enumerate(zip(xs, grads)):
        model.forward(x, training=training)
        want = model.backward(grad, param_grads=param_grads, input_grad=input_grad)
        got = frozen[j].backward(grad, param_grads=param_grads, input_grad=input_grad)
        assert same(got, want)
        if training:
            for (mean, var), (m, v) in zip(frozen[j].batch_stats(), model.batch_stats()):
                assert same(mean, m) and same(var, v)
    check_state(model, segmented)


def test_segments_must_split_the_batch():
    model = wrapped("Dense")
    x = np.zeros((5,) + model.input_shape)
    for bad in ([2, 2], [5, 0], [6], []):
        with pytest.raises(ValueError, match="do not split"):
            model.forward(x, segments=bad)


# -- LeakyReLU: ufuncs only, bitwise the np.where formula -------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.2, 0.5, 1.0])
def test_leaky_relu_is_bitwise_the_where_formula(alpha, dtype):
    info = np.finfo(dtype)
    tiny = [info.smallest_subnormal, info.tiny / 3, info.max, 1.0]
    special = [0.0, np.inf] + tiny + [-v for v in [0.0, np.inf] + tiny]
    rng = np.random.default_rng(0)
    x = np.concatenate([np.array(special), rng.normal(size=200) * 10.0]).astype(dtype)
    grad = rng.normal(size=x.shape).astype(dtype)
    layer = nn.LeakyReLU(alpha)
    with np.errstate(invalid="ignore"):  # 0 * -inf is NaN on both sides
        assert same(layer.forward(x), np.where(x > 0, x, alpha * x))
        assert same(layer.backward(grad), np.where(x > 0, grad, alpha * grad))


@pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
def test_leaky_relu_rejects_a_slope_outside_the_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha"):
        nn.LeakyReLU(alpha)


# -- k batches from one generator forward -------------------------------------------


def test_k_segment_generation_backpropagates_each_batch_as_its_own_forward():
    factory = build_mnist_cnn_gan(
        image_shape=(1, 8, 8), num_classes=10, width_factor=0.25, use_minibatch_discrimination=False
    )
    generator = factory.make_generator(np.random.default_rng(0))
    reference = copy.deepcopy(generator)
    k, b = 3, 5
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    batches = sample_generator_images(generator, factory, b, rng, batch_index=2, count=k)
    expected = [
        sample_generator_images(reference, factory, b, ref_rng, batch_index=2 + j)[0]
        for j in range(k)
    ]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for got, want in zip(batches, expected, strict=True):
        assert got.batch_index == want.batch_index
        assert same(got.images, want.images) and same(got.noise, want.noise)
        assert same(got.labels, want.labels)
    check_state(generator, reference)

    # Repeated batches (N > k) and a subset, in merge order.
    feedback_rng = np.random.default_rng(3)
    for order in ([2, 0, 2, 1, 0], [1]):
        feedbacks = [feedback_rng.normal(size=batches[0].images.shape) for _ in order]
        for model, made in ((generator, batches), (reference, expected)):
            model.zero_grad()
            apply_feedback_to_generator(model, factory, [made[j] for j in order], feedbacks)
        check_state(generator, reference)


# -- Per-sample reductions keep the axis-reduction formulas' bits ------------------


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_per_sample_reductions_keep_the_axis_formulas_bits_on_c_contiguous_input(precision):
    """LayerNorm, AvgPool2D and UpSampling2D sum within a sample in a fixed order.

    On C-contiguous input more than one window wide, that order is NumPy's
    axis reduction's, so the layers give the bits of the ``mean`` / ``var`` /
    ``sum(axis)`` formulas they used before.
    """
    rng = np.random.default_rng(3)
    with nn.precision_scope(precision):
        norm, pool, up = nn.LayerNorm(), nn.AvgPool2D(2), nn.UpSampling2D(2)
        norm.build((3, 8, 8), rng)
    dtype = norm.dtype
    x = rng.normal(size=(5, 3, 8, 8)).astype(dtype)
    grad = rng.normal(size=x.shape).astype(dtype)
    norm.params["gamma"][...] = rng.normal(size=x.shape[1:])
    norm.params["beta"][...] = rng.normal(size=x.shape[1:])
    gamma, beta, axes, m = norm.params["gamma"], norm.params["beta"], (1, 2, 3), x[0].size
    std = np.sqrt(x.var(axis=axes, keepdims=True) + norm.eps)
    xhat = (x - x.mean(axis=axes, keepdims=True)) / std
    assert same(norm.forward(x), gamma * xhat + beta)
    dxhat = grad * gamma
    sum_dxhat = dxhat.sum(axis=axes, keepdims=True)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=axes, keepdims=True)
    assert same(norm.backward(grad), (dxhat - sum_dxhat / m - xhat * sum_dxhat_xhat / m) / std)
    windows = x.reshape(5, 3, 4, 2, 4, 2)
    assert same(pool.forward(x), windows.mean(axis=(3, 5)))
    up.forward(x[:, :, :4, :4])
    assert same(up.backward(x), windows.sum(axis=(3, 5)))
