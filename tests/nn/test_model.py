"""Unit tests for the Sequential container and parameter serialisation."""

import copy
import pickle

import numpy as np
import pytest

from repro.nn import (
    Dense,
    Flatten,
    LeakyReLU,
    MinibatchDiscrimination,
    ReLU,
    Reshape,
    Sequential,
    Tanh,
    precision_scope,
    average_parameters,
    copy_parameters,
    parameter_bytes,
    vector_bytes,
    weighted_average_parameters,
)
from repro.runtime.programs import ResidentProgram, register_program
from repro.runtime.resident import ResidentBackend


def small_model(rng, out=3):
    return Sequential(
        [Dense(8), ReLU(), Dense(out)], input_shape=(5,), rng=rng, name="small"
    )


def minibatch_model(rng):
    return Sequential(
        [Dense(8), MinibatchDiscrimination(4, 3), Dense(3)], input_shape=(5,), rng=rng
    )


def _write_through_flat(state, values):
    """Resident step: write ``values`` through ``params_flat``, return what the layers see."""
    model = state["model"]
    model.params_flat[...] = values
    return _layer_arrays(model, "params")


# Registered at import time, before any pool forks, so slot processes inherit it.
register_program(
    ResidentProgram(
        name="flat-views",
        step=_write_through_flat,
        pull_params=lambda state: state["model"].get_parameters(),
        push_params=lambda state, params: state["model"].set_parameters(params),
        mirror=lambda state: state["model"],
    )
)


def _layer_arrays(model, attr):
    """Every layer's ``params`` or ``grads`` arrays, raveled in parameter order."""
    arrays = [
        getattr(layer, attr)[name] for layer in model.layers for name in sorted(layer.params)
    ]
    return np.concatenate([array.ravel() for array in arrays])


def _assert_views_bound(model):
    """Writes through ``params_flat`` / ``grads_flat`` are what every layer sees."""
    for buffer, attr in ((model.params_flat, "params"), (model.grads_flat, "grads")):
        values = np.arange(buffer.size, dtype=buffer.dtype)
        buffer[...] = values
        np.testing.assert_array_equal(_layer_arrays(model, attr), values)


def _assert_no_shared_memory(a, b):
    for x in (a.params_flat, a.grads_flat):
        for y in (b.params_flat, b.grads_flat):
            assert not np.shares_memory(x, y)


def _trained_model(rng):
    """A small model holding non-zero gradients from one backward pass."""
    model = small_model(rng)
    out = model.forward(rng.normal(size=(4, 5)))
    model.backward(np.ones_like(out))
    return model


class TestBuildAndShapes:
    def test_shapes_propagate(self, rng):
        model = Sequential(
            [Dense(12), ReLU(), Reshape((3, 2, 2)), Flatten(), Dense(4)],
            input_shape=(6,),
            rng=rng,
        )
        assert model.output_shape == (4,)
        assert model.forward(rng.normal(size=(7, 6))).shape == (7, 4)

    def test_unbuilt_model_raises(self):
        model = Sequential([Dense(3)])
        with pytest.raises(RuntimeError, match="must be built"):
            model.forward(np.zeros((1, 2)))

    def test_num_parameters(self, rng):
        model = small_model(rng)
        assert model.num_parameters == (5 * 8 + 8) + (8 * 3 + 3)


class TestParameterVector:
    def test_get_set_roundtrip(self, rng):
        model = small_model(rng)
        flat = model.get_parameters()
        model.set_parameters(np.zeros_like(flat))
        assert np.all(model.get_parameters() == 0)
        model.set_parameters(flat)
        np.testing.assert_array_equal(model.get_parameters(), flat)

    def test_set_parameters_is_in_place(self, rng):
        model = small_model(rng)
        before_ids = [id(p) for _, p in model.named_parameters()]
        model.set_parameters(model.get_parameters() * 2)
        after_ids = [id(p) for _, p in model.named_parameters()]
        assert before_ids == after_ids

    def test_set_parameters_wrong_size(self, rng):
        model = small_model(rng)
        with pytest.raises(ValueError, match="expects"):
            model.set_parameters(np.zeros(3))

    def test_parameters_affect_output(self, rng):
        model = small_model(rng)
        x = rng.normal(size=(4, 5))
        out1 = model.forward(x)
        model.set_parameters(model.get_parameters() * 0.0)
        out2 = model.forward(x)
        assert not np.allclose(out1, out2)
        np.testing.assert_allclose(out2, 0.0)

    def test_gradients_roundtrip(self, rng):
        model = small_model(rng)
        x = rng.normal(size=(4, 5))
        model.zero_grad()
        model.forward(x)
        model.backward(np.ones((4, 3)))
        grads = model.get_gradients()
        assert grads.shape == (model.num_parameters,)
        model.set_gradients(np.ones_like(grads))
        np.testing.assert_array_equal(model.get_gradients(), 1.0)

    def test_identical_seeds_identical_parameters(self):
        a = small_model(np.random.default_rng(42))
        b = small_model(np.random.default_rng(42))
        np.testing.assert_array_equal(a.get_parameters(), b.get_parameters())

    def test_buffers_are_the_batchnorm_statistics(self, rng):
        from repro.nn import BatchNorm

        assert small_model(rng).get_buffers().size == 0
        layers = [Dense(4), BatchNorm(), Dense(2), BatchNorm()]
        model = Sequential(layers, input_shape=(5,), rng=rng)
        model.forward(rng.normal(size=(6, 5)))
        norms = model.layers[1], model.layers[3]
        flat = model.get_buffers()
        expected = [s for layer in norms for s in (layer.running_mean, layer.running_var)]
        np.testing.assert_array_equal(flat, np.concatenate(expected))
        model.set_buffers(np.arange(flat.size))
        np.testing.assert_array_equal(norms[1].running_var, [10.0, 11.0])
        assert norms[1].running_var.dtype == model.dtype
        with pytest.raises(ValueError, match="Buffer vector has 3 values"):
            model.set_buffers(np.zeros(3))


class TestFlatBuffers:
    def test_layer_arrays_are_views_of_two_vectors(self, rng):
        model = _trained_model(rng)
        np.testing.assert_array_equal(model.get_parameters(), _layer_arrays(model, "params"))
        np.testing.assert_array_equal(model.get_gradients(), _layer_arrays(model, "grads"))
        assert model.param_shapes == tuple(p.shape for _, p in model.named_parameters())
        assert not np.shares_memory(model.get_parameters(), model.params_flat)
        model.zero_grad()
        assert not _layer_arrays(model, "grads").any()
        _assert_views_bound(model)

    def test_pickle_carries_each_vector_once(self):
        model = Sequential([Dense(64)], input_shape=(32,), rng=np.random.default_rng(0))
        buffers = model.params_flat.nbytes + model.grads_flat.nbytes
        assert len(pickle.dumps(model)) < 1.25 * buffers

    @pytest.mark.parametrize("build", [small_model, minibatch_model], ids=["dense", "minibatch"])
    def test_pickle_carries_no_gradients_or_forward_caches(self, rng, build):
        # A trained model pickles to exactly the bytes of an untrained one.
        model = build(rng)
        out = model.forward(rng.normal(size=(4, 5)))
        model.backward(np.ones_like(out))
        assert model.get_gradients().any() and model.layers[0]._x is not None
        assert len(pickle.dumps(model)) == len(pickle.dumps(build(rng)))
        clone = pickle.loads(pickle.dumps(model))
        assert not clone.grads_flat.any()
        for layer in clone.layers:
            assert all(getattr(layer, name) is None for name in layer._row_caches)

    @pytest.mark.parametrize("path", ["pickle", "deepcopy"])
    def test_views_survive_in_process_copies(self, rng, path):
        model = _trained_model(rng)
        params, grads = model.get_parameters(), model.get_gradients()
        clone = pickle.loads(pickle.dumps(model)) if path == "pickle" else copy.deepcopy(model)
        np.testing.assert_array_equal(clone.params_flat, params)
        # Gradients do not travel: every accumulation starts from zero_grad().
        np.testing.assert_array_equal(clone.grads_flat, np.zeros_like(grads))
        _assert_no_shared_memory(clone, model)
        _assert_views_bound(clone)
        np.testing.assert_array_equal(model.get_parameters(), params)
        np.testing.assert_array_equal(model.get_gradients(), grads)

    def test_views_survive_a_resident_install_and_mirror(self, rng):
        model = _trained_model(rng)
        params = model.get_parameters()
        values = np.arange(params.size, dtype=params.dtype)
        backend = ResidentBackend(max_workers=1, transport="pipe")
        try:
            items = [(0, lambda: {"model": model}, values)]
            (seen,) = backend.start_steps("flat-views", items).result()
            np.testing.assert_array_equal(seen, values)  # the installed copy's views
            mirrored = backend.pull_mirror([0])[0]
        finally:
            backend.close()
        np.testing.assert_array_equal(mirrored.params_flat, values)
        np.testing.assert_array_equal(mirrored.grads_flat, np.zeros_like(model.grads_flat))
        _assert_no_shared_memory(mirrored, model)
        _assert_views_bound(mirrored)
        np.testing.assert_array_equal(model.get_parameters(), params)

    def test_snapshot_shares_the_buffers_and_leaves_the_master_bound(self, rng):
        model = small_model(rng)
        x = rng.normal(size=(4, 5))
        out = model.forward(x)
        frozen = model.snapshot()
        assert frozen.params_flat is model.params_flat
        assert frozen.grads_flat is model.grads_flat
        model.forward(rng.normal(size=(4, 5)))
        model.zero_grad()
        frozen.backward(np.ones_like(out))
        accumulated = model.get_gradients()
        assert accumulated.any()
        model.zero_grad()
        model.forward(x)
        model.backward(np.ones_like(out))
        np.testing.assert_array_equal(model.grads_flat, accumulated)
        _assert_views_bound(model)
        np.testing.assert_array_equal(_layer_arrays(frozen, "params"), model.params_flat)


class TestBackward:
    def test_backward_returns_input_gradient(self, rng):
        # Numeric check against central differences: float64 opt-in.
        with precision_scope("float64"):
            model = small_model(rng, out=1)
        x = rng.normal(size=(6, 5))
        out = model.forward(x)
        model.zero_grad()
        grad_in = model.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        # Numeric check on one input coordinate.
        eps = 1e-6
        i, j = 2, 3
        xp = x.copy()
        xp[i, j] += eps
        xm = x.copy()
        xm[i, j] -= eps
        numeric = (model.forward(xp).sum() - model.forward(xm).sum()) / (2 * eps)
        assert grad_in[i, j] == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    def test_zero_grad_resets(self, rng):
        model = small_model(rng)
        x = rng.normal(size=(4, 5))
        model.zero_grad()
        model.forward(x)
        model.backward(np.ones((4, 3)))
        assert np.any(model.get_gradients() != 0)
        model.zero_grad()
        np.testing.assert_array_equal(model.get_gradients(), 0.0)

    @pytest.mark.parametrize("first_has_params", [True, False])
    def test_partial_backward_passes_match_the_full_one_bitwise(self, rng, first_has_params):
        # Every layer family that owns parameters, in one stack.
        from repro.nn import (
            BatchNorm,
            Conv2D,
            Conv2DTranspose,
            GaussianNoise,
            LayerNorm,
            MinibatchDiscrimination,
        )

        layers = [] if first_has_params else [GaussianNoise(0.0)]
        layers += [
            Conv2D(3, 3, stride=2, padding=1),
            BatchNorm(),
            LeakyReLU(0.2),
            Conv2DTranspose(2, 3, stride=2, padding=1, output_padding=1),
            Tanh(),
            Flatten(),
            Dense(6),
            LayerNorm(),
            MinibatchDiscrimination(3, 2),
            Dense(2),
        ]
        model = Sequential(layers, input_shape=(2, 6, 6), rng=rng)
        x = rng.normal(size=(4, 2, 6, 6))
        grad_out = rng.normal(size=(4, 2))

        model.zero_grad()
        model.forward(x)
        full_input_grad = model.backward(grad_out)
        full_param_grads = model.get_gradients()
        assert np.any(full_param_grads != 0)

        # Input gradient only: same gradient, ``grads`` untouched.
        model.zero_grad()
        model.forward(x)
        only_input = model.backward(grad_out, param_grads=False)
        np.testing.assert_array_equal(only_input, full_input_grad)
        np.testing.assert_array_equal(model.get_gradients(), 0.0)

        # Parameter gradients only: same gradients, nothing returned.
        model.forward(x)
        assert model.backward(grad_out, input_grad=False) is None
        np.testing.assert_array_equal(model.get_gradients(), full_param_grads)

    def test_parameter_free_model_ignores_the_partial_flags(self, rng):
        model = Sequential([Tanh(), Flatten()], input_shape=(2, 3), rng=rng)
        x = rng.normal(size=(4, 2, 3))
        model.forward(x)
        grad = rng.normal(size=(4, 6))
        np.testing.assert_array_equal(
            model.backward(grad, param_grads=False), model.backward(grad)
        )
        assert model.backward(grad, input_grad=False) is None

    def test_caller_layout_does_not_change_a_bit_and_outputs_are_contiguous(self, rng):
        # A value that crossed a pipe arrives C-contiguous; the same value
        # handed over in-process may be any view.  Reductions sum in memory
        # order, so only one layout at the boundary keeps the two bitwise.
        from repro.nn import BatchNorm, Conv2D, Conv2DTranspose

        generator = Sequential(
            [
                Dense(4 * 4 * 4),
                ReLU(),
                Reshape((4, 4, 4)),
                BatchNorm(),
                Conv2DTranspose(3, 5, stride=2, padding=2, output_padding=1),
                BatchNorm(),
                ReLU(),
                Conv2DTranspose(3, 5, stride=2, padding=2, output_padding=1),
                Tanh(),
            ],
            input_shape=(6,),
            rng=rng,
        )
        discriminator = Sequential(
            [
                Conv2D(4, 3, stride=2, padding=1),
                LeakyReLU(0.2),
                Conv2D(5, 3, stride=1, padding=1),
                BatchNorm(),
                LeakyReLU(0.2),
                Flatten(),
                Dense(1),
            ],
            input_shape=(3, 16, 16),
            rng=rng,
        )

        def transposed(a):
            """The same values in a non-contiguous, reversed-axes layout."""
            return np.ascontiguousarray(a.transpose()).transpose()

        def run(model, x, grad, arrange):
            model.zero_grad()
            out = model.forward(arrange(x))
            grad_in = model.backward(arrange(grad))
            return out, grad_in, model.get_gradients()

        batch = 5
        cases = [
            (generator, rng.normal(size=(batch, 6)), rng.normal(size=(batch, 3, 16, 16))),
            (discriminator, rng.normal(size=(batch, 3, 16, 16)), rng.normal(size=(batch, 1))),
        ]
        assert not transposed(cases[0][2]).flags.c_contiguous
        assert not transposed(cases[1][1]).flags.c_contiguous
        for model, x, grad in cases:
            x, grad = x.astype(model.dtype), grad.astype(model.dtype)
            expected = run(model, x, grad, np.ascontiguousarray)
            got = run(model, x, grad, transposed)
            for result in (expected, got):
                assert result[0].flags.c_contiguous and result[1].flags.c_contiguous
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])
            assert got[2].size > 0
            np.testing.assert_array_equal(got[2], expected[2])

    def test_predict_uses_eval_mode(self, rng):
        from repro.nn import Dropout

        model = Sequential(
            [Dense(16), Dropout(0.9), Dense(2)], input_shape=(4,), rng=rng
        )
        x = rng.normal(size=(3, 4))
        # Evaluation mode is deterministic.
        np.testing.assert_array_equal(model.predict(x), model.predict(x))


class TestCloneAndSummary:
    def test_clone_architecture_is_independent(self, rng):
        model = small_model(rng)
        clone = model.clone_architecture()
        clone.build((5,), np.random.default_rng(99))
        assert clone.num_parameters == model.num_parameters
        clone.set_parameters(np.zeros(clone.num_parameters))
        assert np.any(model.get_parameters() != 0)

    def test_summary_mentions_all_layers(self, rng):
        model = Sequential(
            [Dense(4, name="first"), Tanh(name="act"), Dense(2, name="second")],
            input_shape=(3,),
            rng=rng,
        )
        text = model.summary()
        assert "first" in text and "second" in text
        assert "Total parameters" in text


class TestSerializeHelpers:
    def test_parameter_and_vector_bytes(self, rng):
        model = small_model(rng)
        assert parameter_bytes(model) == 4 * model.num_parameters
        assert vector_bytes(np.zeros((10, 3))) == 120

    def test_average_parameters(self):
        avg = average_parameters([np.zeros(4), np.ones(4) * 2])
        np.testing.assert_allclose(avg, 1.0)

    def test_average_parameters_validation(self):
        with pytest.raises(ValueError):
            average_parameters([])
        with pytest.raises(ValueError, match="inconsistent"):
            average_parameters([np.zeros(3), np.zeros(4)])

    def test_weighted_average(self):
        avg = weighted_average_parameters([np.zeros(2), np.ones(2)], [1.0, 3.0])
        np.testing.assert_allclose(avg, 0.75)
        with pytest.raises(ValueError):
            weighted_average_parameters([np.zeros(2)], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_average_parameters([np.zeros(2), np.ones(2)], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_weighted_average_rejects_non_finite_and_negative_weights(self, bad):
        # A NaN or infinite weight used to return an all-NaN vector, which
        # FedAvg then wrote into both server models.
        with pytest.raises(ValueError, match="Weight 0 is"):
            weighted_average_parameters([np.ones(3), np.zeros(3)], [bad, 1.0])
        with pytest.raises(ValueError, match="Weight 1 is"):
            weighted_average_parameters([np.ones(3), np.zeros(3)], [1.0, bad])

    def test_copy_parameters(self, rng):
        a = small_model(rng)
        b = small_model(np.random.default_rng(77))
        copy_parameters(a, b)
        np.testing.assert_array_equal(a.get_parameters(), b.get_parameters())


class TestLeakyArchitectureIntegration:
    def test_deep_stack_trains_one_step(self, rng):
        from repro.nn import Adam

        model = Sequential(
            [Dense(32), LeakyReLU(0.2), Dense(32), LeakyReLU(0.2), Dense(1)],
            input_shape=(10,),
            rng=rng,
        )
        opt = Adam(learning_rate=1e-3)
        x = rng.normal(size=(16, 10))
        y = rng.normal(size=(16, 1))

        def loss():
            pred = model.forward(x)
            return 0.5 * float(np.sum((pred - y) ** 2)), pred

        first, pred = loss()
        for _ in range(50):
            value, pred = loss()
            model.zero_grad()
            model.backward(pred - y)
            opt.step(model)
        final, _ = loss()
        assert final < first
