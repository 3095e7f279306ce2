"""Unit tests for the SGD and Adam optimizers."""

import numpy as np
import pytest

from repro.nn import Adam, Dense, SGD, Sequential, make_optimizer, precision_scope


def quadratic_model(rng, dim=4):
    """One-layer linear model used as an optimisation test bed."""
    model = Sequential([Dense(1, use_bias=False)], input_shape=(dim,), rng=rng)
    return model


def rewired_model(rng, wiring):
    """A model the 4-input quadratic model's optimizer state must not fit, and its data.

    ``"size"`` has one more parameter; ``"shape"`` has the same 4 parameters
    laid out as a 2x2 weight, so only the recorded shapes can tell it apart.
    """
    dim, units = {"size": (5, 1), "shape": (2, 2)}[wiring]
    model = Sequential([Dense(units, use_bias=False)], input_shape=(dim,), rng=rng)
    x = rng.normal(size=(8, dim))
    return model, x, rng.normal(size=(8, units))


def quadratic_step(model, x, y):
    """Set gradients of 0.5 * ||x w - y||^2 on the model."""
    pred = model.forward(x)
    model.zero_grad()
    model.backward(pred - y)
    return float(0.5 * np.sum((pred - y) ** 2))


class TestSGD:
    def test_plain_sgd_descends(self, rng):
        model = quadratic_model(rng)
        x = rng.normal(size=(32, 4))
        y = x @ rng.normal(size=(4, 1))
        opt = SGD(learning_rate=0.01)
        losses = [quadratic_step(model, x, y)]
        for _ in range(200):
            quadratic_step(model, x, y)
            opt.step(model)
        losses.append(quadratic_step(model, x, y))
        assert losses[-1] < 0.05 * losses[0]

    def test_momentum_accelerates_with_small_learning_rate(self, rng):
        # With a deliberately small learning rate, momentum's ~1/(1-mu)
        # effective step size reaches a lower loss in the same number of steps.
        x = rng.normal(size=(32, 4))
        y = x @ rng.normal(size=(4, 1))

        def run(momentum):
            model = quadratic_model(np.random.default_rng(0))
            opt = SGD(learning_rate=5e-4, momentum=momentum)
            for _ in range(40):
                quadratic_step(model, x, y)
                opt.step(model)
            return quadratic_step(model, x, y)

        assert run(0.9) < run(0.0)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=-1)
        with pytest.raises(ValueError):
            SGD(momentum=1.5)

    def test_reset_clears_velocity(self, rng):
        model = quadratic_model(rng)
        x = rng.normal(size=(8, 4))
        y = rng.normal(size=(8, 1))
        opt = SGD(learning_rate=0.01, momentum=0.9)
        quadratic_step(model, x, y)
        opt.step(model)
        assert opt._velocity is not None
        opt.reset()
        assert opt._velocity is None and opt.iterations == 0

    @pytest.mark.parametrize("wiring", ["size", "shape"])
    def test_raises_on_state_shape_mismatch(self, rng, wiring):
        # Applying the same optimizer to a differently-shaped model indicates
        # a wiring bug (e.g. a swap against the wrong architecture) and must
        # not silently reset the momenta, even when the sizes agree.
        opt = SGD(learning_rate=0.01, momentum=0.9)
        model = quadratic_model(np.random.default_rng(0), dim=4)
        x = rng.normal(size=(8, 4))
        y = rng.normal(size=(8, 1))
        quadratic_step(model, x, y)
        opt.step(model)
        other, x_other, y_other = rewired_model(np.random.default_rng(1), wiring)
        quadratic_step(other, x_other, y_other)
        with pytest.raises(ValueError, match="SGD state .* shape"):
            opt.step(other)
        # reset() is the documented way to reuse the optimizer.
        opt.reset()
        opt.step(other)


class TestAdam:
    def test_converges_on_quadratic(self, rng):
        model = quadratic_model(rng)
        x = rng.normal(size=(64, 4))
        y = x @ rng.normal(size=(4, 1))
        opt = Adam(learning_rate=0.05)
        initial = quadratic_step(model, x, y)
        for _ in range(300):
            quadratic_step(model, x, y)
            opt.step(model)
        assert quadratic_step(model, x, y) < 0.01 * initial

    def test_first_step_size_close_to_learning_rate(self, rng):
        # Bias correction makes the first Adam step approximately lr * sign(grad).
        model = quadratic_model(rng, dim=2)
        model.set_parameters(np.array([1.0, 1.0]))
        x = np.eye(2)
        y = np.zeros((2, 1))
        opt = Adam(learning_rate=0.1)
        quadratic_step(model, x, y)
        before = model.get_parameters()
        opt.step(model)
        after = model.get_parameters()
        np.testing.assert_allclose(np.abs(after - before), 0.1, rtol=1e-5)

    @pytest.mark.parametrize("wiring", ["size", "shape"])
    def test_raises_on_state_shape_mismatch(self, rng, wiring):
        # Silent moment resets after a bad discriminator swap masked wiring
        # bugs; a shape change must raise, even at an unchanged size.
        opt = Adam(learning_rate=0.01)
        model = quadratic_model(np.random.default_rng(0), dim=4)
        x = rng.normal(size=(8, 4))
        y = rng.normal(size=(8, 1))
        quadratic_step(model, x, y)
        opt.step(model)
        other, x_other, y_other = rewired_model(np.random.default_rng(1), wiring)
        quadratic_step(other, x_other, y_other)
        with pytest.raises(ValueError, match="Adam state .* shape"):
            opt.step(other)
        opt.reset()
        opt.step(other)

    def test_state_tracks_parameters_across_set_parameters(self, rng):
        # set_parameters writes in place, so Adam's state stays valid.
        model = quadratic_model(rng)
        x = rng.normal(size=(16, 4))
        y = rng.normal(size=(16, 1))
        opt = Adam(learning_rate=0.01)
        quadratic_step(model, x, y)
        opt.step(model)
        moments = opt._m
        model.set_parameters(model.get_parameters() * 0.5)
        quadratic_step(model, x, y)
        opt.step(model)  # must not raise and must keep its state
        assert opt._m is moments

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)

    def test_state_dict_contents(self):
        opt = Adam(learning_rate=0.002, beta1=0.4)
        state = opt.state_dict()
        assert state["learning_rate"] == 0.002
        assert state["beta1"] == 0.4


class TestInPlaceUpdates:
    """A step allocates nothing: state and scratch arrays are reused."""

    @staticmethod
    def _reference_adam(params, grads, lr=0.01, beta1=0.5, beta2=0.999, eps=1e-8):
        """The textbook update, out of place, in the parameters' dtype."""
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        for t, grad in enumerate(grads, start=1):
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad**2
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
        return params

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_adam_matches_the_textbook_update_to_rounding(self, rng, precision):
        with precision_scope(precision):
            model = quadratic_model(rng, dim=6)
        opt = Adam(learning_rate=0.01)
        start = model.get_parameters()
        grads = [rng.normal(size=start.shape).astype(start.dtype) for _ in range(25)]
        for grad in grads:
            model.set_gradients(grad)
            opt.step(model)
        expected = self._reference_adam(start, grads)
        assert model.get_parameters().dtype == expected.dtype == start.dtype
        rtol = 1e-5 if precision == "float32" else 1e-12
        np.testing.assert_allclose(model.get_parameters(), expected, rtol=rtol)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_sgd_matches_the_out_of_place_update_bitwise(self, rng, momentum):
        model = quadratic_model(rng, dim=6)
        opt = SGD(learning_rate=0.05, momentum=momentum)
        params = model.get_parameters()
        velocity = np.zeros_like(params)
        for _ in range(10):
            grad = rng.normal(size=params.shape).astype(params.dtype)
            model.set_gradients(grad)
            opt.step(model)
            if momentum:
                velocity = momentum * velocity - 0.05 * grad
                params = params + velocity
            else:
                params = params - 0.05 * grad
            np.testing.assert_array_equal(model.get_parameters(), params)

    def test_state_and_scratch_arrays_are_allocated_once(self, rng):
        model = quadratic_model(rng)
        x = rng.normal(size=(8, 4))
        y = rng.normal(size=(8, 1))
        for opt, states in (
            (Adam(), lambda o: [o._m, o._v, o._scratch]),
            (SGD(momentum=0.5), lambda o: [o._velocity, o._scratch]),
        ):
            quadratic_step(model, x, y)
            opt.step(model)
            assert all(array is not None for array in states(opt))
            before = [id(array) for array in states(opt)]
            grads_before = model.get_gradients()
            opt.step(model)
            assert before == [id(array) for array in states(opt)]
            # The step reads the gradients; it never uses them as workspace.
            np.testing.assert_array_equal(model.get_gradients(), grads_before)

    def test_scratch_does_not_travel(self, rng):
        import copy
        import pickle

        model = quadratic_model(rng)
        opt = Adam()
        quadratic_step(model, rng.normal(size=(8, 4)), rng.normal(size=(8, 1)))
        opt.step(model)
        assert opt._scratch is not None
        for clone in (pickle.loads(pickle.dumps(opt)), copy.deepcopy(opt)):
            assert clone._scratch is None
            assert clone.iterations == 1
            np.testing.assert_array_equal(clone._m, opt._m)
            assert not np.shares_memory(clone._m, opt._m)
            clone.step(model)  # rebuilt on demand


class TestFactory:
    def test_make_optimizer(self):
        assert isinstance(make_optimizer("adam"), Adam)
        assert isinstance(make_optimizer("sgd", learning_rate=0.1), SGD)
        with pytest.raises(ValueError):
            make_optimizer("lbfgs")
