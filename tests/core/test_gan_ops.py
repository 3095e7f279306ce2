"""Unit tests for the shared GAN training steps.

The critical property tested here is the *split-update equivalence*: chaining
a worker's error feedback through the server's generator must produce exactly
the same generator gradients as backpropagating end-to-end through
discriminator-then-generator on one machine.  This is the mathematical core
of MD-GAN (Section IV-B2).
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.core.mdgan as mdgan
from repro.core import (
    GANObjective,
    MDGANTrainer,
    TrainingConfig,
    apply_feedback_to_generator,
    discriminator_update,
    generator_feedback,
    sample_generator_images,
)
from repro.models import build_mnist_cnn_gan, build_toy_gan
from repro.models.base import generator_input
from repro.nn import Adam, BatchNorm, precision_scope


@pytest.fixture()
def setup(rng):
    factory = build_toy_gan(latent_dim=10, num_classes=4, hidden=32)
    generator = factory.make_generator(rng)
    discriminator = factory.make_discriminator(rng)
    objective = GANObjective(factory)
    return factory, generator, discriminator, objective


class TestSampling:
    def test_sample_generator_images_shapes(self, setup, rng):
        factory, generator, _, _ = setup
        [batch] = sample_generator_images(generator, factory, 6, rng)
        assert batch.images.shape == (6,) + factory.image_shape
        assert batch.noise.shape == (6, factory.latent_dim)
        assert batch.labels.shape == (6,)

    def test_unconditional_sampling_has_no_labels(self, rng):
        factory = build_toy_gan(conditional=False)
        generator = factory.make_generator(rng)
        [batch] = sample_generator_images(generator, factory, 4, rng)
        assert batch.labels is None


class TestObjective:
    def test_real_and_fake_terms_sum_to_joint_loss(self, setup, rng):
        factory, generator, discriminator, objective = setup
        [batch] = sample_generator_images(generator, factory, 8, rng)
        real_images = rng.uniform(-1, 1, size=(8,) + factory.image_shape)
        real_labels = rng.integers(0, factory.num_classes, size=8)
        real_out = discriminator.forward(real_images, training=False)
        fake_out = discriminator.forward(batch.images, training=False)
        joint, _, _ = objective.discriminator_loss(
            real_out, real_labels, fake_out, batch.labels
        )
        loss_r, _ = objective.discriminator_real_term(real_out, real_labels)
        loss_f, _ = objective.discriminator_fake_term(fake_out, batch.labels)
        assert joint == pytest.approx(loss_r + loss_f, rel=1e-10)

    def test_unconditional_objective_paths(self, rng):
        factory = build_toy_gan(conditional=False)
        objective = GANObjective(factory)
        outputs = rng.normal(size=(5, 1))
        loss, grad = objective.generator_loss(outputs, None)
        assert np.isfinite(loss) and grad.shape == outputs.shape


class TestDiscriminatorUpdate:
    def test_loss_decreases_on_fixed_batches(self, setup, rng):
        factory, generator, discriminator, objective = setup
        optimizer = Adam(learning_rate=5e-3)
        real_images = rng.uniform(-1, 1, size=(16,) + factory.image_shape)
        real_labels = rng.integers(0, factory.num_classes, size=16)
        [batch] = sample_generator_images(generator, factory, 16, rng)
        losses = []
        for _ in range(30):
            losses.append(
                discriminator_update(
                    discriminator,
                    objective,
                    optimizer,
                    real_images,
                    real_labels,
                    batch.images,
                    batch.labels,
                )
            )
        assert losses[-1] < losses[0]

    def test_gradients_are_consumed_not_leaked(self, setup, rng):
        factory, generator, discriminator, objective = setup
        optimizer = Adam(learning_rate=1e-3)
        real_images = rng.uniform(-1, 1, size=(4,) + factory.image_shape)
        real_labels = rng.integers(0, factory.num_classes, size=4)
        [batch] = sample_generator_images(generator, factory, 4, rng)
        before = discriminator.get_parameters()
        discriminator_update(
            discriminator, objective, optimizer, real_images, real_labels,
            batch.images, batch.labels,
        )
        after = discriminator.get_parameters()
        assert not np.array_equal(before, after)


class TestFeedback:
    def test_feedback_matches_numeric_image_gradient(self, setup, rng):
        factory, _, _, objective = setup
        # Finite differences need the float64 opt-in of the precision policy.
        with precision_scope("float64"):
            generator = factory.make_generator(rng)
            discriminator = factory.make_discriminator(rng)
        [batch] = sample_generator_images(generator, factory, 3, rng)
        loss, feedback = generator_feedback(discriminator, objective, batch)
        assert feedback.shape == batch.images.shape

        def loss_of_images(images):
            out = discriminator.forward(images, training=True)
            value, _ = objective.generator_loss(out, batch.labels)
            return value

        eps = 1e-6
        flat = batch.images.copy()
        for idx in [(0, 0, 1, 1), (1, 0, 3, 2), (2, 0, 5, 7)]:
            up = flat.copy()
            up[idx] += eps
            down = flat.copy()
            down[idx] -= eps
            numeric = (loss_of_images(up) - loss_of_images(down)) / (2 * eps)
            assert feedback[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_feedback_does_not_touch_discriminator_parameters(self, setup, rng):
        factory, generator, discriminator, objective = setup
        [batch] = sample_generator_images(generator, factory, 4, rng)
        before = discriminator.get_parameters()
        generator_feedback(discriminator, objective, batch)
        np.testing.assert_array_equal(before, discriminator.get_parameters())
        np.testing.assert_array_equal(discriminator.get_gradients(), 0.0)


class TestInputGradientOnlyFeedback:
    """The feedback pass skips every weight gradient; nothing else may change."""

    @pytest.fixture()
    def cnn(self, rng):
        from repro.models import build_mnist_cnn_gan

        factory = build_mnist_cnn_gan(image_shape=(1, 16, 16), width_factor=0.25)
        return (
            factory,
            factory.make_generator(rng),
            factory.make_discriminator(rng),
            GANObjective(factory),
        )

    def test_feedback_equals_the_full_backward_feedback_bitwise(self, cnn, rng):
        import copy

        factory, generator, discriminator, objective = cnn
        [batch] = sample_generator_images(generator, factory, 8, rng)
        # Leave stale gradients behind, as a discriminator update does.
        real = rng.uniform(-1, 1, size=(8,) + factory.image_shape)
        labels = rng.integers(0, factory.num_classes, size=8)
        discriminator_update(
            discriminator, objective, Adam(), real, labels, batch.images, batch.labels
        )
        assert np.any(discriminator.get_gradients() != 0)

        reference = copy.deepcopy(discriminator)  # same dropout stream too
        outputs = reference.forward(batch.images, training=True)
        ref_loss, grad_outputs = objective.generator_loss(outputs, batch.labels)
        ref_feedback = reference.backward(grad_outputs)

        loss, feedback = generator_feedback(discriminator, objective, batch)
        assert loss == ref_loss
        np.testing.assert_array_equal(feedback, ref_feedback)
        for layer in discriminator.layers:
            for name, grad in layer.grads.items():
                assert not grad.any(), f"{layer.name}.{name} is not zero"

    def test_discriminator_update_equals_the_update_with_image_gradients(self, cnn, rng):
        import copy

        factory, generator, discriminator, objective = cnn
        [batch] = sample_generator_images(generator, factory, 8, rng)
        real = rng.uniform(-1, 1, size=(8,) + factory.image_shape)
        labels = rng.integers(0, factory.num_classes, size=8)

        reference = copy.deepcopy(discriminator)
        ref_opt = Adam()
        reference.zero_grad()
        out = reference.forward(real, training=True)
        loss_real, grad = objective.discriminator_real_term(out, labels)
        assert reference.backward(grad).shape == real.shape
        out = reference.forward(batch.images, training=True)
        loss_fake, grad = objective.discriminator_fake_term(out, batch.labels)
        reference.backward(grad)
        ref_opt.step(reference)

        loss = discriminator_update(
            discriminator, objective, Adam(), real, labels, batch.images, batch.labels
        )
        assert loss == float(loss_real + loss_fake)
        np.testing.assert_array_equal(
            discriminator.get_parameters(), reference.get_parameters()
        )


class TestSplitUpdateEquivalence:
    def test_single_worker_feedback_equals_direct_backprop(self, setup, rng):
        """Server-side chaining of F_n reproduces end-to-end generator gradients."""
        factory, generator, discriminator, objective = setup
        [batch] = sample_generator_images(generator, factory, 6, rng)

        # Split update: worker computes feedback, server replays and chains.
        _, feedback = generator_feedback(discriminator, objective, batch)
        generator.zero_grad()
        apply_feedback_to_generator(generator, factory, [batch], [feedback])
        split_grads = generator.get_gradients()

        # Direct update: backprop through D then G in one pass.
        g_input = generator_input(batch.noise, batch.labels, factory.num_classes)
        images = generator.forward(g_input, training=True)
        outputs = discriminator.forward(images, training=True)
        _, grad_outputs = objective.generator_loss(outputs, batch.labels)
        discriminator.zero_grad()
        grad_images = discriminator.backward(grad_outputs)
        generator.zero_grad()
        generator.backward(grad_images)
        direct_grads = generator.get_gradients()

        np.testing.assert_allclose(split_grads, direct_grads, rtol=1e-9, atol=1e-12)

    def test_multiple_feedbacks_are_averaged(self, setup, rng):
        factory, generator, discriminator, objective = setup
        [batch] = sample_generator_images(generator, factory, 5, rng)
        _, feedback = generator_feedback(discriminator, objective, batch)

        generator.zero_grad()
        apply_feedback_to_generator(generator, factory, [batch], [feedback])
        single = generator.get_gradients()

        generator.zero_grad()
        apply_feedback_to_generator(
            generator, factory, [batch, batch], [feedback, feedback]
        )
        doubled_then_averaged = generator.get_gradients()
        np.testing.assert_allclose(single, doubled_then_averaged, rtol=1e-9)

    def test_validation_errors(self, setup, rng):
        factory, generator, discriminator, objective = setup
        [batch] = sample_generator_images(generator, factory, 4, rng)
        _, feedback = generator_feedback(discriminator, objective, batch)
        with pytest.raises(ValueError, match="batches but"):
            apply_feedback_to_generator(generator, factory, [batch], [])
        with pytest.raises(ValueError, match="weights"):
            apply_feedback_to_generator(
                generator, factory, [batch], [feedback], weights=[1.0, 2.0]
            )
        with pytest.raises(ValueError, match="Feedback shape"):
            apply_feedback_to_generator(
                generator, factory, [batch], [feedback[:, :, :2, :2]]
            )
        # Empty call is a no-op.
        apply_feedback_to_generator(generator, factory, [], [])


class TestSnapshotFeedback:
    """Feedback through a batch's snapshot equals the replay, bit for bit.

    The reference strips every snapshot, forcing the replay.  The generator
    has BatchNorm, so the running statistics (one training forward's update
    per feedback entry, in feedback order) are compared too.
    """

    @staticmethod
    def _pair():
        factory = build_mnist_cnn_gan(
            image_shape=(1, 8, 8),
            latent_dim=6,
            num_classes=3,
            width_factor=0.25,
            use_minibatch_discrimination=False,
        )
        return factory, [factory.make_generator(np.random.default_rng(0)) for _ in range(2)]

    @staticmethod
    def _generate(generator, factory, k, seed):
        rng = np.random.default_rng(seed)
        return [sample_generator_images(generator, factory, 4, rng, j)[0] for j in range(k)]

    @staticmethod
    def _replayed(batches):
        return [replace(batch, snapshot=None) for batch in batches]

    @staticmethod
    def _apply(generator, factory, batches, order, seed):
        rng = np.random.default_rng(seed)
        feedbacks = [rng.normal(size=batches[j].images.shape) for j in order]
        generator.zero_grad()
        apply_feedback_to_generator(generator, factory, [batches[j] for j in order], feedbacks)

    @staticmethod
    def _assert_same(got, want):
        assert np.array_equal(got.get_gradients(), want.get_gradients())
        norms = [(a, b) for a, b in zip(got.layers, want.layers) if isinstance(a, BatchNorm)]
        assert norms
        for a, b in norms:
            assert np.array_equal(a.running_mean, b.running_mean)
            assert np.array_equal(a.running_var, b.running_var)

    @pytest.mark.parametrize(
        "k, order",
        [(3, [0, 1, 2]), (2, [0, 1, 0, 1, 1])],
        ids=["k-fresh-batches", "fed-back-twice"],
    )
    def test_fresh_snapshots_equal_the_replay(self, k, order):
        factory, (generator, reference) = self._pair()
        batches = self._generate(generator, factory, k, seed=1)
        assert all(batch.snapshot is not None for batch in batches)
        ref_batches = self._replayed(self._generate(reference, factory, k, seed=1))
        self._apply(generator, factory, batches, order, seed=2)
        self._apply(reference, factory, ref_batches, order, seed=2)
        self._assert_same(generator, reference)

    def test_mixed_fresh_and_stale_batches_equal_the_replay(self):
        factory, (generator, reference) = self._pair()
        old = self._generate(generator, factory, 2, seed=1)
        ref_old = self._replayed(self._generate(reference, factory, 2, seed=1))
        # One generator update makes the first set stale: its owner drops
        # the snapshots, as the trainer does for staleness > 0.
        for model, batches in ((generator, old), (reference, ref_old)):
            self._apply(model, factory, batches, [0, 1], seed=3)
            Adam().step(model)
        old = self._replayed(old)
        new = self._generate(generator, factory, 2, seed=4)
        ref_new = self._replayed(self._generate(reference, factory, 2, seed=4))
        order = [0, 2, 1, 3, 2]
        self._apply(generator, factory, old + new, order, seed=5)
        self._apply(reference, factory, ref_old + ref_new, order, seed=5)
        self._assert_same(generator, reference)

    def test_evaluation_batches_carry_no_snapshot(self):
        factory, (generator, _) = self._pair()
        rng = np.random.default_rng(0)
        [batch] = sample_generator_images(generator, factory, 4, rng, training=False)
        assert batch.snapshot is None


class TestTrainerReplaysStaleBatches:
    """The trainer keeps a batch's snapshot only at staleness 0."""

    @staticmethod
    def _spy(monkeypatch):
        used = []
        real = mdgan.apply_feedback_to_generator

        def spy(generator, factory, batches, feedbacks, weights=None):
            used.append([batch.snapshot is not None for batch in batches])
            return real(generator, factory, batches, feedbacks, weights)

        monkeypatch.setattr(mdgan, "apply_feedback_to_generator", spy)
        return used

    @pytest.mark.parametrize("depth", [0, 1])
    def test_sync_replays_exactly_the_stale_sets(
        self, monkeypatch, toy_factory, ring_shards, depth
    ):
        used = self._spy(monkeypatch)
        config = TrainingConfig(iterations=5, batch_size=8, seed=21, pipeline_depth=depth)
        history = MDGANTrainer(toy_factory, ring_shards, config).train()
        staleness = history.staleness or [0] * len(used)
        assert len(used) == len(staleness) == 5
        assert used == [[s == 0] * len(flags) for s, flags in zip(staleness, used)]
        if depth:
            assert staleness[0] == 0 and set(staleness[1:]) == {1}

    def test_async_replays_exactly_the_stale_contributions(
        self, monkeypatch, toy_factory, ring_shards
    ):
        used = self._spy(monkeypatch)
        config = TrainingConfig(
            iterations=6, batch_size=8, seed=11, aggregation="async", max_staleness=2
        )
        trainer = MDGANTrainer(toy_factory, ring_shards, config)
        seen = []
        merge = trainer._async_merge

        def recording_merge(ctx, contributions, stalenesses):
            seen.append([s == 0 for s in stalenesses])
            return merge(ctx, contributions, stalenesses)

        trainer._async_merge = recording_merge
        trainer.train()
        assert used == seen
        flags = [flag for update in seen for flag in update]
        assert True in flags and False in flags
