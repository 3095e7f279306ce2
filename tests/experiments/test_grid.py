"""Tests for the experiment grid every training runner is built on.

The trainers are replaced through ``common.TRAINERS`` by stubs that record
what they were built with, so these tests pin the grid's wiring (order,
data routing, config overrides, clean-up, fail-fast validation) without
training anything.
"""

import pytest

from repro.core import TrainingConfig, TrainingHistory
from repro.experiments import (
    ExperimentScale,
    common,
    run_ablation_noniid,
    run_ablation_swap,
    run_fig4,
)
from repro.experiments.common import Cell, base_config, prepare, run_grid

TINY = ExperimentScale(
    name="tiny",
    n_train=120,
    n_test=60,
    image_size=16,
    iterations=6,
    eval_every=3,
    num_workers=3,
    batch_size_small=4,
    batch_size_large=8,
    width_factor=0.1,
    classifier_epochs=1,
    eval_sample_size=32,
)


@pytest.fixture()
def built(monkeypatch):
    """Replace every trainer with a recording stub; return the built stubs."""
    trainers = []

    def stub(algorithm):
        class Stub:
            def __init__(self, factory, data, config, evaluator=None, **kwargs):
                self.algorithm = algorithm
                self.data = data
                self.config = config
                self.kwargs = kwargs
                self.closed = False
                self.trained = False
                trainers.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.closed = True

            def train(self):
                if self.kwargs.get("fail"):
                    raise RuntimeError("train failed")
                self.trained = True
                return TrainingHistory(algorithm=algorithm)

        return Stub

    for algorithm in list(common.TRAINERS):
        monkeypatch.setitem(common.TRAINERS, algorithm, stub(algorithm))
    return trainers


@pytest.fixture(scope="module")
def setup():
    return prepare("mnist", "mnist-mlp", TINY, evaluate=False)


def test_cells_run_in_order_with_their_overrides(built, setup):
    cells = [
        Cell("b", "fl-gan", {"batch_size": 2}),
        Cell("a", "md-gan", trainer_kwargs={"crash_schedule": "plan"}),
        Cell("c", "standalone", {"num_batches": 1}),
    ]
    runs = run_grid(setup, base_config(TINY), cells)
    assert [cell.name for cell, _, _ in runs] == ["b", "a", "c"]
    assert [t.algorithm for t in built] == ["fl-gan", "md-gan", "standalone"]
    assert [h.algorithm for _, h, _ in runs] == ["fl-gan", "md-gan", "standalone"]
    assert all(seconds >= 0 for _, _, seconds in runs)
    assert [t.config.batch_size for t in built] == [2, 4, 4]
    assert built[2].config.num_batches == 1
    assert built[1].kwargs == {"crash_schedule": "plan"}
    assert built[0].kwargs == {}


def test_standalone_gets_the_train_set_and_the_rest_get_shards(built, setup):
    own = setup.iid_shards(2)
    cells = [
        Cell("solo", "standalone", shards=own),
        Cell("md", "md-gan"),
        Cell("fl", "fl-gan", shards=own),
    ]
    run_grid(setup, base_config(TINY), cells)
    solo, md, fl = built
    assert solo.data is setup.train
    assert md.data is setup.shards
    assert len(md.data) == TINY.num_workers
    assert fl.data is own


def test_a_trainer_is_closed_when_train_raises(built, setup):
    cells = [
        Cell("ok", "md-gan"),
        Cell("boom", "md-gan", trainer_kwargs={"fail": True}),
        Cell("never", "md-gan"),
    ]
    with pytest.raises(RuntimeError, match="train failed"):
        run_grid(setup, base_config(TINY), cells)
    assert len(built) == 2
    assert all(t.closed for t in built)
    assert [t.trained for t in built] == [True, False]


def test_a_bad_cell_fails_before_any_cell_trains(built, setup):
    config = base_config(TINY)
    with pytest.raises(ValueError, match="Unknown algorithm"):
        run_grid(setup, config, [Cell("ok", "md-gan"), Cell("x", "wgan")])
    with pytest.raises(ValueError, match="no worker shards"):
        run_grid(setup, config, [Cell("ok", "md-gan"), Cell("x", "fl-gan", shards=[])])
    assert built == []


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: run_fig4(
            scale=TINY, worker_counts=(1, 2), modes=("constant_worker", "bogus")
        ),
        lambda: run_ablation_noniid(scale=TINY, schemes=("iid", "striped")),
        lambda: run_ablation_swap(scale=TINY, epochs_values=(1.0, float("nan"))),
    ],
    ids=["fig4-bad-mode", "noniid-bad-scheme", "swap-nan-period"],
)
def test_a_bad_sweep_point_fails_before_any_trainer_is_built(built, sweep):
    with pytest.raises(ValueError):
        sweep()
    assert built == []


def test_base_config_fields_override_the_scale_defaults():
    config = base_config(TINY, eval_every=TINY.iterations, backend="resident")
    assert isinstance(config, TrainingConfig)
    assert config.iterations == TINY.iterations
    assert config.batch_size == TINY.batch_size_small
    assert config.eval_every == TINY.iterations
    assert config.backend == "resident"
