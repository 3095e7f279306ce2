"""Unit tests for nodes, the cluster container and crash schedules."""

import pytest

from repro.simulation import (
    Cluster,
    ComputeLedger,
    CrashSchedule,
    MessageKind,
    Node,
    SERVER_NAME,
    worker_name,
)


class TestComputeLedger:
    def test_charge_and_categories(self):
        ledger = ComputeLedger()
        ledger.charge("gen", 100.0)
        ledger.charge("gen", 50.0)
        ledger.charge("disc", 10.0)
        assert ledger.flops == 160.0
        assert ledger.by_category == {"gen": 150.0, "disc": 10.0}

    def test_memory_peak(self):
        ledger = ComputeLedger()
        ledger.observe_memory(10)
        ledger.observe_memory(5)
        assert ledger.peak_memory_floats == 10

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            ComputeLedger().charge("x", -1)

    def test_reset(self):
        ledger = ComputeLedger()
        ledger.charge("x", 5)
        ledger.observe_memory(3)
        ledger.reset()
        assert ledger.flops == 0 and ledger.peak_memory_floats == 0


class TestNode:
    def test_crash_and_rejoin(self):
        a = Node("a")
        assert a.alive
        a.crash()
        assert not a.alive
        # Crashing twice is harmless.
        a.crash()
        assert not a.alive
        a.rejoin()
        assert a.alive

    def test_nodes_own_separate_ledgers(self):
        a, b = Node("a"), Node("b")
        a.compute.charge("x", 3.0)
        assert b.compute.flops == 0.0


class TestCrashSchedule:
    def test_none_schedule(self):
        schedule = CrashSchedule.none()
        assert schedule.total_crashes == 0
        assert schedule.crashes_at(10) == []

    def test_uniform_schedule_covers_all_workers(self):
        names = [worker_name(i) for i in range(5)]
        schedule = CrashSchedule.uniform(names, total_iterations=100)
        assert schedule.total_crashes == 5
        assert set(schedule.all_victims()) == set(names)
        # One crash every I/N = 20 iterations, the first one not at iteration 0.
        iterations = sorted(schedule.crashes)
        assert iterations[0] == 20
        assert iterations[-1] <= 100

    def test_uniform_schedule_empty_workers(self):
        assert CrashSchedule.uniform([], 100).total_crashes == 0

    def test_uniform_invalid_iterations(self):
        with pytest.raises(ValueError):
            CrashSchedule.uniform(["w"], 0)

    def test_random_schedule_fraction(self, rng):
        names = [worker_name(i) for i in range(10)]
        schedule = CrashSchedule.random(names, 50, crash_fraction=0.4, rng=rng)
        assert schedule.total_crashes == 4
        with pytest.raises(ValueError):
            CrashSchedule.random(names, 50, crash_fraction=1.5, rng=rng)


class TestCluster:
    def test_membership(self):
        cluster = Cluster(num_workers=3)
        assert [w.name for w in cluster.workers] == [worker_name(i) for i in range(3)]
        assert all(w.alive for w in cluster.workers)
        assert cluster.server.name == SERVER_NAME

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            Cluster(num_workers=0)

    def test_apply_crashes(self):
        schedule = CrashSchedule({5: [worker_name(0), worker_name(2)]})
        cluster = Cluster(num_workers=3, crash_schedule=schedule)
        assert cluster.apply_crashes(4) == []
        crashed = cluster.apply_crashes(5)
        assert set(crashed) == {worker_name(0), worker_name(2)}
        assert [w.alive for w in cluster.workers] == [False, True, False]
        # Applying again at the same iteration is a no-op (already crashed).
        assert cluster.apply_crashes(5) == []

    def test_rejoined_worker_is_crashed_again_by_a_later_entry(self):
        schedule = CrashSchedule({2: [worker_name(1)], 6: [worker_name(1)]})
        cluster = Cluster(num_workers=2, crash_schedule=schedule)
        assert cluster.apply_crashes(2) == [worker_name(1)]
        cluster.workers[1].rejoin()
        assert cluster.workers[1].alive
        assert cluster.apply_crashes(6) == [worker_name(1)]
        assert [w.alive for w in cluster.workers] == [True, False]

    def test_unknown_crash_victims_are_ignored(self):
        cluster = Cluster(num_workers=2, crash_schedule=CrashSchedule({1: ["ghost"]}))
        assert cluster.apply_crashes(1) == []

    def test_meter_is_charged_directly(self):
        cluster = Cluster(num_workers=2)
        cluster.meter.charge(MessageKind.GENERATED_BATCHES, SERVER_NAME, worker_name(0), 32, 1)
        assert cluster.meter.node_egress(SERVER_NAME) == 32
        assert cluster.meter.node_ingress(worker_name(0)) == 32
