"""FaultPlan / FaultEvent: validation, ordering, JSON, determinism."""

import pytest

from repro.faults import FaultEvent, FaultPlan


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("disk_melt", at=1.0, disk=0)

    def test_exactly_one_trigger_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultEvent("disk_crash", disk=0)
        with pytest.raises(ValueError, match="exactly one"):
            FaultEvent("disk_crash", at=1.0, at_progress=0.5, disk=0)

    def test_disk_kinds_need_disk(self):
        with pytest.raises(ValueError, match="needs a disk"):
            FaultEvent("disk_crash", at=1.0)

    def test_node_kinds_need_node(self):
        with pytest.raises(ValueError, match="needs a node"):
            FaultEvent("nic_slow", at=1.0, factor=2.0)

    def test_progress_fraction_bounded(self):
        with pytest.raises(ValueError, match="not in"):
            FaultEvent("disk_crash", at_progress=1.5, disk=0)

    def test_slow_factor_at_least_one(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            FaultEvent("disk_slow", at=0.0, disk=0, factor=0.5)

    def test_negative_time_and_duration_rejected(self):
        with pytest.raises(ValueError, match="negative fault time"):
            FaultEvent("disk_crash", at=-1.0, disk=0)
        with pytest.raises(ValueError, match="must be positive"):
            FaultEvent("disk_slow", at=0.0, disk=0, factor=2.0,
                       duration=0.0)


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert not FaultPlan.from_doc(None)

    def test_timeout_only_plan_is_truthy(self):
        assert FaultPlan(helper_timeout=0.1)
        with pytest.raises(ValueError, match="positive"):
            FaultPlan(helper_timeout=0.0)

    def test_events_sorted_timed_then_progress(self):
        plan = FaultPlan(events=(
            FaultEvent("disk_crash", at_progress=0.5, disk=3),
            FaultEvent("disk_slow", at=2.0, disk=1, factor=2.0),
            FaultEvent("disk_crash", at=1.0, disk=0),
        ))
        assert [e.at for e in plan.timed_events] == [1.0, 2.0]
        assert [e.at_progress for e in plan.progress_events] == [0.5]
        assert plan.events == plan.timed_events + plan.progress_events

    def test_json_round_trip(self):
        plan = FaultPlan(
            events=(FaultEvent("disk_crash", at=1.0, disk=0),
                    FaultEvent("nic_slow", at=0.5, node=2, factor=4.0,
                               duration=3.0),
                    FaultEvent("corrupt", at=2.0, disk=5, count=3),
                    FaultEvent("disk_crash", at_progress=0.5, disk=9)),
            helper_timeout=0.25)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_load_from_file(self, tmp_path):
        plan = FaultPlan.stragglers([1, 2], factor=8.0, helper_timeout=0.1)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        assert FaultPlan.load(path) == plan

    def test_with_timeout_and_extended(self):
        base = FaultPlan.second_failure(7)
        timed = base.with_timeout(0.5)
        assert timed.helper_timeout == 0.5 and timed.events == base.events
        grown = base.extended([FaultEvent("disk_crash", at=1.0, disk=3)])
        assert len(grown.events) == 2
        assert grown.timed_events[0].disk == 3

    def test_stragglers_factor_one_is_empty(self):
        assert not FaultPlan.stragglers([0, 1], factor=1.0)

    def test_second_failure_is_progress_event(self):
        plan = FaultPlan.second_failure(4, at_progress=0.5)
        (event,) = plan.progress_events
        assert event.kind == "disk_crash"
        assert event.disk == 4 and event.at_progress == 0.5


class TestSeededGenerators:
    def test_random_stragglers_reproducible(self):
        a = FaultPlan.random_stragglers(96, fraction=0.1, factor=4.0, seed=7)
        b = FaultPlan.random_stragglers(96, fraction=0.1, factor=4.0, seed=7)
        c = FaultPlan.random_stragglers(96, fraction=0.1, factor=4.0, seed=8)
        assert a == b
        assert a != c
        assert len(a.events) == round(0.1 * 96)

    def test_correlated_node_burst_covers_the_node(self):
        plan = FaultPlan.correlated_node_burst(node=2, disks_per_node=6,
                                               seed=1, at=5.0, spread=1.0)
        assert {e.disk for e in plan.events} == set(range(12, 18))
        assert all(5.0 <= e.at <= 6.0 for e in plan.events)
        again = FaultPlan.correlated_node_burst(node=2, disks_per_node=6,
                                                seed=1, at=5.0, spread=1.0)
        assert plan == again


# ----------------------------------------------------------------------
# Rack-scoped events
# ----------------------------------------------------------------------
def test_tor_slow_requires_a_rack():
    with pytest.raises(ValueError):
        FaultEvent("tor_slow", at=0.0, factor=2.0)
    event = FaultEvent("tor_slow", at=0.0, rack=3, factor=2.0, duration=5.0)
    assert event.rack == 3


def test_tor_slowdown_constructor():
    plan = FaultPlan.tor_slowdown(2, factor=4.0, at=1.0, duration=10.0)
    (event,) = plan.events
    assert event.kind == "tor_slow" and event.rack == 2
    assert event.factor == 4.0 and event.duration == 10.0
    # A non-degrading factor yields an empty plan (like other builders).
    assert FaultPlan.tor_slowdown(2, factor=1.0).events == ()


def test_tor_slow_round_trips_through_json():
    plan = FaultPlan.tor_slowdown(5, factor=2.0, duration=3.0)
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_rack_burst_composes_node_bursts():
    nodes = [4, 5, 6, 7]
    plan = FaultPlan.rack_burst(nodes, disks_per_node=6, seed=11, at=2.0,
                                spread=1.0)
    assert len(plan.events) == 24  # every disk of every node
    assert {e.kind for e in plan.events} == {"disk_slow"}
    assert all(2.0 <= e.at <= 3.0 for e in plan.events)
    # Bit-identical to its per-node bursts replayed together.
    manual = FaultPlan()
    for i, node in enumerate(nodes):
        manual = manual.extended(FaultPlan.correlated_node_burst(
            node, 6, 11 + i, 2.0, spread=1.0).events)
    assert plan == manual


def test_rack_burst_can_crash():
    plan = FaultPlan.rack_burst([0, 1], disks_per_node=2, seed=0, at=0.0,
                                kind="disk_crash")
    assert {e.kind for e in plan.events} == {"disk_crash"}
    assert {e.disk for e in plan.events} == {0, 1, 2, 3}
