"""The ``latent_error`` / ``scrub`` fault kinds: JSON and the
scrub-vs-read discovery race at the injector."""

import pytest

from repro.cluster.disk import HDD, IO_CORRUPT, IO_OK, Disk
from repro.cluster.network import Nic
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.sim import Environment

MB = 1 << 20


def _rig(plan, n_disks=2):
    env = Environment()
    disks = [Disk(env, HDD, i) for i in range(n_disks)]
    nics = [Nic(env, name="nic-0")]
    return env, disks, FaultInjector(env, disks, nics, plan)


# ----------------------------------------------------------------------
# Events and plans
# ----------------------------------------------------------------------
def test_new_kinds_are_disk_scoped():
    with pytest.raises(ValueError, match="needs a disk"):
        FaultEvent("latent_error", at=1.0)
    with pytest.raises(ValueError, match="needs a disk"):
        FaultEvent("scrub", at=1.0)
    assert FaultEvent("latent_error", at=1.0, disk=0, count=3).count == 3
    assert FaultEvent("scrub", at_progress=0.5, disk=1).disk == 1


def test_json_round_trip():
    plan = FaultPlan(events=(
        FaultEvent("latent_error", at=1.0, disk=0, count=2),
        FaultEvent("scrub", at=2.0, disk=0),
        FaultEvent("scrub", at_progress=0.7, disk=1)))
    assert FaultPlan.from_json(plan.to_json()) == plan


# ----------------------------------------------------------------------
# Injector semantics: hidden errors, scrub repair, read race
# ----------------------------------------------------------------------
def test_scrub_clears_hidden_errors_before_any_read():
    plan = FaultPlan(events=(
        FaultEvent("latent_error", at=1.0, disk=0, count=2),
        FaultEvent("scrub", at=2.0, disk=0)))
    env, disks, injector = _rig(plan)
    env.run(until=1.5)
    assert disks[0].pending_corrupt == 2
    assert injector.latent_errors == {0: 2}
    env.run(until=3.0)
    assert disks[0].pending_corrupt == 0
    assert injector.latent_errors == {}
    assert injector.scrubbed_errors == 2


def test_read_surfaces_latent_error_before_scrub():
    """The discovery race: a read that beats the scrub consumes the
    error (IO_CORRUPT) and the scrub only repairs what is left."""
    plan = FaultPlan(events=(
        FaultEvent("latent_error", at=0.0, disk=0, count=2),
        FaultEvent("scrub", at=5.0, disk=0)))
    env, disks, injector = _rig(plan)
    statuses = []

    def proc():
        statuses.append((yield env.process(disks[0].read(1, MB))))
    env.run(env.process(proc()))
    assert statuses == [IO_CORRUPT]
    assert disks[0].pending_corrupt == 1
    env.run(until=6.0)
    # The scrub repaired the one remaining error; the consumed one was
    # already surfaced to the reader, not silently scrubbed.
    assert disks[0].pending_corrupt == 0
    assert injector.scrubbed_errors == 1

    def after():
        statuses.append((yield env.process(disks[0].read(1, MB))))
    env.run(env.process(after()))
    assert statuses == [IO_CORRUPT, IO_OK]


def test_scrub_of_clean_disk_is_a_no_op():
    plan = FaultPlan(events=(FaultEvent("scrub", at=1.0, disk=1),))
    env, disks, injector = _rig(plan)
    env.run(until=2.0)
    assert injector.scrubbed_errors == 0
    assert len(injector.injected) == 1


def test_at_progress_latent_then_scrub_via_notify_progress():
    """Progress-triggered events interact like timed ones: the latent
    error lands at 20% of the run, the scrub finds it at 60%."""
    plan = FaultPlan(events=(
        FaultEvent("latent_error", at_progress=0.2, disk=0, count=2),
        FaultEvent("scrub", at_progress=0.6, disk=0)))
    env, disks, injector = _rig(plan)
    assert injector.has_progress_events
    injector.notify_progress(0.1)
    assert disks[0].pending_corrupt == 0
    injector.notify_progress(0.25)
    assert disks[0].pending_corrupt == 2
    assert injector.latent_errors == {0: 2}
    injector.notify_progress(0.5)
    assert disks[0].pending_corrupt == 2   # scrub not reached yet
    injector.notify_progress(0.6)
    assert disks[0].pending_corrupt == 0
    assert injector.scrubbed_errors == 2
    assert not injector.has_progress_events
