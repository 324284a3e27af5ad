"""Cancellable waits: ``AnyOf`` races and ``Process.interrupt``."""

import pytest

from repro.sim import (
    AnyOf,
    Environment,
    Interrupted,
    Resource,
    SimulationError,
)


# ----------------------------------------------------------------------
# AnyOf
# ----------------------------------------------------------------------
def test_any_of_triggers_with_first_value():
    env = Environment()
    race = env.any_of([env.timeout(5.0, "slow"), env.timeout(1.0, "fast")])
    assert env.run(race) == "fast"
    assert env.now == 1.0


def test_any_of_already_drained_event_wins_immediately():
    env = Environment()
    done = env.event()
    done.succeed("early")
    env.run()  # drain the succeed callbacks
    race = env.any_of([env.timeout(3.0), done])
    assert env.run(race) == "early"
    assert env.now == 0.0


def test_any_of_empty_is_an_error():
    env = Environment()
    with pytest.raises(SimulationError):
        env.any_of([])


def test_any_of_losers_keep_running():
    env = Environment()
    log = []

    def slow():
        yield env.timeout(2.0)
        log.append("slow")

    race = env.any_of([env.process(slow()), env.timeout(0.5, "won")])
    assert env.run(race) == "won"
    env.run()
    assert log == ["slow"]


def test_any_of_is_an_event_class():
    env = Environment()
    assert isinstance(env.any_of([env.timeout(1)]), AnyOf)


# ----------------------------------------------------------------------
# Process.interrupt
# ----------------------------------------------------------------------
def test_interrupt_runs_finally_and_finishes_with_interrupted():
    env = Environment()
    cleaned = []

    def worker():
        try:
            yield env.timeout(100.0)
        finally:
            cleaned.append(env.now)

    proc = env.process(worker())

    def killer():
        yield env.timeout(3.0)
        assert proc.interrupt("boredom")

    env.run(env.process(killer()))
    env.run(proc)
    assert cleaned == [3.0]
    assert isinstance(proc.value, Interrupted)
    assert proc.value.cause == "boredom"


def test_interrupt_value_is_the_same_interrupted_with_its_cause():
    """The process finishes with the very instance its generator saw,
    cause included, but without the traceback whose frames would hold
    the process itself."""
    env = Environment()
    cause = ("hedge-loser", 3)
    seen = []

    def worker():
        try:
            yield env.timeout(100.0)
        except Interrupted as exc:
            seen.append(exc)
            raise

    proc = env.process(worker())
    env.run(until=1.0)
    assert proc.interrupt(cause)
    assert proc.value is seen[0]
    assert proc.value.cause is cause
    assert proc.value.__traceback__ is None


def test_interrupt_caught_process_continues_on_new_event():
    env = Environment()

    def worker():
        try:
            yield env.timeout(100.0)
        except Interrupted:
            yield env.timeout(1.0)
        return "recovered"

    proc = env.process(worker())

    def killer():
        yield env.timeout(2.0)
        proc.interrupt()

    env.process(killer())
    assert env.run(proc) == "recovered"
    assert env.now == 3.0


def test_interrupt_finished_process_is_a_noop():
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        return "done"

    proc = env.process(worker())
    assert env.run(proc) == "done"
    assert proc.interrupt() is False
    assert proc.value == "done"


def test_interrupt_cancels_queued_resource_request_without_leak():
    """A with-managed request abandoned mid-queue must be cancelled, not
    leaked — the hedged-retry regression the fault paths rely on."""
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10.0)

    def waiter():
        with res.request() as req:
            yield req
            yield env.timeout(1.0)

    env.process(holder())
    queued = env.process(waiter())

    def killer():
        yield env.timeout(2.0)
        queued.interrupt("hedge")

    env.run(env.process(killer()))
    assert res.queue_length == 0  # the queued request was cancelled
    env.run()
    assert res.in_use == 0  # and the holder released normally


def test_interrupt_releases_granted_resource():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10.0)

    proc = env.process(holder())

    def killer():
        yield env.timeout(1.0)
        proc.interrupt()

    env.run(env.process(killer()))
    assert res.in_use == 0


def test_interrupt_same_timestep_as_wakeup_does_not_double_resume():
    """Interrupting at the exact time the awaited event fires must not
    resume the process twice (stale-wakeup guard)."""
    env = Environment()
    resumes = []

    def worker():
        try:
            yield env.timeout(5.0)
            resumes.append("timer")
        except Interrupted:
            resumes.append("interrupt")

    proc = env.process(worker())

    def killer():
        yield env.timeout(5.0)
        proc.interrupt()

    env.process(killer())
    env.run()
    assert len(resumes) == 1
