"""Tests for the discrete-event engine."""

import gc
import weakref

import pytest

from repro.obs import Observer
from repro.sim import AllOf, Environment, SimulationError


def test_timeout_advances_clock():
    env = Environment()
    done = env.process(_sleep(env, 5.0))
    env.run(done)
    assert env.now == pytest.approx(5.0)


def _sleep(env, delay):
    yield env.timeout(delay)
    return "slept"


def test_process_return_value():
    env = Environment()
    done = env.process(_sleep(env, 1.0))
    assert env.run(done) == "slept"


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_sequential_timeouts_accumulate():
    env = Environment()

    def proc():
        yield env.timeout(1)
        yield env.timeout(2)
        yield env.timeout(3)
        return env.now

    assert env.run(env.process(proc())) == pytest.approx(6.0)


def test_timeout_value_passes_through():
    env = Environment()

    def proc():
        got = yield env.timeout(1, value="payload")
        return got

    assert env.run(env.process(proc())) == "payload"


def test_concurrent_processes_interleave():
    env = Environment()
    log = []

    def worker(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(worker("b", 2))
    env.process(worker("a", 1))
    env.process(worker("c", 3))
    env.run()
    assert log == [(1, "a"), (2, "b"), (3, "c")]


def test_fifo_order_at_same_time():
    """Events scheduled at the same instant fire in scheduling order."""
    env = Environment()
    log = []

    def worker(name):
        yield env.timeout(1)
        log.append(name)

    for name in "abcd":
        env.process(worker(name))
    env.run()
    assert log == list("abcd")


def test_process_waits_on_process():
    env = Environment()

    def child():
        yield env.timeout(4)
        return 42

    def parent():
        result = yield env.process(child())
        return (env.now, result)

    assert env.run(env.process(parent())) == (4.0, 42)


def test_wait_on_manual_event():
    env = Environment()
    gate = env.event()

    def opener():
        yield env.timeout(3)
        gate.succeed("open")

    def waiter():
        value = yield gate
        return (env.now, value)

    env.process(opener())
    done = env.process(waiter())
    assert env.run(done) == (3.0, "open")


def test_double_succeed_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_value_before_trigger_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().value


def test_all_of_waits_for_every_child():
    env = Environment()

    def child(delay):
        yield env.timeout(delay)
        return delay

    def parent():
        procs = [env.process(child(d)) for d in (3, 1, 2)]
        values = yield AllOf(env, procs)
        return (env.now, values)

    assert env.run(env.process(parent())) == (3.0, [3, 1, 2])


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def parent():
        yield AllOf(env, [])
        return env.now

    assert env.run(env.process(parent())) == 0.0


def test_yield_already_fired_event_resumes():
    """A process that yields a long-drained event must not deadlock."""
    env = Environment()
    gate = env.event()
    gate.succeed("early")

    def late_waiter():
        yield env.timeout(5)
        value = yield gate
        return value

    # Drain gate's callbacks first.
    env.run(until=1)
    assert env.run(env.process(late_waiter())) == "early"


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 42

    with pytest.raises(SimulationError):
        env.process(bad())
        env.run()


def test_run_until_time():
    env = Environment()
    log = []

    def ticker():
        while True:
            yield env.timeout(1)
            log.append(env.now)

    env.process(ticker())
    env.run(until=3.5)
    assert log == [1, 2, 3]
    assert env.now == pytest.approx(3.5)


def test_run_dry_before_event_raises():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError):
        env.run(never)


def test_deterministic_replay():
    def scenario():
        env = Environment()
        order = []

        def worker(name, d):
            yield env.timeout(d)
            order.append(name)

        for i, d in enumerate([3, 1, 2, 1, 3]):
            env.process(worker(i, d))
        env.run()
        return order

    assert scenario() == scenario()


def test_process_exception_propagates():
    """A crashing process surfaces its error instead of hanging the sim."""
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("boom")

    env.process(bad())
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_nested_all_of():
    env = Environment()

    def child(d):
        yield env.timeout(d)
        return d

    def parent():
        inner = AllOf(env, [env.process(child(1)), env.process(child(2))])
        outer = AllOf(env, [inner, env.process(child(3))])
        values = yield outer
        return (env.now, values)

    now, values = env.run(env.process(parent()))
    assert now == 3.0
    assert values[0] == [1, 2] and values[1] == 3


def test_all_of_over_already_triggered_and_drained_events():
    """AllOf must not wait forever on events whose callbacks already ran."""
    env = Environment()
    early1 = env.event()
    early1.succeed("one")
    early2 = env.event()
    early2.succeed("two")
    env.run()  # drain both callbacks

    def parent():
        values = yield AllOf(env, [early1, early2])
        return values

    assert env.run(env.process(parent())) == ["one", "two"]


def test_all_of_mixes_drained_and_pending_events():
    env = Environment()
    done = env.event()
    done.succeed("early")
    env.run()

    def child():
        yield env.timeout(2)
        return "late"

    def parent():
        values = yield AllOf(env, [done, env.process(child())])
        return (env.now, values)

    assert env.run(env.process(parent())) == (2.0, ["early", "late"])


def test_run_until_deadline_clamps_now_when_queue_drains_early():
    """run(until=t) must land the clock exactly on t even if the last
    event fires earlier."""
    env = Environment()
    env.process(_sleep(env, 1.0))
    env.run(until=7.5)
    assert env.now == pytest.approx(7.5)


def test_run_until_deadline_leaves_future_events_pending():
    env = Environment()
    log = []

    def late():
        yield env.timeout(10)
        log.append(env.now)

    env.process(late())
    env.run(until=4.0)
    assert env.now == pytest.approx(4.0)
    assert log == []
    env.run()  # the pending event still fires afterwards
    assert log == [10.0]


def test_run_until_zero_deadline():
    env = Environment()
    env.process(_sleep(env, 3))
    env.run(until=0.0)
    assert env.now == 0.0


def test_run_until_earlier_time_raises_before_popping():
    """A deadline behind the clock would move it back: refuse it, leaving
    the clock and the queue untouched."""
    env = Environment()
    log = []

    def late():
        yield env.timeout(10)
        log.append(env.now)

    env.process(late())
    env.run(until=6)
    with pytest.raises(SimulationError, match="backwards"):
        env.run(until=2)
    assert env.now == 6.0
    env.run()
    assert log == [10.0]

    empty = Environment()
    empty.run(until=3)
    with pytest.raises(SimulationError, match="backwards"):
        empty.run(until=1)
    assert empty.now == 3.0
    empty.run(until=3)  # the current time itself is fine


def test_rehop_passes_value_of_drained_event():
    """The re-hop path must resume with the drained event's value."""
    env = Environment()
    gate = env.event()
    gate.succeed({"payload": 17})
    env.run()

    def waiter():
        value = yield gate
        second = yield gate  # re-hopping twice also works
        return (value, second)

    assert env.run(env.process(waiter())) == ({"payload": 17}, {"payload": 17})


def test_rehop_preserves_clock():
    env = Environment()
    gate = env.event()
    gate.succeed("v")
    env.run()

    def waiter():
        yield env.timeout(3)
        yield gate        # re-hop happens "now", not at trigger time
        return env.now

    assert env.run(env.process(waiter())) == pytest.approx(3.0)


def test_trace_hooks_observe_schedule_and_resume():
    calls = {"schedule": 0, "resume": 0}

    class Hooks(Observer):
        def event_hooks(self):
            return self.on_schedule, self.on_resume

        def on_schedule(self, when, event):
            calls["schedule"] += 1

        def on_resume(self, process, trigger):
            calls["resume"] += 1

    hooks = Hooks()
    env = Environment(trace_hooks=hooks)

    def proc():
        yield env.timeout(1)
        yield env.timeout(2)

    env.run(env.process(proc()))
    assert calls["schedule"] >= 3   # start event + two timeouts
    assert calls["resume"] == 3     # two resumes + final StopIteration
    # The engine counts what its hooks saw.
    assert hooks.events_scheduled.value == calls["schedule"]
    assert hooks.process_resumes.value == calls["resume"]


def test_finished_process_is_not_retained():
    """The environment keeps only unfinished processes: a finished one
    (and its generator) is freed once nothing else refers to it."""
    env = Environment()

    def short():
        yield env.timeout(1)

    ref = weakref.ref(env.process(short()))
    env.run()
    assert ref() is None


def test_many_processes_scale():
    """The heap scheduler handles thousands of concurrent processes."""
    env = Environment()
    done = []

    def worker(i):
        yield env.timeout(i % 97 * 0.01)
        done.append(i)

    for i in range(5000):
        env.process(worker(i))
    env.run()
    assert len(done) == 5000


def test_close_finalizes_abandoned_processes_deterministically():
    """Open-ended generators abandoned at end-of-run must be cleaned up by
    ``close()``, not whenever garbage collection reaches them — otherwise
    their ``finally`` blocks (resource releases, metric updates) fire at a
    moment that depends on the host process's allocation history."""
    env = Environment()
    cleaned = []

    def open_ended(name):
        try:
            while True:
                yield env.timeout(1)
        finally:
            cleaned.append((env.now, name))

    keep_alive = [env.process(open_ended(n)) for n in "ab"]
    env.run(until=5)
    assert cleaned == []
    env.close()
    # Cleanup runs in process creation order at the final sim time.
    assert cleaned == [(5, "a"), (5, "b")]
    env.close()  # idempotent: exhausted generators are no-ops
    assert len(cleaned) == 2
    assert keep_alive  # processes stayed referenced until close


def test_close_survives_cleanup_that_finishes_or_starts_processes():
    """Cleanup run by ``close()`` may interrupt another process to its end
    or start a new one; every generator is still closed, in creation
    order, with the late starter last."""
    env = Environment()
    closed, late = [], []

    def waiter(name):
        try:
            yield env.timeout(10)
        finally:
            closed.append(name)

    def interrupter():
        try:
            yield env.timeout(10)
        finally:
            closed.append("interrupter")
            child.interrupt()

    def spawner():
        try:
            yield env.timeout(10)
        finally:
            closed.append("spawner")
            late.append(env.process(waiter("late")))

    env.process(interrupter())
    child = env.process(waiter("child"))
    env.process(spawner())
    env.process(waiter("tail"))
    env.run(until=1)
    env.close()
    assert closed == ["interrupter", "child", "spawner", "tail"]
    assert child.triggered and late[0]._gen.gi_frame is None


def test_closed_environment_is_freed_by_reference_counting():
    """``close()`` finishes the environment: queued events and the wait
    targets of closed processes are dropped, so nothing is left in a
    cycle for the collector to find."""
    env = Environment()
    gate = env.event()  # never fires

    def blocked():
        # A waiting process and its target reference each other.
        yield gate

    def racer():
        # So do an AnyOf and its pending timeouts.
        yield env.any_of([env.timeout(40), env.timeout(50)])

    def open_ended():
        while True:
            yield env.timeout(1)

    refs = [weakref.ref(env.process(gen()))
            for gen in (blocked, racer, open_ended)]
    env.run(until=3.5)
    gc.collect()
    gc.disable()
    try:
        env.close()
        assert not env._queue and not env._ready
        del env, gate
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
