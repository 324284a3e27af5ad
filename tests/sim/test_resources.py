"""Tests for FIFO / priority resources."""

import pytest

from repro.sim import Environment, PriorityResource, Resource, SimulationError


def test_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_serial_service_on_unit_resource():
    env = Environment()
    disk = Resource(env)
    done = []

    def job(name, service):
        req = disk.request()
        yield req
        yield env.timeout(service)
        disk.release(req)
        done.append((env.now, name))

    env.process(job("a", 2))
    env.process(job("b", 3))
    env.process(job("c", 1))
    env.run()
    assert done == [(2, "a"), (5, "b"), (6, "c")]


def test_granted_request_succeeds_with_none():
    """As in SimPy, a grant carries no value: a request holding itself
    would be a reference cycle."""
    env = Environment()
    res = Resource(env)
    got = []

    def job():
        with res.request() as req:
            got.append((yield req))
            got.append(req.granted)

    env.run(env.process(job()))
    assert got == [None, True]


def test_parallel_service_with_capacity():
    env = Environment()
    disk = Resource(env, capacity=2)
    done = []

    def job(name, service):
        req = disk.request()
        yield req
        yield env.timeout(service)
        disk.release(req)
        done.append((env.now, name))

    for name in ("a", "b", "c"):
        env.process(job(name, 2))
    env.run()
    # a and b run together; c starts when one finishes.
    assert done == [(2, "a"), (2, "b"), (4, "c")]


def test_release_requires_grant():
    env = Environment()
    disk = Resource(env)
    first = disk.request()  # granted immediately
    second = disk.request()  # queued
    with pytest.raises(SimulationError):
        disk.release(second)
    disk.release(first)


def test_fifo_ignores_priority():
    env = Environment()
    disk = Resource(env)
    order = []

    def job(name, priority):
        req = disk.request(priority)
        yield req
        yield env.timeout(1)
        disk.release(req)
        order.append(name)

    env.process(job("low", 10))
    env.process(job("high", 0))
    env.run()
    assert order == ["low", "high"]  # plain Resource is strictly FIFO


def test_priority_resource_orders_by_priority():
    env = Environment()
    disk = PriorityResource(env)
    order = []

    def job(name, priority, submit_at):
        yield env.timeout(submit_at)
        req = disk.request(priority)
        yield req
        yield env.timeout(10)
        disk.release(req)
        order.append(name)

    # First job occupies the disk; the rest queue and are served by priority.
    env.process(job("first", 5, 0))
    env.process(job("background", 5, 1))
    env.process(job("foreground", 0, 2))
    env.run()
    assert order == ["first", "foreground", "background"]


def test_priority_fifo_within_class():
    env = Environment()
    disk = PriorityResource(env)
    order = []

    def job(name, submit_at):
        yield env.timeout(submit_at)
        req = disk.request(1)
        yield req
        yield env.timeout(5)
        disk.release(req)
        order.append(name)

    env.process(job("a", 0))
    env.process(job("b", 1))
    env.process(job("c", 2))
    env.run()
    assert order == ["a", "b", "c"]


def test_utilization_accounting():
    env = Environment()
    disk = Resource(env)

    def job():
        req = disk.request()
        yield req
        yield env.timeout(4)
        disk.release(req)
        yield env.timeout(4)

    env.run(env.process(job()))
    assert disk.utilization() == pytest.approx(0.5)


def test_utilization_multi_capacity():
    env = Environment()
    disk = Resource(env, capacity=2)

    def job():
        req = disk.request()
        yield req
        yield env.timeout(10)
        disk.release(req)

    env.process(job())
    env.process(job())
    env.run()
    assert disk.utilization() == pytest.approx(1.0)


def test_queue_length():
    env = Environment()
    disk = Resource(env)
    disk.request()
    disk.request()
    disk.request()
    assert disk.queue_length == 2


def test_utilization_at_time_zero():
    env = Environment()
    assert Resource(env).utilization() == 0.0


def test_utilization_of_resource_created_mid_simulation():
    """Regression: utilization must divide by the resource's lifetime, not
    by ``env.now`` — a resource created at t=6 that is busy for all of its
    6-second life is 100% utilized, not 50%."""
    env = Environment()
    env.run(env.process(_sleep(env, 6)))
    assert env.now == pytest.approx(6.0)
    disk = Resource(env)

    def job():
        req = disk.request()
        yield req
        yield env.timeout(6)
        disk.release(req)

    env.run(env.process(job()))
    assert disk.utilization() == pytest.approx(1.0)


def _sleep(env, delay):
    yield env.timeout(delay)


def test_utilization_mid_simulation_half_busy():
    env = Environment()
    env.run(env.process(_sleep(env, 10)))
    disk = Resource(env)

    def job():
        req = disk.request()
        yield req
        yield env.timeout(3)
        disk.release(req)
        yield env.timeout(3)

    env.run(env.process(job()))
    assert disk.utilization() == pytest.approx(0.5)


def test_queue_wait_fifo():
    """queue_wait = grant time − request time, without hand-tracking."""
    env = Environment()
    disk = Resource(env)
    waits = {}

    def job(name, service):
        req = disk.request()
        yield req
        waits[name] = req.queue_wait
        yield env.timeout(service)
        disk.release(req)

    env.process(job("a", 2))
    env.process(job("b", 3))
    env.process(job("c", 1))
    env.run()
    assert waits["a"] == pytest.approx(0.0)
    assert waits["b"] == pytest.approx(2.0)   # behind a
    assert waits["c"] == pytest.approx(5.0)   # behind a and b


def test_queue_wait_priority_lanes():
    """Foreground jumps the background queue, so it waits less despite
    arriving later."""
    env = Environment()
    disk = PriorityResource(env)
    waits = {}

    def job(name, priority, submit_at):
        yield env.timeout(submit_at)
        req = disk.request(priority)
        yield req
        waits[name] = req.queue_wait
        yield env.timeout(10)
        disk.release(req)

    env.process(job("first", 5, 0))
    env.process(job("background", 5, 1))
    env.process(job("foreground", 0, 2))
    env.run()
    assert waits["first"] == pytest.approx(0.0)
    assert waits["foreground"] == pytest.approx(8.0)    # served at t=10
    assert waits["background"] == pytest.approx(19.0)   # served at t=20


def test_queue_wait_before_grant_raises():
    env = Environment()
    disk = Resource(env)
    disk.request()
    queued = disk.request()
    with pytest.raises(SimulationError):
        _ = queued.queue_wait


def test_queue_wait_survives_release():
    env = Environment()
    disk = Resource(env)
    req = disk.request()
    disk.release(req)
    assert req.queue_wait == pytest.approx(0.0)


def test_resource_records_metrics_when_observed():
    from repro.obs import Observer

    obs = Observer()
    env = Environment()
    disk = PriorityResource(env, obs=obs, kind="disk", instance="0")

    def job(priority, service):
        req = disk.request(priority)
        yield req
        yield env.timeout(service)
        disk.release(req)

    env.process(job(0, 2))
    env.process(job(1, 3))
    env.run()
    fg = obs.metrics.get("disk.queue_wait", lane=0)
    bg = obs.metrics.get("disk.queue_wait", lane=1)
    assert fg.count == 1 and fg.max == pytest.approx(0.0)
    assert bg.count == 1 and bg.max == pytest.approx(2.0)
    in_use = obs.metrics.get("disk.in_use", dev="0")
    assert in_use.max == 1 and in_use.value == 0


def test_unobserved_resource_has_no_metric_attrs():
    env = Environment()
    disk = Resource(env)
    assert disk._obs is None  # the disabled path stays a single None test


# ----------------------------------------------------------------------
# Release/cancel lifecycle guards
# ----------------------------------------------------------------------
def test_double_release_raises():
    env = Environment()
    disk = Resource(env)
    req = disk.request()
    disk.release(req)
    with pytest.raises(SimulationError, match="already released"):
        disk.release(req)
    assert disk.in_use == 0  # the failed release did not corrupt accounting


def test_release_method_on_request():
    env = Environment()
    disk = Resource(env)
    req = disk.request()
    assert disk.in_use == 1
    req.release()
    assert disk.in_use == 0
    with pytest.raises(SimulationError, match="already released"):
        req.release()


def test_release_foreign_request_raises():
    env = Environment()
    a, b = Resource(env), Resource(env)
    req = a.request()
    with pytest.raises(SimulationError, match="different resource"):
        b.release(req)
    a.release(req)


def test_release_ungranted_request_raises():
    env = Environment()
    disk = Resource(env)
    held = disk.request()
    queued = disk.request()
    assert not queued.granted
    with pytest.raises(SimulationError, match="never granted"):
        disk.release(queued)
    disk.release(held)


def test_cancel_queued_request_is_skipped_at_grant_time():
    env = Environment()
    disk = Resource(env)
    first = disk.request()
    second = disk.request()
    third = disk.request()
    second.cancel()
    assert disk.queue_length == 1
    second.cancel()  # idempotent
    first.release()
    assert third.granted and not second.granted
    with pytest.raises(SimulationError, match="cancel"):
        third.cancel()  # granted requests must be released, not cancelled
    with pytest.raises(SimulationError, match="cancelled"):
        disk.release(second)
    third.release()


def test_request_context_manager_releases():
    env = Environment()
    disk = Resource(env)
    done = []

    def job(name, service):
        with disk.request() as req:
            yield req
            yield env.timeout(service)
        done.append((env.now, name))

    env.process(job("a", 2))
    env.process(job("b", 1))
    env.run()
    assert done == [(2, "a"), (3, "b")]
    assert disk.in_use == 0


def test_request_context_manager_cancels_when_never_granted():
    env = Environment()
    disk = Resource(env)
    held = disk.request()
    with disk.request() as req:
        pass  # exits before the grant: withdrawn from the queue
    assert req.cancelled
    held.release()
    assert disk.in_use == 0 and disk.queue_length == 0
