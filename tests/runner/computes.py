"""Importable toy compute functions for runner tests.

Scenario functions resolve by dotted ``module:function`` path, so the
test fixtures must live in a real module, not a test body.
"""

CALLS = []


def toy(x=1, seed=0):
    """A seeded compute: rows depend on (x, seed) only."""
    CALLS.append(("toy", x, seed))
    return {"rows": [{"x": x, "doubled": 2 * x, "seed": seed}],
            "meta": {"x": x}}


def toy_seedless(x=1):
    """A deterministic analytic compute (no seed parameter)."""
    CALLS.append(("toy_seedless", x))
    return {"rows": [{"x": x}]}


def bad_payload(seed=0):
    """Violates the contract: no 'rows' key."""
    return {"values": [seed]}


def sim_ticks(n=12, seed=0):
    """A tiny DES run under the ambient observer: yields timeline samples,
    profiler resumes, and flight-recorder events when those are armed."""
    from repro.obs import get_default_observer
    from repro.sim import Environment

    obs = get_default_observer()
    env = Environment(trace_hooks=obs)
    done = obs.metrics.counter("ticks.done") if obs else None
    wait = obs.metrics.histogram("ticks.wait") if obs else None
    timeline = getattr(obs, "timeline", None) if obs else None
    if timeline is not None:
        timeline.set_label(env, f"sim-ticks/{seed}")

    def worker():
        for i in range(n):
            yield env.timeout(0.5)
            if done is not None:
                done.inc()
                wait.observe(0.1 * (i % 3))

    env.process(worker())
    env.run()
    return {"rows": [{"n": n, "t_end": env.now, "seed": seed}]}


def explodes(seed=0):
    """Raises mid-simulation: the flight recorder must dump a bundle."""
    from repro.obs import get_default_observer
    from repro.sim import Environment

    obs = get_default_observer()
    env = Environment(trace_hooks=obs)

    def doomed():
        yield env.timeout(1.0)
        yield env.timeout(0.5)
        raise RuntimeError("boom at t=1.5")

    env.run(env.process(doomed()))
    return {"rows": []}  # pragma: no cover - never reached


def violates_invariant(seed=0):
    """Forces an InvariantViolation when the checker is armed."""
    from repro.obs import get_default_observer

    obs = get_default_observer()
    checker = getattr(obs, "invariants", None) if obs else None
    if checker is not None:
        checker.check_task_conservation(
            {"n_tasks": 2, "tasks_completed": 1, "tasks_abandoned": 0})
    return {"rows": [{"checked": checker is not None}]}
