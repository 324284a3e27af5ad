"""OBS601 fixture: per-event metric registry lookups in hot loops."""


def server_loop(env, obs, tasks):
    for task in tasks:
        yield env.timeout(task.cost)
        obs.metrics.counter("tasks.done").inc()


def drain(env, rt, queue):
    while queue:
        item = queue.popleft()
        yield env.timeout(item.cost)
        rt.obs.metrics.histogram("drain.latency").observe(item.cost)


def hoisted_ok(env, obs, tasks):
    done = obs.metrics.counter("tasks.done")
    for task in tasks:
        yield env.timeout(task.cost)
        done.inc()


def not_a_generator(obs, tasks):
    # One-shot accounting outside the engine: per-call lookup cost is fine.
    for task in tasks:
        obs.metrics.counter("tasks.seen").inc()


def lookup_before_loop(env, metrics, tasks):
    gauge = metrics.gauge("queue.depth")
    while tasks:
        yield env.timeout(1)
        gauge.set(len(tasks), env.now)


def quiet_loop(env, obs, tasks):
    for task in tasks:
        yield env.timeout(task.cost)
        obs.metrics.counter("tasks.done").inc()  # simlint: disable=OBS601
