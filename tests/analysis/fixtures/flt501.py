"""FLT501 fixture: repair-path grant wait without cancellation handling."""


def repair_reads(env, disk):
    req = disk.queue.request(0)
    yield req
    yield env.timeout(1)
    disk.queue.release(req)


def recovery_ok_with(env, disk):
    with disk.queue.request(0) as req:
        yield req
        yield env.timeout(1)


def repair_ok_cancelled(env, disk):
    req = disk.queue.request(0)
    try:
        yield req
        yield env.timeout(1)
    finally:
        req.cancel()


def rebuild_ok_released(env, disk):
    req = disk.queue.request(0)
    try:
        yield req
    finally:
        disk.queue.release(req)


def _batch_read(env, disk):
    # Normal-read service routine: no repair marker in its name.
    req = disk.queue.request(0)
    yield req
    yield env.timeout(1)
    disk.queue.release(req)


def repair_nested_wait(env, disk, n):
    req = disk.queue.request(0)
    for _ in range(n):
        if n:
            yield req  # nested in if/for: reported once
    disk.queue.release(req)


def recovery_ok_nested_cancel(env, disk, n):
    req = disk.queue.request(0)
    if n:
        try:
            yield req
        finally:
            req.cancel()


def rebuild_ok_release_method(env, disk):
    req = disk.queue.request(0)
    try:
        yield req
    finally:
        req.release()


def plain_read(env, disk):
    # Not repair-path code: out of the rule's scope.
    req = disk.queue.request(0)
    yield req
    disk.queue.release(req)


def repair_quiet(env, disk):
    req = disk.queue.request(0)
    yield req  # simlint: disable=FLT501
    disk.queue.release(req)
