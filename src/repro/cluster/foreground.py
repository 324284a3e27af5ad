"""Foreground (busy-system) load generation (§6.2 Methodology).

The paper's "busy" experiments run 15 x 8 clients issuing normal reads
continuously, leaving per-disk bandwidth fluctuating between ~30 and
~100 MB/s on HDDs.  We reproduce that as per-disk Poisson read generators
targeting a configurable utilization; reads are foreground-priority, so
they contend with measured degraded reads and pre-empt queued recovery I/O.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.disk import FOREGROUND, Disk
from repro.sim import Environment

MB = 1 << 20


def start_foreground_load(env: Environment, disks: list[Disk],
                          rng: np.random.Generator,
                          utilization: float = 0.5,
                          mean_read_bytes: int = 16 * MB,
                          mean_ios_per_read: int | None = None,
                          invariants=None) -> None:
    """Arm one generator per disk; runs for the lifetime of ``env``.

    The generators are open-ended, so at the end of a measurement they may
    legitimately hold disk grants mid-read; passing the runtime's
    ``invariants`` checker exempts this environment from the end-of-run
    resource-leak audit.
    """
    if not 0 < utilization < 1:
        raise ValueError("utilization must be in (0, 1)")
    if invariants is not None:
        invariants.exempt_env(env)
    if mean_ios_per_read is None:
        mean_ios_per_read = max(1, mean_read_bytes // (16 * MB) + 1)
    for disk in disks:
        service = disk.model.read_time(mean_ios_per_read, mean_read_bytes)
        mean_interarrival = service / utilization
        env.process(_generator(env, disk, rng, mean_interarrival,
                               mean_read_bytes, mean_ios_per_read))


def _generator(env: Environment, disk: Disk, rng: np.random.Generator,
               mean_interarrival: float, mean_bytes: int, mean_ios: int):
    while True:
        yield env.timeout(float(rng.exponential(mean_interarrival)))
        # Size jitter: half to double the mean, log-uniform.
        # numpy's uniform(-1, 1) is -1 + 2 * random(): same double, same state.
        size = int(mean_bytes * 2 ** (2.0 * rng.random() - 1.0))
        ios = max(1, int(round(mean_ios * size / mean_bytes)))
        env.process(disk.read(ios, size, FOREGROUND))
