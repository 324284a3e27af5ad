"""Micro benchmarks: the simulator's hot paths, timed in isolation.

Each benchmark targets one of the paths the profile-guided optimization
pass touched, so a regression in the gate points at a subsystem, not at
"the simulator got slower":

* ``calibrate.spin`` — fixed pure-Python workload; the normalization
  denominator (see :mod:`repro.bench.harness`).
* ``engine.event_throughput`` — one process draining N future timeouts
  through the heap.
* ``engine.ready_lane`` — N zero-delay timeouts through the ready deque
  (the fast lane added by the dual-queue engine).
* ``engine.process_churn`` — spawning and finishing N short processes.
* ``resource.contention`` — processes contending on a small-capacity
  resource (grant/release/waiter-heap path).
* ``gf.constructions`` — vectorized Vandermonde + Cauchy builds.
* ``gf.matrix_solve`` — Gauss-Jordan inversion and the symbolic
  :class:`~repro.gf.solve.GFLinearSystem` solve.
* ``codec.decode_cold`` — RS(10,4) decode of two erased chunks, the
  Gauss-Jordan solve included.
* ``catalog.striped_ingest`` — ingest 1000 W1 objects into an RS system
  with 256 KiB strips, then list every disk's degraded-read candidates:
  the closed-form strip runs and the per-disk candidate index.  A return
  to per-strip bookkeeping costs several times this spec's time, where
  it moves the macro specs too little to clear the gate.
* ``foreground.warmup_kernel`` — the busy warm-up kernel itself (never a
  memo hit): 16 SSDs at 50% utilization, 72 KiB reads, a 0.5 s warm-up,
  W2's foreground shape.  The macro ``scenario.tradeoff`` is W1, whose
  HDD warm-ups are ~3k events, so it cannot see the kernel slow down or
  a fall back to the DES.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from repro.bench.harness import BenchSpec
from repro.cluster import foreground
from repro.cluster.disk import SSD
from repro.codes.rs import RSCode
from repro.gf.matrix import cauchy_matrix, mat_inv, mat_mul, vandermonde
from repro.gf.solve import GFLinearSystem
from repro.sim.engine import Environment
from repro.sim.resources import Resource


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
_SPIN_N = 400_000


def _spin() -> int:
    acc = 0
    for i in range(_SPIN_N):
        acc += i * i & 0xFFFF
    return acc


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
_N_EVENTS = 100_000


def _event_throughput() -> float:
    env = Environment()

    def ticker():
        for _ in range(_N_EVENTS):
            yield env.timeout(1.0)

    env.process(ticker())
    env.run()
    return env.now


def _ready_lane() -> float:
    env = Environment()

    def ticker():
        for _ in range(_N_EVENTS):
            yield env.timeout(0.0)

    env.process(ticker())
    env.run()
    return env.now


_N_PROCS = 20_000


def _process_churn() -> float:
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    def spawner():
        for _ in range(_N_PROCS):
            yield env.process(worker())

    env.process(spawner())
    env.run()
    return env.now


# ----------------------------------------------------------------------
# resources
# ----------------------------------------------------------------------
_N_CONTENDERS = 2_000


def _contention() -> float:
    env = Environment()
    res = Resource(env, capacity=4)

    def client(i):
        yield env.timeout(float(i % 7))
        with res.request() as req:
            yield req
            yield env.timeout(1.0)

    for i in range(_N_CONTENDERS):
        env.process(client(i))
    env.run()
    return res.utilization()


# ----------------------------------------------------------------------
# GF kernels
# ----------------------------------------------------------------------
def _constructions() -> int:
    total = 0
    for _ in range(200):
        v = vandermonde(14, list(range(1, 15)))
        c = cauchy_matrix(list(range(10, 14)), list(range(10)))
        total += int(v[1, 0]) + int(c[0, 0])
    return total


def _matrix_solve() -> int:
    c = cauchy_matrix(list(range(64, 128)), list(range(64)))
    inv = mat_inv(c)
    prod = mat_mul(c, inv)
    system = GFLinearSystem(10, 10)
    rows = cauchy_matrix(list(range(16, 26)), list(range(10)))
    for i in range(10):
        system.add_equation(
            {j: int(rows[i, j]) for j in range(10) if rows[i, j]}, {i: 1})
    system.solve()
    return int(prod[0, 0])


# ----------------------------------------------------------------------
# codec decode
# ----------------------------------------------------------------------
_CHUNK = 1 << 14
_DECODES = 30


def _decode_chunks(code: RSCode) -> dict[int, np.ndarray]:
    rng = np.random.default_rng(7)
    data = [rng.integers(0, 256, _CHUNK, dtype=np.uint8)
            for _ in range(code.k)]
    return dict(enumerate(code.encode_stripe(data)))


_RS = RSCode(10, 4)
_STRIPE = _decode_chunks(_RS)
_ERASED = [0, 5]
_AVAILABLE = {n: c for n, c in _STRIPE.items() if n not in _ERASED}


def _decode_cold() -> int:
    out = 0
    for _ in range(_DECODES):
        decoded = _RS.decode(_AVAILABLE, _ERASED, _CHUNK)
        out ^= int(decoded[0][0])
    return out


# ----------------------------------------------------------------------
# catalog (striped ingest)
# ----------------------------------------------------------------------
_N_STRIPED = 1_000


@cache
def _w1_sizes() -> np.ndarray:
    from repro.experiments.common import sample_workload, setting_by_name

    return sample_workload(setting_by_name("W1"), _N_STRIPED, 0)


def _striped_ingest() -> int:
    from repro.experiments.common import (
        build_system,
        cluster_config,
        setting_by_name,
    )

    ws = setting_by_name("W1")
    system = build_system("RS", ws, cluster_config(ws, _N_STRIPED))
    system.ingest(_w1_sizes())
    return sum(len(system.degraded_read_candidates(disk))
               for disk in range(system.config.n_disks))


# ----------------------------------------------------------------------
# foreground (busy warm-up kernel)
# ----------------------------------------------------------------------
#: Engine events the spec's warm-up covers.
_WARMUP_EVENTS = 155_758


def _warmup_kernel() -> int:
    state = foreground._simulate(np.random.default_rng(0), (SSD,) * 16,
                                 0.5, 72 * 1024, 1, 0.5)
    return state.seq


def specs() -> list[BenchSpec]:
    """The micro suite (calibration first)."""
    return [
        BenchSpec("calibrate.spin", "calibration", _spin, units=_SPIN_N),
        BenchSpec("engine.event_throughput", "micro", _event_throughput,
                  units=_N_EVENTS),
        BenchSpec("engine.ready_lane", "micro", _ready_lane, units=_N_EVENTS),
        BenchSpec("engine.process_churn", "micro", _process_churn,
                  units=_N_PROCS),
        BenchSpec("resource.contention", "micro", _contention,
                  units=_N_CONTENDERS),
        BenchSpec("gf.constructions", "micro", _constructions, units=200),
        BenchSpec("gf.matrix_solve", "micro", _matrix_solve),
        BenchSpec("codec.decode_cold", "micro", _decode_cold,
                  units=_DECODES),
        BenchSpec("catalog.striped_ingest", "micro", _striped_ingest,
                  units=_N_STRIPED, repeats=5),
        BenchSpec("foreground.warmup_kernel", "micro", _warmup_kernel,
                  units=_WARMUP_EVENTS),
    ]
