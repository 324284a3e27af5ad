"""Differential oracle for the busy warm-up kernel.

A busy degraded-read measurement simulates its foreground warm-up either
in the DES or, when nothing could tell the difference, as data
(``foreground._simulate``) restored into the measurement's environment.
The DES is the reference.  The kernel's end state must equal the DES's
field by field, and a restored measurement must equal a DES one: rows,
engine counters, gauges, histograms with their reservoirs, and the
metrics written when the measurement closes.
"""

import pickle
from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import attach_invariant_checker
from repro.cluster import foreground
from repro.cluster.disk import HDD, SSD, Disk
from repro.experiments.common import (
    W2_SETTING, build_system, cluster_config, sample_workload)
from repro.faults import FaultPlan
from repro.obs import (
    Observer, attach_flightrec, attach_profiler, attach_timeline, observed)
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.snapshot import snapshot
from repro.sim import Environment

MB = 1 << 20


@pytest.fixture(autouse=True)
def empty_memo():
    foreground._MEMO.clear()
    yield
    foreground._MEMO.clear()


@contextmanager
def des_warmup():
    """Every warm-up in the block runs in the DES."""
    with mock.patch.object(foreground, "_end_state", lambda *args: None):
        yield


@contextmanager
def counting_kernel_runs():
    """Count the kernel runs (memo misses) in the block."""
    runs = []
    real = foreground._simulate

    def spy(*args):
        runs.append(args)
        return real(*args)

    with mock.patch.object(foreground, "_simulate", spy):
        yield runs


def gauge_fields(g: Gauge) -> tuple:
    return g.value, g.min, g.max, g._integral, g._t_first, g._t_last


def hist_fields(h: Histogram) -> tuple:
    return h.count, h.total, h.min, h.max, list(h._reservoir), h._state


def dump(obs: Observer) -> dict:
    """Every field of every metric (a snapshot rounds some of them)."""
    out = {}
    for key, metric in obs.metrics:
        if isinstance(metric, Counter):
            out[key] = metric.value
        elif isinstance(metric, Gauge):
            out[key] = gauge_fields(metric)
        else:
            out[key] = hist_fields(metric)
    return out


# ----------------------------------------------------------------------
# The end state, field by field
# ----------------------------------------------------------------------
class _LastResumes(Observer):
    """An observer whose resume hook remembers the clock at the last two
    resumes."""

    env = None

    def __init__(self):
        super().__init__()
        self.times = deque(maxlen=2)

    def event_hooks(self):
        return None, self.on_resume

    def on_resume(self, process, trigger):
        self.times.append(self.env.now)


def des_end_state(models, utilization, mean_bytes, seed, warmup):
    """Run the warm-up in the DES and read the kernel's fields off it at
    the driver's resume, which is the first step past the warm-up."""
    hooks = _LastResumes()
    hooks.env = env = Environment(trace_hooks=hooks)
    obs = Observer()
    disks = [Disk(env, model, i, obs=obs, run="0")
             for i, model in enumerate(models)]
    rng = np.random.default_rng(seed)
    found = {}

    def driver():
        cut = env.timeout(warmup)
        position = (env.now + warmup, env._seq)
        yield cut
        found["state"] = _read_state(env, disks, rng, obs, hooks, position)

    foreground.start_foreground_load(env, disks, rng, utilization,
                                     mean_bytes)
    env.run(env.process(driver()))
    return found["state"]


def _read_state(env, disks, rng, obs, hooks, driver):
    n = len(disks)
    registry = list(env._processes)
    readers, reads = registry[:n], registry[n + 1:]
    pending = {id(event): (when, seq)
               for when, seq, event in list(env._queue) + list(env._ready)}
    arrivals = tuple(pending[id(p._target)] for p in readers)
    in_flight = []
    for process in reads:
        local = process._gen.gi_frame.f_locals
        disk, req = local["self"], local["req"]
        if req.granted:
            in_flight.append((disk.disk_id, local["n_ios"], local["nbytes"],
                              req.request_time, None, req.grant_time,
                              pending[id(process._target)]))
        else:
            [index] = [i for _key, i, r in disk.queue._waiters if r is req]
            in_flight.append((disk.disk_id, local["n_ios"], local["nbytes"],
                              req.request_time, index, None, None))
    # Nothing else is pending: no read just started or granted.
    assert len(pending) == n + sum(r[-1] is not None for r in in_flight)
    per_disk = tuple(
        (d.bytes_read, d.n_read_ios, d.queue.in_use, d.queue._usage_integral,
         d.queue._last_change, int(repr(d.queue._seq)[6:-1]),
         gauge_fields(d.queue._depth_gauge),
         gauge_fields(d.queue._in_use_gauge))
        for d in disks)
    hist = obs.metrics.get("disk.queue_wait", lane=0)
    return {
        # The clock as the last event before the driver's left it.
        "now": hooks.times[0],
        "seq": env._seq,
        "resumes": env._resumes - 1,  # less the driver's resume just now
        "rng_state": rng.bit_generator.state,
        "driver": driver,
        "arrivals": arrivals,
        "reads": tuple(in_flight),
        "disks": per_disk,
        "waits": hist_fields(hist) if hist is not None else None,
    }


def kernel_end_state(models, utilization, mean_bytes, seed, warmup):
    state = foreground._simulate(
        np.random.default_rng(seed), models, utilization, mean_bytes,
        foreground._mean_ios(mean_bytes), warmup)
    assert state is not None
    fields = state._asdict()
    waits = None
    if state.waits:
        hist = Histogram("replayed")
        for wait in state.waits:
            hist.observe(wait)
        waits = hist_fields(hist)
    fields["waits"] = waits
    return fields


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       model=st.sampled_from([HDD, SSD]),
       n_disks=st.integers(min_value=1, max_value=6),
       utilization=st.floats(min_value=0.05, max_value=0.95),
       mean_bytes=st.integers(min_value=1, max_value=32 * MB),
       arrivals=st.floats(min_value=0.0, max_value=40.0))
def test_kernel_end_state_equals_des(seed, model, n_disks, utilization,
                                     mean_bytes, arrivals):
    """``arrivals`` sizes the warm-up in mean inter-arrival times, so it
    stays short whatever the read size."""
    mean_ios = foreground._mean_ios(mean_bytes)
    warmup = arrivals * model.read_time(mean_ios, mean_bytes) / utilization
    models = (model,) * n_disks
    des = des_end_state(models, utilization, mean_bytes, seed, warmup)
    kernel = kernel_end_state(models, utilization, mean_bytes, seed, warmup)
    assert kernel.keys() == des.keys()
    for field in des:
        assert kernel[field] == des[field], field


def test_kernel_covers_mixed_disk_models():
    models = (HDD, SSD, HDD)
    args = (models, 0.8, 4 * MB, 11, 0.2)
    assert kernel_end_state(*args) == des_end_state(*args)


# ----------------------------------------------------------------------
# A restored measurement equals a DES one
# ----------------------------------------------------------------------
N_OBJECTS = 60
W2_CONFIG = cluster_config(W2_SETTING, N_OBJECTS)


def measure(config=W2_CONFIG, seed=3, warmup=0.05, *attach, faults=None):
    """An idle then a busy degraded-read measurement under one observer:
    the idle one leaves waits in the shared lane-0 histogram."""
    obs = Observer()
    for fn in attach:
        fn(obs)
    with observed(obs):
        system = build_system("Geo-128K", W2_SETTING, config)
        system.ingest(sample_workload(W2_SETTING, N_OBJECTS, seed=3))
        objects = system.catalog.objects[:3]
        idle = system.measure_degraded_reads(objects, None)
        busy = system.measure_degraded_reads(objects, None, busy=True,
                                             seed=seed, warmup=warmup,
                                             faults=faults)
    return (idle, busy), dump(obs), snapshot(obs)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       model=st.sampled_from([HDD, SSD]),
       disks_per_node=st.integers(min_value=1, max_value=2),
       utilization=st.floats(min_value=0.1, max_value=0.9),
       read_bytes=st.integers(min_value=16 * 1024, max_value=4 * MB),
       warmup=st.floats(min_value=0.0, max_value=0.02))
def test_restored_measurement_equals_des(seed, model, disks_per_node,
                                         utilization, read_bytes, warmup):
    config = replace(W2_CONFIG, disk_model=model,
                     disks_per_node=disks_per_node,
                     foreground_utilization=utilization,
                     foreground_read_bytes=read_bytes)
    foreground._MEMO.clear()
    with counting_kernel_runs() as runs:
        kernel = measure(config, seed, warmup)
    assert len(runs) == 1
    with des_warmup():
        des = measure(config, seed, warmup)
    assert kernel == des


def test_full_w2_warmup_restores_exactly():
    """The default 2 s warm-up of the paper-scale busy measurement."""
    kernel = measure(warmup=2.0)
    with des_warmup():
        des = measure(warmup=2.0)
    assert kernel == des
    assert kernel[1]["engine.events_scheduled"] > 600_000


# ----------------------------------------------------------------------
# The memo
# ----------------------------------------------------------------------
def test_memo_hit_equals_miss():
    with counting_kernel_runs() as runs:
        miss = measure(seed=4, warmup=0.1)
        hit = measure(seed=4, warmup=0.1)
    assert len(runs) == 1
    assert hit == miss
    with des_warmup():
        assert measure(seed=4, warmup=0.1) == miss


def test_memo_hit_replays_into_a_histogram_holding_other_waits():
    """Two busy measurements in one observer: the second restores from the
    memo into a lane-0 histogram that already holds the first one's
    waits, so its total and reservoir slots differ from a fresh replay."""
    def twice():
        obs = Observer()
        with observed(obs):
            system = build_system("Geo-128K", W2_SETTING, W2_CONFIG)
            system.ingest(sample_workload(W2_SETTING, N_OBJECTS, seed=3))
            objects = system.catalog.objects[:3]
            rows = [system.measure_degraded_reads(objects, None, busy=True,
                                                  seed=6, warmup=0.3)
                    for _ in range(2)]
        return rows, dump(obs)

    with counting_kernel_runs() as runs:
        kernel = twice()
    assert len(runs) == 1
    with des_warmup():
        assert twice() == kernel


def test_changed_key_misses():
    with counting_kernel_runs() as runs:
        measure(seed=4)
        measure(seed=4)
        assert len(runs) == 1
        measure(seed=5)
        measure(seed=4, warmup=0.06)
        for change in ({"foreground_utilization": 0.4},
                       {"foreground_read_bytes": 65536},
                       {"disk_model": HDD},
                       {"disks_per_node": 2}):
            measure(replace(W2_CONFIG, **change), seed=4)
    assert len(runs) == 7


def test_memo_stays_bounded_and_holds_data_only():
    for seed in range(foreground._MEMO_ENTRIES + 3):
        measure(seed=seed, warmup=0.01)
    assert len(foreground._MEMO) == foreground._MEMO_ENTRIES
    # Environments hold generators, which do not pickle: an end state
    # that pickles references none.
    for state in foreground._MEMO.values():
        assert isinstance(state, foreground._WarmState)
        pickle.dumps(state)


# ----------------------------------------------------------------------
# Which path runs
# ----------------------------------------------------------------------
OBSERVING = {
    "invariant-checker": ((attach_invariant_checker,), None),
    "flight-recorder": ((attach_flightrec,), None),
    "profiler": ((attach_profiler,), None),
    "timeline": ((attach_timeline,), None),
    "timed-faults": ((), FaultPlan.stragglers([0], factor=2.0, at=0.01)),
}


@pytest.mark.parametrize("name", sorted(OBSERVING))
def test_observing_runs_keep_the_des_warmup(name):
    attach, faults = OBSERVING[name]

    def no_kernel(*args):
        raise AssertionError("the kernel ran in an observing run")

    with mock.patch.object(foreground, "_end_state", no_kernel):
        measure(W2_CONFIG, 2, 0.05, *attach, faults=faults)


def test_plain_runs_take_the_kernel():
    """A fault plan without timed events schedules nothing up front."""
    with counting_kernel_runs() as runs:
        measure(faults=FaultPlan.second_failure(disk=0))
    assert len(runs) == 1


def test_zero_warmup_ends_before_the_first_arrival():
    state = foreground._simulate(np.random.default_rng(1), (SSD,), 0.5,
                                 65536, 1, 0.0)
    # Seqs: reader start 1, driver start 2, first arrival 3, cut 4.
    assert state.driver == (0.0, 4) and state.seq == 4
    assert state.resumes == 2 and not state.reads and not state.waits


class _ZeroDelays:
    """Every inter-arrival draw is zero."""

    def random(self):
        return 0.5

    def exponential(self, scale):
        return 0.0


def test_a_read_started_at_the_cut_falls_back_to_the_des():
    """A zero first draw lands the reader's first arrival at t = 0 before
    the driver's zero warm-up, so a read has just started at the cut: a
    state the restore does not rebuild."""
    assert foreground._simulate(_ZeroDelays(), (SSD,), 0.5, 65536, 1,
                                0.0) is None


class _Delays(_ZeroDelays):
    """Inter-arrival draws from a list, its last one repeated."""

    bit_generator = SimpleNamespace(state={})

    def __init__(self, *delays):
        self.delays = list(delays)

    def exponential(self, scale):
        return self.delays.pop(0) if len(self.delays) > 1 else self.delays[0]


def test_coinciding_first_arrivals_fall_back_to_the_des():
    """Two disks' first arrivals share an instant, so the engine
    interleaves the start and grant events of their reads, which the
    kernel runs inline, one arrival at a time."""
    assert foreground._simulate(_Delays(1e-3), (SSD, SSD), 0.5, 65536, 1,
                                0.01) is None


def test_a_zero_interarrival_mid_run_falls_back_to_the_des():
    """The third arrival is drawn at the second one's instant."""
    assert foreground._simulate(_Delays(1e-3, 2e-3, 0.0, 1e-3), (SSD,), 0.5,
                                65536, 1, 0.01) is None
    # The same draws without the zero are simulated.
    assert foreground._simulate(_Delays(1e-3, 2e-3, 1e-3), (SSD,), 0.5,
                                65536, 1, 0.01) is not None


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_negative_warmup_is_rejected_before_the_runtime_is_built():
    obs = Observer()
    with observed(obs):
        system = build_system("Geo-128K", W2_SETTING, W2_CONFIG)
        system.ingest(sample_workload(W2_SETTING, N_OBJECTS, seed=3))
        with pytest.raises(ValueError, match="warmup"):
            system.measure_degraded_reads(system.catalog.objects[:1], None,
                                          busy=True, warmup=-0.5)
    assert obs.tracer.processes == []


def test_zero_foreground_read_size_is_rejected():
    config = replace(W2_CONFIG, foreground_read_bytes=0)
    system = build_system("Geo-128K", W2_SETTING, config)
    system.ingest(sample_workload(W2_SETTING, N_OBJECTS, seed=3))
    with pytest.raises(ValueError, match="mean_read_bytes"):
        system.measure_degraded_reads(system.catalog.objects[:1], None,
                                      busy=True)
