"""Tests for the codec throughput model and foreground load generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DEFAULT_CODEC, CodecModel, Disk
from repro.cluster import foreground
from repro.cluster.disk import DiskModel, FOREGROUND
from repro.cluster.foreground import start_foreground_load
from repro.sim import Environment

MB = 1 << 20
GB = 1 << 30


def test_codec_rates_match_paper():
    """§5.2: 22.3 / 18.5 / 5.0 GB/s for encode / decode / regenerate."""
    assert DEFAULT_CODEC.encode_time(22.3 * GB) == pytest.approx(1.0)
    assert DEFAULT_CODEC.decode_time(18.5 * GB) == pytest.approx(1.0)
    assert DEFAULT_CODEC.regenerate_time(5.0 * GB) == pytest.approx(1.0)


def test_codec_regeneration_slowest():
    nbytes = 100 * MB
    assert (DEFAULT_CODEC.regenerate_time(nbytes)
            > DEFAULT_CODEC.decode_time(nbytes)
            > DEFAULT_CODEC.encode_time(nbytes))


def test_custom_codec():
    codec = CodecModel(encode_bandwidth=1 * GB, decode_bandwidth=1 * GB,
                       regenerate_bandwidth=0.5 * GB)
    assert codec.regenerate_time(GB) == pytest.approx(2.0)


def _make_disks(env, n=4):
    model = DiskModel("t", 0.001, 100 * MB, 100 * MB)
    return [Disk(env, model, i) for i in range(n)]


def test_foreground_load_validation():
    env = Environment()
    with pytest.raises(ValueError):
        start_foreground_load(env, _make_disks(env), np.random.default_rng(0),
                              utilization=1.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=1, max_value=200))
def test_size_jitter_draw_is_numpy_uniform(seed, n_draws):
    """The generator's jitter draw ``2.0 * random() - 1.0`` is numpy's own
    ``uniform(-1, 1)`` formula: equal doubles, equal bit-generator state."""
    ref = np.random.default_rng(seed)
    fast = np.random.default_rng(seed)
    for _ in range(n_draws):
        assert 2.0 * fast.random() - 1.0 == ref.uniform(-1, 1)
    assert fast.bit_generator.state == ref.bit_generator.state


def test_foreground_sizes_match_uniform_reference():
    """The generator requests the sizes the ``rng.uniform(-1, 1)`` jitter
    drew, interleaved with its exponential inter-arrival draws."""
    requested = []

    class RecordingDisk:
        def read(self, ios, size, priority):
            requested.append((ios, size))
            yield from ()

    env = Environment()
    env.process(foreground._generator(env, RecordingDisk(),
                                      np.random.default_rng(9), 0.01,
                                      8 * MB, 2))
    env.run(until=1.0)
    ref = np.random.default_rng(9)
    expected = []
    for _ in requested:
        ref.exponential(0.01)
        size = int(8 * MB * 2 ** ref.uniform(-1, 1))
        expected.append((max(1, int(round(2 * size / (8 * MB)))), size))
    assert len(requested) > 50 and requested == expected


def test_foreground_load_hits_target_utilization():
    env = Environment()
    disks = _make_disks(env)
    start_foreground_load(env, disks, np.random.default_rng(0),
                          utilization=0.5, mean_read_bytes=8 * MB)
    env.run(until=120.0)
    utils = [d.queue.utilization() for d in disks]
    assert all(0.3 < u < 0.75 for u in utils), utils


def test_foreground_load_generates_reads_on_every_disk():
    env = Environment()
    disks = _make_disks(env)
    start_foreground_load(env, disks, np.random.default_rng(1),
                          utilization=0.4, mean_read_bytes=4 * MB)
    env.run(until=30.0)
    for disk in disks:
        assert disk.bytes_read > 0
        assert disk.n_read_ios > 0


def test_foreground_reads_are_foreground_priority():
    """The generator must not starve behind background work."""
    env = Environment()
    [disk] = _make_disks(env, n=1)
    # Saturate with background first.
    from repro.cluster.disk import BACKGROUND

    def bg():
        while True:
            yield env.process(disk.read(1, 50 * MB, BACKGROUND))

    env.process(bg())
    start_foreground_load(env, [disk], np.random.default_rng(2),
                          utilization=0.3, mean_read_bytes=4 * MB)
    env.run(until=30.0)
    assert disk.bytes_read > 0


def test_higher_utilization_more_traffic():
    def traffic(util):
        env = Environment()
        disks = _make_disks(env, 2)
        start_foreground_load(env, disks, np.random.default_rng(3),
                              utilization=util, mean_read_bytes=8 * MB)
        env.run(until=60.0)
        return sum(d.bytes_read for d in disks)

    assert traffic(0.7) > 1.5 * traffic(0.2)
