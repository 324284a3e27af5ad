"""Disk model and simulated-disk tests."""

import pytest

from repro.cluster import BACKGROUND, FOREGROUND, HDD, SSD, Disk
from repro.cluster.disk import DiskModel
from repro.sim import Environment

MB = 1 << 20


def test_sequential_read_time():
    m = DiskModel("t", seek_time=0.001, read_bandwidth=100 * MB,
                  write_bandwidth=100 * MB)
    assert m.read_time(1, 100 * MB) == pytest.approx(1.001)


def test_scattered_read_costs_seeks():
    m = DiskModel("t", 0.001, 100 * MB, 100 * MB)
    assert m.read_time(64, 1 * MB) == pytest.approx(0.064 + 0.01)


def test_read_through_beats_scattered_for_dense_patterns():
    """Sub-chunk reads covering 1/4 of a small span should be priced as a
    read-through of the span, not 64 seeks (the Stripe+Clay case)."""
    m = DiskModel("t", 0.001, 100 * MB, 100 * MB, read_through_efficiency=0.5)
    scattered_only = 64 * 0.001 + (64 * 1024) / (100 * MB)
    with_span = m.read_time(64, 64 * 1024, span=256 * 1024)
    assert with_span < scattered_only
    assert with_span == pytest.approx(0.001 + 256 * 1024 / (50 * MB))


def test_read_through_not_used_for_sparse_large_patterns():
    """For huge chunks, scattered seeks are cheaper than streaming the span."""
    m = DiskModel("t", 0.001, 100 * MB, 100 * MB)
    t = m.read_time(64, 64 * MB, span=256 * MB)
    assert t == pytest.approx(64 * 0.001 + 64 * MB / (100 * MB))


def test_span_smaller_than_bytes_ignored():
    m = DiskModel("t", 0.001, 100 * MB, 100 * MB)
    assert m.read_time(2, 10 * MB, span=1) == m.read_time(2, 10 * MB)


def test_negative_io_rejected():
    with pytest.raises(ValueError):
        HDD.read_time(-1, 10)
    with pytest.raises(ValueError):
        HDD.write_time(1, -10)


def _read_bandwidth(model, io_size):
    """Bytes/s of a stream of ``io_size`` discontinuous reads."""
    return io_size / model.read_time(1, io_size)


def test_effective_bandwidth_monotone_in_io_size():
    bws = [_read_bandwidth(HDD, s * MB) for s in (1, 4, 16, 64)]
    assert bws == sorted(bws)


def test_hdd_calibration_anchor():
    """Large sequential reads approach the 190 MB/s plateau."""
    assert _read_bandwidth(HDD, 256 * MB) > 180 * MB
    assert _read_bandwidth(HDD, 64 * 1024) < 70 * MB


def test_ssd_faster_than_hdd_at_small_io():
    assert (_read_bandwidth(SSD, 64 * 1024)
            > 4 * _read_bandwidth(HDD, 64 * 1024))


def test_disk_counters_and_queueing():
    env = Environment()
    disk = Disk(env, DiskModel("t", 0.0, 100 * MB, 100 * MB), 0)

    def job():
        yield env.process(disk.read(2, 50 * MB))
        yield env.process(disk.write(1, 25 * MB))

    env.run(env.process(job()))
    assert disk.bytes_read == 50 * MB
    assert disk.bytes_written == 25 * MB
    assert disk.n_read_ios == 2 and disk.n_write_ios == 1
    assert disk.total_bytes == 75 * MB
    assert env.now == pytest.approx(0.75)


def test_foreground_preempts_queued_background():
    env = Environment()
    disk = Disk(env, DiskModel("t", 0.0, 100 * MB, 100 * MB), 0)
    order = []

    def submit(name, priority, at):
        yield env.timeout(at)
        yield env.process(disk.read(1, 100 * MB, priority))
        order.append(name)

    env.process(submit("first", BACKGROUND, 0))
    env.process(submit("bg", BACKGROUND, 0.1))
    env.process(submit("fg", FOREGROUND, 0.2))
    env.run()
    assert order == ["first", "fg", "bg"]
