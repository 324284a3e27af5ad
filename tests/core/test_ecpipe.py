"""Tests for the ECPipe repair-pipelining model."""

import pytest

from repro.core.ecpipe import (
    ecpipe_repair_time,
    speedup,
    star_repair_time,
)

MB = 1 << 20
BW = 125 * MB  # 1 Gbps


def test_star_time():
    assert star_repair_time(10 * MB, 10, BW) == pytest.approx(100 * MB / BW)


def test_validation():
    with pytest.raises(ValueError):
        star_repair_time(0, 10, BW)
    with pytest.raises(ValueError):
        ecpipe_repair_time(MB, 10, BW, 0)
    with pytest.raises(ValueError):
        ecpipe_repair_time(-1, 10, BW, 1024)


def test_ecpipe_approaches_single_strip_time():
    """With small packets, repair time -> one strip transfer (the claim)."""
    t = ecpipe_repair_time(64 * MB, 10, BW, 64 * 1024)
    assert t == pytest.approx(64 * MB / BW, rel=0.02)


def test_packet_equal_to_strip_degenerates_to_star():
    t = ecpipe_repair_time(8 * MB, 10, BW, 8 * MB)
    assert t == pytest.approx(star_repair_time(8 * MB, 10, BW))


def test_packet_larger_than_strip_clamped():
    t = ecpipe_repair_time(8 * MB, 10, BW, 64 * MB)
    assert t == pytest.approx(star_repair_time(8 * MB, 10, BW))


def test_speedup_approaches_k():
    assert speedup(64 * MB, 10, BW, 4 * 1024) == pytest.approx(10, rel=0.01)
    assert speedup(64 * MB, 6, BW, 4 * 1024) == pytest.approx(6, rel=0.01)


def test_per_packet_overhead_penalises_tiny_packets():
    small = ecpipe_repair_time(8 * MB, 10, BW, 1024, per_packet_overhead=1e-5)
    medium = ecpipe_repair_time(8 * MB, 10, BW, 64 * 1024,
                                per_packet_overhead=1e-5)
    assert small > medium


def test_k_one_is_trivial():
    assert ecpipe_repair_time(MB, 1, BW, 1024) == pytest.approx(MB / BW)
