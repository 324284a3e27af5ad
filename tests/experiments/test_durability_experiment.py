"""Tests for the durability experiment (fast, using a stub tradeoff)."""

import pytest

from repro.experiments.durability import DurabilityRow, from_tradeoff, to_text
from repro.experiments.tradeoff import SchemeResult, TradeoffResult


def stub_result(recovery_paper_scale: dict[str, float]) -> TradeoffResult:
    rows = []
    for scheme, seconds in recovery_paper_scale.items():
        rows.append(SchemeResult(
            scheme=scheme, recovery_time=seconds / 100,
            recovery_time_busy=None,
            recovery_time_paper_scale=seconds, recovery_rate=1.0,
            repaired_bytes=1, degraded_ms=1.0, degraded_ms_busy=None,
            normal_ms=1.0, disk_bandwidth=1.0, network_bandwidth=1.0))
    return TradeoffResult("W1", 0, 0, rows)


def test_durability_from_stub():
    # Paper-like recovery times: Geo 143s, RS 265s, LRC 188s.
    result = stub_result({"Geo-4M": 143.0, "RS": 265.0, "LRC": 188.0})
    rows = {r.scheme: r for r in from_tradeoff(result)}
    assert rows["Geo-4M"].recovery_hours_paper_scale == pytest.approx(143 / 3600)
    # Same fault tolerance + 1.85x faster recovery => ~1.85^4 more MTTDL.
    ratio = rows["Geo-4M"].mttdl_hours / rows["RS"].mttdl_hours
    assert ratio == pytest.approx((265 / 143) ** 4, rel=0.05)
    # LRC: fastest-class recovery cannot offset the non-MDS penalty.
    assert rows["LRC"].mttdl_hours < rows["RS"].mttdl_hours / 100
    assert rows["Geo-4M"].nines > rows["RS"].nines > rows["LRC"].nines


def test_durability_text():
    result = stub_result({"Geo-4M": 143.0, "RS": 265.0, "LRC": 188.0})
    text = to_text(from_tradeoff(result))
    assert "MTTDL" in text and "Geo-4M" in text


def test_durability_row_fields():
    row = DurabilityRow("x", 1.0, 1e20, 15.0)
    assert row.scheme == "x"
