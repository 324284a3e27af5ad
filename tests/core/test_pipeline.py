"""Tests for the repair/transfer pipelining model (Figures 3 and 8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PipelineStep, degraded_read_time, pipeline_timeline
from repro.core.pipeline import (
    repair_time,
    transfer_time,
    unpipelined_read_time,
)


def test_step_validation():
    with pytest.raises(ValueError):
        PipelineStep(-1, 0)
    with pytest.raises(ValueError):
        PipelineStep(0, -1)


def test_single_step_is_sum():
    assert degraded_read_time([PipelineStep(2.0, 3.0)]) == pytest.approx(5.0)


def test_transfer_bound_when_repair_fast():
    """Figure 3 (RS side): with instant repairs, time = first repair + total
    transfer — pipelining hides everything but the transfer."""
    steps = [PipelineStep(0.01, 1.0) for _ in range(10)]
    assert degraded_read_time(steps) == pytest.approx(0.01 + 10.0)


def test_repair_bound_when_transfer_fast():
    steps = [PipelineStep(1.0, 0.01) for _ in range(10)]
    assert degraded_read_time(steps) == pytest.approx(10.0 + 0.01)


def test_geometric_steps_pipeline_perfectly():
    """Figure 8, case 1: when each repair finishes before the previous
    transfer, total = first repair + total transfer."""
    # sizes 4, 4, 8, 16; repair at 1 unit/MB, transfer at 2 units/MB.
    sizes = [4, 4, 8, 16]
    steps = [PipelineStep(s * 1.0, s * 2.0) for s in sizes]
    assert degraded_read_time(steps) == pytest.approx(4 * 1.0 + sum(sizes) * 2.0)


def test_blocking_case_still_beats_serial():
    """Figure 8, case 2: transfer blocked by repair is still faster than
    repair-everything-then-transfer."""
    sizes = [4, 4, 8, 16]
    steps = [PipelineStep(s * 2.0, s * 1.0) for s in sizes]
    t = degraded_read_time(steps)
    assert t < unpipelined_read_time(steps)
    assert t == pytest.approx(sum(sizes) * 2.0 + 16 * 1.0)


def test_no_repair_steps_flow_through():
    steps = [PipelineStep(0.0, 1.0), PipelineStep(5.0, 1.0), PipelineStep(0.0, 1.0)]
    assert degraded_read_time(steps) == pytest.approx(5.0 + 2.0)


def test_timeline_consistency():
    steps = [PipelineStep(2, 4, "a"), PipelineStep(3, 4, "b"), PipelineStep(8, 4, "c")]
    tl = pipeline_timeline(steps)
    assert [t.label for t in tl] == ["a", "b", "c"]
    # Repairs are back to back.
    assert tl[0].repair_end == tl[1].repair_start
    # Transfer never starts before its repair finishes or the previous
    # transfer completes.
    for prev, cur in zip(tl, tl[1:]):
        assert cur.transfer_start >= cur.repair_end
        assert cur.transfer_start >= prev.transfer_end
    assert tl[-1].transfer_end == degraded_read_time(steps)


def test_empty_pipeline():
    assert degraded_read_time([]) == 0.0
    assert pipeline_timeline([]) == []


def test_aggregate_helpers():
    steps = [PipelineStep(1, 2), PipelineStep(3, 4)]
    assert repair_time(steps) == 4
    assert transfer_time(steps) == 6
    assert unpipelined_read_time(steps) == 10


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                          st.floats(min_value=0, max_value=100)),
                min_size=1, max_size=20))
def test_property_pipeline_bounds(pairs):
    """Pipelined time is bounded below by both totals and above by serial."""
    steps = [PipelineStep(r, t) for r, t in pairs]
    t = degraded_read_time(steps)
    assert t >= repair_time(steps) - 1e-9 or t >= transfer_time(steps) - 1e-9
    assert t >= max(repair_time(steps), transfer_time(steps)) - 1e-9
    assert t <= unpipelined_read_time(steps) + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                          st.floats(min_value=0, max_value=100)),
                min_size=1, max_size=12))
def test_property_timeline_matches_total(pairs):
    steps = [PipelineStep(r, t) for r, t in pairs]
    tl = pipeline_timeline(steps)
    assert tl[-1].transfer_end == pytest.approx(degraded_read_time(steps))
