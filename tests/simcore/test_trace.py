"""Unit tests for the execution trace."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore.trace import Segment, Trace, TraceEvent
from repro.telemetry import events as T
from repro.telemetry.record import TraceReader, TraceWriter
from repro.telemetry.replay import timeline_from_trace


def segments(*rows) -> Trace:
    """A trace of ``(pcpu, vcpu, task, start, end)`` segments."""
    return Trace(segments=[Segment(*row) for row in rows])


class TestSegments:
    def test_record_and_query_by_vcpu(self):
        trace = segments((0, "v1", "t1", 0, 10), (1, "v2", "t2", 5, 15))
        assert len(trace.segments_for_vcpu("v1")) == 1
        assert trace.segments_for_vcpu("v1")[0].duration == 10

    def test_empty_segment_dropped(self):
        """Deriving a timeline drops zero-length charges."""
        writer = TraceWriter()
        writer.write_event(T.SEGMENT_END, T.SegmentEndEvent(10, 0, "v1", "t1", 10, 10))
        writer.write_event(T.SEGMENT_END, T.SegmentEndEvent(20, 0, "v1", "t1", 10, 20))
        trace = timeline_from_trace(TraceReader(writer.close()))
        assert trace.segments == [Segment(0, "v1", "t1", 10, 20)]

    def test_query_by_task_and_pcpu(self):
        trace = segments(
            (0, "v1", "t1", 0, 10), (0, "v1", "t2", 10, 20), (1, "v1", "t1", 20, 30)
        )
        assert len(trace.segments_for_task("t1")) == 2
        assert len(trace.segments_for_pcpu(0)) == 2

    def test_busy_time(self):
        trace = segments((0, "v1", "t1", 0, 10), (1, "v2", "t2", 0, 5))
        assert trace.busy_time() == 15
        assert trace.busy_time(pcpu=1) == 5


class TestUsageQueries:
    def test_usage_between_clips_to_window(self):
        trace = segments((0, "v1", "t1", 0, 100))
        assert trace.vcpu_usage_between("v1", 30, 60) == 30

    def test_usage_sums_disjoint_segments(self):
        trace = segments((0, "v1", "t1", 0, 10), (1, "v1", "t1", 50, 70))
        assert trace.vcpu_usage_between("v1", 0, 100) == 30

    def test_usage_series_buckets(self):
        trace = segments((0, "v1", "t1", 0, 15))
        series = trace.usage_series("v1", 0, 30, bucket=10)
        assert series == [(0, 10), (10, 5), (20, 0)]

    def test_usage_series_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            Trace().usage_series("v1", 0, 10, bucket=0)

    @settings(max_examples=200, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(
                st.sampled_from(["v1", "v2"]),
                st.integers(0, 120),
                st.integers(1, 60),
            ),
            max_size=12,
        ),
        start=st.integers(0, 60),
        length=st.integers(0, 120),
        bucket=st.integers(1, 40),
    )
    def test_usage_series_matches_per_bucket_usage(self, spans, start, length, bucket):
        trace = segments(*((0, v, None, s, s + d) for v, s, d in spans))
        end = start + length
        expected = [
            (t, trace.vcpu_usage_between("v1", t, min(t + bucket, end)))
            for t in range(start, end, bucket)
        ]
        assert trace.usage_series("v1", start, end, bucket) == expected


class TestOverlapInvariant:
    def test_no_overlap_when_sequential(self):
        trace = segments((0, "a", None, 0, 10), (0, "b", None, 10, 20))
        assert list(trace.iter_overlaps()) == []

    def test_overlap_detected(self):
        trace = segments((0, "a", None, 0, 10), (0, "b", None, 5, 15))
        assert len(list(trace.iter_overlaps())) == 1

    def test_same_interval_different_pcpus_ok(self):
        trace = segments((0, "a", None, 0, 10), (1, "b", None, 0, 10))
        assert list(trace.iter_overlaps()) == []


class TestEventsAndNull:
    def test_point_events(self):
        trace = Trace(
            events=[TraceEvent(5, "switch", (0, "v1")), TraceEvent(9, "miss", ("t1",))]
        )
        assert len(trace.events_of_kind("switch")) == 1
        assert trace.events_of_kind("miss")[0].detail == ("t1",)
