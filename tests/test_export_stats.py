"""Tests for trace export and statistical helpers."""

import json

import pytest

from repro.metrics.stats import (
    bootstrap_percentile_ci,
    miss_ratio_upper_bound,
    wilson_interval,
)
from repro.report.export import export_chrome_trace, trace_to_chrome_events
from repro.simcore.errors import ConfigurationError
from repro.simcore.trace import Segment, Trace, TraceEvent
from tests.conftest import record_timeline


def sample_trace():
    return Trace(
        segments=[
            Segment(0, "vm1.vcpu0", "t1", 0, 1_000_000),
            Segment(1, "vm2.vcpu0", "t2", 0, 2_000_000),
        ],
        events=[
            TraceEvent(1_000_000, "switch", (0, "vm2.vcpu0", True)),
            TraceEvent(2_000_000, "complete", ("t2", 0)),
        ],
    )


class TestChromeExport:
    def test_events_structure(self):
        events = trace_to_chrome_events(sample_trace())
        duration = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(duration) == 2
        assert len(instants) == 2
        assert len(meta) >= 3  # process + 2 thread names

    def test_times_in_microseconds(self):
        events = trace_to_chrome_events(sample_trace())
        seg = next(e for e in events if e["ph"] == "X" and e["name"] == "t1")
        assert seg["ts"] == 0.0 and seg["dur"] == 1000.0

    def test_migration_flagged(self):
        events = trace_to_chrome_events(sample_trace())
        assert any(e.get("name") == "migration" for e in events)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        count = export_chrome_trace(sample_trace(), str(path))
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == count
        assert data["displayTimeUnit"] == "ms"

    def test_extension_enforced(self, tmp_path):
        with pytest.raises(ConfigurationError):
            export_chrome_trace(sample_trace(), str(tmp_path / "trace.bin"))


class TestFaultTrack:
    def faulted_trace(self):
        trace = sample_trace()
        trace.events += [
            TraceEvent(500_000, "fault", ("pcpu_fail", 1, "vm1.vcpu0")),
            TraceEvent(1_500_000, "fault", ("vm_churn", "churn0", "boot")),
        ]
        return trace

    def test_fault_events_land_on_dedicated_track(self):
        from repro.report.export import FAULT_TRACK_TID

        events = trace_to_chrome_events(self.faulted_trace())
        faults = [e for e in events if e.get("cat") == "faults"]
        assert [e["name"] for e in faults] == ["fault:pcpu_fail", "fault:vm_churn"]
        assert all(e["tid"] == FAULT_TRACK_TID for e in faults)
        assert all(e["ph"] == "i" and e["s"] == "g" for e in faults)
        track_names = [
            e for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["args"]["name"] == "faults"
        ]
        assert len(track_names) == 1
        assert track_names[0]["tid"] == FAULT_TRACK_TID

    def test_fault_detail_serialised(self):
        events = trace_to_chrome_events(self.faulted_trace())
        fail = next(e for e in events if e["name"] == "fault:pcpu_fail")
        assert fail["args"]["detail"] == ["1", "vm1.vcpu0"]
        assert fail["ts"] == 500.0  # 500_000 ns -> µs

    def test_no_fault_track_without_faults(self):
        events = trace_to_chrome_events(sample_trace())
        assert not any(
            e["ph"] == "M" and e.get("args", {}).get("name") == "faults"
            for e in events
        )

    def test_end_to_end_from_simulation(self, tmp_path):
        from repro.core.system import RTVirtSystem
        from repro.faults import At, PcpuFail, PcpuRecover, Scenario
        from repro.simcore.time import msec

        system = RTVirtSystem(pcpu_count=2)
        timeline = record_timeline(system)
        Scenario(
            [At(msec(2), PcpuFail(1)), At(msec(4), PcpuRecover(1))]
        ).install(system)
        system.run(msec(10))
        events = trace_to_chrome_events(timeline())
        names = [e["name"] for e in events if e.get("cat") == "faults"]
        assert "fault:pcpu_fail" in names and "fault:pcpu_recover" in names


class TestWilson:
    def test_zero_misses_has_nonzero_upper_bound(self):
        lo, hi = wilson_interval(0, 4800)
        assert lo == 0.0
        assert 0.0 < hi < 0.002

    def test_upper_bound_shrinks_with_samples(self):
        assert miss_ratio_upper_bound(0, 10_000) < miss_ratio_upper_bound(0, 100)

    def test_interval_contains_point_estimate(self):
        lo, hi = wilson_interval(50, 1000)
        assert lo < 0.05 < hi

    def test_symmetric_at_half(self):
        lo, hi = wilson_interval(500, 1000)
        assert abs((0.5 - lo) - (hi - 0.5)) < 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    def test_higher_confidence_wider(self):
        assert (
            wilson_interval(10, 100, 0.99)[1] > wilson_interval(10, 100, 0.90)[1]
        )


class TestBootstrap:
    def test_ci_brackets_estimate(self):
        from repro.metrics.percentiles import percentile

        samples = list(range(1, 1001))
        lo, hi = bootstrap_percentile_ci(samples, 99.0, resamples=300)
        assert lo <= percentile(samples, 99.0) <= hi

    def test_deterministic_under_seed(self):
        samples = [float(x % 97) for x in range(500)]
        a = bootstrap_percentile_ci(samples, 95.0, resamples=200, seed=5)
        b = bootstrap_percentile_ci(samples, 95.0, resamples=200, seed=5)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_percentile_ci([], 99.0)
