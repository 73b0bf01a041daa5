"""Unit tests for the video streaming workload (Table 3 / Figure 4)."""

import pytest

from repro.core.system import RTVirtSystem
from repro.host.costs import ZERO_COSTS
from repro.simcore.rng import RandomSource
from repro.simcore.time import msec, sec
from repro.workloads.video import (
    TABLE3_PROFILES,
    DynamicStreamingWorkload,
    StreamingSession,
)


class TestTable3:
    def test_four_profiles(self):
        assert sorted(TABLE3_PROFILES) == [24, 30, 48, 60]

    def test_periods_floor_of_frame_interval(self):
        # Period = floor(1000/fps) ms, as the paper derives.
        for fps, profile in TABLE3_PROFILES.items():
            assert profile.period_ms == int(1000 / fps)

    def test_paper_parameters(self):
        assert (TABLE3_PROFILES[24].slice_ms, TABLE3_PROFILES[24].period_ms) == (19, 41)
        assert (TABLE3_PROFILES[60].slice_ms, TABLE3_PROFILES[60].period_ms) == (15, 16)

    def test_bandwidth_close_to_paper_percent(self):
        for profile in TABLE3_PROFILES.values():
            measured = profile.slice_ms / profile.period_ms * 100
            assert abs(measured - profile.bandwidth_percent) < 12


class TestSession:
    def test_session_registers_runs_unregisters(self):
        system = RTVirtSystem(pcpu_count=1, cost_model=ZERO_COSTS, slack_ns=0)
        vm = system.create_vm("vm")
        session = StreamingSession(
            system.engine, vm, "s1", TABLE3_PROFILES[30], end_ns=msec(200)
        )
        assert session.start()
        system.run(msec(100))
        assert session.task.vm is vm
        system.run(msec(200))
        assert session.task.vm is None  # unregistered at end
        assert session.task.stats.met >= 5

    def test_session_admission_failure_reports_false(self):
        system = RTVirtSystem(pcpu_count=1, cost_model=ZERO_COSTS, slack_ns=0)
        vm = system.create_vm("vm")
        hog = StreamingSession(
            system.engine, vm, "hog", TABLE3_PROFILES[60], end_ns=sec(10)
        )
        assert hog.start()
        # A second 60fps stream (0.94 bw) cannot fit the same 1-VCPU VM.
        second = StreamingSession(
            system.engine, vm, "s2", TABLE3_PROFILES[60], end_ns=sec(10)
        )
        assert not second.start()


class TestChurn:
    def test_workload_runs_and_reports(self):
        system = RTVirtSystem(pcpu_count=15)
        workload = DynamicStreamingWorkload(
            system,
            RandomSource(3, "churn"),
            vm_count=2,
            vcpus_per_vm=2,
            duration_ns=sec(30),
            min_interval_ns=sec(5),
            max_interval_ns=sec(15),
        ).start()
        system.run(sec(30))
        system.finalize()
        admitted = workload.admitted_sessions()
        assert admitted, "churn should admit at least one session"
        assert workload.worst_miss_ratio() <= 0.01
        total_jobs = sum(s.stats.released for s in admitted)
        assert total_jobs > 100

    def test_sessions_deterministic_under_seed(self):
        def run():
            system = RTVirtSystem(pcpu_count=15)
            w = DynamicStreamingWorkload(
                system,
                RandomSource(9, "churn"),
                vm_count=2,
                vcpus_per_vm=2,
                duration_ns=sec(20),
                min_interval_ns=sec(5),
                max_interval_ns=sec(15),
            ).start()
            system.run(sec(20))
            return [(s.name, s.start_ns, s.fps) for s in w.sessions]

        assert run() == run()


class TestLongTimeline:
    def test_slot_with_thousands_of_segments(self):
        """1-2 ms segments over 6 s put ~4,000 segments on one slot; the
        timeline must be laid out without one stack frame per segment,
        drawing each length from the RNG in slot order."""
        duration, lo, hi = sec(6), msec(1), msec(2)
        system = RTVirtSystem(pcpu_count=1, cost_model=ZERO_COSTS)
        workload = DynamicStreamingWorkload(
            system,
            RandomSource(5, "churn"),
            vm_count=1,
            vcpus_per_vm=1,
            duration_ns=duration,
            min_interval_ns=lo,
            max_interval_ns=hi,
        )
        engine = workload.engine
        calls = []

        class RecordingEngine:
            def at(self, time, fn, *args, **kwargs):
                calls.append((time, kwargs["name"], args[-1]))
                return engine.at(time, fn, *args, **kwargs)

        workload.engine = RecordingEngine()
        workload.start()
        workload.engine = engine

        rng = RandomSource(5, "churn")
        busy = rng.random() < 0.5
        expected, at = [], 0
        while at < duration:
            end = at + min(rng.uniform_int(lo, hi), duration - at)
            expected.append((at, "session-start" if busy else "idle-start", end))
            at, busy = end, not busy
        assert len(expected) > 3000
        assert calls == expected
