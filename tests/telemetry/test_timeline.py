"""The timeline derived from a recorded trace equals a live collector.

``timeline_from_trace`` is the one producer of :class:`Trace`.  The
reference below is the mapping a live trace used to apply to the
machine's bus; each run here carries it next to a flight recorder, and
the segments and point events derived from the recording must equal
the collected ones exactly.  The Chrome export is a function of the
derived timeline, so its invariants are checked on a derived one too.
"""

import json
import os

import pytest

from repro.experiments.robustness import ROBUSTNESS_FAULTS, ROBUSTNESS_SCHEDULERS
from repro.report.export import FAULT_TRACK_TID, export_chrome_trace
from repro.simcore.time import sec
from repro.simcore.trace import Segment, Trace, TraceEvent
from repro.telemetry import events as T
from repro.telemetry.record import TraceReader, TraceRecorder
from repro.telemetry.replay import (
    TIMELINE_KINDS,
    derive_from_trace,
    record_robustness_case,
    record_scenario_file,
    timeline_from_trace,
)

_MOTIVATION = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "scenarios", "motivation.json"
)


def _collect(bus) -> Trace:
    """Reference collector: typed bus events -> legacy trace records."""
    trace = Trace()
    segments, events = trace.segments, trace.events

    def segment(e):
        if e.end > e.start:
            segments.append(Segment(e.pcpu, e.vcpu, e.task, e.start, e.end))

    def switch(e):
        if e.vcpu is not None:  # idle transitions are not trace records
            events.append(TraceEvent(e.time, "switch", (e.pcpu, e.vcpu, e.migrated)))

    def complete(e):
        events.append(TraceEvent(e.time, "complete", (e.task, e.job)))

    def fault(e):
        events.append(TraceEvent(e.time, "fault", (e.fault, *e.detail)))

    bus.subscribe(T.SEGMENT_END, segment)
    bus.subscribe(T.CONTEXT_SWITCH, switch)
    bus.subscribe(T.JOB_COMPLETE, complete)
    bus.subscribe(T.FAULT_INJECTED, fault)
    bus.subscribe(T.FAULT_RECOVERED, fault)
    return trace


def _collecting(holder):
    def attach(system):
        holder["live"] = _collect(system.machine.bus)

    return attach


@pytest.mark.parametrize("scheduler", ROBUSTNESS_SCHEDULERS)
@pytest.mark.parametrize("fault", ROBUSTNESS_FAULTS)
def test_robustness_cell(fault, scheduler):
    holder = {}
    recorded = record_robustness_case(
        fault, scheduler, sec(1), 11, check_invariants=False, attach=_collecting(holder)
    )
    derived = timeline_from_trace(recorded.reader())
    live = holder["live"]
    assert live.segments and live.events
    assert derived.segments == live.segments
    assert derived.events == live.events


def test_motivation_scenario():
    """Figure 1's scenario, from a full and a timeline-only recording."""
    holder = {}

    def attach(system):
        holder["live"] = _collect(system.machine.bus)
        holder["narrow"] = TraceRecorder().attach(
            system.machine.bus, kinds=TIMELINE_KINDS
        )

    recorded = record_scenario_file(_MOTIVATION, attach=attach)
    live = holder["live"]
    assert live.segments and live.events
    for reader in (recorded.reader(), TraceReader(holder["narrow"].close())):
        derived = timeline_from_trace(reader)
        assert derived.segments == live.segments
        assert derived.events == live.events


class TestDerivedChromeExport:
    """The Chrome export of a derived timeline holds its invariants under
    a real, faulted run — not just synthetic traces."""

    @pytest.fixture(scope="class")
    def faulted_run(self, tmp_path_factory):
        recorded = record_robustness_case(
            "pcpu_fail", "RT-Xen", sec(1), 11, check_invariants=False
        )
        path = tmp_path_factory.mktemp("chrome") / "trace.json"
        count = export_chrome_trace(timeline_from_trace(recorded.reader()), str(path))
        return recorded, count, json.loads(path.read_text())

    def test_written_json_parses(self, faulted_run):
        _recorded, count, payload = faulted_run
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == count > 0

    def test_duration_events_ordered_and_disjoint_per_tid(self, faulted_run):
        per_tid = {}
        for event in faulted_run[2]["traceEvents"]:
            if event["ph"] == "X":
                per_tid.setdefault(event["tid"], []).append(event)
        assert per_tid, "a faulted run must execute something"
        for rows in per_tid.values():
            cursor = None
            for row in rows:
                # Timestamps are float µs; compare in integer ns to dodge
                # the rounding noise the ns->µs division introduces.
                start = round(row["ts"] * 1000)
                end = round((row["ts"] + row["dur"]) * 1000)
                assert end > start
                if cursor is not None:
                    # In charge order: starts never go backwards and
                    # segments on one PCPU never overlap.
                    assert start >= cursor
                cursor = end

    def test_fault_rows_survive_spans_enabled_run(self, faulted_run):
        recorded, _count, payload = faulted_run
        events = payload["traceEvents"]
        fault_rows = [
            e for e in events if e.get("tid") == FAULT_TRACK_TID and e["ph"] == "i"
        ]
        assert fault_rows, "pcpu_fail must land on the fault track"
        assert any("pcpu_fail" in e["name"] for e in fault_rows)
        meta = [e for e in events if e["ph"] == "M" and e.get("tid") == FAULT_TRACK_TID]
        assert meta and meta[0]["args"]["name"] == "faults"
        # And the spans derived from the same recording saw the run too.
        spans, _telemetry = derive_from_trace(recorded.reader())
        assert spans.spans and spans.hypercall_fault_windows() == []
