"""Trace export to the Chrome tracing (Perfetto) JSON format.

Any captured :class:`~repro.simcore.trace.Trace` can be dumped to a
``.json`` loadable in ``chrome://tracing`` / https://ui.perfetto.dev:
PCPUs become rows, execution segments become duration events coloured
by VM, and point events (switches, migrations, completions) become
instant events.  Injected faults (``kind == "fault"`` trace events,
published by the machine and :mod:`repro.faults`) land as global instant
events on a dedicated ``faults`` track so the timeline shows exactly
when the system was hit.

The trace is derived from a recorded run
(:func:`repro.telemetry.replay.timeline_from_trace`), so any recording
can be exported after the fact; ``repro scenario --chrome-trace`` does
exactly that.
"""

from __future__ import annotations

import json
from typing import Dict, List

from ..simcore.errors import ConfigurationError
from ..simcore.trace import Trace

#: Row (chrome-tracing tid) holding injected-fault instant events; far
#: above any realistic PCPU index so the track never collides.
FAULT_TRACK_TID = 999


def trace_to_chrome_events(trace: Trace, process_name: str = "host") -> List[Dict]:
    """Convert a trace to chrome-tracing event dicts (times in µs).

    Metadata rows come first, then every segment, then every point event.
    """
    events: List[Dict] = [
        {"name": "process_name", "ph": "M", "pid": 0, "args": {"name": process_name}}
    ]
    if any(e.kind == "fault" for e in trace.events):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": FAULT_TRACK_TID,
                "args": {"name": "faults"},
            }
        )
    for pcpu in sorted({s.pcpu for s in trace.segments}):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": pcpu,
                "args": {"name": f"pcpu{pcpu}"},
            }
        )
    for s in trace.segments:
        events.append(
            {
                "name": s.task or s.vcpu,
                "cat": s.vcpu.split(".")[0],
                "ph": "X",
                "pid": 0,
                "tid": s.pcpu,
                "ts": s.start / 1_000.0,
                "dur": s.duration / 1_000.0,
                "args": {"vcpu": s.vcpu},
            }
        )
    for event in trace.events:
        ts = event.time / 1_000.0
        if event.kind == "switch":
            pcpu, vcpu, migrated = event.detail
            events.append(
                {
                    "name": "migration" if migrated else "switch",
                    "cat": "sched",
                    "ph": "i",
                    "pid": 0,
                    "tid": pcpu,
                    "ts": ts,
                    "s": "t",
                    "args": {"vcpu": vcpu},
                }
            )
        elif event.kind == "fault":
            fault_kind = event.detail[0] if event.detail else "fault"
            events.append(
                {
                    "name": f"fault:{fault_kind}",
                    "cat": "faults",
                    "ph": "i",
                    "pid": 0,
                    "tid": FAULT_TRACK_TID,
                    "ts": ts,
                    "s": "g",
                    "args": {"detail": [str(d) for d in event.detail[1:]]},
                }
            )
        elif event.kind == "complete":
            task, job = event.detail
            events.append(
                {
                    "name": f"complete:{task}",
                    "cat": "jobs",
                    "ph": "i",
                    "pid": 0,
                    "tid": 0,
                    "ts": ts,
                    "s": "g",
                    "args": {"job": job},
                }
            )
    return events


def export_chrome_trace(
    trace: Trace, path: str, process_name: str = "host"
) -> int:
    """Write the trace to *path*; returns the number of events written."""
    if not path.endswith(".json"):
        raise ConfigurationError("chrome traces are .json files")
    events = trace_to_chrome_events(trace, process_name)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)


def export_profile(profiler, path: str) -> dict:
    """Write a :class:`~repro.telemetry.profile.SimProfiler` snapshot.

    Plain sorted JSON (per-event-kind handler counts/wall-time and
    per-phase engine time) — the self-profiler's export path; returns
    the snapshot that was written.
    """
    if not path.endswith(".json"):
        raise ConfigurationError("profile exports are .json files")
    snapshot = profiler.snapshot()
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
    return snapshot
