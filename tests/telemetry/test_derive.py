"""Offline derivation from a trace equals live observation of the run.

Blame and stream snapshots have one producer, ``derive_from_trace``,
which replays a recorded trace through a private bus.  Each run here
carries a recorder *and* a live SpanBuilder and StandardTelemetry; the
blame snapshot, the per-miss records and the telemetry snapshot derived
from the trace must equal the live ones exactly.
"""

import json
import os

import pytest

from repro.experiments.robustness import ROBUSTNESS_FAULTS, ROBUSTNESS_SCHEDULERS
from repro.simcore.time import sec
from repro.telemetry import SpanBuilder, StandardTelemetry
from repro.telemetry.blame import analyze_spans
from repro.telemetry.replay import (
    derive_from_trace,
    record_robustness_case,
    record_scenario_file,
)

_MOTIVATION = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "scenarios", "motivation.json"
)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _live_hook(holder):
    def attach(system):
        holder["spans"] = SpanBuilder().attach(system.machine)
        holder["telemetry"] = StandardTelemetry(system.machine.bus)

    return attach


def _assert_derived_equals_live(recorded, live_spans, live_telemetry):
    spans, telemetry = derive_from_trace(recorded.reader())
    live_report, live_misses = analyze_spans(live_spans)
    report, misses = analyze_spans(spans)
    assert canonical(report.snapshot()) == canonical(live_report.snapshot())
    assert canonical(misses) == canonical(live_misses)
    assert canonical(telemetry.snapshot()) == canonical(live_telemetry.snapshot())


@pytest.mark.parametrize("scheduler", ROBUSTNESS_SCHEDULERS)
@pytest.mark.parametrize("fault", ROBUSTNESS_FAULTS)
def test_robustness_cell(fault, scheduler):
    holder = {}
    recorded = record_robustness_case(
        fault, scheduler, sec(1), 11, check_invariants=False, attach=_live_hook(holder)
    )
    holder["spans"].finalize()
    _assert_derived_equals_live(recorded, holder["spans"], holder["telemetry"])


def test_motivation_scenario():
    holder = {}
    recorded = record_scenario_file(_MOTIVATION, attach=_live_hook(holder))
    with open(_MOTIVATION) as handle:
        duration_ns = sec(json.load(handle).get("duration_s", 10))
    holder["spans"].finalize(duration_ns)
    _assert_derived_equals_live(recorded, holder["spans"], holder["telemetry"])
