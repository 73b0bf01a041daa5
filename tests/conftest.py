"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Callable

import pytest

from repro.host.costs import ZERO_COSTS
from repro.simcore.engine import Engine
from repro.simcore.trace import Trace
from repro.telemetry.record import TraceReader, TraceRecorder
from repro.telemetry.replay import TIMELINE_KINDS, timeline_from_trace


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def zero_costs():
    return ZERO_COSTS


def record_timeline(system) -> Callable[[], Trace]:
    """Record *system*'s (or a bare machine's) timeline from now on.

    Returns a function to call once the run is over: it closes the
    recording and returns the :class:`Trace` derived from it.
    """
    bus = getattr(system, "machine", system).bus
    recorder = TraceRecorder().attach(bus, kinds=TIMELINE_KINDS)
    return lambda: timeline_from_trace(TraceReader(recorder.close()))
