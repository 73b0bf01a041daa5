"""Execution timelines.

A :class:`Trace` records what ran where and when: execution segments per
PCPU, plus point events (context switches, job completions, faults).
Experiments use it to reconstruct timelines (Figure 1's schedule
diagram, Figure 4's allocation-over-time series) without instrumenting
the schedulers.

A trace is a plain value.  The flight recorder
(:mod:`repro.telemetry.record`) captures a run, and
:func:`repro.telemetry.replay.timeline_from_trace` derives its
``Trace``; tests may also construct one directly from segments and
events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Segment:
    """A contiguous stretch of one VCPU running on one PCPU."""

    pcpu: int
    vcpu: str
    task: Optional[str]
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class TraceEvent:
    """A point event of interest (switch, migration, miss, hypercall...)."""

    time: int
    kind: str
    detail: Tuple = ()


@dataclass
class Trace:
    """The segments and point events of one run, in the order it produced them."""

    segments: List[Segment] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)

    # -- queries -----------------------------------------------------------

    def segments_for_vcpu(self, vcpu: str) -> List[Segment]:
        """All segments in which *vcpu* ran, in time order."""
        return [s for s in self.segments if s.vcpu == vcpu]

    def segments_for_task(self, task: str) -> List[Segment]:
        """All segments in which *task* ran, in time order."""
        return [s for s in self.segments if s.task == task]

    def segments_for_pcpu(self, pcpu: int) -> List[Segment]:
        """All segments executed on *pcpu*, in time order."""
        return [s for s in self.segments if s.pcpu == pcpu]

    def events_of_kind(self, kind: str) -> List[TraceEvent]:
        """All point events whose kind equals *kind*."""
        return [e for e in self.events if e.kind == kind]

    def busy_time(self, pcpu: Optional[int] = None) -> int:
        """Total traced execution time, optionally restricted to one PCPU."""
        if pcpu is None:
            return sum(s.duration for s in self.segments)
        return sum(s.duration for s in self.segments if s.pcpu == pcpu)

    def vcpu_usage_between(self, vcpu: str, start: int, end: int) -> int:
        """Execution time *vcpu* received inside the window [start, end)."""
        total = 0
        for s in self.segments:
            if s.vcpu != vcpu:
                continue
            lo = max(s.start, start)
            hi = min(s.end, end)
            if hi > lo:
                total += hi - lo
        return total

    def usage_series(
        self, vcpu: str, start: int, end: int, bucket: int
    ) -> List[Tuple[int, int]]:
        """(bucket_start, usage) samples for *vcpu* over [start, end).

        Used to regenerate Figure 4's allocation-over-time curves.
        """
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        starts = range(start, end, bucket)
        usage = [0] * len(starts)
        for s in self.segments:
            if s.vcpu != vcpu:
                continue
            lo = max(s.start, start)
            hi = min(s.end, end)
            if hi <= lo:
                continue
            # add the overlap into every bucket the segment touches
            for i in range((lo - start) // bucket, (hi - 1 - start) // bucket + 1):
                b_lo = start + i * bucket
                usage[i] += min(hi, b_lo + bucket) - max(lo, b_lo)
        return list(zip(starts, usage))

    def iter_overlaps(self) -> Iterator[Tuple[Segment, Segment]]:
        """Yield pairs of segments that overlap in time on the same PCPU.

        A correct simulation yields nothing; tests use this as an invariant.
        """
        by_pcpu: Dict[int, List[Segment]] = {}
        for s in self.segments:
            by_pcpu.setdefault(s.pcpu, []).append(s)
        for segs in by_pcpu.values():
            segs = sorted(segs, key=lambda s: s.start)
            for a, b in zip(segs, segs[1:]):
                if b.start < a.end:
                    yield (a, b)

