"""Sharded trace recording — per-unit traces merged in canonical order.

Each work unit records one robustness cell with a flight recorder
attached and returns the raw trace bytes; the parent merges the shards
(in canonical unit order) into one sectioned trace whose bytes — and
hence canonical hash — are identical however the units were executed.

The recorded traces are also the only input to the sweep's miss blame
and stream snapshots: the parent derives both from each part's bytes
(:func:`~repro.telemetry.replay.derive_from_trace`) and merges them in
the same canonical order.  The ``plan:trace`` subject of
``tools/check_determinism.py`` gates all three: serial, pool and
heap-queue executions must merge to the same hashes.

This module pulls in the experiment/runner layers and is deliberately
**not** exported from ``repro.telemetry.__init__`` — the core simulator
imports the telemetry package, and dragging those layers into that
import would make every experiment's cache salt depend on every other
experiment's code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .aggregate import StandardTelemetry
from .blame import BlameReport, analyze_spans
from .record import TraceReader, merge_traces

#: Trace sweeps reuse the robustness suite's smoke defaults.
TRACE_DURATION_NS = 1_000_000_000
TRACE_SEED = 11


def record_trace_shard(
    fault: str,
    scheduler: str,
    duration_ns: int = TRACE_DURATION_NS,
    seed: int = TRACE_SEED,
) -> dict:
    """Worker body: one robustness cell recorded to an in-memory trace."""
    from .replay import record_robustness_case

    recorded = record_robustness_case(fault, scheduler, duration_ns, seed)
    reader = recorded.reader()
    return {
        "fault": fault,
        "scheduler": scheduler,
        "row": recorded.rows[0],
        "events": reader.event_count,
        "hash": reader.trace_hash,
        "data": recorded.data,
    }


class TraceBundle:
    """Assembled trace shards, their canonical merge and derived outputs.

    Each part gains ``blame`` — ``{fault, scheduler, released, missed,
    blame, misses}`` — and ``streams``, its StandardTelemetry snapshot.
    :attr:`blame` merges every part's report; :attr:`streams` holds one
    merged snapshot per scheduler.
    """

    def __init__(self, parts: Sequence[dict]) -> None:
        from .replay import derive_from_trace

        self.parts = list(parts)  # canonical unit order
        self.merged_data = merge_traces(
            [(f"{p['fault']}/{p['scheduler']}", p["data"]) for p in self.parts],
            header={"format": "merged", "parts": [p["hash"] for p in self.parts]},
        )
        self.merged_hash = TraceReader(self.merged_data).trace_hash
        per_scheduler: Dict[str, List[dict]] = {}
        for part in self.parts:
            spans, telemetry = derive_from_trace(TraceReader(part["data"]))
            report, misses = analyze_spans(spans)
            part["blame"] = {
                "fault": part["fault"],
                "scheduler": part["scheduler"],
                "released": part["row"]["released"],
                "missed": part["row"]["missed"],
                "blame": report.snapshot(),
                "misses": misses,
            }
            part["streams"] = telemetry.snapshot()
            per_scheduler.setdefault(part["scheduler"], []).append(part["streams"])
        self.blame = BlameReport.merge([p["blame"]["blame"] for p in self.parts])
        self.streams: Dict[str, dict] = {
            scheduler: StandardTelemetry.merge_snapshots(snapshots)
            for scheduler, snapshots in per_scheduler.items()
        }

    def rows(self) -> List[dict]:
        """One blame row per cell."""
        rows = []
        for part in self.parts:
            cell = part["blame"]
            per_cause = cell["blame"]["per_cause"]
            top = "-"
            if per_cause:
                top = max(per_cause, key=lambda c: (per_cause[c]["lost_ns"], c))
            rows.append(
                {
                    "fault": cell["fault"],
                    "scheduler": cell["scheduler"],
                    "released": cell["released"],
                    "missed": cell["missed"],
                    "observed": cell["blame"]["observed"],
                    "explained": cell["blame"]["explained"],
                    "lost_ms": round(
                        sum(e["lost_ns"] for e in per_cause.values()) / 1e6, 3
                    ),
                    "top_cause": top,
                }
            )
        return rows

    def write(self, path: str) -> str:
        with open(path, "wb") as handle:
            handle.write(self.merged_data)
        return path

    def summary(self) -> str:
        from ..report.ascii import render_blame_table

        lines = ["blame sweep (spans + root-cause attribution):"]
        for row in self.rows():
            lines.append(
                f"  {row['fault']:<10} {row['scheduler']:<7} "
                f"missed={row['missed']:>4} "
                f"explained={row['explained']}/{row['observed']} "
                f"lost={row['lost_ms']:.1f}ms top={row['top_cause']}"
            )
        lines.append("")
        lines.append(render_blame_table(self.blame.snapshot()))
        return "\n".join(lines)


def assemble_traces(parts: Sequence[dict]) -> TraceBundle:
    """Module-level assembly function (the executor requires one)."""
    return TraceBundle(parts)


def trace_plan(
    faults: Optional[Sequence[str]] = None,
    schedulers: Optional[Sequence[str]] = None,
    duration_ns: int = TRACE_DURATION_NS,
    seed: int = TRACE_SEED,
):
    """A trace-recording sweep as an ExperimentPlan (not registry-backed)."""
    from ..experiments.robustness import (
        ROBUSTNESS_FAULTS,
        ROBUSTNESS_SCHEDULERS,
    )
    from ..runner.workunits import ExperimentPlan, WorkUnit

    faults = tuple(faults) if faults is not None else ROBUSTNESS_FAULTS
    schedulers = (
        tuple(schedulers) if schedulers is not None else ROBUSTNESS_SCHEDULERS
    )
    units = tuple(
        WorkUnit(
            experiment_id="trace_sweep",
            unit_id=f"trace_sweep/{fault}/{scheduler}",
            fn="repro.telemetry.trace_plan:record_trace_shard",
            kwargs=(
                ("fault", fault),
                ("scheduler", scheduler),
                ("duration_ns", duration_ns),
                ("seed", seed),
            ),
        )
        for fault in faults
        for scheduler in schedulers
    )
    return ExperimentPlan("trace_sweep", units, assemble_traces)
