"""Cross-scheduler telemetry probe: sharded runs with mergeable streams.

The probe runs one small, fixed scenario per (system, seed) cell —
RTVirt, RT-Xen and Credit, a couple of seeds each — with
:class:`~repro.telemetry.aggregate.StandardTelemetry` attached to the
machine's bus, and returns each cell's aggregate *snapshot* instead of
a trace.  The cells are packaged as a
:class:`~repro.runner.workunits.ExperimentPlan`, so the generic
executor can run them serially or across a process pool; per-system
results are produced by **merging the seed shards' snapshots in
canonical unit order**, which in exact tail mode is byte-identical
however the units were scheduled.  The ``plan:probe`` subject of
``tools/check_determinism.py`` gates on precisely that property.

The probe is deliberately *not* registered in the experiment registry:
it is a telemetry-infrastructure check, not a paper experiment, and
keeping it out leaves the registry's recorded wall-time benchmarks
undisturbed.

This module is imported lazily (by the runner and the tools), never
from ``repro.telemetry.__init__`` — it pulls in the scenario and
runner layers, which themselves import the telemetry package.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .aggregate import (
    BandwidthAggregator,
    LatencyAggregator,
    MissRatioAggregator,
    StandardTelemetry,
)

#: The systems each probe sweep covers, in canonical order.
PROBE_SYSTEMS = ("rtvirt", "rtxen", "credit")
#: Default seeds — two per system so per-system merging is exercised.
PROBE_SEEDS = (1, 2)
#: Default simulated duration per cell (seconds).
PROBE_DURATION_S = 1.0


def _probe_spec(system: str, seed: int, duration_s: float) -> dict:
    """One fixed mixed workload: two RT VMs, a sporadic RTA, background."""
    return {
        "system": {"type": system, "pcpus": 2},
        "duration_s": duration_s,
        "seed": seed,
        "vms": [
            {
                "name": "vm1",
                "tasks": [
                    {"name": "rta1", "slice_ms": 8, "period_ms": 20},
                    {"name": "rta2", "slice_ms": 5, "period_ms": 10},
                ],
            },
            {
                "name": "vm2",
                "tasks": [
                    {"name": "rta3", "slice_ms": 10, "period_ms": 25},
                    {
                        "name": "sp1",
                        "slice_ms": 2,
                        "period_ms": 50,
                        "kind": "sporadic",
                        "min_interarrival_ms": 50,
                        "max_interarrival_ms": 200,
                    },
                ],
            },
            {"name": "bg", "background": True},
        ],
    }


def run_probe_shard(system: str, seed: int, duration_s: float = PROBE_DURATION_S) -> dict:
    """Worker body: run one (system, seed) cell, return its snapshot."""
    from ..scenario import run_scenario

    holder: Dict[str, StandardTelemetry] = {}

    def attach(sys_obj) -> None:
        holder["telemetry"] = StandardTelemetry(sys_obj.machine.bus)

    result = run_scenario(
        _probe_spec(system, seed, duration_s),
        name=f"probe:{system}:{seed}",
        attach=attach,
    )
    snapshot = holder["telemetry"].snapshot()
    return {
        "system": system,
        "seed": seed,
        "jobs_released": result.report.total_released,
        "snapshot": snapshot,
    }


class ProbeResult:
    """Per-system merged streaming aggregates of one probe sweep."""

    def __init__(self, parts: Sequence[dict]) -> None:
        self.parts = list(parts)
        grouped: Dict[str, List[dict]] = {}
        for part in self.parts:  # parts arrive in canonical unit order
            grouped.setdefault(part["system"], []).append(part["snapshot"])
        self.merged: Dict[str, dict] = {
            system: StandardTelemetry.merge_snapshots(snaps)
            for system, snaps in grouped.items()
        }

    def rows(self) -> List[dict]:
        rows = []
        for system in PROBE_SYSTEMS:
            merged = self.merged.get(system)
            if merged is None:
                continue
            misses = MissRatioAggregator.merge([merged["misses"]])
            latency = LatencyAggregator.merge([merged["latency"]])
            bandwidth = BandwidthAggregator.merge([merged["bandwidth"]])
            decided = misses.decided()
            row = {
                "system": system,
                "jobs_decided": decided,
                "miss_ratio": misses.miss_ratio(),
                "latency_mean_us": (
                    latency.stats.mean if latency.stats.count else 0.0
                ),
                "latency_p99_us": (
                    latency.tail.percentile(99.0) if len(latency.tail) else 0.0
                ),
                "consumed_ms": sum(bandwidth.consumed_ns.values()) / 1e6,
            }
            rows.append(row)
        return rows

    def summary(self) -> str:
        lines = ["telemetry probe (streaming aggregates, merged per system):"]
        for row in self.rows():
            lines.append(
                f"  {row['system']:<7} decided={row['jobs_decided']:>4} "
                f"miss={row['miss_ratio'] * 100:.3f}% "
                f"mean={row['latency_mean_us']:.1f}us "
                f"p99={row['latency_p99_us']:.1f}us "
                f"cpu={row['consumed_ms']:.1f}ms"
            )
        return "\n".join(lines)


def assemble_probe(parts: Sequence[dict]) -> ProbeResult:
    """Module-level assembly function (the executor requires one)."""
    return ProbeResult(parts)


def probe_plan(
    seeds: Sequence[int] = PROBE_SEEDS,
    duration_s: float = PROBE_DURATION_S,
):
    """The probe sweep as an :class:`ExperimentPlan` (not registry-backed)."""
    from ..runner.workunits import ExperimentPlan, WorkUnit

    units = tuple(
        WorkUnit(
            experiment_id="telemetry_probe",
            unit_id=f"telemetry_probe/{system}/seed{seed}",
            fn="repro.telemetry.probe:run_probe_shard",
            kwargs=(
                ("system", system),
                ("seed", seed),
                ("duration_s", duration_s),
            ),
        )
        for system in PROBE_SYSTEMS
        for seed in seeds
    )
    return ExperimentPlan("telemetry_probe", units, assemble_probe)
