"""The benchmark's three workloads and the simulated outputs each yields.

Every workload is an offline simulation: requests arrive in simulated
time, never in host time, so one seed fixes every simulated output.  A
workload builds a fresh system (the benchmark's set-up), runs it to a
fixed simulated *horizon* in equal simulated *windows* (the timed part),
and condenses the result into a canonical ``outputs`` dict whose sha256
is the run's *digest*.

Why these three (README.md has the full layer -> metric map):

- ``fig5b-rtvirt`` is the paper's headline scenario and the registry's
  critical-path unit: DP-WRAP *reads* (slice layout, donation scans),
  the machine model, the event queue and guest ``pick_job``.  No
  hypercall, no bus subscriber and no EDF-DS run after set-up.
- ``gedf-dense`` is the only workload that loads ``host/edf.py``.  It
  rebuilds the old engine microbenchmark's scenario, so at its 4 s
  horizon it must reproduce that benchmark's 79,210 events.
- ``churn-audited`` loads DP-WRAP *writes* (add/remove/update and
  re-partition), the hypercall and admission path and guest
  register/unregister, and is the only workload with bus subscribers:
  an in-memory flight recorder and the online invariant checker.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List

from repro.baselines.configs import MEMCACHED_RTVIRT_PARAMS
from repro.baselines.rtxen import RTXenSystem
from repro.core.system import RTVirtSystem
from repro.experiments.fig5_memcached import FIG5B_STREAM_MIX
from repro.faults import InvariantChecker
from repro.guest.task import Task
from repro.metrics.latency import merge_recorders
from repro.simcore.rng import RandomStreams
from repro.simcore.time import MSEC, sec
from repro.telemetry.record import TraceReader, TraceRecorder
from repro.workloads.arrivals import ArrivalMux
from repro.workloads.memcached import MemcachedService
from repro.workloads.periodic import PeriodicDriver
from repro.workloads.video import TABLE3_PROFILES, DynamicStreamingWorkload


@dataclass
class Built:
    """A constructed, not yet started, simulation plus how to read it out."""

    system: object
    #: Called once after the run (and after ``system.finalize()``):
    #: returns the canonical simulated outputs.
    outputs: Callable[[], dict]
    #: Attached observers and what they measured (churn-audited only).
    extras: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    horizon_ns: int
    window_ns: int
    build: Callable[[int, int], Built]
    #: Layers predicted to see no call during the run (README.md).
    bypassed: FrozenSet[str]
    #: False when the inputs do not depend on the seed.
    seeded: bool = True


def digest(outputs: dict) -> str:
    """sha256 of the canonical JSON form of a run's simulated outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _task_rows(tasks) -> List[list]:
    return sorted([t.name, t.stats.released, t.stats.missed] for t in tasks)


# -- fig5b-rtvirt -----------------------------------------------------------------


def build_fig5b(seed: int, horizon_ns: int) -> Built:
    """Figure 5b under RTVirt: 15 PCPUs, 5 open-loop memcached VMs
    (100 qps each, multiplexed onto one engine event by ``ArrivalMux``)
    and 10 video VMs."""
    streams = RandomStreams(seed)
    system = RTVirtSystem(pcpu_count=15)
    mux = ArrivalMux(system.engine, name="mc-5b")
    budget, period = MEMCACHED_RTVIRT_PARAMS
    services = []
    for i in range(5):
        vm = system.create_vm(f"mc{i + 1}", slack_ns=0)
        services.append(
            MemcachedService(
                system.engine,
                vm,
                streams.stream(f"mc{i}"),
                name=f"memcached{i + 1}",
                period_ns=period,
                slice_ns=budget,
                mux=mux,
            ).start()
        )
    for fps, count in FIG5B_STREAM_MIX:
        profile = TABLE3_PROFILES[fps]
        for i in range(count):
            name = f"video-{fps}fps-{i + 1}"
            vm = system.create_vm(f"{name}-vm")
            task = Task(name, profile.spec.slice_ns, profile.spec.period_ns)
            vm.register_task(task)
            PeriodicDriver(system.engine, vm, task).start()

    def outputs() -> dict:
        report = system.miss_report()
        return {
            "events": system.engine.events_processed,
            "tasks": _task_rows(t for vm in system.vms for t in vm.rt_tasks),
            "deadline_miss_ratio": report.overall_miss_ratio,
            "mc_p999_us": merge_recorders([s.latency for s in services]).p999_usec(),
        }

    return Built(system, outputs)


# -- gedf-dense -------------------------------------------------------------------

#: (slice_ms, period_ms) cycled over the 64 servers.  Non-harmonic
#: periods keep releases from aligning, so the event stream stays dense.
_GEDF_SPECS = [(2, 7), (3, 11), (2, 13), (5, 17), (4, 19), (6, 23), (3, 10), (5, 29)]
_GEDF_VCPUS = 64


def build_gedf_dense(seed: int, horizon_ns: int) -> Built:
    """RT-Xen gEDF-DS: 16 PCPUs, 64 single-VCPU servers each hosting one
    periodic RTA with a staggered phase, plus 4 background VMs.

    The task set is fixed (it has no random input), so every seed yields
    the same outputs and every run is checked against one reference.
    """
    del seed, horizon_ns  # deterministic task set, no horizon-bound input
    system = RTXenSystem(pcpu_count=16)
    for i in range(_GEDF_VCPUS):
        slice_ms, period_ms = _GEDF_SPECS[i % len(_GEDF_SPECS)]
        period_ns = period_ms * MSEC
        vm = system.create_vm(f"vm{i:02d}", interfaces=[(slice_ms * MSEC, period_ns)])
        task = Task(f"rta{i:02d}", slice_ms * MSEC, period_ns)
        system.register_rta(vm, task)
        PeriodicDriver(
            system.engine, vm, task, phase_ns=(i * period_ns) // _GEDF_VCPUS
        ).start()
    for b in range(4):
        system.create_background_vm(f"bg{b}", processes=2)

    def outputs() -> dict:
        report = system.miss_report()
        return {
            "events": system.engine.events_processed,
            "tasks": _task_rows(t for vm in system.vms for t in vm.rt_tasks),
            "deadline_miss_ratio": report.overall_miss_ratio,
        }

    return Built(system, outputs)


# -- churn-audited ----------------------------------------------------------------


def build_churn(seed: int, horizon_ns: int) -> Built:
    """RTVirt on 8 PCPUs with 16 streaming slots churning sessions every
    20-200 simulated ms, audited by the online invariant checker and an
    in-memory flight recorder.  8 PCPUs is small enough that admission
    rejects some sessions.

    The workload's ``duration_ns`` is the run horizon: the session
    generator recurses once per segment, so an unbounded timeline would
    raise ``RecursionError`` (README.md, defects).
    """
    system = RTVirtSystem(pcpu_count=8)
    churn = DynamicStreamingWorkload(
        system,
        RandomStreams(seed).stream("churn"),
        vm_count=4,
        vcpus_per_vm=4,
        duration_ns=horizon_ns,
        min_interval_ns=20 * MSEC,
        max_interval_ns=200 * MSEC,
    ).start()
    checker = InvariantChecker(system).attach()
    recorder = TraceRecorder(header={"workload": "churn-audited", "seed": seed})
    recorder.attach(system.machine.bus)
    extras = {"checker": checker}

    def outputs() -> dict:
        data = recorder.close()
        reader = TraceReader(data)
        extras["trace_bytes"] = len(data)
        extras["trace_events"] = reader.event_count
        admitted = churn.admitted_sessions()
        missed = sum(s.stats.missed for s in admitted)
        decided = sum(s.stats.decided for s in admitted)
        return {
            "events": system.engine.events_processed,
            # Session records, not miss_report(): the latter only sees
            # tasks still registered, and every session has departed.
            "tasks": sorted(
                [s.name, s.admitted, s.stats.released, s.stats.missed]
                for s in churn.sessions
            ),
            "deadline_miss_ratio": missed / decided if decided else 0.0,
            "sessions_admitted": len(admitted),
            "sessions_total": len(churn.sessions),
            "trace_hash": reader.trace_hash,
        }

    return Built(system, outputs, extras)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig5b-rtvirt",
            horizon_ns=sec(1),
            window_ns=10 * MSEC,
            build=build_fig5b,
            bypassed=frozenset({"edf", "hypercall", "admission", "bus", "record", "invariants"}),
        ),
        Workload(
            "gedf-dense",
            horizon_ns=sec(4),
            window_ns=40 * MSEC,
            build=build_gedf_dense,
            bypassed=frozenset({"dpwrap", "hypercall", "admission", "bus", "record", "invariants"}),
            seeded=False,
        ),
        Workload(
            "churn-audited",
            horizon_ns=sec(8),
            window_ns=40 * MSEC,
            build=build_churn,
            bypassed=frozenset({"edf"}),
        ),
    )
}
