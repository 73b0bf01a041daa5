"""Per-layer tracing for the benchmark's traced run.

A :class:`Tracer` wraps methods of each stack layer's classes, from the
outside: the simulator itself is not modified.  Every wrapped call
records one span (method, start, end, parent span) into flat arrays held
in memory; self time is computed afterwards as a span's duration minus
the durations of its direct children.  The wrapped methods are each
class's public methods (resolved through its bases) plus the private
methods the engine calls directly: event callbacks and post-event hooks.
Those are the layer boundaries; helpers inside a layer stay unwrapped
and their cost lands in that layer's self time.

The existing :class:`~repro.telemetry.profile.SimProfiler` rides along
for engine phase times (the event-name prefix) and bus deliveries.

Wrappers patch class attributes, so every instance in the process is
traced until :meth:`Tracer.uninstall`.  Install before the system is
built: components capture bound methods (post hooks, bus handlers,
scheduled callbacks) at construction.
"""

from __future__ import annotations

import inspect
from array import array
from time import perf_counter_ns
from typing import Dict, List, Tuple

import numpy as np

from repro.core.admission import UtilizationAdmission
from repro.core.dpwrap import DPWrapScheduler
from repro.core.hypercall import RTVirtHypercall
from repro.faults.invariants import InvariantChecker
from repro.guest.gedf import GEDFGuestScheduler
from repro.guest.pedf import PEDFGuestScheduler
from repro.guest.task import Task
from repro.guest.vcpu import VCPU
from repro.guest.vm import VM
from repro.host.edf import EDFHostScheduler, PartitionedEDFHostScheduler
from repro.host.machine import Machine
from repro.simcore.engine import Engine
from repro.simcore.events import active_queue_class
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.profile import SimProfiler
from repro.telemetry.record import TraceRecorder, TraceWriter
from repro.workloads.arrivals import ArrivalMux
from repro.workloads.memcached import MemcachedService
from repro.workloads.periodic import PeriodicDriver
from repro.workloads.video import DynamicStreamingWorkload, StreamingSession

#: layer -> [(class, private entry points wrapped besides public methods)]
LAYERS: Dict[str, List[Tuple[type, Tuple[str, ...]]]] = {
    "events": [(active_queue_class(), ())],
    "engine": [(Engine, ("_execute_batch",))],
    "machine": [(Machine, ("_refresh", "_on_completion", "_report_idle"))],
    "edf": [
        (EDFHostScheduler, ("_replenish", "_exhaust", "_flush_reschedule")),
        (PartitionedEDFHostScheduler, ()),
    ],
    "dpwrap": [(DPWrapScheduler, ("_new_slice", "_start_piece", "_start_tail"))],
    "guest": [
        (VM, ()),
        (PEDFGuestScheduler, ()),
        (GEDFGuestScheduler, ()),
        (VCPU, ()),
        (Task, ()),
    ],
    "hypercall": [(RTVirtHypercall, ())],
    "admission": [(UtilizationAdmission, ())],
    "workloads": [
        (ArrivalMux, ("_fire",)),
        (MemcachedService, ("_request", "_record")),
        (PeriodicDriver, ("_release",)),
        (DynamicStreamingWorkload, ("_start_session", "_start_idle_reserve", "_end_idle_reserve")),
        (StreamingSession, ("_teardown",)),
    ],
    "bus": [(TelemetryBus, ())],
    "record": [(TraceRecorder, ()), (TraceWriter, ())],
    "invariants": [(InvariantChecker, ("_check", "_on_admission"))],
}

#: Engine phases (event-name prefixes) owned by each host scheduler.
SCHEDULER_PHASES = {
    "edf": ("replenish", "exhaust"),
    "dpwrap": ("global-deadline", "tail", "piece", "repartition"),
}


class IsolationError(AssertionError):
    """A layer predicted to be bypassed on a workload saw calls."""


def _wrappable(cls: type, name: str):
    """The plain function *cls.name* resolves to, or None."""
    for klass in cls.__mro__[:-1]:  # object's slots are not layer methods
        if name in klass.__dict__:
            raw = klass.__dict__[name]
            plain = inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw)
            return raw if plain else None
    return None


class Tracer:
    """Span recorder over the classes in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.methods: List[Tuple[str, str]] = []  # span name id -> (layer, qualname)
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self._patched: List[Tuple[type, str, object]] = []
        self.profiler = SimProfiler()

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, fn, sid: int):
        names_append = self.names.append
        parents_append = self.parents.append
        starts_append = self.starts.append
        ends_append = self.ends.append
        ends = self.ends
        stack = self._stack
        stack_append = stack.append
        stack_pop = stack.pop
        names = self.names
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names_append(sid)
            parents_append(stack[-1])
            ends_append(0)
            stack_append(idx)
            starts_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack_pop()

        traced._perfbench_original = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> "Tracer":
        for layer, entries in LAYERS.items():
            for cls, private in entries:
                public = {
                    name
                    for klass in cls.__mro__[:-1]
                    for name in klass.__dict__
                    if not name.startswith("_")
                }
                for name in sorted(public) + list(private):
                    fn = _wrappable(cls, name)
                    if fn is None or hasattr(fn, "_perfbench_original"):
                        continue  # not a plain method, or wrapped via a base
                    sid = len(self.methods)
                    self.methods.append((layer, f"{cls.__name__}.{name}"))
                    self._patched.append((cls, name, cls.__dict__.get(name)))
                    setattr(cls, name, self._wrap(fn, sid))
        return self

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._patched):
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        self._patched = []
        self.profiler.uninstall()

    def reset(self) -> None:
        """Drop every span recorded so far (call with no span open)."""
        if len(self._stack) != 1:
            raise RuntimeError("reset() with spans still open")
        for buf in (self.names, self.parents, self.starts, self.ends):
            del buf[:]

    # -- analysis ------------------------------------------------------------------

    def take_spans(self) -> dict:
        """Move the recorded spans into numpy arrays, emptying the
        buffers, and add self time (duration minus direct children)."""
        names = np.array(self.names, dtype=np.uint16)
        parents = np.array(self.parents, dtype=np.int64)
        starts = np.array(self.starts, dtype=np.int64)
        ends = np.array(self.ends, dtype=np.int64)
        self.reset()
        dur = ends - starts
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        return {
            "names": names,
            "parents": parents,
            "starts": starts,
            "ends": ends,
            "dur": dur,
            "self": dur - child,
        }

    def per_method(self, table: dict) -> Dict[str, Dict[str, float]]:
        """(layer, method) -> calls, inclusive ns and self ns."""
        n = len(self.methods)
        calls = np.bincount(table["names"], minlength=n)
        incl = np.bincount(table["names"], weights=table["dur"], minlength=n)
        own = np.bincount(table["names"], weights=table["self"], minlength=n)
        return {
            qual: {"layer": layer, "calls": int(calls[i]), "incl_ns": float(incl[i]), "self_ns": float(own[i])}
            for i, (layer, qual) in enumerate(self.methods)
        }


def check_nesting(table: dict, wall_start: int, wall_end: int) -> int:
    """Verify the spans tile the traced window; return the remainder.

    The remainder is the window's time outside every top-level span.
    Self times sum to the top-level durations by construction, so
    they plus the remainder make up the wall time exactly when every
    child lies inside its parent and the top-level spans lie inside
    ``[wall_start, wall_end]`` without overlapping -- which is what
    is checked.
    """
    parents, starts, ends = table["parents"], table["starts"], table["ends"]
    nested = parents >= 0
    if np.any(starts[nested] < starts[parents[nested]]) or np.any(
        ends[nested] > ends[parents[nested]]
    ):
        raise AssertionError("a child span escapes its parent")
    top_s, top_e = starts[~nested], ends[~nested]
    if len(top_s) and (top_s[0] < wall_start or top_e[-1] > wall_end):
        raise AssertionError("a top-level span escapes the traced window")
    if np.any(top_s[1:] < top_e[:-1]):
        raise AssertionError("top-level spans overlap")
    return (wall_end - wall_start) - int(table["dur"][~nested].sum())


def layer_totals(methods: Dict[str, dict]) -> Dict[str, dict]:
    """Sum per-method calls and self time per layer."""
    totals = {layer: {"calls": 0, "self_ns": 0.0} for layer in LAYERS}
    for cell in methods.values():
        total = totals[cell["layer"]]
        total["calls"] += cell["calls"]
        total["self_ns"] += cell["self_ns"]
    return totals


def check_isolation(workload_name: str, bypassed, totals: Dict[str, dict]) -> None:
    """Raise :class:`IsolationError` if a bypassed layer saw any call."""
    hit = {layer: totals[layer]["calls"] for layer in sorted(bypassed) if totals[layer]["calls"]}
    if hit:
        raise IsolationError(
            f"{workload_name}: layers predicted bypassed saw calls: {hit}"
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    methods: Dict[str, dict],
    totals: Dict[str, dict],
    profiler: SimProfiler,
    counters: dict,
) -> Dict[str, float]:
    """The named per-layer metrics (README.md, layer -> metric map).

    *counters* carries what the program itself counted over the traced
    run: ``events``, ``context_switches``, ``migrations``,
    ``hypercall_requests``/``hypercall_granted``, ``invariant_checks``,
    ``trace_bytes``/``trace_events``.
    """

    def calls(qual: str) -> int:
        return methods.get(qual, {}).get("calls", 0)

    def incl_ns(qual: str) -> float:
        return methods.get(qual, {}).get("incl_ns", 0.0)

    def phase_ns(layer: str) -> float:
        cells = [profiler.phase_costs.get(p, [0, 0.0]) for p in SCHEDULER_PHASES[layer]]
        return _ratio(sum(c[1] for c in cells) * 1e9, sum(c[0] for c in cells))

    queue = active_queue_class().__name__
    events = counters["events"]
    pushes, cancels = calls(f"{queue}.push"), calls(f"{queue}.cancel")
    batches = calls("Engine._execute_batch")
    hyper_calls = sum(
        calls(f"RTVirtHypercall.{m}") for m in ("request_increase", "notify_decrease", "vcpu_added")
    )
    releases = calls("MemcachedService._request") + calls("PeriodicDriver._release")
    publishes = calls("TelemetryBus.publish")
    deliveries = sum(cell[1] for cell in profiler.event_costs.values())
    handler_s = sum(cell[2] for cell in profiler.event_costs.values())
    checks = counters["invariant_checks"]
    registers = calls("VM.register_task") + calls("VM.unregister_task")
    return {
        "events.push": pushes,
        "events.cancel": cancels,
        "events.cancel_ratio": _ratio(cancels, pushes),
        "events.push_ns": _ratio(incl_ns(f"{queue}.push"), pushes),
        "events.pop_ns": _ratio(incl_ns(f"{queue}.pop_at"), calls(f"{queue}.pop_at")),
        "engine.events": events,
        "engine.batches": batches,
        "engine.events_per_batch": _ratio(events, batches),
        "engine.self_ns_per_event": _ratio(totals["engine"]["self_ns"], events),
        "machine.set_running": calls("Machine.set_running"),
        "machine.sync_pcpu": calls("Machine.sync_pcpu"),
        "machine.self_ns_per_event": _ratio(totals["machine"]["self_ns"], events),
        "machine.context_switches": counters["context_switches"],
        "machine.migrations": counters["migrations"],
        "edf.calls": totals["edf"]["calls"],
        "edf.self_ns_per_call": _ratio(totals["edf"]["self_ns"], totals["edf"]["calls"]),
        "edf.phase_ns": phase_ns("edf"),
        "dpwrap.calls": totals["dpwrap"]["calls"],
        "dpwrap.self_ns_per_call": _ratio(totals["dpwrap"]["self_ns"], totals["dpwrap"]["calls"]),
        "dpwrap.update_calls": calls("DPWrapScheduler.update_vcpu"),
        "dpwrap.phase_ns": phase_ns("dpwrap"),
        "guest.pick_job": calls("VM.pick_job"),
        "guest.pick_job_ns": _ratio(incl_ns("VM.pick_job"), calls("VM.pick_job")),
        "guest.register": registers,
        "guest.register_ns": _ratio(
            incl_ns("VM.register_task") + incl_ns("VM.unregister_task"), registers
        ),
        "hypercall.calls": hyper_calls,
        "hypercall.granted_ratio": _ratio(
            counters["hypercall_granted"], counters["hypercall_requests"]
        ),
        "hypercall.self_ns_per_call": _ratio(totals["hypercall"]["self_ns"], hyper_calls),
        "admission.decisions": calls("UtilizationAdmission.try_commit"),
        "arrivals.releases": releases,
        "arrivals.self_ns_per_release": _ratio(totals["workloads"]["self_ns"], releases),
        "bus.publishes": publishes,
        "bus.deliveries": deliveries,
        "bus.handler_ns_per_delivery": _ratio(handler_s * 1e9, deliveries),
        "record.bytes_per_event": _ratio(counters["trace_bytes"], counters["trace_events"]),
        "invariants.checks": checks,
        "invariants.ns_per_check": _ratio(incl_ns("InvariantChecker._check"), checks),
    }
