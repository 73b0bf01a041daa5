"""Timed runs, the output check, the traced run and the run record.

One *rep* builds a fresh system (timed as set-up), runs it to the
workload's simulated horizon one simulated window at a time (each window
timed on the host), finalizes it and digests its simulated outputs.  A
benchmark run repeats reps until ``--seconds`` of host time have passed
and reports the sim rate over all of them, window-time percentiles
over all their windows, and the median set-up time, all in
reference-host seconds (see :func:`calibrate`).  Each rep's build
follows a full collection, so every set-up sample starts from the same
heap state.

Every rep is checked: it must not raise (an invariant violation raises),
and its digest must equal the recorded reference for the seed, or, for a
seed without one, the run's first rep.  A rep that fails either check is
counted in ``failed``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.hypercall import RTVirtHypercall
from repro.core.flags import SchedRTVirtFlag
from repro.simcore.events import active_queue_class

from .layers import (
    LAYERS,
    IsolationError,
    Tracer,
    check_isolation,
    check_nesting,
    layer_metrics,
    layer_totals,
)
from .scenarios import Built, Workload, digest

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).with_name("reference.json")
#: Simulated outputs shown in the run record (the digest covers all).
SHOWN_OUTPUTS = ("events", "deadline_miss_ratio", "mc_p999_us", "sessions_admitted",
                 "sessions_total", "trace_hash")


@dataclass
class Rep:
    #: Host seconds spent building the system and workload.
    setup_s: float
    #: Host ns of every simulated window, in order.
    windows_ns: List[int]
    #: Host slowdown against the reference while each window ran, and
    #: while the set-up ran (see :func:`calibrate`).
    slowdowns: List[float]
    setup_slowdown: float
    #: perf_counter_ns when the first window started and the last ended.
    start_ns: int
    end_ns: int
    outputs: dict
    digest: str
    #: Numbers the attached observers measured (flight-recorder size).
    extras: Dict[str, int]

    def run_s(self, normalize: bool = True) -> float:
        return sum(self.windows_ms(normalize)) / 1e3

    def windows_ms(self, normalize: bool = True) -> List[float]:
        if not normalize:
            return [w / 1e6 for w in self.windows_ns]
        return [w / k / 1e6 for w, k in zip(self.windows_ns, self.slowdowns)]


# -- host-speed calibration -----------------------------------------------------------

#: Iterations of the calibration loop, and its time on the reference
#: host (Intel Xeon, 2 vCPUs, Python 3.11.7) in a quiet period.
CALIBRATION_STEPS = 250_000
CALIBRATION_REF_S = 0.02
#: Windows between two calibrations inside a rep.
CALIBRATION_WINDOWS = 20


def calibrate() -> float:
    """Host seconds for a fixed pure-Python loop.

    A shared host runs the same code at speeds that drift by tens of
    percent over seconds to minutes.  The loop is timed before the
    set-up, after it, and after every :data:`CALIBRATION_WINDOWS`
    windows.  Each window's host time is divided by its *slowdown*: the
    mean of the loop times around it over :data:`CALIBRATION_REF_S`.
    That expresses it in reference-host seconds.  The loop lives in the
    benchmark, so a change to the simulator cannot move it.
    """
    started = perf_counter()
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i * i % 7
    return perf_counter() - started


@dataclass
class Outcome:
    """One benchmark run: the result line and the run record."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    reps: List[Rep] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_rep(
    workload: Workload,
    seed: int,
    before_run: Optional[Callable[[Built], None]] = None,
    after_run: Optional[Callable[[Built], None]] = None,
    calibration_windows: Optional[int] = CALIBRATION_WINDOWS,
) -> Rep:
    """Build, run to the horizon window by window, finalize, digest.

    Calibrations run between windows, outside their timing.  With
    *calibration_windows* None (the traced rep) the windows run back to
    back and the host is calibrated only around them.
    """
    horizon = workload.horizon_ns
    before = calibrate()
    started = perf_counter()
    built = workload.build(seed, horizon)
    setup_s = perf_counter() - started
    after = calibrate()
    setup_slowdown = (before + after) / 2 / CALIBRATION_REF_S
    if before_run is not None:
        before_run(built)
    system = built.system
    windows: List[int] = []
    slowdowns: List[float] = []
    chunk: List[int] = []
    at = 0
    start_ns = last = perf_counter_ns()
    while at < horizon:
        at = min(at + workload.window_ns, horizon)
        system.run_until(at)
        now = perf_counter_ns()
        chunk.append(now - last)
        last = now
        if len(chunk) == calibration_windows or at == horizon:
            end_ns = now
            before, after = after, calibrate()
            windows += chunk
            slowdowns += [(before + after) / 2 / CALIBRATION_REF_S] * len(chunk)
            chunk = []
            last = perf_counter_ns()
    if after_run is not None:
        after_run(built)
    system.finalize()
    outputs = built.outputs()
    extras = {k: v for k, v in built.extras.items() if isinstance(v, int)}
    return Rep(
        setup_s, windows, slowdowns, setup_slowdown, start_ns, end_ns,
        outputs, digest(outputs), extras,
    )


# -- reference digests ----------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def expected_for(reference: dict, workload: str, seed: int) -> Optional[dict]:
    """The recorded outputs for *seed* (``"*"``: seed-independent)."""
    table = reference.get(workload, {})
    return table.get(str(seed), table.get("*"))


def reference_entry(rep: Rep) -> dict:
    entry = {k: rep.outputs[k] for k in SHOWN_OUTPUTS if k in rep.outputs}
    entry["digest"] = rep.digest
    return entry


def _mismatch(rep: Rep, want: dict) -> str:
    diffs = {
        k: [want.get(k), rep.outputs.get(k)]
        for k in SHOWN_OUTPUTS
        if k in want and want.get(k) != rep.outputs.get(k)
    }
    return f"digest {rep.digest[:12]} != reference {want['digest'][:12]}; differing: {diffs}"


# -- host fingerprint ------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root: Path) -> Optional[str]:
    """HEAD's sha when *root* is a git work tree; None in a plain copy."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(root: Path) -> str:
    """Content hash of the simulator's sources (stands in for the sha
    when the tree is not a git checkout)."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(ROOT),
        "source_sha256": _source_sha256(ROOT),
        "event_queue": active_queue_class().__name__,
    }


# -- untraced run: the end-to-end metrics ---------------------------------------------


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _timing_metrics(reps: List[Rep], horizon_s: float, normalize: bool) -> Dict[str, float]:
    """Host-time metrics over *reps*, in reference-host seconds when
    *normalize*, else in raw host seconds."""
    windows = [w for r in reps for w in r.windows_ms(normalize)]
    p50, p90 = np.percentile(windows, [50, 90]) if windows else (0.0, 0.0)
    run_s = sum(windows) / 1e3
    setups = [r.setup_s / (r.setup_slowdown if normalize else 1.0) for r in reps]
    return {
        "sim_rate": horizon_s * len(reps) / run_s if run_s else 0.0,
        "window_ms_p50": float(p50),
        "window_ms_p90": float(p90),
        "setup_s": _median(setups),
    }


def measure(workload: Workload, seed: int, seconds: float, reference: dict) -> Outcome:
    """Repeat reps for *seconds* of host time; end-to-end metrics."""
    out = Outcome()
    want = expected_for(reference, workload.name, seed)
    reps: List[Rep] = []
    started = perf_counter()
    while True:
        out.attempted += 1
        gc.collect()
        try:
            rep = run_rep(workload, seed)
        except Exception as exc:  # a failing rep is counted, the run goes on
            out.fail(f"rep {out.attempted} raised {type(exc).__name__}: {exc}")
        else:
            check = want or (reference_entry(reps[0]) if reps else None)
            if check is not None and rep.digest != check["digest"]:
                out.fail(f"rep {out.attempted}: {_mismatch(rep, check)}")
            reps.append(rep)
        # Stop before a rep that would overrun the budget (one rep at least).
        elapsed = perf_counter() - started
        if elapsed * (out.attempted + 1) / out.attempted > seconds:
            break

    horizon_s = workload.horizon_ns / 1e9
    out.metrics = _timing_metrics(reps, horizon_s, normalize=True)
    out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.record = {
        "host": fingerprint(workload.name, seed),
        "horizon_s": horizon_s,
        "reps": len(reps),
        "windows": sum(len(r.windows_ns) for r in reps),
        "raw": _timing_metrics(reps, horizon_s, normalize=False),
        "rep_slowdowns": [round(statistics.mean(r.slowdowns), 4) for r in reps],
        "rep_sim_rates": [round(horizon_s / r.run_s(), 4) for r in reps],
        "reference": "recorded" if want else ("first rep" if reps else "none"),
        "outputs": reference_entry(reps[0]) if reps else None,
        "errors": out.errors,
    }
    out.reps = reps
    return out


# -- traced run: the per-layer metrics ------------------------------------------------


def _hypercall_logs(system) -> List[list]:
    return [vm.port.log for vm in system.vms if isinstance(vm.port, RTVirtHypercall)]


def traced(workload: Workload, seed: int, seconds: float, reference: dict) -> Outcome:
    """Untraced reps for the overhead baseline, then one traced rep."""
    out = measure(workload, seed, seconds, reference)
    untraced = out.reps
    out.attempted += 1
    tracer = Tracer()
    state: dict = {}

    def before_run(built: Built) -> None:
        system = built.system
        tracer.profiler.install(engine=system.engine, bus=system.machine.bus)
        tracer.reset()  # spans of the set-up and the install are not the run's
        checker = built.extras.get("checker")
        state["start"] = {
            "events": system.engine.events_processed,
            "context_switches": system.machine.metrics.overhead.context_switches,
            "migrations": system.machine.metrics.overhead.migrations,
            "invariant_checks": checker.checks if checker else 0,
            "logs": [len(log) for log in _hypercall_logs(system)],
        }

    def after_run(built: Built) -> None:
        system = built.system
        state["table"] = tracer.take_spans()
        tracer.uninstall()
        start = state["start"]
        checker = built.extras.get("checker")
        requests = [
            granted
            for log, n in zip(_hypercall_logs(system), start["logs"])
            for flag, granted in log[n:]
            if flag is not SchedRTVirtFlag.DEC_BW
        ]
        state["counters"] = {
            "events": system.engine.events_processed - start["events"],
            "context_switches": system.machine.metrics.overhead.context_switches
            - start["context_switches"],
            "migrations": system.machine.metrics.overhead.migrations - start["migrations"],
            "invariant_checks": (checker.checks if checker else 0) - start["invariant_checks"],
            "hypercall_requests": len(requests),
            "hypercall_granted": sum(1 for granted in requests if granted),
        }

    try:
        tracer.install()
        rep = run_rep(workload, seed, before_run, after_run, calibration_windows=None)
    except Exception as exc:  # reported as a failed rep with no layer data
        out.fail(f"traced rep raised {type(exc).__name__}: {exc}")
        return out
    finally:
        tracer.uninstall()

    check = untraced[0] if untraced else None
    if check is not None and rep.digest != check.digest:
        out.fail(f"tracing changed the simulated outputs: {_mismatch(rep, reference_entry(check))}")
    table = state["table"]
    wall_ns = rep.end_ns - rep.start_ns
    try:
        remainder_ns = check_nesting(table, rep.start_ns, rep.end_ns)
    except AssertionError as exc:
        out.fail(f"span accounting: {exc}")
        remainder_ns = 0
    methods = tracer.per_method(table)
    totals = layer_totals(methods)
    counters = dict(state["counters"])
    counters["trace_bytes"] = rep.extras.get("trace_bytes", 0)
    counters["trace_events"] = rep.extras.get("trace_events", 0)
    metrics = layer_metrics(methods, totals, tracer.profiler, counters)
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = totals[layer]["self_ns"] / wall_ns
    traced_s = rep.run_s()
    untraced_s = _median([r.run_s() for r in untraced])
    metrics["trace.sim_rate"] = workload.horizon_ns / 1e9 / traced_s
    metrics["trace.overhead"] = traced_s / untraced_s if untraced_s else 0.0
    metrics["trace.remainder_share"] = remainder_ns / wall_ns
    metrics["trace.spans"] = len(table["names"])
    try:
        check_isolation(workload.name, workload.bypassed, totals)
    except IsolationError as exc:
        out.fail(str(exc))
        print(f"ISOLATION CHECK FAILED: {exc}", file=sys.stderr)
    out.metrics = metrics
    out.record["traced"] = {
        "wall_s": wall_ns / 1e9,
        "layer_self_ms": {k: round(v["self_ns"] / 1e6, 3) for k, v in totals.items()},
        "layer_calls": {k: v["calls"] for k, v in totals.items()},
        "phases": tracer.profiler.snapshot()["phases"],
    }
    return out
