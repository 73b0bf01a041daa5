"""Deterministic fault injection and dynamic scenarios.

The subsystem has three parts (DESIGN.md §8):

- :mod:`injectors` — fault classes applied as first-class simulation
  events: PCPU fail/recover, VM boot/shutdown churn, hypercall
  delay/drop, workload surge, and clock jitter on budget replenishment;
- :mod:`timeline` — a declarative timeline DSL
  (``Scenario([At(t, PcpuFail(2)), Every(p, VmChurn())])``) that
  installs injectors onto a system's event engine.  It is named
  ``timeline`` so it cannot be confused with the top-level
  :mod:`repro.scenario` experiment runner; import it from
  ``repro.faults`` (the public path) or ``repro.faults.timeline``;
- :mod:`invariants` — an online checker hooked into the engine that
  validates scheduling invariants after every event batch and raises
  :class:`~repro.simcore.errors.InvariantViolation` with the offending
  decision window attached.

Everything is seedable through
:class:`~repro.simcore.rng.RandomStreams`, so fault programs replay
bit-identically — including across the parallel runner.
"""

from ..simcore.errors import InvariantViolation
from .injectors import (
    ClockJitter,
    Fault,
    FaultContext,
    HostFail,
    HostRecover,
    HypercallDelay,
    HypercallDrop,
    PcpuFail,
    PcpuRecover,
    VmChurn,
    WorkloadSurge,
)
from .invariants import InvariantChecker
from .timeline import At, Every, Scenario

__all__ = [
    "At",
    "ClockJitter",
    "Every",
    "Fault",
    "FaultContext",
    "HostFail",
    "HostRecover",
    "HypercallDelay",
    "HypercallDrop",
    "InvariantChecker",
    "InvariantViolation",
    "PcpuFail",
    "PcpuRecover",
    "Scenario",
    "VmChurn",
    "WorkloadSurge",
]
