"""Typed actuation actions — the control plane's instruction set.

Every way the reproduction can mutate bandwidth or placement — the
guest-side INC_BW/DEC_BW hypercalls, the host admission controller's
commit/decrease/release/shed, PCPU fail/recover, and cluster live
migration/rebalancing — is described by one named tuple here.  Call
sites build an action and :meth:`~repro.control.port.ActuationPort.submit`
it; the owning layer registers the executor that performs the mechanism.

Actions carry the *target object* (port, admission controller, system,
cluster) so executors are stateless one-liners and no name-resolution
happens on the submit path.  ``kind`` is a class attribute used as the
executor-registry key.

These are ``NamedTuple`` classes (same idiom as the telemetry events)
rather than frozen dataclasses: two actions are built per bandwidth
renegotiation on the hot path, and tuple construction is the cheapest
way to build them (the benchmark's ``churn-audited`` workload measures
that path).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Tuple

#: (vcpu, budget_ns, period_ns) — the same triple the cross-layer port
#: and the admission controller already speak.
Update = Tuple[Any, int, int]

#: Structural base: any of the action tuples below (each carries a
#: ``kind`` class attribute).  Only used in type hints.
Action = Any


class IncBandwidth(NamedTuple):
    """INC_BW / INC_DEC_BW through a VM's cross-layer port."""

    port: Any
    updates: Tuple[Update, ...]

    kind = "inc_bw"


class DecBandwidth(NamedTuple):
    """DEC_BW through a VM's cross-layer port (never rejected)."""

    port: Any
    updates: Tuple[Update, ...]

    kind = "dec_bw"


class AdmitRequest(NamedTuple):
    """Host admission: atomic test-and-commit of an update batch."""

    admission: Any
    updates: Tuple[Update, ...]

    kind = "admit"


class AdmitDecrease(NamedTuple):
    """Host admission: apply a decrease batch (never rejected)."""

    admission: Any
    updates: Tuple[Update, ...]

    kind = "admit_decrease"


class AdmitRelease(NamedTuple):
    """Host admission: forget one VCPU's grant (teardown/extraction)."""

    admission: Any
    vcpu: Any

    kind = "admit_release"


class ShedToCapacity(NamedTuple):
    """Host admission: revoke grants until the total fits capacity."""

    admission: Any

    kind = "shed"


class FailPcpu(NamedTuple):
    """Take one PCPU offline on a system (fault actuation)."""

    system: Any
    pcpu_index: int

    kind = "fail_pcpu"


class RecoverPcpu(NamedTuple):
    """Bring a failed PCPU back online on a system."""

    system: Any
    pcpu_index: int

    kind = "recover_pcpu"


class MigrateVM(NamedTuple):
    """Cluster management plane: live-migrate one VM to a host."""

    cluster: Any
    vm_name: str
    dest: Any
    params: Optional[Any] = None

    kind = "migrate"


class RebalanceCluster(NamedTuple):
    """Cluster management plane: plan + execute rebalancing migrations."""

    cluster: Any
    params: Optional[Any] = None
    target_imbalance: float = 0.2

    kind = "rebalance"
