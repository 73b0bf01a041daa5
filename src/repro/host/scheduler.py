"""The host (VMM-level) scheduler interface.

Concrete schedulers — DP-WRAP (:mod:`repro.core.dpwrap`), RT-Xen's
gEDF deferrable server (:mod:`repro.baselines.rtxen`), Xen Credit
(:mod:`repro.baselines.credit`) and plain host EDF
(:mod:`repro.host.edf`) — implement this interface.  The machine calls
the ``on_*`` hooks; the scheduler places VCPUs onto PCPUs through
:meth:`repro.host.machine.Machine.set_running` and schedules its own
timer events through the engine.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from ..guest.vcpu import VCPU
from ..simcore.errors import SchedulingError
from ..simcore.events import PRIORITY_DEFAULT
from ..simcore.time import MSEC
from ..telemetry import events as T


class HostScheduler(abc.ABC):
    """Base class for VMM-level CPU schedulers."""

    name = "abstract"

    #: Rotation quantum for background VCPUs sharing leftover time.
    bg_quantum_ns = MSEC

    def __init__(self) -> None:
        self.machine = None
        self._background: List[VCPU] = []
        self._bg_cursor = 0
        #: Optional (RandomSource, max_ns) pair injecting clock jitter
        #: into the scheduler's own timer arming (fault injection).
        self._jitter_source = None
        self._jitter_max = 0
        #: Cached "anyone listening for budget events?" flag; refreshed
        #: by the machine bus's watcher once attached.  Budget-based
        #: schedulers test it before constructing replenish/deplete
        #: events on their timer paths.
        self._t_budget = False

    # -- wiring ---------------------------------------------------------------

    def attach(self, machine) -> None:
        """Called by :meth:`Machine.set_host_scheduler`."""
        self.machine = machine
        machine.bus.watch(self._on_telemetry_change)

    def _on_telemetry_change(self, bus) -> None:
        """Refresh cached telemetry interest flags (bus watcher)."""
        self._t_budget = bus.has_subscribers(
            T.BUDGET_REPLENISH
        ) or bus.has_subscribers(T.BUDGET_DEPLETE)

    @property
    def engine(self):
        if self.machine is None:
            raise SchedulingError(f"{self.name} scheduler is not attached to a machine")
        return self.machine.engine

    # -- VCPU population --------------------------------------------------------

    @abc.abstractmethod
    def add_vcpu(self, vcpu: VCPU) -> None:
        """Start scheduling *vcpu* using its host-visible parameters."""

    @abc.abstractmethod
    def remove_vcpu(self, vcpu: VCPU) -> None:
        """Stop scheduling *vcpu*."""

    def update_vcpu(self, vcpu: VCPU) -> None:
        """React to a parameter change (default: remove + re-add)."""
        self.remove_vcpu(vcpu)
        self.add_vcpu(vcpu)

    def add_background_vcpu(self, vcpu: VCPU) -> None:
        """Register a best-effort VCPU that soaks up leftover CPU time.

        Background VCPUs receive the bandwidth not reserved by RT VCPUs
        (paper §3.4); schedulers hand them idle or unreserved time.
        """
        self._background.append(vcpu)

    def remove_background_vcpu(self, vcpu: VCPU) -> None:
        """Drop *vcpu* from the background pool (VM shutdown churn)."""
        if vcpu in self._background:
            self._background.remove(vcpu)
            self._bg_cursor = 0

    def next_background_vcpu(self, exclude=None) -> Optional[VCPU]:
        """Round-robin over background VCPUs with runnable work."""
        if not self._background:
            return None
        n = len(self._background)
        machine = self.machine
        for offset in range(n):
            vcpu = self._background[(self._bg_cursor + offset) % n]
            if exclude is not None and vcpu in exclude:
                continue
            if machine is not None and machine.pcpu_of(vcpu) is not None:
                continue
            if vcpu.vm.vcpu_has_work(vcpu):
                self._bg_cursor = (self._bg_cursor + offset + 1) % n
                return vcpu
        return None

    def fill_with_background(self, pcpu_index: int) -> None:
        """Give *pcpu_index* to a background VCPU (or idle it).

        Background VCPUs rotate every :attr:`bg_quantum_ns` so leftover
        bandwidth is shared equally among them (paper §3.4's proportional
        allocation, with equal proportions).  When every other background
        VCPU is already running (pool <= PCPUs), the current occupant
        keeps the PCPU instead of being evicted to idle.
        """
        if self.machine.pcpus[pcpu_index].failed:
            return
        vcpu = self.next_background_vcpu()
        occupant = self.machine.pcpus[pcpu_index].running_vcpu
        if (
            vcpu is None
            and occupant is not None
            and occupant in self._background
            and occupant.vm.vcpu_has_work(occupant)
        ):
            vcpu = occupant
        self.machine.set_running(pcpu_index, vcpu)
        if vcpu is not None and len(self._background) > 1:
            self.engine.after(
                self.bg_quantum_ns,
                self._rotate_background,
                pcpu_index,
                vcpu,
                priority=PRIORITY_DEFAULT,
                name="bg-rotate",
            )

    def fill_free_pcpus(self) -> None:
        """Hand every unoccupied PCPU to a background VCPU.

        Equivalent to calling :meth:`fill_with_background` on each free
        PCPU in index order, but stops scanning as soon as the pool has
        no placeable background VCPU left: a ``None`` answer cannot turn
        into a candidate by idling further PCPUs (nothing gains work and
        nothing is descheduled), and ``set_running(index, None)`` on an
        already-free PCPU is a no-op, so the remaining iterations of the
        naive loop do nothing.
        """
        machine = self.machine
        if len(machine._vcpu_pcpu) >= machine._available:
            # Every online PCPU is occupied — nothing to fill.  O(1)
            # escape for the common fully-loaded pass.
            return
        rotate = len(self._background) > 1
        for pcpu in machine.pcpus:
            if pcpu.running_vcpu is not None or pcpu.failed:
                continue
            vcpu = self.next_background_vcpu()
            if vcpu is None:
                return
            machine.set_running(pcpu.index, vcpu)
            if rotate:
                self.engine.after(
                    self.bg_quantum_ns,
                    self._rotate_background,
                    pcpu.index,
                    vcpu,
                    priority=PRIORITY_DEFAULT,
                    name="bg-rotate",
                )

    def _rotate_background(self, pcpu_index: int, vcpu: VCPU) -> None:
        if self.machine.pcpus[pcpu_index].running_vcpu is vcpu:
            self.fill_with_background(pcpu_index)

    # -- runtime notifications ------------------------------------------------------

    @abc.abstractmethod
    def on_vcpu_wake(self, vcpu: VCPU) -> None:
        """*vcpu* gained runnable work (a job was released)."""

    @abc.abstractmethod
    def on_vcpu_idle(self, vcpu: VCPU, pcpu_index: int) -> None:
        """*vcpu* holds a PCPU but has nothing to run."""

    def on_work_drained(self, vcpu: VCPU) -> None:
        """A job of running *vcpu* retired (its queue may now be empty).

        Fired synchronously at retirement, before the machine's idle
        report; schedulers tracking decision-input changes (e.g. for
        no-op pass elision) hook this.  Default: ignore.
        """

    def on_dispatch_change(self, vm) -> None:
        """Task churn in *vm* (register/adjust/unregister) finished.

        Pending jobs may have moved between the VM's VCPUs (pEDF pin
        transfers) or in or out of the VM, so any of its VCPUs may have
        gained or lost runnable work without a wake or a retirement.
        Default: ignore.
        """

    def account(self, vcpu: VCPU, pcpu_index: int, elapsed: int) -> None:
        """*vcpu* occupied *pcpu_index* for *elapsed* ns (wall-clock).

        Budget- and credit-based schedulers override this to burn budget.
        """

    # -- fault hooks -----------------------------------------------------------------

    def on_pcpu_failed(self, pcpu_index: int, victim: Optional[VCPU]) -> None:
        """PCPU *pcpu_index* went offline; *victim* was evicted from it.

        The machine already vacated the PCPU.  Schedulers override this
        to migrate the victim / repartition; default: ignore (the next
        scheduling pass will simply find one PCPU fewer).
        """

    def on_pcpu_recovered(self, pcpu_index: int) -> None:
        """PCPU *pcpu_index* came back online.  Default: ignore."""

    # -- timer jitter (fault injection) ----------------------------------------------

    def set_timer_jitter(self, source, max_ns: int) -> None:
        """Inject up to *max_ns* of jitter into timer re-arming.

        *source* is a :class:`repro.simcore.rng.RandomSource`; pass
        ``max_ns=0`` (or ``source=None``) to disable.  Models a sloppy
        hypervisor clock on budget-replenishment timers.
        """
        self._jitter_source = source if max_ns > 0 else None
        self._jitter_max = max_ns if source is not None else 0

    def timer_jitter(self) -> int:
        """One jitter sample in ``[0, max_ns]`` (0 when disabled)."""
        if self._jitter_source is None or self._jitter_max <= 0:
            return 0
        return self._jitter_source.uniform_int(0, self._jitter_max)

    # -- lifecycle -------------------------------------------------------------------

    @abc.abstractmethod
    def start(self) -> None:
        """Begin scheduling: set up the initial assignment and timers."""
