"""The gEDF-DS ranked eligible list against brute force, batch by batch.

:class:`EDFHostScheduler` keeps the servers with budget *and* runnable
work sorted by (deadline, uid) as state, updated only where an input of
that predicate changes.  Each case below drives one path that moves an
input — task churn on a live VM, a gEDF guest's VM-wide counter, the
partitioned host, PCPU faults, VM shutdown, a live migration's
extract/adopt — and after every event batch compares the list with a
filter-and-sort over the full server table.
"""

import pytest

from repro.baselines.rtxen import RTXenSystem
from repro.guest.task import Task
from repro.simcore.time import msec
from repro.workloads.periodic import PeriodicDriver


def _brute_force(scheduler):
    return sorted(
        (
            server
            for server in scheduler._servers.values()
            if server.remaining > 0 and server.vcpu.vm.vcpu_has_work(server.vcpu)
        ),
        key=lambda server: (server.deadline, server.vcpu.uid),
    )


def _check(scheduler, where):
    ranked = [s.vcpu.name for s in scheduler._eligible()]
    expected = [s.vcpu.name for s in _brute_force(scheduler)]
    assert ranked == expected, f"{where}: ranked {ranked}, brute force {expected}"
    assert sum(s.ranked for s in scheduler._servers.values()) == len(ranked)


def _run_checked(system, duration_ns):
    """Step *system* one event batch at a time for *duration_ns*, checking
    the ranked list at every decision and after every batch; returns the
    number of batches."""
    scheduler = system.scheduler
    engine = system.engine
    choose = scheduler._choose

    def checked_choose():
        _check(scheduler, f"decision at t={engine.now}")
        return choose()

    scheduler._choose = checked_choose
    system.machine.start()
    end = engine.now + duration_ns
    batches = 0
    while True:
        now = engine.run_next()
        if now is None or now > end:
            return batches
        batches += 1
        _check(scheduler, f"after batch at t={now}")


def _contended(host):
    """Two PCPUs, three periodic single-VCPU VMs and a background VM."""
    system = RTXenSystem(pcpu_count=2, host=host)
    for i in range(3):
        vm = system.create_vm(f"rt{i}", interfaces=[(msec(3), msec(10))])
        task = Task(f"rt{i}.t", msec(2), msec(10))
        system.register_rta(vm, task)
        PeriodicDriver(system.engine, vm, task, phase_ns=msec(i)).start()
    system.create_background_vm("bg")
    return system


def _unregister_pending(system):
    """A task is unregistered while its job is still queued."""
    vm = system.create_vm("churn", interfaces=[(msec(4), msec(10))])
    task = Task("churn.t", msec(2), msec(10))
    system.register_rta(vm, task)

    def unregister():
        assert task.has_work
        vm.unregister_task(task)

    system.engine.at(msec(12), lambda: vm.release_job(task, work=msec(4)))
    system.engine.at(msec(12) + msec(1) // 2, unregister)


def _register_reshuffles(system):
    """Registration re-packs the VM's tasks, moving a queued job's task
    to the other VCPU (a has-work crossing on both, with no wake)."""
    vm = system.create_vm("churn", interfaces=[(msec(5), msec(10))] * 2)
    a = Task("churn.a", msec(5), msec(10))
    b = Task("churn.b", msec(3), msec(10))
    c = Task("churn.c", msec(5), msec(10))
    for task in (a, b, c):
        system.register_rta(vm, task)
    assert a.vcpu is vm.vcpus[0] and c.vcpu is vm.vcpus[1]

    def register():
        assert a.has_work
        system.register_rta(vm, Task("churn.d", msec(6), msec(10)))
        assert a.vcpu is vm.vcpus[1]

    system.engine.at(msec(12), lambda: vm.release_job(a, work=msec(4)))
    system.engine.at(msec(12) + msec(1) // 5, register)


def _adjust_moves(system):
    """An adjustment that no longer fits moves the task, and its queued
    job, to the other VCPU."""
    vm = system.create_vm("churn", interfaces=[(msec(5), msec(10))] * 2)
    a = Task("churn.a", msec(5), msec(10))
    b = Task("churn.b", msec(5), msec(10))
    c = Task("churn.c", msec(2), msec(10))
    for task in (a, b, c):
        system.register_rta(vm, task)
    assert a.vcpu is vm.vcpus[0] and c.vcpu is vm.vcpus[1]

    def adjust():
        assert a.has_work
        vm.adjust_task(a, msec(6), msec(10))
        assert a.vcpu is vm.vcpus[1]

    system.engine.at(msec(12), lambda: vm.release_job(a, work=msec(4)))
    system.engine.at(msec(12) + msec(1) // 5, adjust)


def _gedf_guest(system):
    """A two-VCPU gEDF guest: one VM-wide counter feeds both servers.
    A lone job retires on one VCPU while the other idles with budget,
    and one task is unregistered with a job queued."""
    vm = system.create_vm("gedf", interfaces=[(msec(4), msec(10))] * 2, scheduler="gedf")
    tasks = [Task(f"gedf.t{i}", msec(3), msec(10)) for i in range(2)]
    for i, task in enumerate(tasks):
        system.register_rta(vm, task)
        PeriodicDriver(system.engine, vm, task, phase_ns=msec(i), until=msec(30)).start()
    late = Task("gedf.late", msec(2), msec(10))
    system.register_rta(vm, late)

    def unregister():
        assert late.has_work
        vm.unregister_task(late)

    system.engine.at(msec(35), lambda: vm.release_job(late, work=msec(1)))
    system.engine.at(msec(41), lambda: vm.release_job(late, work=msec(4)))
    system.engine.at(msec(41) + msec(1) // 2, unregister)


def _pcpu_fault(system):
    """A PCPU fails under load and recovers."""
    system.engine.at(msec(7), system.fail_pcpu, 1)
    system.engine.at(msec(23), system.recover_pcpu, 1)


def _shutdown(system):
    """A VM is shut down while its job is queued."""
    vm = system.create_vm("doomed", interfaces=[(msec(4), msec(10))])
    task = Task("doomed.t", msec(3), msec(10))
    system.register_rta(vm, task)
    PeriodicDriver(system.engine, vm, task, until=msec(25)).start()

    def shutdown():
        assert task.has_work
        system.shutdown_vm(vm)

    system.engine.at(msec(21), shutdown)


def _migrate(system):
    """A VM is extracted for a stop-and-copy blackout and adopted back;
    jobs released during the blackout wake it on adoption."""
    vm = system.create_vm("mover", interfaces=[(msec(4), msec(10))])
    task = Task("mover.t", msec(3), msec(10))
    system.register_rta(vm, task)
    PeriodicDriver(system.engine, vm, task).start()
    system.engine.at(msec(11), system.extract_vm, vm)
    system.engine.at(msec(33), system.adopt_vm, vm)


CASES = {
    "unregister-pending": ("gedf", _unregister_pending),
    "register-reshuffle": ("gedf", _register_reshuffles),
    "adjust-move": ("gedf", _adjust_moves),
    "gedf-guest": ("gedf", _gedf_guest),
    "pedf-host": ("pedf", _unregister_pending),
    "pcpu-fault": ("gedf", _pcpu_fault),
    "pcpu-fault-pedf": ("pedf", _pcpu_fault),
    "shutdown": ("gedf", _shutdown),
    "migrate": ("gedf", _migrate),
}

#: Cases with a has-work crossing that only task churn causes, which
#: reaches the host scheduler solely through ``on_dispatch_change``.
CHURN_CASES = [
    "unregister-pending",
    "register-reshuffle",
    "adjust-move",
    "gedf-guest",
    "pedf-host",
]


@pytest.mark.parametrize("case", sorted(CASES))
def test_ranked_list_matches_brute_force_after_every_batch(case):
    host, setup = CASES[case]
    system = _contended(host)
    setup(system)
    assert _run_checked(system, msec(60)) > 50


@pytest.mark.parametrize("case", CHURN_CASES)
def test_check_catches_a_missing_dispatch_change_hook(case):
    """Without the churn hook the list goes stale and the check trips,
    so the cases above really cover that input."""
    host, setup = CASES[case]
    system = _contended(host)
    system.scheduler.on_dispatch_change = lambda vm: None
    setup(system)
    with pytest.raises(AssertionError, match="brute force"):
        _run_checked(system, msec(60))
