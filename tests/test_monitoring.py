"""Tests for usage monitoring and the idle-CPU tax (§6 extensions)."""

from fractions import Fraction

import pytest

from repro.core.system import RTVirtSystem
from repro.guest.task import Task
from repro.host.costs import ZERO_COSTS
from repro.monitoring import IdleCpuTax, UsageMonitor
from repro.simcore.errors import ConfigurationError
from repro.simcore.time import msec, sec
from repro.workloads.periodic import PeriodicDriver


def build_system(honest_bw=(2, 10), claimed_bw=(6, 10)):
    """One honest VM (uses its grant) and one over-claimer (claims 0.6,
    uses 0.1)."""
    system = RTVirtSystem(pcpu_count=1, cost_model=ZERO_COSTS, slack_ns=0)
    honest_vm = system.create_vm("honest")
    honest = Task("honest.t", msec(honest_bw[0]), msec(honest_bw[1]))
    honest_vm.register_task(honest)
    PeriodicDriver(system.engine, honest_vm, honest).start()

    greedy_vm = system.create_vm("greedy")
    greedy = Task("greedy.t", msec(claimed_bw[0]), msec(claimed_bw[1]))
    greedy_vm.register_task(greedy)
    # The greedy task claims 0.6 but only ever runs 1 ms per 10 ms.
    driver = PeriodicDriver(system.engine, greedy_vm, greedy)
    original = driver._release

    def light_release():
        if driver._stopped:
            return
        greedy_vm.release_job(greedy, now=system.engine.now, work=msec(1))
        driver._event = system.engine.after(greedy.period_ns, light_release)

    driver._release = light_release
    driver.start()
    return system, honest_vm, greedy_vm


class TestUsageMonitor:
    def test_idle_ratio_separates_honest_from_greedy(self):
        system, honest_vm, greedy_vm = build_system()
        monitor = UsageMonitor(system, window_ns=msec(500)).start()
        system.run(sec(3))
        assert monitor.idle_ratio(honest_vm.vcpus[0]) < 0.1
        assert monitor.idle_ratio(greedy_vm.vcpus[0]) > 0.5

    def test_over_claimers_listed(self):
        system, honest_vm, greedy_vm = build_system()
        monitor = UsageMonitor(system, window_ns=msec(500)).start()
        system.run(sec(3))
        assert monitor.over_claimers(threshold=0.5) == [greedy_vm.vcpus[0].uid]

    def test_samples_cover_windows(self):
        system, honest_vm, _ = build_system()
        monitor = UsageMonitor(system, window_ns=msec(500)).start()
        system.run(sec(2))
        samples = monitor.samples[honest_vm.vcpus[0].uid]
        assert len(samples) >= 3
        assert all(s.window_end - s.window_start == msec(500) for s in samples)

    def test_invalid_window_rejected(self):
        system, _, _ = build_system()
        with pytest.raises(ConfigurationError):
            UsageMonitor(system, window_ns=0)

    def test_start_idempotent(self):
        system, _, _ = build_system()
        monitor = UsageMonitor(system, window_ns=msec(500)).start()
        monitor.start()
        system.run(sec(1))


class TestIdleCpuTax:
    def test_assessment_targets_greedy_only(self):
        system, honest_vm, greedy_vm = build_system()
        monitor = UsageMonitor(system, window_ns=msec(500)).start()
        system.run(sec(3))
        assessments = IdleCpuTax().assess(monitor)
        taxed = {a.vcpu.uid for a in assessments}
        assert greedy_vm.vcpus[0].uid in taxed
        assert honest_vm.vcpus[0].uid not in taxed

    def test_apply_reclaims_bandwidth(self):
        system, _, greedy_vm = build_system()
        monitor = UsageMonitor(system, window_ns=msec(500)).start()
        system.run(sec(3))
        before = system.total_rt_bandwidth
        tax = IdleCpuTax(tax_rate=1.0, protect_ratio=0.0)
        reclaimed = tax.apply(system, tax.assess(monitor))
        assert reclaimed > Fraction(1, 3)  # most of the greedy 0.6 claim
        assert system.total_rt_bandwidth == before - reclaimed

    def test_apply_submits_dec_bw_through_the_port(self):
        system, _, _ = build_system()
        monitor = UsageMonitor(system, window_ns=msec(500)).start()
        system.run(sec(3))
        tax = IdleCpuTax(tax_rate=1.0, protect_ratio=0.0)
        assessments = tax.assess(monitor)
        assert assessments
        seen = []
        system.control.observe(lambda action, result: seen.append(action))
        tax.apply(system, assessments)
        # Each DEC_BW also triggers the host's nested admission decrease.
        dec_bw = [action for action in seen if action.kind == "dec_bw"]
        assert len(dec_bw) == len(assessments)
        for action, assessment in zip(dec_bw, assessments):
            vcpu = assessment.vcpu
            assert action.port is vcpu.vm.port
            assert action.updates == (
                (vcpu, assessment.taxed_budget_ns, vcpu.period_ns),
            )

    def test_honest_workload_survives_taxation(self):
        system, honest_vm, greedy_vm = build_system()
        monitor = UsageMonitor(system, window_ns=msec(500)).start()
        system.run(sec(2))
        tax = IdleCpuTax(tax_rate=0.75, protect_ratio=0.1)
        tax.apply(system, tax.assess(monitor))
        system.run(sec(2))
        system.finalize()
        honest = honest_vm.rt_tasks[0]
        assert honest.stats.missed == 0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            IdleCpuTax(tax_rate=1.5)
        with pytest.raises(ConfigurationError):
            IdleCpuTax(protect_ratio=1.0)

    def test_protect_ratio_shields_bursty(self):
        system, honest_vm, _ = build_system(honest_bw=(2, 10))
        monitor = UsageMonitor(system, window_ns=msec(500)).start()
        system.run(sec(2))
        # Idle ratio of the honest VM is ~0; a generous protect ratio
        # yields no assessment for it even with a 100% tax rate.
        tax = IdleCpuTax(tax_rate=1.0, protect_ratio=0.2)
        taxed = {a.vcpu.uid for a in tax.assess(monitor)}
        assert honest_vm.vcpus[0].uid not in taxed
