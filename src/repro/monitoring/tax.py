"""The idle-CPU tax (paper §6).

Modelled after the idle-memory tax VMware ESX uses for memory
reclamation (which the paper cites as the inspiration): when the
system's RT bandwidth is oversubscribed, each VCPU's grant is reduced
in proportion to its observed idle ratio, reclaiming bandwidth from
over-claimers while leaving honest reservations intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from ..control.actions import DecBandwidth
from ..guest.vcpu import VCPU
from ..simcore.errors import ConfigurationError
from .usage import UsageMonitor


@dataclass(frozen=True)
class TaxAssessment:
    """A proposed grant reduction for one VCPU."""

    vcpu: VCPU
    idle_ratio: float
    current_budget_ns: int
    taxed_budget_ns: int

    @property
    def reclaimed_bw(self) -> Fraction:
        return Fraction(
            self.current_budget_ns - self.taxed_budget_ns, self.vcpu.period_ns
        )


class IdleCpuTax:
    """Computes and applies idle-ratio-proportional grant deductions."""

    def __init__(self, tax_rate: float = 0.75, protect_ratio: float = 0.1) -> None:
        """*tax_rate* is the fraction of observed idle bandwidth reclaimed;
        *protect_ratio* is the idle fraction always tolerated (bursty RTAs
        legitimately idle part of their reservation)."""
        if not 0 <= tax_rate <= 1:
            raise ConfigurationError(f"tax rate must be in [0,1], got {tax_rate}")
        if not 0 <= protect_ratio < 1:
            raise ConfigurationError(f"protect ratio must be in [0,1), got {protect_ratio}")
        self.tax_rate = tax_rate
        self.protect_ratio = protect_ratio

    def assess(self, monitor: UsageMonitor, windows: int = 5) -> List[TaxAssessment]:
        """Assessments for every monitored VCPU with a taxable idle share."""
        out: List[TaxAssessment] = []
        for vm in monitor.system.vms:
            for vcpu in vm.vcpus:
                if vcpu.budget_ns <= 0:
                    continue
                idle = monitor.idle_ratio(vcpu, windows)
                taxable = max(0.0, idle - self.protect_ratio)
                if taxable <= 0:
                    continue
                deduction = round(vcpu.budget_ns * taxable * self.tax_rate)
                if deduction <= 0:
                    continue
                out.append(
                    TaxAssessment(
                        vcpu=vcpu,
                        idle_ratio=idle,
                        current_budget_ns=vcpu.budget_ns,
                        taxed_budget_ns=vcpu.budget_ns - deduction,
                    )
                )
        return out

    def apply(self, system, assessments: List[TaxAssessment]) -> Fraction:
        """Apply the deductions as DEC_BW actions on *system*'s port.

        Returns the total bandwidth reclaimed.  Only used when the host is
        oversubscribed; the paper notes public-cloud billing already
        disincentivises over-claiming in the common case.
        """
        reclaimed = Fraction(0)
        for assessment in assessments:
            vcpu = assessment.vcpu
            system.control.submit(
                DecBandwidth(
                    port=vcpu.vm.port,
                    updates=((vcpu, assessment.taxed_budget_ns, vcpu.period_ns),),
                )
            )
            reclaimed += assessment.reclaimed_bw
        return reclaimed
