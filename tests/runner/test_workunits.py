"""Tests for the work-unit decomposition of the experiment registry."""

import pytest

from repro.experiments import registry
from repro.runner.workunits import (
    WorkUnit,
    build_plans,
    execute_unit,
    plan_for,
    resolve,
)
from repro.simcore.time import sec


class TestPlanShape:
    def test_every_registry_entry_has_a_plan(self):
        for experiment_id in registry.all_ids():
            plan = plan_for(experiment_id)
            assert plan.experiment_id == experiment_id
            assert plan.units

    def test_registry_entry_without_a_plan_raises(self, monkeypatch):
        monkeypatch.setitem(registry.REGISTRY, "no_plan", registry.REGISTRY["table2"])
        with pytest.raises(KeyError, match="no work-unit plan"):
            plan_for("no_plan")

    def test_unit_ids_are_globally_unique(self):
        seen = set()
        for plan in build_plans():
            for unit in plan.units:
                assert unit.unit_id not in seen
                seen.add(unit.unit_id)
                assert unit.experiment_id == plan.experiment_id

    def test_sharded_experiments_have_multiple_units(self):
        for experiment_id, expected in (
            ("table1", 12),
            ("sporadic", 12),
            ("table4", 3),
            ("fig4", 4),
            ("fig5a", 4),
            ("fig5b", 4),
            ("table6", 3),
        ):
            assert len(plan_for(experiment_id).units) == expected

    def test_every_unit_fn_resolves(self):
        for plan in build_plans():
            for unit in plan.units:
                assert callable(resolve(unit.fn))

    def test_build_plans_keeps_canonical_order(self):
        plans = build_plans(["fig3", "table1"])
        assert [p.experiment_id for p in plans] == ["table1", "fig3"]

    def test_unknown_ids_rejected(self):
        with pytest.raises(KeyError):
            plan_for("nope")
        with pytest.raises(KeyError):
            build_plans(["fig3", "nope"])


class TestFingerprint:
    def test_depends_on_salt_and_kwargs(self):
        unit = WorkUnit("fig3", "fig3/whole", "m:f", (("a", 1),))
        assert unit.fingerprint("s1") != unit.fingerprint("s2")
        other = WorkUnit("fig3", "fig3/whole", "m:f", (("a", 2),))
        assert unit.fingerprint("s1") != other.fingerprint("s1")

    def test_stable_across_instances(self):
        a = WorkUnit("fig3", "fig3/whole", "m:f", (("a", 1),))
        b = WorkUnit("fig3", "fig3/whole", "m:f", (("a", 1),))
        assert a.fingerprint("s") == b.fingerprint("s")


class TestShardAssemblyEquivalence:
    """Shard parts reassembled in the parent equal the monolithic run.

    Uses sharply shortened durations: the shard and serial paths share
    all the code that matters, so equality at 1-2 simulated seconds
    carries to the full-length runs (the determinism tool verifies those
    at full length).
    """

    def test_table1(self):
        from repro.experiments.table1_periodic import (
            run_group_rtvirt,
            run_group_rtxen,
            run_table1,
        )
        from repro.runner.workunits import _assemble_table1

        duration = sec(2)
        parts = [
            run_group_rtvirt("H-Equiv", duration),
            run_group_rtxen("H-Equiv", duration),
        ]
        assembled = _assemble_table1(parts)
        serial = run_table1(duration, groups=["H-Equiv"])
        assert assembled.rows() == serial.rows()
        assert assembled.summary() == serial.summary()

    def test_fig4(self):
        from repro.experiments.fig4_dynamic import (
            FIG4_VM_COUNT,
            assemble_fig4,
            run_fig4,
            run_fig4_vm,
        )

        duration = sec(2)
        parts = [
            run_fig4_vm(vm_index, duration_ns=duration)
            for vm_index in range(FIG4_VM_COUNT)
        ]
        assembled = assemble_fig4(parts)
        serial = run_fig4(duration_ns=duration)
        assert assembled.rows() == serial.rows()
        assert assembled.summary() == serial.summary()

    def test_table4(self):
        from repro.experiments.table4_dedicated import (
            TABLE4_SCHEDULERS,
            run_table4,
            run_table4_scheduler,
        )
        from repro.runner.workunits import _assemble_table4

        duration = sec(2)
        parts = [run_table4_scheduler(s, duration) for s in TABLE4_SCHEDULERS]
        assembled = _assemble_table4(parts)
        serial = run_table4(duration)
        assert assembled.rows() == serial.rows()
        assert assembled.summary() == serial.summary()

    def test_fig5a(self):
        from repro.experiments.fig5_memcached import (
            FIG5_SCHEDULERS,
            run_fig5a,
            run_fig5a_scheduler,
        )
        from repro.runner.workunits import _assemble_fig5a

        duration = sec(2)
        parts = [run_fig5a_scheduler(s, duration) for s in FIG5_SCHEDULERS]
        assembled = _assemble_fig5a(parts)
        serial = run_fig5a(duration)
        assert assembled.rows() == serial.rows()
        assert assembled.summary() == serial.summary()

    def test_table6(self):
        from repro.experiments.table6_overhead import (
            TABLE6_SCENARIOS,
            run_table6,
            run_table6_scenario,
            rtxen_capacities,
        )
        from repro.runner.workunits import _assemble_table6

        duration = sec(1)
        parts = [run_table6_scenario(s, duration) for s in TABLE6_SCENARIOS]
        parts.append(rtxen_capacities(analyze_rtxen=False))
        assembled = _assemble_table6(parts)
        serial = run_table6(duration, analyze_rtxen=False)
        assert assembled.rows() == serial.rows()
        assert assembled.summary() == serial.summary()


class TestWholePlans:
    """Monolithic experiments bypass the registry-dispatching fallback."""

    def test_direct_fns_point_at_experiment_modules(self):
        for experiment_id, module in (
            ("fig1", "repro.experiments.fig1_motivation"),
            ("fig3", "repro.experiments.fig3_bandwidth"),
            ("table2", "repro.experiments.table2_config"),
        ):
            (unit,) = plan_for(experiment_id).units
            assert unit.fn.startswith(f"{module}:")
            assert unit.payload  # stripped to rows/summary in the worker

    def test_sharded_units_never_strip(self):
        for unit in plan_for("fig4").units:
            assert not unit.payload

    def test_payload_flag_not_in_fingerprint(self):
        """Payload stripping is an execution detail, not a cache input."""
        plain = WorkUnit("fig3", "fig3/whole", "m:f", payload=False)
        stripped = WorkUnit("fig3", "fig3/whole", "m:f", payload=True)
        assert plain.fingerprint("s") == stripped.fingerprint("s")


class TestExecuteUnit:
    def test_whole_unit_returns_payload(self):
        unit = plan_for("table2").units[0]
        payload = execute_unit(unit)
        assert payload["rows"]
        assert isinstance(payload["summary"], str)

    def test_resolve_rejects_bad_path(self):
        with pytest.raises(ValueError):
            resolve("no.colon.here")
