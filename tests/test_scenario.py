"""Tests for the declarative scenario runner."""

import json

import pytest

from repro.scenario import run_scenario, run_scenario_file
from repro.simcore.errors import ConfigurationError


def basic_spec(**overrides):
    spec = {
        "system": {"type": "rtvirt", "pcpus": 1, "slack_us": 0},
        "duration_s": 3,
        "seed": 1,
        "vms": [
            {
                "name": "vm1",
                "tasks": [{"name": "rta1", "slice_ms": 2, "period_ms": 10}],
            }
        ],
    }
    spec.update(overrides)
    return spec


class TestRTVirtScenarios:
    def test_basic_periodic(self):
        result = run_scenario(basic_spec())
        assert result.report.total_missed == 0
        assert result.report.total_released >= 299

    def test_multiple_vms_high_utilization(self):
        # ~87% utilization: feasible under the realistic cost model the
        # scenario runner uses (100% would need zero overheads).  The
        # default 500 µs slack absorbs the scheduling overhead.
        spec = basic_spec(
            system={"type": "rtvirt", "pcpus": 1},
            vms=[
                {"name": "a", "tasks": [{"name": "t1", "slice_ms": 5, "period_ms": 15}]},
                {"name": "b", "tasks": [{"name": "t2", "slice_ms": 4, "period_ms": 10}]},
                {"name": "c", "tasks": [{"name": "t3", "slice_ms": 4, "period_ms": 30}]},
            ]
        )
        result = run_scenario(spec)
        assert result.report.total_missed == 0

    def test_sporadic_task(self):
        spec = basic_spec(
            vms=[
                {
                    "name": "sp",
                    "tasks": [
                        {
                            "name": "sp1",
                            "slice_ms": 2,
                            "period_ms": 50,
                            "kind": "sporadic",
                            "max_requests": 10,
                        }
                    ],
                }
            ],
            duration_s=15,
        )
        result = run_scenario(spec)
        assert result.report.per_task["sp1"].released == 10
        assert result.report.total_missed == 0

    def test_background_vm(self):
        spec = basic_spec()
        spec["vms"].append({"name": "bg", "background": True})
        result = run_scenario(spec)
        assert result.report.total_missed == 0

    def test_phase_offset(self):
        spec = basic_spec()
        spec["vms"][0]["tasks"][0]["phase_ms"] = 5
        result = run_scenario(spec)
        assert result.report.total_released >= 298

    def test_summary_readable(self):
        result = run_scenario(basic_spec(), name="demo")
        text = result.summary()
        assert "demo" in text and "deadlines met" in text


class TestOtherSystems:
    def test_credit_scenario(self):
        spec = basic_spec(system={"type": "credit", "pcpus": 1, "timeslice_us": 1000})
        result = run_scenario(spec)
        assert result.report.total_released > 0

    def test_rtxen_scenario_auto_csa(self):
        spec = basic_spec(system={"type": "rtxen", "pcpus": 1})
        result = run_scenario(spec)
        assert result.report.total_missed == 0

    def test_rtxen_explicit_interface(self):
        spec = basic_spec(system={"type": "rtxen", "pcpus": 1})
        spec["vms"][0]["interface_us"] = [3000, 10000]
        result = run_scenario(spec)
        assert result.report.total_missed == 0

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario(basic_spec(system={"type": "xen5"}))

    def test_missing_field_rejected(self):
        spec = basic_spec()
        del spec["vms"][0]["tasks"][0]["period_ms"]
        with pytest.raises(ConfigurationError):
            run_scenario(spec)


class TestFileLoading:
    def test_run_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(basic_spec()))
        result = run_scenario_file(str(path))
        assert result.report.total_missed == 0

    def test_cli_scenario_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(basic_spec()))
        assert main(["scenario", str(path)]) == 0
        assert "deadlines met" in capsys.readouterr().out

    def test_cli_scenario_derives_telemetry_and_blame(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(basic_spec(duration_s=1)))
        chrome = tmp_path / "timeline.json"
        argv = ["scenario", str(path), "--telemetry", "--blame"]
        assert main(argv + ["--chrome-trace", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "deadlines met" in out
        assert "(100 decided)" in out
        assert "deadline-miss blame (0/0 misses explained)" in out
        # a live consumer still observes the recorded run
        assert "chrome trace:" in out and chrome.exists()

    def test_cli_explain_scenario(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(basic_spec(duration_s=1)))
        assert main(["explain", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"scenario {str(path)!r}: 1s simulated")
        assert "deadline-miss blame" in out
