"""The determinism oracle (``tools/check_determinism.py``), run in-process.

Only cheap subjects are used: ``table2`` and ``fig3`` are analytic,
and ``plan:trace`` simulates six one-second cells.
"""

import importlib.util
import json
import os

import pytest

from repro.runner import ResultCache

_TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "check_determinism.py")
_spec = importlib.util.spec_from_file_location("check_determinism", _TOOL)
check_determinism = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_determinism)

#: Recorded by the tool's earlier, mode-per-flag version: the baseline
#: format (``{id: {rows, sha256, wall_s}}``) must keep checking.
OLD_FORMAT_BASELINE = {
    "fig3": {
        "rows": 6,
        "sha256": "14997b4e7772f0d084f2f43c6743669d8feb7e8cc0848e901e943e051a576129",
        "wall_s": 0.07,
    },
    "table2": {
        "rows": 4,
        "sha256": "ba7608c8951c53e5b98817c4843170f0cb2b8a4b39aeb16dc530a09c5bd402f2",
        "wall_s": 0.01,
    },
}


def run_tool(*argv) -> int:
    return check_determinism.main(list(argv))


def test_cheap_subjects_pass_every_variant(capsys):
    status = run_tool(
        "--only", "table2,fig3,plan:trace",
        "--variants", "pool,heap,cache",
        "--jobs", "2",
    )
    out = capsys.readouterr().out
    assert status == 0, out
    assert "plan:trace/merged: pool 2305d3c25d0de8db" in out
    assert "plan:trace/merged: heap 2305d3c25d0de8db" in out
    # blame derived from the traces equals the old live-span sweep's cell
    assert "plan:trace/blame/pcpu_fail/RT-Xen: pool 8df284ced478ae7f" in out
    assert "table2: cache ba7608c8951c53e5" in out
    assert "3 subject(s) byte-identical (serial + pool + heap + cache)" in out


def test_old_format_baseline_checks(tmp_path, capsys):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(OLD_FORMAT_BASELINE))
    assert run_tool("--check", str(path), "--only", "table2,fig3") == 0

    stale = dict(OLD_FORMAT_BASELINE)
    stale["fig3"] = dict(stale["fig3"], sha256="0" * 64)
    path.write_text(json.dumps(stale))
    capsys.readouterr()
    assert run_tool("--check", str(path), "--only", "table2,fig3") == 1
    assert "fig3 × baseline: 14997b4e7772f0d0 != baseline 0000000000000000" in (
        capsys.readouterr().out
    )


def test_record_then_check_round_trips_plans(tmp_path):
    path = tmp_path / "baseline.json"
    assert run_tool("--record", str(path), "--only", "fig3,plan:trace") == 0
    recorded = json.loads(path.read_text())
    assert sorted(recorded) == ["fig3", "plan:trace"]
    assert recorded["fig3"]["sha256"] == OLD_FORMAT_BASELINE["fig3"]["sha256"]
    assert recorded["plan:trace"]["rows"] == 6  # two faults, three schedulers
    assert run_tool("--check", str(path), "--only", "fig3,plan:trace") == 0


def test_divergent_variant_fails_naming_subject_and_variant(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_EVENT_QUEUE", raising=False)
    build, project = check_determinism.PLANS["plan:trace"]

    def queue_sensitive(result):
        digest = project(result)
        digest["plan:trace/queue"] = os.environ.get("REPRO_EVENT_QUEUE", "calendar")
        return digest

    monkeypatch.setitem(check_determinism.PLANS, "plan:trace", (build, queue_sensitive))
    status = run_tool("--only", "plan:trace", "--variants", "pool,heap")
    out = capsys.readouterr().out
    assert status == 1
    assert "plan:trace × heap: plan:trace/queue heap != serial calendar" in out
    assert "plan:trace × pool" not in out
    assert "REPRO_EVENT_QUEUE" not in os.environ  # the variant restored it


def test_cache_variant_fails_when_the_warm_run_misses(monkeypatch, capsys):
    monkeypatch.setattr(
        check_determinism, "ResultCache", lambda path: ResultCache(path, enabled=False)
    )
    assert run_tool("--only", "fig3", "--variants", "cache") == 1
    assert "fig3 × cache: warm run hit 0/1 units" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("--variants", "replay"),
        ("--only", "no_such_experiment", "--variants", "heap"),
        ("--only", "table2", "--check", "no/such/baseline.json"),
    ],
)
def test_invalid_invocations_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run_tool(*argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "content",
    ['{"table2": "abc"}', '{"table2": {"rows": 4}}', "[1, 2]", "not json"],
)
def test_malformed_baseline_is_a_usage_error_before_any_run(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        run_tool("--only", "table2", "--check", str(path))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "running" not in captured.out
    assert str(path) in captured.err
