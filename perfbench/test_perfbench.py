"""Tests for the benchmark itself.

    python3 -m pytest perfbench -q

Most tests use a 100 ms simulated horizon; the gedf-dense cross-check
and the command-line run use the benchmark's own horizons.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import measure  # noqa: E402
from perfbench.scenarios import WORKLOADS, digest  # noqa: E402
from repro.experiments.fig5_memcached import _run_5b_rtvirt  # noqa: E402
from repro.simcore.engine import Engine  # noqa: E402
from repro.simcore.time import MSEC  # noqa: E402

SHORT_NS = 100 * MSEC
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(section: str) -> set:
    return {m["name"] for m in DECLARED[section]}


def short(name: str, **changes):
    """The workload *name* cut to a 100 ms horizon of 10 windows."""
    return dataclasses.replace(WORKLOADS[name], horizon_ns=SHORT_NS, window_ns=10 * MSEC, **changes)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_reports_every_end_to_end_metric(name):
    out = measure.measure(short(name), 1, 0, {})
    assert out.correct, out.errors
    assert out.attempted == 1
    assert set(out.metrics) == declared("end_to_end")
    assert all(value > 0 for value in out.metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_traced_run_reports_every_layer_metric(name):
    out = measure.traced(short(name), 1, 0, {})
    assert out.correct, out.errors
    assert set(out.metrics) == declared("per_layer")
    # The tracer restores every class it patched.
    assert not hasattr(Engine._execute_batch, "_perfbench_original")


def test_perturbed_reference_digest_is_a_failed_run():
    workload = short("churn-audited")
    good = measure.measure(workload, 1, 0, {})
    entry = dict(good.record["outputs"], digest=good.record["outputs"]["digest"][::-1])
    bad = measure.measure(workload, 1, 0, {workload.name: {"1": entry}})
    assert (bad.attempted, bad.failed, bad.correct) == (1, 1, False)
    assert "digest" in bad.errors[0]


def test_isolation_check_trips_on_the_wrong_scheduler():
    # gedf-dense predicts DP-WRAP bypassed; point it at an RTVirt system.
    wrong = short("gedf-dense", build=WORKLOADS["fig5b-rtvirt"].build)
    out = measure.traced(wrong, 1, 0, {})
    assert not out.correct
    assert any("bypassed" in e and "dpwrap" in e for e in out.errors)


def test_windows_do_not_change_simulated_outputs():
    workload = short("fig5b-rtvirt")
    rep = measure.run_rep(workload, 3)
    built = workload.build(3, SHORT_NS)
    built.system.run(SHORT_NS)
    built.system.finalize()
    assert digest(built.outputs()) == rep.digest


def test_fig5b_matches_the_registry_scenario():
    rep = measure.run_rep(short("fig5b-rtvirt"), 3)
    assert rep.outputs["mc_p999_us"] == _run_5b_rtvirt(SHORT_NS, 3).p999_usec


def test_gedf_dense_reproduces_the_engine_microbenchmark():
    # BENCH_engine.json, written by benchmarks/bench_engine_throughput.py
    # for the same scenario at a 4 s horizon.
    rep = measure.run_rep(WORKLOADS["gedf-dense"], 1)
    assert rep.outputs["events"] == 79210
    assert rep.outputs["deadline_miss_ratio"] == pytest.approx(0.6252677778358325, abs=1e-15)
    reference = measure.load_reference()
    assert measure.expected_for(reference, "gedf-dense", 12345)["digest"] == rep.digest


def test_command_line_run_checks_the_recorded_reference():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-audited",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert record["record"]["reference"] == "recorded"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == declared("end_to_end")


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gedf-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
