#!/usr/bin/env python
"""Determinism oracle: every subject hashes the same under every variant.

A *subject* is a registry experiment, hashed as the canonical JSON of
its ``rows()``, or ``plan:trace``, the flight-recorder sweep that lives
outside the registry (pcpu_fail and vm_churn under every scheduler, 1
simulated second, seed 11).  Its digest holds the merged canonical
trace hash and every cell's trace hash, plus what the parent derives
from the recorded traces: every cell's blame, the merged blame report
and one merged stream snapshot per scheduler.

Each subject first runs serially, in-process, as the reference.  It is
then re-run under every *variant* named by ``--variants``, and each of
its hashes must equal the reference:

- ``pool``  -- through the work-unit runner with ``--jobs`` worker
  processes and ``REPRO_RUNNER_FORCE_POOL=1``, so shards really merge
  across processes even where the executor would stay in-process;
- ``heap``  -- serially under the reference binary-heap event queue
  (``REPRO_EVENT_QUEUE=heap``);
- ``cache`` -- registry subjects only (plans run uncached): a cold run
  fills a fresh temporary cache, then a warm run must hit every work
  unit and hash the same.

``--record PATH`` writes the serial hashes as a baseline
(``{id: {rows, sha256, wall_s}}``); ``--check PATH`` fails on any
selected subject whose hash differs from it or is missing from it.  The
baseline is read and validated before any subject runs:

    python tools/check_determinism.py --record baseline.json
    ... hack on the scheduler hot path ...
    python tools/check_determinism.py --check baseline.json --variants pool,heap,cache

``--only`` takes comma-separated subject ids or globs (default: every
registry experiment; ``'plan:*'`` selects the plan, ``'*'``
everything).  ``--seed`` overrides the RNG seed of the robustness
family and of the trace plan.  Exit status is 1 when any
subject × variant, or the baseline, diverges; each failure names both.

The single-purpose flags of earlier versions map onto the matrix:

    --parallel N     --variants pool --jobs N
    --queue          --variants heap
    --cache          --variants cache
    --streams N      --only plan:trace --variants pool --jobs N
    --blame N        --only plan:trace --variants pool --jobs N
    --trace N        --only plan:trace --variants pool,heap --jobs N
    --cluster N      --only 'cluster_*' --variants pool --jobs N
    --feedback N     --only 'feedback_*,tenant_*' --variants pool --jobs N
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from fnmatch import fnmatch
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import registry  # noqa: E402
from repro.runner import ResultCache, run_experiments  # noqa: E402
from repro.runner.executor import execute_plan  # noqa: E402
from repro.simcore.time import sec  # noqa: E402
from repro.telemetry.trace_plan import TRACE_SEED, trace_plan  # noqa: E402

VARIANTS = ("pool", "heap", "cache")

#: The environment each variant runs under (cache runs as-is).
VARIANT_ENV = {
    "pool": {"REPRO_RUNNER_FORCE_POOL": "1"},
    "heap": {"REPRO_EVENT_QUEUE": "heap"},
}


def _canonical(value):
    """Make *value* JSON-serialisable without losing precision.

    Floats are rendered through ``repr`` (shortest round-trip form), so
    two runs hash identically iff every metric is bit-identical.
    """
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def rows_hash(rows) -> str:
    """Canonical JSON hash of an experiment's rows."""
    blob = json.dumps(
        _canonical(rows), sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def _cell(part) -> str:
    return f"{part['fault']}/{part['scheduler']}"


def _trace_digest(result) -> dict:
    digest = {"plan:trace/merged": result.merged_hash}
    for part in result.parts:
        digest[f"plan:trace/{_cell(part)}"] = part["hash"]
        digest[f"plan:trace/blame/{_cell(part)}"] = rows_hash(part["blame"])
    digest["plan:trace/blame-merged"] = rows_hash(result.blame.snapshot())
    for scheduler, snapshot in result.streams.items():
        digest[f"plan:trace/streams/{scheduler}"] = rows_hash(snapshot)
    return digest


#: Out-of-registry subjects: name -> (plan builder taking the ``--seed``
#: override, digest projection of the assembled result).
PLANS = {
    "plan:trace": (
        lambda seed: trace_plan(
            faults=("pcpu_fail", "vm_churn"),
            duration_ns=sec(1),
            seed=TRACE_SEED if seed is None else seed,
        ),
        _trace_digest,
    ),
}


def load_baseline(path: str) -> dict:
    """``{subject: sha256}`` of a ``--record`` file; ValueError if unusable."""
    try:
        with open(path) as fh:
            recorded = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read baseline {path}: {exc}") from None
    if not isinstance(recorded, dict) or not all(
        isinstance(entry, dict) and isinstance(entry.get("sha256"), str)
        for entry in recorded.values()
    ):
        raise ValueError(
            f"baseline {path} is not {{id: {{rows, sha256, wall_s}}}} "
            "as written by --record"
        )
    return {subject: entry["sha256"] for subject, entry in recorded.items()}


def select(patterns) -> list:
    """Subjects matching any of *patterns* (ids or globs), in canonical order."""
    order = registry.all_ids() + list(PLANS)
    selected = []
    for pattern in patterns:
        matches = [subject for subject in order if fnmatch(subject, pattern)]
        if not matches:
            raise KeyError(f"no subject matches {pattern!r}")
        selected.extend(m for m in matches if m not in selected)
    return selected


def run_plan(subject: str, seed=None, jobs: int = 1):
    """Digest and cell count of one execution of a plan subject."""
    build, project = PLANS[subject]
    result = execute_plan(build(seed), jobs=jobs)
    return project(result), len(result.parts)


def run_serial(subject: str, seed=None):
    """Digest (``{label: hash}``) and row count of one in-process run.

    Registry subjects run through ``registry.run`` -- the unsharded
    path the pool variant's merged shards are held against.  With
    *seed* set they run through the work-unit plans in-process instead,
    so the override reaches the seed-taking experiments.
    """
    if subject in PLANS:
        return run_plan(subject, seed)
    if seed is None:
        rows = registry.run(subject).rows()
    else:
        rows = run_experiments([subject], seed=seed).reports[0].rows
    return {subject: rows_hash(rows)}, len(rows)


def _report_digests(report) -> dict:
    return {
        r.experiment_id: {r.experiment_id: rows_hash(r.rows)} for r in report.reports
    }


def run_variant(variant: str, subjects, jobs: int, seed=None):
    """Digests of every applicable subject under *variant*, plus problems."""
    ids = [s for s in subjects if s not in PLANS]
    if variant == "heap":
        return {s: run_serial(s, seed)[0] for s in subjects}, []
    if variant == "pool":
        digests = {s: run_plan(s, seed, jobs)[0] for s in subjects if s in PLANS}
        if ids:
            digests.update(_report_digests(run_experiments(ids, jobs=jobs, seed=seed)))
        return digests, []
    if not ids:
        return {}, []
    with tempfile.TemporaryDirectory(prefix="repro-cache-gate-") as tmp:
        run_experiments(ids, cache=ResultCache(tmp), seed=seed)
        warm = run_experiments(ids, cache=ResultCache(tmp), seed=seed)
    problems = [
        f"{r.experiment_id} × cache: warm run hit {r.cached_units}/{r.units} units"
        for r in warm.reports
        if r.cached_units != r.units
    ]
    return _report_digests(warm), problems


def compare(subject: str, variant: str, want: dict, got: dict) -> list:
    """Print every label's verdict; return the divergences."""
    failures = []
    for label in dict.fromkeys([*want, *got]):
        expected, actual = want.get(label, "missing"), got.get(label, "missing")
        verdict = "ok" if actual == expected else "DIVERGED"
        print(
            f"[determinism]   {label}: {variant} {actual[:16]} "
            f"vs serial {expected[:16]}: {verdict}",
            flush=True,
        )
        if actual != expected:
            failures.append(
                f"{subject} × {variant}: {label} {actual[:16]} "
                f"!= serial {expected[:16]}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--record", metavar="PATH", help="write baseline hashes to PATH")
    mode.add_argument("--check", metavar="PATH", help="compare against baseline at PATH")
    parser.add_argument(
        "--only",
        metavar="IDS",
        help="comma-separated subject ids or globs, e.g. 'robustness_*' or "
        "'plan:*' (default: every registry experiment)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        metavar="N",
        help="RNG-seed override for the robustness family and the trace "
        "plan; applied to the reference and every variant",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="worker processes for the pool variant (default 2)",
    )
    parser.add_argument(
        "--variants",
        default="",
        metavar="LIST",
        help=f"comma-separated variants to check against the serial "
        f"reference: {', '.join(VARIANTS)} (default: none)",
    )
    args = parser.parse_args(argv)
    names = (v.strip() for v in args.variants.split(","))
    variants = list(dict.fromkeys(name for name in names if name))
    unknown = sorted(set(variants) - set(VARIANTS))
    if unknown:
        parser.error(f"unknown variant(s) {', '.join(unknown)}; choose from {VARIANTS}")
    if not (args.record or args.check or variants):
        parser.error("one of --record, --check or --variants is required")
    try:
        if args.only:
            subjects = select(p.strip() for p in args.only.split(",") if p.strip())
        else:
            subjects = registry.all_ids()
    except KeyError as exc:
        parser.error(exc.args[0])
    try:
        recorded = load_baseline(args.check) if args.check else {}
    except ValueError as exc:
        parser.error(exc.args[0])

    reference, baseline = {}, {}
    for subject in subjects:
        print(f"[determinism] running {subject} ...", flush=True)
        started = time.perf_counter()
        digest, rows = run_serial(subject, args.seed)
        wall_s = round(time.perf_counter() - started, 2)
        reference[subject] = digest
        # A baseline stores one hash: the rows hash, or the plan digest's.
        sha256 = digest.get(subject) or rows_hash(digest)
        baseline[subject] = {"rows": rows, "sha256": sha256, "wall_s": wall_s}
        for label, value in digest.items():
            print(f"[determinism]   {label}: {value[:16]} ({wall_s}s)", flush=True)

    failures = []
    for variant in variants:
        print(f"[determinism] {variant} rerun ...", flush=True)
        with mock.patch.dict(os.environ, VARIANT_ENV.get(variant, {})):
            digests, problems = run_variant(variant, subjects, args.jobs, args.seed)
        failures.extend(problems)
        for subject, digest in digests.items():
            failures.extend(compare(subject, variant, reference[subject], digest))

    if args.record:
        with open(args.record, "w") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
        print(f"[determinism] baseline written to {args.record}")
    elif args.check:
        for subject in subjects:
            if subject not in recorded:
                failures.append(f"{subject} × baseline: not in baseline")
                continue
            want = recorded[subject]
            got = baseline[subject]["sha256"]
            if got != want:
                failures.append(
                    f"{subject} × baseline: {got[:16]} != baseline {want[:16]}"
                )

    if failures:
        print("[determinism] FAIL")
        for line in failures:
            print(f"  {line}")
        return 1
    checked = ["serial", *variants] + (["baseline"] if args.check else [])
    print(
        f"[determinism] OK — {len(subjects)} subject(s) byte-identical "
        f"({' + '.join(checked)})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
