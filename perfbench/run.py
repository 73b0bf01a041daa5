#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig5b-rtvirt --seed 1 --seconds 15 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` adds one traced rep and prints
the per-layer metrics (BENCHMARK.json lists both sets with units).  The
last line of standard output is the result object; the line before it
is the run record (host fingerprint, reps, simulated outputs, errors).
Exit status is 0 when every rep passed its checks, 1 when one failed,
2 when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import load_reference, measure, traced
    from perfbench.scenarios import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    run = traced if args.trace else measure
    out = run(workload, args.seed, args.seconds, load_reference())
    if set(out.metrics) != set(units):
        out.fail(
            "metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(out.metrics))}, undeclared "
            f"{sorted(set(out.metrics) - set(units))}"
        )
    for error in out.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps({"record": out.record}))
    print(
        json.dumps(
            {
                "correct": out.correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {
                    name: {"value": out.metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
