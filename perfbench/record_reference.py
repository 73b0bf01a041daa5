#!/usr/bin/env python3
"""Record the reference outputs every benchmark rep is checked against.

    python3 perfbench/record_reference.py

Runs each workload once per recorded seed at its benchmark horizon and
writes ``perfbench/reference.json``: the digest of the simulated outputs
plus the readable scalars in it.  A workload whose inputs do not depend
on the seed is recorded once, under ``"*"``.  Re-record only in a change
that means to alter simulated outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seeds with a recorded reference; the benchmark's default is 1.
SEEDS = range(32)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import REFERENCE_PATH, reference_entry, run_rep
    from perfbench.scenarios import WORKLOADS

    table = {}
    for name, workload in WORKLOADS.items():
        seeds = SEEDS if workload.seeded else [None]
        table[name] = {
            "*" if seed is None else str(seed): reference_entry(run_rep(workload, seed or 0))
            for seed in seeds
        }
        print(f"{name}: {len(table[name])} reference(s)", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
