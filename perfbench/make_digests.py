#!/usr/bin/env python3
"""Regenerate ``perfbench/digests.json``, the outputs the benchmark checks.

Run from the repository root::

    python3 perfbench/make_digests.py

For every scenario seed of the bank and every workload, one op runs and
its output digests (report signatures, the sha256 of each of the ten
renders, stream emits, resumed index) are recorded.  Regenerate only when
a change is meant to alter those outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

#: Scenario seeds with shipped digests; ``--seed n`` runs scenario ``n % SEED_BANK``.
SEED_BANK = 32


def main() -> int:
    work_dir = HERE / ".work" / "digests"
    seeds = {}
    try:
        for seed in range(SEED_BANK):
            seeds[str(seed)] = {}
            for name, workload_class in workloads.WORKLOADS.items():
                shutil.rmtree(work_dir, ignore_errors=True)
                work_dir.mkdir(parents=True)
                workload = workload_class(run.DEFAULT_SCALE, seed, work_dir)
                workload.prepare()
                workload.references()
                result = workload.op()
                problems = workload.check(result, None)
                if problems:
                    print(f"seed {seed} {name}: {problems}", file=sys.stderr)
                    return 1
                seeds[str(seed)][name] = result.outputs
            print(f"seed {seed} done", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    document = {"scale": run.DEFAULT_SCALE, "seed_bank": SEED_BANK, "seeds": seeds}
    run.DIGESTS.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
