#!/usr/bin/env python3
"""Record the reference fingerprints that ``run.py`` checks outputs against.

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/record_reference.py

One untraced pass per workload and seed in SEEDS; the fingerprint of every op
is written to ``perfbench/reference.json``.  An op with a failed check is
reported and not recorded, so ``run.py`` still counts it as failed.
"""

from __future__ import annotations

import json
import sys

import run  # this script's directory is first on sys.path

SEEDS = range(20)


def main() -> int:
    workloads = run.import_program()
    path = run.BENCH_DIR / "reference.json"
    reference: dict = {}
    status = 0
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            work_dir = run.OUT / name / "record"
            work_dir.mkdir(parents=True, exist_ok=True)
            workload = workloads.WORKLOADS[name](seed, work_dir)
            [result] = run.run_pass(workload)
            recorded = reference.setdefault(name, {}).setdefault(str(seed), {})
            for op, checked, problems in zip(
                workload.ops(traced=False), result.checked, result.problems
            ):
                if problems:
                    print(f"{name} seed {seed} op {op.name}: not recorded: {problems}",
                          file=sys.stderr)
                    status = 1
                    continue
                recorded[op.name] = workloads.reference_view(checked.fingerprint)
            print(f"{name} seed {seed}: recorded {len(recorded)} ops", flush=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
