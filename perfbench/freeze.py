"""Freeze the seed-0 eigenvalues that benchmark runs at seed 0 must reproduce.

    python3 perfbench/freeze.py

Runs one pass of every workload at seed 0, requires every call to pass its
checks, and writes every reported eigenvalue to `reference_seed0.json`.
Rerun it only for a change that is meant to move the computed values.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import run
import workloads


def main():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    os.makedirs(run.WORK, exist_ok=True)
    ref = {}
    for name, workload in workloads.WORKLOADS.items():
        work = tempfile.mkdtemp(prefix=f"freeze-{name}-", dir=run.WORK)
        try:
            ops = workload.ops(0, work)
            deadline = time.monotonic() + run.RUN_LIMIT_S
            res, problems, outs = run.run_pass("freeze", ops, [workload.domain], work, deadline)
            if res is None or any(problems):
                sys.exit(f"{name}: {problems}")
            ref[name] = [workloads.eigenvalues(op.kind, out) for op, out in zip(ops, outs)]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: {sum(len(r) for r in ref[name])} values")
    with open(os.path.join(run.HERE, "reference_seed0.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
