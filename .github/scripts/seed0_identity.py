"""Compare the seed-0 benchmark outputs of two checkouts, byte for byte.

    python3 .github/scripts/seed0_identity.py BASE_DIR HEAD_DIR OUT_DIR

Each checkout runs every seed-0 CLI call of its own perfbench/workloads.py
with --out, in one process per checkout.  Each call's report.json, CSV and
weight files, plus its exit code, land under OUT_DIR/base and OUT_DIR/head,
and `diff -r` of the two trees goes to $GITHUB_STEP_SUMMARY (stdout when
that is unset).

The comparison is informational: a change may alter roundoff on purpose,
so the script exits 0 whatever the diff says.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

MAX_DIFF_LINES = 200


def collect(root, out):
    """Run root's seed-0 calls into out (runs in a process of its own)."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from robinopt.cli import main

    inputs = tempfile.mkdtemp(prefix="seed0-inputs-")
    for name, workload in workloads.WORKLOADS.items():
        for i, op in enumerate(workload.ops(0, inputs)):
            d = os.path.join(out, name, f"{i}-{op.kind}")
            os.makedirs(d, exist_ok=True)
            code = main(list(op.argv) + ["--out", d])
            with open(os.path.join(d, "exit_code"), "w") as fh:
                fh.write(f"{code}\n")


def main():
    if sys.argv[1] == "--collect":
        collect(*sys.argv[2:4])
        return 0
    base, head, out = (os.path.abspath(a) for a in sys.argv[1:4])
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    lines = ["## Seed-0 output identity (informational)", ""]
    for side, root in (("base", base), ("head", head)):
        run = subprocess.run([sys.executable, os.path.abspath(__file__), "--collect", root,
                              os.path.join(out, side)], env=env, capture_output=True, text=True)
        if run.returncode:
            lines += [f"{side} run failed (exit {run.returncode}):", "```",
                      run.stderr.strip()[-4000:], "```"]
    diff = subprocess.run(["diff", "-r", "base", "head"], cwd=out, capture_output=True, text=True)
    if diff.returncode == 0:
        lines.append("Every seed-0 output is byte-identical at the base and the head.")
    else:
        text = (diff.stdout + diff.stderr).splitlines()
        lines += ["`diff -r base head`:", "```"] + text[:MAX_DIFF_LINES]
        if len(text) > MAX_DIFF_LINES:
            lines.append(f"... {len(text) - MAX_DIFF_LINES} more lines")
        lines.append("```")
    text = "\n".join(lines) + "\n"
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
