"""Compare the seed-0 benchmark outputs of two checkouts, byte for byte.

    python3 .github/scripts/seed0_identity.py BASE_DIR HEAD_DIR OUT_DIR

Each checkout runs every seed-0 CLI call of its own perfbench/workloads.py,
then the fixed calls of LAYOUT_CALLS below, with --out, in one process per
checkout.  Each call's report.json, CSV, weight and mesh files, plus its
exit code, land under OUT_DIR/base and OUT_DIR/head, and `diff -r` of the
two trees goes to $GITHUB_STEP_SUMMARY (stdout when that is unset).

The comparison is informational: a change may alter roundoff on purpose,
so the script exits 0 whatever the diff says.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

MAX_DIFF_LINES = 200

# small calls that reach the report layouts the benchmark's calls miss
LAYOUT_CALLS = {
    # 1D: minimize.csv has an empty y column, sigma_m.csv has x only
    "minimize_1d": ["minimize", "--domain", "builtin:interval:40", "--p", "3", "--m", "1"],
    "maximize_1d": ["maximize", "--domain", "builtin:interval:40", "--p", "3", "--m", "1"],
    # p <= dim: empty inflow and lambda cells, and a note
    "bounds_p2_square": ["bounds", "--domain", "builtin:square:0.25", "--p", "2",
                         "--m-list", "0.1,10"],
    "sweep_p2_square": ["sweep", "--domain", "builtin:square:0.25", "--p", "2",
                        "--m-list", "0.1,10"],
    "sweep_p3_interval": ["sweep", "--domain", "builtin:interval:40", "--p", "3",
                          "--m-list", "0.1,10"],
    # alpha = m 2^(j-1) overflows at j = 2000: inf cells and null entries
    "concentrate_overflow": ["concentrate", "--p", "1.5", "--m", "1", "--j-list", "100,2000"],
    "concentrate_log": ["concentrate", "--p", "2", "--m", "2", "--j-list", "10,100",
                        "--domain", "builtin:disk:0.5"],
    "scan_lambda1": ["scan-lambda1", "--domain", "builtin:square:0.5", "--p", "3"],
    # a Dirac point off the mesh nodes: the report has a snap_distance
    "robin_snap": ["robin", "--domain", "builtin:square:0.5", "--p", "3", "--sigma", "dirac:0.3,0:1"],
    "dirichlet": ["dirichlet", "--domain", "builtin:interval:40", "--p", "3"],
    "oracle": ["oracle", "interval-robin-p", "3", "1", "2"],
    "mesh": ["mesh", "--domain", "builtin:disk:0.25"],
    # the structured builders: mesh.pmesh holds every node and cell
    "mesh_disk_fine": ["mesh", "--domain", "builtin:disk:0.025"],
    "mesh_disk": ["mesh", "--domain", "builtin:disk:0.1"],
    "mesh_square_fine": ["mesh", "--domain", "builtin:square:0.025"],
    "mesh_square": ["mesh", "--domain", "builtin:square:0.25"],
}


def collect(root, out):
    """Run root's seed-0 calls into out (runs in a process of its own)."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from robinopt.cli import main

    with tempfile.TemporaryDirectory(prefix="seed0-inputs-") as inputs:
        for name, workload in workloads.WORKLOADS.items():
            for i, op in enumerate(workload.ops(0, inputs)):
                run_call(main, op.argv, os.path.join(out, name, f"{i}-{op.kind}"))
    for name, argv in LAYOUT_CALLS.items():
        run_call(main, argv, os.path.join(out, "layouts", name))


def run_call(main, argv, d):
    """main(argv) with --out d; its exit code goes into d/exit_code."""
    os.makedirs(d, exist_ok=True)
    code = main(list(argv) + ["--out", d])
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
