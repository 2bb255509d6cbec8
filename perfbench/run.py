"""robinopt benchmark: closed-loop CLI workloads, end-to-end metrics and a traced pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client issues the workload's CLI calls
one after another through `robinopt.cli.main(argv)`, each pass in a fresh
program process (`program.py`), because users run these commands as batch
jobs.  Every output is checked after its pass, outside the timed interval.

--trace 0 repeats passes for about S seconds (at least two) and reports the
medians over passes of wall_s, cpu_s and peak_rss_mb, and the median of
setup_s over every program start of the run.  --trace 1 makes one untraced
and one traced pass (for minimize_disk_p3_pool: untraced pool, untraced
serial and traced serial passes) and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it print every metric by name and unit, the
failure fraction, the run record and each workload's reason for inclusion.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
MIN_PASSES = 2
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170        # every process of a run ends within this, results or not
BLAS_THREADS = "1"


def _program_env():
    env = dict(os.environ)
    env.pop("ROBINOPT_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_program(tag, argvs, domains, work, deadline, trace_path=None):
    """Start one program process, wait for it (killed at `deadline`) and return its result."""
    spec_path = os.path.join(work, f"{tag}.spec.json")
    result_path = os.path.join(work, f"{tag}.result.json")
    log_path = os.path.join(work, f"{tag}.log")
    with open(spec_path, "w") as fh:
        json.dump({"argvs": argvs, "domains": domains, "trace": trace_path}, fh)
    with open(log_path, "w") as log:
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "program.py"), spec_path, result_path, repr(t_spawn)],
            cwd=ROOT, env=_program_env(), stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(log_path) as fh:
            sys.stderr.write(f"program process {tag} exited with {proc.returncode}:\n{fh.read()[-4000:]}\n")
        return None
    with open(result_path) as fh:
        return json.load(fh)


def run_pass(tag, ops, domains, work, deadline, trace_path=None, serial=False):
    """One pass over the workload's calls: (result, per-call problems, output dirs)."""
    outs = [os.path.join(work, tag, f"op{i}") for i in range(len(ops))]
    argvs = []
    for op, out in zip(ops, outs):
        argv = list(op.argv)
        if serial and "--workers" in argv:
            argv[argv.index("--workers") + 1] = "1"
        argvs.append(argv + ["--out", out])
    res = run_program(tag, argvs, domains, work, deadline, trace_path)
    problems = []
    for i, (op, out) in enumerate(zip(ops, outs)):
        call = res["calls"][i] if res else None
        if call is None:
            bad = ["program process failed"]
        elif call["error"] or call["rc"] != 0:
            bad = [f"exit code {call['rc']}" + (f"\n{call['error']}" if call["error"] else "")]
        else:
            try:
                bad = workloads.check(op, out)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                bad = [f"unreadable output: {exc!r}"]
        problems.append(bad)
    return res, problems, outs


def _report_bytes(outs):
    return sum(os.path.getsize(os.path.join(d, f)) for out in outs if os.path.isdir(out)
               for d, _, files in os.walk(out) for f in files)


class Run:
    """Everything one benchmark run measured and checked."""

    def __init__(self, workload, seed, ops, work):
        self.workload = workload
        self.seed = seed
        self.ops = ops
        self.work = work
        self.domains = [workload.domain]
        self.passes = []       # untraced results of the workload as defined
        self.setups = []
        self.attempted = 0
        self.problems = []     # (pass tag, op index, problem)
        self.checked_reference = False
        self.record = _record(workload, seed, len(ops))
        self.notes = []
        self.bases = {}        # metric name -> the base of its ratio or percentile
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def do_pass(self, tag, **kw):
        res, problems, outs = run_pass(tag, self.ops, self.domains, self.work, self.deadline, **kw)
        self.attempted += len(self.ops)
        for i, bad in enumerate(problems):
            self.problems.extend((tag, i, b) for b in bad)
        if res is not None:
            self.setups.append(res["setup_s"])
            if self.seed == 0 and not self.checked_reference:
                self.check_reference(tag, outs)
        return res, outs

    def check_reference(self, tag, outs):
        """Seed 0: every reported eigenvalue of one pass against the frozen reference."""
        self.checked_reference = True
        with open(os.path.join(HERE, "reference_seed0.json")) as fh:
            ref = json.load(fh)[self.workload.name]
        for i, (op, out) in enumerate(zip(self.ops, outs)):
            try:
                bad = workloads.check_reference(workloads.eigenvalues(op.kind, out), ref[i])
            except (OSError, KeyError, ValueError, TypeError) as exc:
                bad = [f"unreadable output: {exc!r}"]
            self.problems.extend((tag, i, "reference: " + b) for b in bad)

    def add_setup_samples(self):
        while len(self.setups) < SETUP_SAMPLES:
            res = run_program(f"setup{len(self.setups)}", [], self.domains, self.work, self.deadline)
            if res is None:
                break
            self.setups.append(res["setup_s"])

    @property
    def failed(self):
        return len({(tag, i) for tag, i, _ in self.problems})


def timed_run(run, seconds):
    """Passes until the next one would end after `seconds`, but at least MIN_PASSES."""
    start = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        res, _ = run.do_pass(f"pass{len(run.passes)}")
        if res is None:
            break
        run.passes.append(res)
        longest = max(longest, time.monotonic() - t0)
        if len(run.passes) >= MIN_PASSES and time.monotonic() - start + longest > seconds:
            break
    run.add_setup_samples()
    if not run.passes:
        return {}
    return {
        "wall_s": statistics.median(p["wall_s"] for p in run.passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in run.passes),
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run.passes),
    }


def traced_run(run):
    pooled = any("--workers" in op.argv for op in run.ops)
    ref, _ = run.do_pass("untraced")
    metrics = {"minimizer.pool_s": 0.0, "minimizer.serial_s": 0.0, "minimizer.pool_speedup": 0.0}
    if pooled:
        serial, _ = run.do_pass("serial", serial=True)
        if ref and serial:
            metrics["minimizer.pool_s"] = ref["wall_s"]
            metrics["minimizer.serial_s"] = serial["wall_s"]
            metrics["minimizer.pool_speedup"] = serial["wall_s"] / ref["wall_s"]
            run.bases["minimizer.pool_speedup"] = \
                f"{serial['wall_s']:.6g} s --workers 1 / {ref['wall_s']:.6g} s --workers 2, untraced"
        ref = serial
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    trace_path = os.path.join(WORK, "traces", f"{run.workload.name}-seed{run.seed}.jsonl")
    traced, outs = run.do_pass("traced", trace_path=trace_path, serial=pooled)
    run.add_setup_samples()
    if not (ref and traced):
        return {}
    layer, bases, layer_self = tracing.layer_metrics(tracing.read_spans(trace_path), traced["wall_s"])
    metrics.update(layer)
    run.bases.update(bases)
    metrics["trace.overhead_frac"] = traced["wall_s"] / ref["wall_s"] - 1.0
    run.bases["trace.overhead_frac"] = f"{traced['wall_s']:.6g} s traced / {ref['wall_s']:.6g} s untraced - 1"
    metrics["cli.report_bytes"] = _report_bytes(outs)
    metrics["mesh.n_nodes"] = run.record["n_nodes"]
    metrics["mesh.n_boundary"] = run.record["n_boundary"]
    run.notes.append(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    run.notes.append("self time by layer (s): " + ", ".join(f"{k} {v:.4g}" for k, v in layer_self.items()))
    if traced.get("trace_missing"):
        run.notes.append(f"names not found, not traced: {traced['trace_missing']}")
    if pooled:
        run.notes.append("per-layer spans come from the traced --workers 1 pass: the pool's node "
                         "solves run in worker processes, outside the tracer")
    return metrics


def _record(workload, seed, n_ops):
    import numpy
    import scipy

    mesh = workloads.build_domain(workload.domain)
    return {
        "workload": workload.name, "seed": seed, "operations_per_pass": n_ops,
        "domain": workload.domain, "n_nodes": int(mesh.n_nodes),
        "n_boundary": int(len(mesh.boundary_nodes())),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    }


def _print_metric(name, value, unit, detail=""):
    print(f"  {name:<34} {value:>14.6g} {unit:<6} {detail}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "robinopt", "cli.py")):
        sys.exit(f"no robinopt sources under {os.path.join(ROOT, 'src')}: run from a full checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        ops = workload.ops(args.seed, work)
        run = Run(workload, args.seed, ops, work)
        metrics = traced_run(run) if args.trace else timed_run(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if metrics and missing:
        raise RuntimeError(f"the benchmark computed no value for {missing}")

    print(f"workload {workload.name}: {workload.why}")
    print("record " + json.dumps(run.record))
    for tag, i, problem in run.problems:
        print(f"FAILED {tag} op{i} {' '.join(ops[i].argv)}: {problem}")
    for note in run.notes:
        print("note: " + note)
    if args.trace:
        print("per-layer metrics (traced pass):")
        for m in listed:
            _print_metric(m["name"], metrics.get(m["name"], 0.0), m["unit"], run.bases.get(m["name"], ""))
    else:
        walls = ", ".join(f"{p['wall_s']:.3f}" for p in run.passes)
        print(f"end-to-end metrics, tracing off ({len(run.passes)} passes of {len(ops)} calls; "
              f"pass wall_s: {walls}):")
        for m in listed:
            n = len(run.setups) if m["name"] == "setup_s" else len(run.passes)
            _print_metric(m["name"], metrics.get(m["name"], 0.0), m["unit"], f"median of {n}")
    _print_metric("fail_frac", run.failed / max(run.attempted, 1), "ratio",
                  f"{run.failed} of {run.attempted} operations failed")
    print(json.dumps({
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
