"""The program process of one benchmark pass.

    python3 perfbench/program.py SPEC.json RESULT.json T_SPAWN

Imports `robinopt.cli`, builds the workload's meshes (the set-up every CLI
invocation pays), then issues each argv of SPEC through `cli.main` one
after another and writes per-call exit codes and wall times, the CPU time
of this process and its reaped workers over the calls, and peak RSS to
RESULT.  T_SPAWN is the CLOCK_MONOTONIC reading the client took just before
starting this process, so `setup_s` covers interpreter start-up too.  With
a `trace` path in SPEC the calls run under `tracing.install()` and the
spans are written there at the end.
"""

import json
import resource
import sys
import time
import traceback

import tracing
import workloads


def _cpu(ru):
    return ru.ru_utime + ru.ru_stime


def main():
    spec_path, result_path, t_spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
    with open(spec_path) as fh:
        spec = json.load(fh)

    from robinopt import cli

    for domain in spec["domains"]:
        workloads.build_domain(domain)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t_spawn

    tracer = None
    if spec.get("trace"):
        tracer = tracing.install()

    calls = []
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    for i, argv in enumerate(spec["argvs"]):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        error = None
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc, error = None, traceback.format_exc()
        calls.append({"rc": rc, "error": error, "wall_s": time.perf_counter() - t0})
    wall_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest worker
        "peak_rss_mb": (self1.ru_maxrss + kids1.ru_maxrss) / 1024.0,
        "calls": calls,
    }
    if tracer is not None:
        tracer.dump(spec["trace"])
        result["trace_missing"] = tracer.missing
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
