"""The benchmark's workloads: the CLI calls each issues, drawn from a seed,
and the checks every call's output must pass.

Seed 0 gives exactly the documented inputs.  Other seeds redraw each mass
grid `log:a:b:k` within its range: the endpoints a and b stay, because the
largest mass sets most of a sweep's cost (the Picard iteration slows as xi
nears the Dirichlet ceiling), and each interior mass is drawn
log-uniformly within half a grid step of its seed-0 value, so grids stay
strictly increasing and the work of a run stays comparable between seeds.
Other seeds also redraw the `minimize` mass log-uniformly in [0.5, 2] and
the random facet density.  The draws use this module's own generator, not
`robinopt.random_weight`.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi
ORACLE_RTOL = 1e-3       # discretization error at disk h=0.025 reads <= 2.5e-4
REFERENCE_RTOL = 1e-6    # far above tol_rq, far below discretization error


class Op:
    """One CLI call: its argv (without --out), the report kind and what to expect."""

    def __init__(self, kind, argv, **expect):
        self.kind = kind
        self.argv = argv
        self.expect = expect


class Workload:
    def __init__(self, name, why, domain, make_ops):
        self.name = name
        self.why = why
        self.domain = domain
        self.make_ops = make_ops

    def ops(self, seed, inputs_dir):
        return self.make_ops(np.random.default_rng(seed), seed == 0, inputs_dir)


def build_domain(domain):
    """The mesh of a builtin domain spec such as builtin:disk:0.025."""
    from robinopt import mesh

    _, kind, value = domain.split(":")
    if kind == "interval":
        return mesh.build_interval(int(value))
    return {"disk": mesh.build_disk, "square": mesh.build_square}[kind](float(value))


def _mass_grid(rng, lo, hi, k):
    step = math.log(hi / lo) / (k - 1)
    shift = rng.uniform(-0.5, 0.5, size=k - 2)
    inner = [lo * math.exp(step * (i + 1 + t)) for i, t in enumerate(shift)]
    return [float(lo)] + inner + [float(hi)]


def _m_list(rng, seed0, lo, hi, k):
    """The --m-list argument and the masses it denotes."""
    if seed0:
        return f"log:{lo}:{hi}:{k}", [float(v) for v in np.geomspace(lo, hi, k)]
    masses = _mass_grid(rng, lo, hi, k)
    return ",".join(repr(v) for v in masses), masses


def _disk_oracle(m):
    from robinopt.oracle import disk_robin_p2_const

    return disk_robin_p2_const(m / TWO_PI)


def _bounds_ops(rng, seed0, inputs_dir):
    spec, masses = _m_list(rng, seed0, 0.01, 100, 9)
    return [Op("bounds", ["bounds", "--domain", "builtin:square:0.25", "--p", "3", "--m-list", spec],
               masses=masses)]


def _sweep_ops(rng, seed0, inputs_dir):
    domain = "builtin:disk:0.025"
    spec, masses = _m_list(rng, seed0, 0.1, 100, 7)
    return [
        Op("sweep", ["sweep", "--domain", domain, "--p", "2", "--m-list", spec],
           masses=masses, oracle=[_disk_oracle(m) for m in masses]),
        Op("maximize", ["maximize", "--domain", domain, "--p", "2", "--m", repr(TWO_PI)],
           oracle=[_disk_oracle(TWO_PI)]),
    ]


def _robin_ops(rng, seed0, inputs_dir):
    from robinopt.energy import BoundaryWeight, write_weight

    domain = "builtin:disk:0.025"
    mesh = build_domain(domain)
    dens = rng.uniform(0.1, 1.0, size=len(mesh.boundary_facets))
    dens *= TWO_PI / float(np.dot(dens, mesh.facet_measures))
    path = os.path.join(inputs_dir, "random_density.bw")
    write_weight(BoundaryWeight.from_facet_density(mesh, dens), path)
    ops = [Op("robin", ["robin", "--domain", domain, "--p", p, "--sigma", sigma])
           for p in ("1.5", "3") for sigma in ("const:1", "dirac:1.0,0.0:2", f"file:{path}")]
    ops.append(Op("robin", ["robin", "--domain", domain, "--p", "2", "--sigma", "const:1"],
                  oracle=[_disk_oracle(TWO_PI)]))
    return ops


def _minimize_ops(rng, seed0, inputs_dir):
    m = 1.0 if seed0 else float(math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
    return [Op("minimize", ["minimize", "--domain", "builtin:disk:0.1", "--p", "3", "--m", repr(m),
                            "--workers", "2"])]


WORKLOADS = {w.name: w for w in [
    Workload(
        "bounds_square_p3",
        "ROADMAP headline check_all run: ~170 eigensolves and 6.5k Newton directions on a 41-node "
        "mesh, so per-call sparse overhead dominates; assembly and warm-started scans show here.",
        "builtin:square:0.25", _bounds_ops),
    Workload(
        "sweep_disk_p2",
        "p = 2 <= dim on 4921 nodes is all F inversion: Picard steps of cached-LU solves and load "
        "assembly, Newton and Hessian assembly bypassed; F-evaluation savings show, assembly does not.",
        "builtin:disk:0.025", _sweep_ops),
    Workload(
        "robin_disk_fine",
        "robin at 4921 nodes for p in {1.5, 3} (regularized and ridge paths) and three weights: "
        "splu arithmetic dominates each Newton step, the large-N side of any size-based solver switch.",
        "builtin:disk:0.025", _robin_ops),
    Workload(
        "minimize_disk_p3_pool",
        "minimize on 331 nodes with --workers 2 (120 node solves): the only workload that runs "
        "minimizer's process pool, so removing the pool can show as a regression.",
        "builtin:disk:0.1", _minimize_ops),
]}


# ---------------------------------------------------------------------------
# reading and checking outputs
# ---------------------------------------------------------------------------

def _report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def eigenvalues(kind, out_dir):
    """Every eigenvalue the call reported, keyed by where it appears."""
    rep = _report(out_dir)
    vals = {}
    if kind == "bounds":
        vals["lam_dirichlet"] = rep["lam_dirichlet"]
        vals["lambda1_omega"] = rep["lambda1_omega"]
        for i, row in enumerate(rep["rows"]):
            vals[f"rows.{i}.Lambda"] = row["Lambda"]
            vals[f"rows.{i}.lambda"] = row["lambda"]
    elif kind == "sweep":
        for i, row in enumerate(rep["rows"]):
            vals[f"rows.{i}.Lambda"] = row["Lambda"]
    elif kind == "maximize":
        for key in ("Lambda", "crosscheck_lambda", "lam_dirichlet"):
            vals[key] = rep[key]
    elif kind == "robin":
        vals["lambda"] = rep["lambda"]
    elif kind == "minimize":
        for key in ("lambda_inf", "lambda1_omega", "x_m_node"):
            vals[key] = rep[key]
        with open(os.path.join(out_dir, "minimize.csv")) as fh:
            for row in csv.DictReader(fh):
                vals[f"node.{row['node']}.lambda1_x"] = _csv_float(row["lambda1_x"])
                vals[f"node.{row['node']}.ell1_dirac"] = _csv_float(row["ell1_dirac"])
    return vals


def _csv_float(text):
    """A CSV number; the minimize table currently writes numpy reprs like np.float64(0.25)."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check(op, out_dir):
    """Problems with one call's output; an empty list means it passed."""
    rep = _report(out_dir)
    bad = []
    masses = op.expect.get("masses")
    if op.kind in ("bounds", "sweep"):
        got = [row["m"] for row in rep["rows"]]
        if len(got) != len(masses) or any(_rel(a, b) > 1e-12 for a, b in zip(got, masses)):
            bad.append(f"rows are for masses {got}, expected {masses}")
    if op.kind == "bounds" and not rep["all_pass"]:
        bad.append("a bound sandwich failed")
    if op.kind == "maximize" and not rep["crosscheck_ok"]:
        bad.append("Robin cross-check of sigma_max failed")
    if op.kind == "robin" and not rep["weak_residual_check"]["ok"]:
        bad.append("weak residual check failed")
    if op.kind == "minimize":
        if rep["n_failures"]:
            bad.append(f"{rep['n_failures']} node solves failed")
        if rep["lambda_inf"] > rep["lambda1_omega"] * (1.0 + REFERENCE_RTOL):
            bad.append("lambda_inf exceeds lambda1(Omega)")
    oracle = op.expect.get("oracle")
    if oracle is not None:
        got = [row["Lambda"] for row in rep["rows"]] if op.kind == "sweep" else \
            [rep["Lambda"] if op.kind == "maximize" else rep["lambda"]]
        for g, want in zip(got, oracle):
            if _rel(g, want) > ORACLE_RTOL:
                bad.append(f"eigenvalue {g!r} is {_rel(g, want):.2e} from the oracle {want!r}")
    return bad


def check_reference(vals, ref):
    bad = []
    for key, want in ref.items():
        got = vals.get(key)
        if got is None or _rel(got, want) > REFERENCE_RTOL:
            bad.append(f"{key} = {got!r}, frozen reference {want!r}")
    if set(vals) - set(ref):
        bad.append(f"values without a reference: {sorted(set(vals) - set(ref))}")
    return bad
