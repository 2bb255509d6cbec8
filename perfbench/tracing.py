"""Outside-in span tracing of robinopt's layers.

`install()` wraps the public functions of each module (and scipy's `splu`
together with the factor it returns) in every namespace that imported
them, from this file, so no source file of the package changes.  Each
call records a span `[name, start, end, parent, op, attrs]` in memory;
`Tracer.dump` writes them as JSON Lines when the traced pass ends.
`layer_metrics` turns a list of spans into the per-layer metrics.

A span's self time is its duration minus the time its child spans cover.
A layer's self time is the sum of the self times of its spans, so the
layer self times of one CLI call add up to the call's traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time

# span name -> (layer, group).  The group selects the spans a per-layer
# metric sums; `ConvexPEnergyProblem.hessian/gradient/objective` live in
# innersolve.py but are assembly work, so they count towards `energy`.
SPANS = {
    "mesh.build_interval": ("mesh", "build"),
    "mesh.build_disk": ("mesh", "build"),
    "mesh.build_square": ("mesh", "build"),
    "mesh.build_polygon": ("mesh", "build"),
    "mesh.read_mesh": ("mesh", "build"),
    "mesh.refine": ("mesh", "build"),
    "mesh.write_mesh": ("mesh", "io"),
    "ConvexPEnergyProblem.hessian": ("energy", "hessian"),
    "energy.p_stiffness_hessian": ("energy", "hessian"),
    "energy.boundary_hessian": ("energy", "hessian"),
    "ConvexPEnergyProblem.gradient": ("energy", "action"),
    "energy.p_stiffness_action": ("energy", "action"),
    "energy.boundary_action": ("energy", "action"),
    "energy.mass_action": ("energy", "action"),
    "energy.rayleigh_gradient": ("energy", "action"),
    "ConvexPEnergyProblem.objective": ("energy", "functional"),
    "energy.grad_energy": ("energy", "functional"),
    "energy.boundary_term": ("energy", "functional"),
    "energy.lp_norm_p": ("energy", "functional"),
    "energy.rayleigh": ("energy", "functional"),
    "energy.integrate_gauss": ("energy", "functional"),
    "energy.assemble_load": ("energy", "load"),
    "energy.gauss_values": ("energy", "load"),
    "energy.recover_flux": ("energy", "flux"),
    "energy.read_weight": ("energy", "io"),
    "energy.write_weight": ("energy", "io"),
    "ConvexPEnergyProblem.solve": ("innersolve", "solve"),
    "scipy.splu": ("innersolve", "splu"),
    "SuperLU.solve": ("innersolve", "lu_solve"),
    "eigensolver.solve_robin": ("eigensolver", "solve"),
    "eigensolver.solve_dirichlet": ("eigensolver", "solve"),
    "eigensolver.solve_point": ("eigensolver", "solve"),
    "eigensolver.solve_dirac": ("eigensolver", "solve"),
    "eigensolver.verify_weak_residual": ("eigensolver", "verify"),
    "maximizer.dirichlet_ceiling": ("maximizer", "ceiling"),
    "maximizer.solve_aux": ("maximizer", "aux"),
    "maximizer.F_eval": ("maximizer", "F"),
    "maximizer.invert_F": ("maximizer", "invert"),
    "maximizer.sigma_max": ("maximizer", "sigma_max"),
    "minimizer.scan_point_eigen": ("minimizer", "scan"),
    "minimizer.lambda_inf": ("minimizer", "lambda_inf"),
    "minimizer.track_xm": ("minimizer", "track"),
    "minimizer.hoelder_check": ("minimizer", "hoelder"),
    "minimizer.concentration_demo": ("minimizer", "concentration"),
    "bounds.check_all": ("bounds", "check_all"),
    "bounds.belsup": ("bounds", "closed_form"),
    "bounds.inflow": ("bounds", "closed_form"),
    "bounds.inradius_bound": ("bounds", "closed_form"),
    "cli.main": ("cli", "main"),
}

LAYERS = ["mesh", "energy", "innersolve", "eigensolver", "maximizer", "minimizer", "bounds", "cli"]


def _outer_iters(args, kwargs, res):
    return res.outer_iters


# span name -> what to keep from the call, read from its arguments or result
_ATTRS = {
    "ConvexPEnergyProblem.solve": lambda a, k, res: a[0].p,
    "eigensolver.solve_robin": _outer_iters,
    "eigensolver.solve_dirichlet": _outer_iters,
    "eigensolver.solve_point": _outer_iters,
    "eigensolver.solve_dirac": _outer_iters,
    "maximizer.solve_aux": lambda a, k, res: res.picard_iters,
    "minimizer.scan_point_eigen": lambda a, k, res: [len(res.nodes), len(res.failures)],
    "minimizer.lambda_inf": lambda a, k, res: [len(res.nodes), len(res.failures)],
    "bounds.check_all": lambda a, k, res: len(res.rows),
}


class Tracer:
    """In-memory span recorder; `op` is the index of the running CLI call."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.op = -1
        self.missing = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out

        return traced

    def wrap_splu(self, splu):
        """splu whose span carries nnz(L)+nnz(U) and whose factor's solve is traced."""
        traced_splu = self.wrap("scipy.splu", splu)
        wrap, spans = self.wrap, self.spans

        @functools.wraps(splu)
        def traced(*args, **kwargs):
            sid = len(spans)
            lu = traced_splu(*args, **kwargs)
            spans[sid][5] = int(lu.L.nnz + lu.U.nnz)
            return _TracedFactor(lu, wrap("SuperLU.solve", lu.solve))

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class _TracedFactor:
    """A SuperLU factor whose `solve` is traced; other attributes pass through."""

    __slots__ = ("_lu", "solve")

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _patch_everywhere(original, wrapper, namespaces):
    for ns in namespaces:
        for key, val in list(vars(ns).items()):
            if val is original:
                setattr(ns, key, wrapper)


def install():
    """Wrap every name in SPANS wherever the robinopt modules imported it."""
    import scipy.sparse.linalg as spl

    tracer = Tracer()
    mods = {name: importlib.import_module(f"robinopt.{name}") for name in LAYERS}
    namespaces = [m for n, m in sys.modules.items() if n == "robinopt" or n.startswith("robinopt.")]
    problem = mods["innersolve"].ConvexPEnergyProblem
    for name in SPANS:
        owner, attr = name.split(".")
        if owner == "ConvexPEnergyProblem":
            fn = vars(problem).get(attr)
            if fn is None:
                tracer.missing.append(name)
                continue
            setattr(problem, attr, tracer.wrap(name, fn))
        elif owner in mods:
            fn = getattr(mods[owner], attr, None)
            if fn is None:
                tracer.missing.append(name)
                continue
            _patch_everywhere(fn, tracer.wrap(name, fn), namespaces)
    splu = spl.splu
    _patch_everywhere(splu, tracer.wrap_splu(splu), namespaces + [spl])
    return tracer


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _pct(values, q):
    """q-th percentile (nearest rank) of values, 0 when there are none."""
    if not values:
        return 0.0
    return sorted(values)[math.ceil(q / 100.0 * len(values)) - 1]


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced pass whose CLI calls took wall_s seconds.

    Returns the metrics, the base of every ratio among them (numerator and
    denominator as counted) and the self time of each layer.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, t0, t1, parent, op, attrs in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    layer = [SPANS[s[0]][0] for s in spans]
    group = [SPANS[s[0]][1] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    self_t = [d - c for d, c in zip(dur, child_time)]
    layer_self = {name: 0.0 for name in LAYERS}
    for lay, st in zip(layer, self_t):
        layer_self[lay] += st

    def idx(lay, grp=None, entry=False):
        """Spans of a layer/group; entry=True keeps those called from another layer."""
        return [i for i in range(n) if layer[i] == lay and (grp is None or group[i] == grp)
                and (not entry or spans[i][3] < 0 or layer[spans[i][3]] != lay)]

    def total(ids):
        return sum(dur[i] for i in ids)

    m, bases = {}, {}

    def ratio(name, num, den, what):
        m[name] = num / den if den else 0.0
        bases[name] = f"{num:.6g} / {den:.6g} {what}"

    # energy: calls entering the layer from outside it, with their inclusive time
    hess = [i for i in range(n) if spans[i][0] == "ConvexPEnergyProblem.hessian"]
    m["energy.hessian_calls"] = len(hess)
    m["energy.hessian_s"] = total(hess)
    for grp in ("action", "functional", "load"):
        ids = idx("energy", grp, entry=True)
        m[f"energy.{grp}_calls"] = len(ids)
        m[f"energy.{grp}_s"] = total(ids)
    m["energy.self_s"] = layer_self["energy"]

    # innersolve: Newton directions are Hessians assembled inside a p != 2 solve
    solves = idx("innersolve", "solve")
    newton_solves = [i for i in solves if spans[i][5] != 2.0]
    newton_set = set(newton_solves)
    newton = [i for i in hess if spans[i][3] in newton_set]
    splu = idx("innersolve", "splu")
    lu_solves = idx("innersolve", "lu_solve")
    objective = [i for i in range(n) if spans[i][0] == "ConvexPEnergyProblem.objective"]
    m["innersolve.solves"] = len(solves)
    m["innersolve.self_s"] = sum(self_t[i] for i in solves)
    m["innersolve.newton_dirs"] = len(newton)
    ratio("innersolve.newton_per_solve", len(newton), len(newton_solves), "Newton directions / p != 2 solves")
    m["innersolve.splu_calls"] = len(splu)
    ratio("innersolve.splu_per_newton", sum(1 for i in splu if spans[i][3] in newton_set), len(newton),
          "Newton splu calls / Newton directions")
    m["innersolve.splu_s"] = total(splu)
    ratio("innersolve.factor_nnz_mean", sum(spans[i][5] or 0 for i in splu), len(splu),
          "computed nnz(L)+nnz(U) / factors")
    m["innersolve.lu_solves"] = len(lu_solves)
    m["innersolve.lu_solve_s"] = total(lu_solves)
    m["innersolve.objective_calls"] = len(objective)
    ratio("innersolve.trials_per_newton", len(objective), len(newton),
          "objective evaluations (Armijo start and trials) / Newton directions")

    # eigensolver
    eig = idx("eigensolver", "solve")
    eig_set = set(eig)
    outer = sum(spans[i][5] or 0 for i in eig)
    eig_newton = sum(1 for i in newton if spans[spans[i][3]][3] in eig_set)
    eig_ms = [1e3 * dur[i] for i in eig]
    m["eigensolver.solves"] = len(eig)
    m["eigensolver.solve_s"] = total(eig)
    m["eigensolver.solve_ms_p50"] = statistics.median(eig_ms) if eig_ms else 0.0
    m["eigensolver.solve_ms_p90"] = _pct(eig_ms, 90)
    bases["eigensolver.solve_ms_p90"] = f"of {len(eig_ms)} solves"
    m["eigensolver.outer_iters"] = outer
    ratio("eigensolver.outer_per_solve", outer, len(eig), "outer iterations / eigensolves")
    ratio("eigensolver.inner_per_outer", eig_newton, outer, "Newton directions / outer iterations")
    m["eigensolver.verify_s"] = total(idx("eigensolver", "verify"))
    m["eigensolver.self_s"] = layer_self["eigensolver"]

    # maximizer: one solve_aux is one F evaluation
    masses = idx("maximizer", "sigma_max")
    aux = idx("maximizer", "aux")
    picard = sum(spans[i][5] or 0 for i in aux)
    sigma_set = set(masses)
    m["maximizer.masses"] = len(masses)
    m["maximizer.F_evals"] = len(aux)
    ratio("maximizer.F_evals_per_mass", len(aux), len(masses), "F evaluations / masses")
    m["maximizer.picard_iters"] = picard
    ratio("maximizer.picard_per_F", picard, len(aux), "Picard steps / F evaluations")
    m["maximizer.solve_aux_s"] = total(aux)
    m["maximizer.ceiling_s"] = total(idx("maximizer", "ceiling"))
    m["maximizer.crosscheck_s"] = total([i for i in eig if spans[i][3] in sigma_set])
    m["maximizer.self_s"] = layer_self["maximizer"]

    # minimizer: node counts come from the returned tables, so they hold
    # under the pool too; node solve spans exist only for serial scans
    scans = idx("minimizer", "scan")
    dirac = idx("minimizer", "lambda_inf")
    dirac_set = set(dirac)
    nested_scan = sum(dur[i] for i in scans if spans[i][3] in dirac_set)
    min_set = set(idx("minimizer"))
    node_ms = [1e3 * dur[i] for i in eig if spans[i][3] in min_set]
    m["minimizer.scan_s"] = total(scans)
    m["minimizer.lambda_inf_s"] = total(dirac) - nested_scan
    m["minimizer.node_solves"] = sum(spans[i][5][0] for i in scans + dirac if spans[i][5])
    m["minimizer.failures"] = sum(spans[i][5][1] for i in scans + dirac if spans[i][5])
    m["minimizer.node_solve_ms"] = statistics.median(node_ms) if node_ms else 0.0
    bases["minimizer.node_solve_ms"] = f"median of {len(node_ms)} traced node solves"
    m["minimizer.self_s"] = layer_self["minimizer"]

    m["bounds.rows"] = sum(spans[i][5] or 0 for i in idx("bounds", "check_all"))
    m["bounds.self_s"] = layer_self["bounds"]

    builds = idx("mesh", "build")
    m["mesh.build_s"] = total(builds)

    m["cli.self_s"] = layer_self["cli"]

    below_cli = sum(layer_self[lay] for lay in LAYERS if lay != "cli")
    m["trace.spans"] = n
    m["trace.wall_s"] = wall_s
    ratio("trace.coverage", below_cli, wall_s, "s self time below cli / s traced wall")
    return m, bases, layer_self
