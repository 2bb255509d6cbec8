"""Command-line front end.

Subcommands: dirichlet, robin, maximize, minimize, scan-lambda1, bounds,
sweep, concentrate, oracle, mesh. Structured reports are emitted as JSON with
stable key order (to stdout, or into --out DIR together with the CSV and
weight/mesh files); sweep-style tables are CSV. This module alone knows both
formats: each command builds its report from explicit key tuples, and every
table goes through one CSV writer.

Every number on the command line must be finite.

Exit codes: 0 success; 2 usage or configuration error; 3 mathematically
refused request (the exact answer is known and a discrete run would be a
mesh artifact); 4 solver non-convergence; 5 a solver converged but a
structural identity or cross-check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bounds as bnd
from . import energy as en
from . import maximizer as mx
from . import minimizer as mn
from . import oracle as orc
from .eigensolver import solve_dirichlet, solve_robin, verify_weak_residual
from .energy import BoundaryWeight, SolverParams
from .errors import ConfigError, ConvergenceError, InvariantViolationError, MathRefusalError
from .mesh import build_disk, build_interval, build_square, read_mesh, write_mesh

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUSED = 3
EXIT_NOCONV = 4
EXIT_INVARIANT = 5


def _fields(spec, n):
    """The n ':'-separated fields after the keyword of spec."""
    parts = spec.split(":")
    if len(parts) != n + 1:
        raise ConfigError(f"malformed spec {spec!r}: {parts[0]!r} takes {n} field(s)")
    return parts[1:]


def _num(conv, text, spec):
    """conv(text), as a ConfigError naming spec when text is not a finite number."""
    try:
        value = conv(text)
    except ValueError:
        raise ConfigError(f"malformed spec {spec!r}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"malformed spec {spec!r}: {text!r} is not finite")
    return value


def _parse_domain(spec):
    if spec is None:
        raise ConfigError("--domain is required for this command")
    kind, _, path = spec.partition(":")
    if kind == "file":
        return read_mesh(path)
    if kind != "builtin":
        raise ConfigError(f"bad domain spec {spec!r}")
    name, size = _fields(spec, 2)
    if name == "interval":
        return build_interval(_num(int, size, spec))
    if name == "disk":
        return build_disk(_num(float, size, spec))
    if name == "square":
        return build_square(_num(float, size, spec))
    raise ConfigError(f"unknown builtin domain {name!r}")


def _parse_list(spec):
    """Sweep spec: 'log:a:b:k', 'lin:a:b:k' or comma-separated values."""
    kind = spec.partition(":")[0]
    if kind in ("log", "lin"):
        a, b, k = _fields(spec, 3)
        a, b, k = _num(float, a, spec), _num(float, b, spec), _num(int, k, spec)
        if k < 1 or (kind == "log" and not (a > 0 and b > 0)):
            raise ConfigError(f"malformed spec {spec!r}: needs K >= 1, and A, B > 0 for log")
        vals = list(np.geomspace(a, b, k) if kind == "log" else np.linspace(a, b, k))
    else:
        vals = [_num(float, v, spec) for v in spec.split(",")]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError("sweep values must be strictly increasing")
    return vals


def _parse_ints(spec, flag):
    """A sweep spec of integers: each entry within 1e-9 relative of one is
    rounded to it, any other entry is refused."""
    vals = _parse_list(spec)
    bad = [v for v in vals if not abs(v - round(v)) <= 1e-9 * abs(v)]
    if bad:
        raise ConfigError(f"{flag} entry {bad[0]!r} is not an integer")
    ints = [round(v) for v in vals]
    if any(b <= a for a, b in zip(ints, ints[1:])):
        raise ConfigError(f"{flag} entries round to repeated integers")
    return ints


def _parse_sigma(mesh, spec):
    kind, _, path = spec.partition(":")
    if kind == "file":
        return en.read_weight(mesh, path)
    if kind == "const":
        (density,) = _fields(spec, 1)
        return BoundaryWeight.constant(mesh, _num(float, density, spec) * mesh.boundary_measure)
    if kind == "dirac":
        where, mass = _fields(spec, 2)
        point = [_num(float, v, spec) for v in where.split(",")]
        if len(point) != mesh.dim:
            raise ConfigError(f"malformed spec {spec!r}: the point needs {mesh.dim} coordinates")
        return BoundaryWeight.dirac(mesh, point, _num(float, mass, spec))
    raise ConfigError(f"bad sigma spec {spec!r}")


def _params(args):
    """SolverParams at --p with the knobs given on the command line; the
    others keep SolverParams' defaults."""
    knobs = {k: getattr(args, k) for k in ("tol_res", "max_outer", "eps_reg")}
    return SolverParams(p=args.p, **{k: v for k, v in knobs.items() if v is not None})


def _check_masses(masses, flag):
    """Refuse, before any solve, a mass that is not positive (main and _num
    have refused every non-finite number already)."""
    bad = [m for m in masses if not m > 0]
    if bad:
        raise ConfigError(f"mass {bad[0]} ({flag}) must be positive")


def _entries(obj, keys):
    """The report entries named by keys, each read from the attribute of that
    name, except "lambda", which reads `lam`."""
    return {k: getattr(obj, "lam" if k == "lambda" else k) for k in keys}


def _csv(header, rows):
    """CSV lines: None is an empty cell, an integer (a bool too) is written as
    one, and any other number as repr(float(v))."""
    def cell(v):
        if v is None:
            return ""
        return str(int(v)) if isinstance(v, (int, np.integer, np.bool_)) else repr(float(v))

    return [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]


def _json_safe(obj):
    """Python values for JSON: numpy scalars and arrays become Python numbers
    and lists, and non-finite floats, which JSON cannot represent, null."""
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _emit(args, report, files=None):
    """Print the JSON report, or write it (and side files) under --out."""
    text = json.dumps(_json_safe(report), sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            fh.write(text + "\n")
        for name, lines in (files or {}).items():
            with open(os.path.join(args.out, name), "w") as fh:
                fh.write("\n".join(lines) + "\n")
    else:
        print(text)


def _eig_report(res, extra=None):
    rep = _entries(res, ("lambda", "mode", "outer_iters", "residual", "rq_history"))
    rep.update(extra or {})
    return rep


def _boundary_csv(w):
    """Per-boundary-node CSV of a weight's atoms along the boundary loop:
    arclength, mass, and the mean density of the adjacent facets."""
    mesh = w.mesh
    loop = mesh.boundary_loop
    pts = mesh.nodes[loop]
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1) if mesh.dim == 2 else np.diff(pts[:, 0])
    arc = np.concatenate([[0.0], np.cumsum(np.abs(seg))])
    nodal = dict(w.atoms)
    facets = mesh.boundary_facets
    degree = np.maximum(np.bincount(facets.ravel(), minlength=mesh.n_nodes), 1)
    dens_f = np.repeat(w.spread_atoms(), facets.shape[1])
    dens = np.bincount(facets.ravel(), weights=dens_f, minlength=mesh.n_nodes) / degree
    header = ("node", "x", "y")[:1 + mesh.dim] + ("arclength", "mass", "density")
    return _csv(header, [(n, *mesh.nodes[n], a, nodal.get(n, 0.0), dens[n])
                         for a, n in zip(arc, loop.tolist())])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_dirichlet(args):
    mesh = _parse_domain(args.domain)
    res = solve_dirichlet(mesh, _params(args))
    check = verify_weak_residual(res)
    _emit(args, _eig_report(res, {"weak_residual_check": check}))
    return EXIT_OK if check["ok"] else EXIT_INVARIANT


def _cmd_robin(args):
    mesh = _parse_domain(args.domain)
    w = _parse_sigma(mesh, args.sigma)
    res = solve_robin(mesh, w, _params(args))
    check = verify_weak_residual(res)
    extra = {"sigma_mass": w.total_mass, "weak_residual_check": check}
    if w.snap_distance:
        extra["snap_distance"] = w.snap_distance
    _emit(args, _eig_report(res, extra))
    return EXIT_OK if check["ok"] else EXIT_INVARIANT


def _cmd_maximize(args):
    mesh = _parse_domain(args.domain)
    _check_masses([args.m], "--m")
    rep = mx.sigma_max(mx.FSolver(mesh, _params(args)), args.m)
    files = {}
    if args.out:
        en.write_weight(rep.sigma_m, os.path.join(args.out, "sigma_m.bw"))
        files["sigma_m.csv"] = _boundary_csv(rep.sigma_m)
    keys = ("m", "p", "xi_m", "Lambda", "sigma_mass", "crosscheck_lambda", "crosscheck_ok",
            "lam_dirichlet", "F_residual", "bisect_evals")
    _emit(args, _entries(rep, keys), files)
    return EXIT_OK if rep.crosscheck_ok else EXIT_INVARIANT


def _cmd_minimize(args):
    mesh = _parse_domain(args.domain)
    _check_masses([args.m], "--m")
    scan = mn.scan_point_eigen(mesh, _params(args))
    rep = mn.lambda_inf(scan, args.m)
    report = {
        **_entries(rep, ("m", "lambda_inf", "x_m_node", "x_m")),
        "p": scan.params.p, "lambda1_omega": scan.lambda1_omega,
        "lambda1_argmin": scan.argmin_node, "lambda1_ties": scan.tie_set,
        "n_nodes": len(rep.nodes), "n_failures": len(rep.failures),
    }
    # (node, x, y) with y None in 1D, then the two eigenvalues
    table = [(n, *mesh.nodes[n], None)[:3] + (lx, ld)
             for n, lx, ld in zip(rep.nodes, scan.values, rep.lambda_dirac)]
    _emit(args, report, {"minimize.csv": _csv(("node", "x", "y", "lambda1_x", "ell1_dirac"), table)})
    return EXIT_OK


def _cmd_scan(args):
    mesh = _parse_domain(args.domain)
    scan = mn.scan_point_eigen(mesh, _params(args))
    rep = {
        **_entries(scan, ("lambda1_omega", "argmin_node", "tie_set")),
        "p": scan.params.p,
        "values": {str(n): v for n, v in zip(scan.nodes, scan.values)},
        "failures": {str(k): v for k, v in scan.failures.items()},
    }
    _emit(args, rep)
    return EXIT_OK


def _mass_sweep(args):
    mesh = _parse_domain(args.domain)
    masses = _parse_list(args.m_list)
    _check_masses(masses, "--m-list")
    return bnd.check_all(mesh, masses, _params(args))


def _cmd_bounds(args):
    rep = _mass_sweep(args)
    keys = ("p", "dim", "volume", "lam_dirichlet", "lambda1_omega", "inradius", "all_pass", "note")
    cols = ("m", "belsup", "Lambda", "upper", "inflow", "lambda", "upper2")
    row_keys = (*cols, "ok", "slack_used", "inradius_bound", "failures")
    report = {**_entries(rep, keys), "rows": [_entries(r, row_keys) for r in rep.rows]}
    table = [[*_entries(r, cols).values(), r.ok] for r in rep.rows]
    _emit(args, report, {"bounds.csv": _csv((*cols, "pass"), table)})
    return EXIT_OK if rep.all_pass else EXIT_INVARIANT


def _cmd_sweep(args):
    rep = _mass_sweep(args)
    cols = ["m", "Lambda", "lambda", "belsup", "inflow", "upper_Lambda", "upper_lambda"]
    table = [[r.m, r.Lambda, r.lam, r.belsup, r.inflow, r.upper, r.upper2] for r in rep.rows]
    _emit(args, {"p": args.p, "rows": [dict(zip(cols, row)) for row in table]},
          {"sweep.csv": _csv(cols, table)})
    return EXIT_OK if rep.all_pass else EXIT_INVARIANT


def _cmd_concentrate(args):
    volume = 1.0
    if args.domain:
        volume = _parse_domain(args.domain).volume
    run = mn.concentration_demo(args.p, args.m, _parse_ints(args.j_list, "--j-list"), volume=volume)
    rep = {
        **_entries(run, ("p", "m", "volume", "profile", "monotone_tail")),
        "rows": [dict(zip(("j", "alpha", "q", "bound"), row)) for row in run.rows()],
    }
    _emit(args, rep, {"concentrate.csv": _csv(("j", "alpha", "Q", "bound"), run.rows())})
    return EXIT_OK


# oracle name -> (function, its argument names)
_ORACLES = {
    "interval-robin-p2": (orc.interval_robin_p2, ("SIGMA_LEFT", "SIGMA_RIGHT")),
    "interval-robin-p": (orc.interval_robin_p, ("P", "SIGMA_LEFT", "SIGMA_RIGHT")),
    "interval-dirichlet-p": (orc.interval_dirichlet_p, ("P",)),
    "disk-robin-p2": (orc.disk_robin_p2_const, ("SIGMA",)),
}


def _cmd_oracle(args):
    name = args.name
    if name not in _ORACLES:
        raise ConfigError(f"unknown oracle {name!r}; available: {', '.join(_ORACLES)}")
    fn, names = _ORACLES[name]
    if len(args.args) != len(names):
        raise ConfigError(f"oracle {name} takes {' '.join(names)}; got {len(args.args)} argument(s)")
    vals = [_num(float, v, f"{name} {' '.join(args.args)}") for v in args.args]
    _emit(args, {"oracle": name, "args": vals, "value": fn(*vals)})
    return EXIT_OK


def _cmd_mesh(args):
    mesh = _parse_domain(args.domain)
    rep = _entries(mesh, ("dim", "n_nodes", "n_cells", "volume", "boundary_measure", "inradius"))
    if args.out:
        write_mesh(mesh, os.path.join(args.out, "mesh.pmesh"))
    _emit(args, rep)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="robinopt",
        description="First Robin eigenvalue of the p-Laplacian and its "
                    "optimization over boundary weights of fixed mass.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, solver=True):
        sp.add_argument("--domain", help="builtin:interval:N | builtin:disk:H | builtin:square:H | file:PATH")
        if solver:
            sp.add_argument("--p", type=float, default=2.0)
            # unset knobs keep the SolverParams defaults
            sp.add_argument("--tol-res", type=float, dest="tol_res")
            sp.add_argument("--max-outer", type=int, dest="max_outer")
            sp.add_argument("--eps-reg", type=float, dest="eps_reg")
        sp.add_argument("--out", help="output directory (default: JSON to stdout)")

    sp = sub.add_parser("dirichlet", help="first Dirichlet eigenvalue")
    common(sp)
    sp.set_defaults(fn=_cmd_dirichlet)

    sp = sub.add_parser("robin", help="first eigenvalue for a given boundary weight")
    common(sp)
    sp.add_argument("--sigma", required=True, help="const:V | file:PATH | dirac:X[,Y]:M")
    sp.set_defaults(fn=_cmd_robin)

    sp = sub.add_parser("maximize", help="maximizing weight of mass m and its eigenvalue")
    common(sp)
    sp.add_argument("--m", type=float, required=True)
    sp.set_defaults(fn=_cmd_maximize)

    sp = sub.add_parser("minimize", help="minimal Dirac eigenvalue at mass m (p > dim)")
    common(sp)
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--workers", type=int, default=1, help="selects nothing: every scan runs "
                    "in this process (kept for compatibility; must be at least 1)")
    sp.set_defaults(fn=_cmd_minimize)

    sp = sub.add_parser("scan-lambda1", help="point-constrained eigenvalue per boundary node")
    common(sp)
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("bounds", help="verify the closed-form sandwiches over a mass grid")
    common(sp)
    sp.add_argument("--m-list", required=True, dest="m_list", help="log:A:B:K | lin:A:B:K | v1,v2,...")
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("sweep", help="Lambda(m), lambda(m) and all bounds over a mass grid")
    common(sp)
    sp.add_argument("--m-list", required=True, dest="m_list")
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("concentrate", help="vanishing concentration sequence for p <= 2 in 2D")
    common(sp, solver=False)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument("--j-list", required=True, dest="j_list")
    sp.set_defaults(fn=_cmd_concentrate)

    sp = sub.add_parser("oracle", help="independent closed-form values")
    sp.add_argument("name")
    sp.add_argument("args", nargs="*")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_oracle)

    sp = sub.add_parser("mesh", help="build a domain and report/export its mesh")
    common(sp, solver=False)
    sp.set_defaults(fn=_cmd_mesh)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # one rule for every float flag (--p, --m, --tol-res, --eps-reg)
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"--{name.replace('_', '-')} {value} is not finite")
        # minimize's --workers selects nothing, but a count below 1 is still refused
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"worker count {args.workers} (--workers) is below 1")
        if args.out:
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"--out {args.out!r} cannot be made a directory: {exc.strerror}") from None
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MathRefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except InvariantViolationError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
