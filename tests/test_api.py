import inspect
import math
from pathlib import Path

import robinopt


def test_public_signatures_have_no_private_parameters():
    # private plumbing stays out of the exported functions and constructors
    bad = []
    for name in robinopt.__all__:
        obj = getattr(robinopt, name)
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # exceptions that inherit a builtin constructor
            continue
        bad += [f"{name}({p})" for p in params if p.startswith("_")]
    assert bad == []


_KNOBS = ("tol_res", "eps_reg")


def test_solver_knob_defaults_live_only_in_solver_params():
    # a second default for a knob could drift from the one SolverParams states
    from robinopt.cli import build_parser
    from robinopt.innersolve import ConvexPEnergyProblem

    owners = {name: getattr(robinopt, name) for name in robinopt.__all__ if name != "SolverParams"}
    owners["ConvexPEnergyProblem"] = ConvexPEnergyProblem
    bad = []
    for name, obj in owners.items():
        try:
            params = inspect.signature(obj).parameters
        except ValueError:
            continue
        bad += [f"{name}({k})" for k, v in params.items() if k in _KNOBS and v.default is not v.empty]
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    for command, sp in commands.items():
        bad += [f"{command} --{a.dest}" for a in sp._actions
                if a.dest in _KNOBS and a.default is not None]
    assert bad == []


def test_owner_taking_callables_do_not_take_what_the_owner_holds():
    # an FSolver or a PointScan holds its mesh and params; a second copy of
    # either could disagree with the one the owner was built for
    bad = []
    for name in robinopt.__all__:
        try:
            params = inspect.signature(getattr(robinopt, name)).parameters
        except (TypeError, ValueError):
            continue
        if {"solver", "scan"} & set(params):
            bad += [f"{name}({k})" for k in ("mesh", "params") if k in params]
    assert bad == []


def test_band_storage_and_factor_stay_inside_innersolve():
    # innersolve owns the Hessian pattern, its work band and the factor's
    # lifetime; another module naming them could outlive or overwrite a
    # factor, so other modules solve with the problem's matrix by linear_solve;
    # it alone assembles a Hessian, and other modules read one through shifted
    src = Path(robinopt.__file__).resolve().parent
    names = ("_pattern", "_Pattern", "dpbtrf", "dpbtrs", "dgbtrf", "dgbtrs",
             ".factor(", ".stored(", ".hessian(")
    bad = [f"{path.name}: {name}" for path in sorted(src.glob("*.py")) if path.name != "innersolve.py"
           for name in names if name in path.read_text()]
    assert bad == []


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(compile(code, "README.md quick tour", "exec"), ns)
    assert abs(ns["res"].lam - 1.70705) < 1e-4
    assert abs(ns["f1"] - 2 * math.tan(0.5)) < 1e-3
    assert ns["rep"].Lambda == ns["rep"].xi_m
    assert abs(ns["xi"] - ns["rep"].xi_m) <= 1e-8 * ns["xi"]
    assert abs(ns["scan"].lambda1_omega - (math.pi / 2) ** 2) < 0.01 * (math.pi / 2) ** 2
    assert ns["low"].lambda_inf <= ns["scan"].lambda1_omega
