import inspect

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


_KNOBS = ("tol_rq", "tol_res", "max_outer", "eps_reg")


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
