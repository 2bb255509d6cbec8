import logging

import numpy as np
import pytest

from robinopt import (
    BoundaryWeight,
    ConfigError,
    ConvergenceError,
    EigenResult,
    MathRefusalError,
    SolverParams,
    build_disk,
    build_interval,
    refine,
    solve_dirac,
    solve_dirichlet,
    solve_point,
    solve_robin,
    verify_weak_residual,
)
from robinopt.energy import NodalField, lp_norm_p
from robinopt.energy import weak_residual
from robinopt.innersolve import ConvexPEnergyProblem
from tests.conftest import (
    LAM_POINT_INTERVAL,
    LAM_ROBIN_ONESIDED,
    LAM_ROBIN_SYM,
)


@pytest.fixture(scope="module")
def robin11(interval200, p2):
    w = BoundaryWeight.from_facet_density(interval200, np.ones(2))
    return solve_robin(interval200, w, p2), w


def test_robin_symmetric_matches_transcendental(robin11):
    res, _ = robin11
    assert abs(res.lam - LAM_ROBIN_SYM) / LAM_ROBIN_SYM < 0.005


def test_dirac_endpoint_matches_transcendental(interval200, p2):
    res = solve_dirac(interval200, 0, 1.0, p2)
    assert abs(res.lam - LAM_ROBIN_ONESIDED) / LAM_ROBIN_ONESIDED < 0.005


@pytest.mark.parametrize("mass", [0.3, 2.0, 10.0])
def test_eigenvalue_below_mass_over_volume(interval200, p2, mass):
    w = BoundaryWeight.constant(interval200, mass)
    res = solve_robin(interval200, w, p2)
    assert res.lam <= mass / interval200.volume + 1e-12


def test_eigen_result_built_directly_validates(interval200):
    u = NodalField(interval200, np.ones(interval200.n_nodes))
    res = EigenResult(lam=1.0, u=u, mode="robin", outer_iters=0, residual=0.0,
                      params=SolverParams(p=3.0))
    assert res.validate() is res


def test_dirichlet_p2(interval400, p2):
    res = solve_dirichlet(interval400, p2)
    assert abs(res.lam - np.pi**2) / np.pi**2 < 0.01


def test_dirichlet_p3(interval400, p3):
    from robinopt import interval_dirichlet_p

    exact = interval_dirichlet_p(3.0)
    res = solve_dirichlet(interval400, p3)
    assert abs(res.lam - exact) / exact < 0.01


def test_dirichlet_monotone_under_refinement(p2):
    coarse = build_interval(50)
    fine = refine(coarse)
    lam_c = solve_dirichlet(coarse, p2).lam
    lam_f = solve_dirichlet(fine, p2).lam
    assert lam_f <= lam_c + 1e-9


def test_point_quarter_wave(interval200, p2):
    res = solve_point(interval200, 0, p2)
    assert abs(res.lam - LAM_POINT_INTERVAL) / LAM_POINT_INTERVAL < 0.01


def test_point_reflection_symmetry(interval200, p2):
    a = solve_point(interval200, 0, p2).lam
    b = solve_point(interval200, interval200.n_nodes - 1, p2).lam
    assert abs(a - b) < 1e-6


def test_point_square_corner_and_edge(square4, p3):
    bn = square4.boundary_nodes()
    corner = next(n for n in bn if np.allclose(square4.nodes[n], [0, 0]))
    mid = next(n for n in bn if np.allclose(square4.nodes[n], [0.5, 0]))
    lc = solve_point(square4, corner, p3).lam
    lm = solve_point(square4, mid, p3).lam
    assert 0 < lc < np.inf and 0 < lm < np.inf
    assert lc < lm  # the corner constraint is weaker


def test_point_refuses_small_p(square4):
    # p = dim and p < dim: points have zero capacity, the value is exactly 0
    for p in (2.0, 1.5):
        with pytest.raises(MathRefusalError) as exc:
            solve_point(square4, int(square4.boundary_nodes()[0]), SolverParams(p=p))
        assert exc.value.exact_value == 0.0


def test_point_rejects_interior_node(interval200, p2):
    interior = int(np.flatnonzero(~interval200.node_is_boundary)[0])
    with pytest.raises(ConfigError):
        solve_point(interval200, interior, p2)


@pytest.mark.parametrize("node", [-1, 99, 10.7])
def test_point_rejects_node_outside_mesh(node):
    # 11 nodes: -1 used to wrap to the last node, 99 raised IndexError, 10.7
    # was truncated to the boundary node 10
    with pytest.raises(ConfigError):
        solve_point(build_interval(10), node, SolverParams(p=3.0))


def test_start_pair_from_another_mesh_is_refused():
    params = SolverParams(p=3.0)
    start = solve_point(build_interval(10), 0, params)
    with pytest.raises(ConfigError, match="different mesh"):
        solve_point(build_interval(10), 10, params, start=start)


@pytest.mark.parametrize("mode", ["robin", "dirichlet"])
@pytest.mark.parametrize("u0, message", [
    (np.ones(5), "length"), (np.full(41, np.nan), "non-finite"), (np.zeros(41), "vanishes on the free nodes"),
])
def test_bad_start_is_refused(mode, u0, message):
    # a short start used to raise IndexError, and a non-finite one to run the
    # inner Newton ridge forever
    mesh, params = build_interval(40), SolverParams(p=3.0)
    with pytest.raises(ConfigError, match=message):
        if mode == "robin":
            solve_robin(mesh, BoundaryWeight.constant(mesh, 1.0), params, u0=u0)
        else:
            solve_dirichlet(mesh, params, u0=u0)


def test_start_is_not_written_to(p2):
    mesh = build_interval(40)
    u0 = np.ones(mesh.n_nodes)
    solve_dirichlet(mesh, p2, u0=u0)
    assert np.all(u0 == 1.0)


@pytest.mark.parametrize("node", [10.7, np.nan])
def test_dirac_rejects_a_node_that_is_not_an_integer(node):
    with pytest.raises(ConfigError):
        solve_dirac(build_interval(10), node, 1.0, SolverParams(p=3.0))


def test_zero_mass_weight_refused(interval200, p2):
    w = BoundaryWeight(interval200, atoms=[])
    with pytest.raises(MathRefusalError) as exc:
        solve_robin(interval200, w, p2)
    assert exc.value.exact_value == 0.0


def test_zero_mass_dirac_refused():
    with pytest.raises(MathRefusalError) as exc:
        solve_dirac(build_interval(10), 0, 0.0, SolverParams(p=3.0))
    assert exc.value.exact_value == 0.0


# -- structural properties -----------------------------------------------------

def test_history_monotone_and_result_normalized(robin11):
    res, _ = robin11
    h = np.asarray(res.rq_history)
    assert np.all(np.diff(h) <= 1e-13)
    assert abs(lp_norm_p(res.u, 2.0) - 1.0) < 1e-12
    assert res.u.values.min() > -1e-12


def test_interior_positivity(robin11, interval200):
    res, _ = robin11
    assert res.u.values[~interval200.node_is_boundary].min() > 0


def test_upper_bound_sandwich(interval200, p2, robin11):
    res, w = robin11
    lam_d = solve_dirichlet(interval200, p2).lam
    assert res.lam <= min(lam_d, w.total_mass / interval200.volume) + 1e-9


def test_dirac_below_point_constraint(interval200, p2):
    for mass in (0.5, 2.0, 50.0):
        dl = solve_dirac(interval200, 0, mass, p2).lam
        pl = solve_point(interval200, 0, p2).lam
        assert dl <= pl + 1e-9


def test_empirical_simplicity(interval200):
    w = BoundaryWeight.from_facet_density(interval200, np.ones(2))
    us, lams = [], []
    for seed in (11, 23):
        u0 = np.random.default_rng(seed).uniform(0.5, 1.5, interval200.n_nodes)
        res = solve_robin(interval200, w, SolverParams(p=2.0), u0=u0)
        us.append(res.u.values)
        lams.append(res.lam)
    assert np.max(np.abs(us[0] - us[1])) < 1e-5
    assert abs(lams[0] - lams[1]) / lams[0] < 1e-7


def _zigzag_inner_solve(monkeypatch):
    """Make every inner solve return a zigzag, whose quotient exceeds any
    smooth iterate's: the outer step then increases the quotient."""

    def zigzag(problem, b, **kwargs):
        return 1.0 + 0.5 * (-1.0) ** np.arange(problem.mesh.n_nodes)

    monkeypatch.setattr(ConvexPEnergyProblem, "solve", zigzag)


def test_start_that_passes_the_residual_test_takes_no_step(robin11, interval200, p2, square4, p3,
                                                           monkeypatch):
    # the residual test runs before every step: a converged u0 and a continued
    # node polished by bordered Newton are returned without an inner solve
    ref, w = robin11
    first, second = (int(n) for n in square4.boundary_loop[:2])
    neighbour = solve_point(square4, first, p3)

    def no_solve(problem, b, **kwargs):
        raise AssertionError("an outer step ran")

    monkeypatch.setattr(ConvexPEnergyProblem, "solve", no_solve)
    warm = solve_robin(interval200, w, p2, u0=ref.u.values)
    continued = solve_point(square4, second, p3, start=neighbour)
    for res in (warm, continued):
        assert res.outer_iters == 0 and res.rq_history == [res.lam]
        assert res.residual <= res.params.tol_res
    assert warm.lam == pytest.approx(ref.lam, rel=1e-12)


def test_quotient_increase_above_tolerance_raises(robin11, interval200, p2, monkeypatch):
    _, w = robin11
    _zigzag_inner_solve(monkeypatch)
    with pytest.raises(ConvergenceError, match="quotient stalled") as exc:
        solve_robin(interval200, w, p2)
    best = exc.value.best
    assert best.outer_iters == 1 and best.residual > p2.tol_res


# -- weak residual check ---------------------------------------------------------

def test_weak_residual_of_converged_solve(robin11, p2):
    res, _ = robin11
    rep = verify_weak_residual(res)
    assert rep["ok"] and rep["max_residual"] < 1e-8


def test_weak_residual_detects_perturbation(robin11, p2, interval200):
    res, _ = robin11
    rng = np.random.default_rng(0)
    noisy = res.u.values + 1e-3 * rng.standard_normal(interval200.n_nodes)
    import dataclasses

    bad = dataclasses.replace(res, u=NodalField(interval200, noisy))
    rep = verify_weak_residual(bad)
    assert rep["max_residual"] > p2.tol_res


def test_weak_residual_excludes_constraint_rows(interval400, p2):
    res = solve_dirichlet(interval400, p2)
    rep = verify_weak_residual(res)
    assert rep["n_free"] == interval400.n_nodes - 2
    assert rep["ok"]


def test_weak_residual_of_point_solve_excludes_the_pinned_row(interval200, p2):
    res = solve_point(interval200, 0, p2)
    assert res.pinned == (0,)
    rep = verify_weak_residual(res)
    assert rep["n_free"] == interval200.n_nodes - 1
    assert rep["ok"]


def test_weak_residual_is_judged_at_the_params_of_the_solve(interval200):
    import dataclasses

    params = SolverParams(p=2.0, tol_res=1e-7)
    res = solve_robin(interval200, BoundaryWeight.constant(interval200, 2.0), params)
    assert res.params is params
    rep = verify_weak_residual(res)
    assert rep["ok"] and rep["tol_res"] == params.tol_res
    # the same pair read as a p = 3 solve is not an eigenpair
    assert not verify_weak_residual(dataclasses.replace(res, params=SolverParams(p=3.0)))["ok"]


@pytest.mark.parametrize("start", ["cold", "continued"])
@pytest.mark.parametrize("mode", ["robin", "dirichlet", "point", "dirac"])
@pytest.mark.parametrize("mesh_name, p", [("interval200", 2.0), ("interval200", 3.0), ("square4", 3.0)],
                         ids=["interval-p2", "interval-p3", "square-p3"])
def test_residual_vector_definition(mesh_name, p, mode, start, request):
    # the solver's acceptance test is the public re-check, bit for bit, and the
    # weak form tested against every free hat function
    mesh = request.getfixturevalue(mesh_name)
    params = SolverParams(p=p)
    first, second = (int(n) for n in mesh.boundary_loop[:2])
    continued = start == "continued"
    u0 = solve_robin(mesh, BoundaryWeight.constant(mesh, 1.0), params).u.values if continued else None
    if mode == "robin":
        res = solve_robin(mesh, BoundaryWeight.constant(mesh, 2.0), params, u0=u0)
    elif mode == "dirichlet":
        res = solve_dirichlet(mesh, params, u0=u0)
    elif mode == "point":
        res = solve_point(mesh, second, params,
                          start=solve_point(mesh, first, params) if continued else None)
    else:
        res = solve_dirac(mesh, second, 1.0, params,
                          start=solve_dirac(mesh, first, 1.0, params) if continued else None)
    assert verify_weak_residual(res)["max_residual"] == res.residual
    free = np.ones(mesh.n_nodes, dtype=bool)
    free[list(res.pinned)] = False
    r = weak_residual(res.u, res.weight, p, res.lam, params.eps_reg)
    assert p * np.max(np.abs(r[free])) == pytest.approx(res.residual, rel=1e-12, abs=1e-15)


def test_small_exponent_with_stronger_smoothing():
    # near p = 1 the energy degenerates; a larger derivative smoothing
    # restores convergence at mildly reduced accuracy
    from robinopt import interval_dirichlet_p

    mesh = build_interval(100)
    res = solve_dirichlet(mesh, SolverParams(p=1.1, eps_reg=1e-6))
    exact = interval_dirichlet_p(1.1)
    assert abs(res.lam - exact) / exact < 0.005


def test_large_exponent_with_scaled_tolerance():
    # at p = 10 the eigenvalue is ~1e4, so the absolute residual target must
    # scale with it (1e-8 would demand ~5e-13 relative, below float noise)
    from robinopt import interval_dirichlet_p

    mesh = build_interval(100)
    res = solve_dirichlet(mesh, SolverParams(p=10.0, tol_res=1e-4))
    exact = interval_dirichlet_p(10.0)
    assert abs(res.lam - exact) / exact < 0.005


@pytest.fixture(scope="module")
def disk05():
    return build_disk(0.05)


@pytest.mark.parametrize("mode, p, lam", [
    ("robin", 6.0, 0.33915213743548), ("dirichlet", 6.0, 27.028634645501),
    ("robin", 10.0, 0.047828438852748), ("dirichlet", 10.0, 62.061915593251),
])
def test_cold_large_exponent_solve_escalates_the_ridge(disk05, mode, p, lam, monkeypatch, caplog):
    # at large p the stiffness Hessian nearly vanishes where the iterate is
    # flat, so the plain Newton step is huge there: the escalated ridge
    # shortens it to a step Armijo accepts, in few objective evaluations and
    # with no inner solve stalling
    calls, objective = [], ConvexPEnergyProblem.objective
    monkeypatch.setattr(ConvexPEnergyProblem, "objective",
                        lambda self, w, b: calls.append(1) or objective(self, w, b))
    params = SolverParams(p=p)
    with caplog.at_level(logging.DEBUG, logger="robinopt"):
        if mode == "robin":
            res = solve_robin(disk05, BoundaryWeight.constant(disk05, 2.0 * np.pi), params)
        else:
            res = solve_dirichlet(disk05, params)
    assert len(calls) <= 1500
    assert not any("inner Newton stalled" in r.getMessage() for r in caplog.records)
    assert res.lam == pytest.approx(lam, rel=1e-10)


def test_inner_stall_carries_best_iterate():
    from robinopt import ConvergenceError

    mesh = build_interval(100)
    with pytest.raises(ConvergenceError) as exc:
        solve_dirichlet(mesh, SolverParams(p=1.1))  # default smoothing too weak here
    best = exc.value.best
    assert best is not None and best.lam > 0
    assert "eps_reg" in str(exc.value)


def test_nonconvex_polygon_solves():
    from robinopt import build_polygon

    L = build_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], 0.25)
    params = SolverParams(p=2.0)
    lam_d = solve_dirichlet(L, params).lam
    assert 0 < lam_d < np.inf
    w = BoundaryWeight.constant(L, 2.0)
    lam = solve_robin(L, w, params).lam
    assert lam <= min(lam_d, 2.0 / L.volume) + 1e-9


def test_polygon_corner_flux_refused_with_explanation():
    # at convex polygon corners the optimal weight density vanishes, so the
    # discrete corner flux can dip negative at truncation scale; the pipeline
    # reports this instead of emitting a sign-violating weight
    from robinopt import FSolver, InvariantViolationError, build_polygon, sigma_max

    L = build_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], 0.25)
    with pytest.raises(InvariantViolationError) as exc:
        sigma_max(FSolver(L, SolverParams(p=2.0)), 2.0)
    assert "corner" in str(exc.value)
