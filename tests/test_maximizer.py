import re

import numpy as np
import pytest

from robinopt import (
    ConfigError,
    ConvergenceError,
    FSolver,
    InvariantViolationError,
    SolverParams,
    interval_robin_p2,
    random_weight,
    rayleigh,
    sigma_max,
    solve_aux,
    solve_robin,
)
import robinopt.cli as cli
import robinopt.energy as en
import robinopt.maximizer as mx
from robinopt.energy import weak_residual
from robinopt.innersolve import ConvexPEnergyProblem
from robinopt.oracle import bisect_root


def closed_form_F_root(m):
    """Root of 2 sqrt(xi) tan(sqrt(xi)/2) = m, independent scalar solve."""
    f = lambda xi: 2 * np.sqrt(xi) * np.tan(np.sqrt(xi) / 2) - m
    return bisect_root(f, 1e-12, np.pi**2 - 1e-9, rtol=1e-14)


def test_aux_small_parameter_is_torsion(interval200, p2):
    sol = solve_aux(FSolver(interval200, p2), 1e-8)
    assert abs(sol.u_xi.values.max() - 0.125) < 1e-6


def test_aux_closed_form_at_unit_parameter(interval200, p2):
    sol = solve_aux(FSolver(interval200, p2), 1.0)
    exact_max = 1.0 / np.cos(0.5) - 1.0
    assert abs(sol.u_xi.values.max() - exact_max) / exact_max < 0.005
    assert abs(sol.F_value - 2 * np.tan(0.5)) / (2 * np.tan(0.5)) < 0.005


def test_aux_rejects_parameter_at_ceiling(interval200, p2):
    solver = FSolver(interval200, p2)
    with pytest.raises(ConfigError):
        solve_aux(solver, solver.lam_dirichlet)
    with pytest.raises(ConfigError):
        solve_aux(solver, -1.0)


def test_F_at_zero(interval200, p2):
    # F(0) = 0 is the inversion's lower bracket end, never an evaluation
    with pytest.raises(ConfigError):
        solve_aux(FSolver(interval200, p2), 0.0)


def test_F_monotone_and_above_linear_bound(interval200, p2):
    solver = FSolver(interval200, p2)
    xs = [f * solver.lam_dirichlet for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    fs = [solve_aux(solver, xi).F_value for xi in xs]
    assert all(b > a for a, b in zip(fs, fs[1:]))
    assert all(F >= xi * interval200.volume - 1e-9 for F, xi in zip(fs, xs))


def test_aux_solutions_ordered_in_parameter(interval200, p2):
    solver = FSolver(interval200, p2)
    prev = None
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        sol = solve_aux(solver, frac * solver.lam_dirichlet)
        if prev is not None:
            assert np.all(sol.u_xi.values >= prev - 1e-9)
        prev = sol.u_xi.values


def test_invert_F_against_scalar_root(interval200, p2):
    xi = FSolver(interval200, p2).invert(2.0).xi
    exact = closed_form_F_root(2.0)
    assert abs(xi - exact) / exact < 0.005


def test_invert_F_small_mass(interval200, p2):
    assert FSolver(interval200, p2).invert(1e-6).xi < 1e-5


def test_invert_F_monotone(interval200, p2):
    xs = [FSolver(interval200, p2).invert(m).xi for m in (1.0, 2.0, 4.0)]
    assert xs[0] < xs[1] < xs[2]


def test_invert_F_rejects_nonpositive_mass(interval200, p2):
    with pytest.raises(ConfigError):
        FSolver(interval200, p2).invert(0.0)
    # nor a non-finite one: an infinite mass would pass |F - m| <= 1e-10 m at
    # once, with no solution
    for m in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="positive and finite"):
            FSolver(interval200, p2).invert(m)
        with pytest.raises(ConfigError, match="positive and finite"):
            sigma_max(FSolver(interval200, p2), m)


def test_pipeline_interval_symmetric(interval200, p2):
    rep = sigma_max(FSolver(interval200, p2), 2.0)
    masses = dict(rep.sigma_m.atoms)
    left, right = masses[0], masses[interval200.n_nodes - 1]
    assert abs(left - right) / max(left, right) < 1e-10
    assert abs(rep.sigma_mass - 2.0) / 2.0 < 1e-9
    assert rep.crosscheck_ok
    assert abs(rep.crosscheck_lambda - rep.xi_m) / rep.xi_m < 1e-3
    # the maximal eigenvalue coincides with the symmetric Robin eigenvalue
    assert abs(rep.Lambda - interval_robin_p2(1.0, 1.0)) / rep.Lambda < 0.005


def test_bisect_evals_counted_per_mass(interval200, p2):
    solver = FSolver(interval200, p2)
    first = sigma_max(solver, 1.0)
    second = sigma_max(solver, 2.0)
    assert 0 < first.bisect_evals < solver.evals
    assert 0 < second.bisect_evals < solver.evals
    assert first.bisect_evals + second.bisect_evals == solver.evals


def test_inversion_evals_and_residual(interval200, p2):
    solver = FSolver(interval200, p2)
    # m = 50 walks the bracket up to the ceiling
    assert 50.0 / interval200.volume > solver.lam_dirichlet
    for m in (0.01, 0.5, 2.0, 8.0, 50.0):
        rep = sigma_max(solver, m)
        assert rep.bisect_evals <= 12
        assert rep.F_residual <= 1e-10


def test_inversion_near_mass_ceiling_stays_off_the_ceiling(interval200, p2, monkeypatch):
    # m just below lam_D |Omega| (the root xi ~ 5.2 lies far below lam_D) and
    # m = 50 > lam_D |Omega|, whose trials walk up from lam_D / 2: no
    # evaluation may land nearer lam_D than half the root's distance from it
    evaluated = []
    solve = mx.solve_aux

    def recording_solve(solver, xi, *args, **kwargs):
        sol = solve(solver, xi, *args, **kwargs)
        evaluated.append((xi, sol.F_value))
        return sol

    monkeypatch.setattr(mx, "solve_aux", recording_solve)
    solver = FSolver(interval200, p2)
    lam = solver.lam_dirichlet
    for m in (0.9999 * lam * interval200.volume, 50.0):
        evaluated.clear()
        rep = sigma_max(solver, m)
        xs = [xi for xi, _ in evaluated]
        assert max(xs) < lam - 0.5 * (lam - rep.xi_m)
        assert rep.F_residual <= 1e-9
        assert abs(rep.xi_m - closed_form_F_root(m)) <= 1e-3 * rep.xi_m
    # m = 50: the bracket's upper end is the ceiling until some F reaches m,
    # so each trial after one with F < m bisects toward lam_D
    assert m / interval200.volume > lam
    assert xs[0] == 0.5 * lam
    walk = [k for k, (_, f) in enumerate(evaluated) if f >= m][0]
    assert walk >= 2
    for k in range(1, walk + 1):
        assert np.isclose(xs[k], 0.5 * (xs[k - 1] + lam), rtol=1e-15, atol=0.0)


def test_pipeline_eigenfunction_is_one_on_boundary(interval200, p2):
    rep = sigma_max(FSolver(interval200, p2), 3.0)
    bvals = rep.u_m.values[interval200.node_is_boundary]
    assert np.all(bvals == 1.0)


def test_pipeline_candidate_satisfies_weak_form(interval200, p2):
    rep = sigma_max(FSolver(interval200, p2), 2.0)
    r = weak_residual(rep.u_m, rep.sigma_m, 2.0, rep.xi_m, p2.eps_reg)
    assert 2.0 * np.max(np.abs(r)) < p2.tol_res


def test_pipeline_disk_constant_weight(p2):
    from robinopt import build_disk, disk_robin_p2_const

    d = build_disk(0.1)
    rep = sigma_max(FSolver(d, p2), 2 * np.pi)
    dens = rep.sigma_m.spread_atoms()
    assert abs(dens.mean() - 1.0) < 0.02
    assert (dens.max() - dens.min()) / dens.mean() < 0.02
    total = float(np.dot(dens, d.facet_measures))
    assert abs(total - rep.sigma_mass) < 1e-12 * rep.sigma_mass
    oracle = disk_robin_p2_const(1.0)
    assert abs(rep.Lambda - oracle) / oracle < 0.02


def test_pipeline_square_p3(square4, p3):
    rep = sigma_max(FSolver(square4, p3), 2.0)
    assert rep.crosscheck_ok
    assert abs(rep.sigma_mass - 2.0) / 2.0 < 1e-9
    assert np.all([m >= 0 for _, m in rep.sigma_m.atoms])


def test_maximal_value_dominates_random_weights(interval200, p2):
    rep = sigma_max(FSolver(interval200, p2), 2.0)
    rng = np.random.default_rng(42)
    for _ in range(20):
        w = random_weight(interval200, 2.0, rng)
        # the test-function value at the pipeline eigenfunction is exact
        assert rayleigh(rep.u_m, w, 2.0) <= rep.xi_m + 1e-9
        # and the solved eigenvalue sits below it up to solver tolerance
        assert solve_robin(interval200, w, p2).lam <= rep.xi_m + 1e-6


def test_Lambda_monotone_and_sandwiched(interval200, p2):
    solver = FSolver(interval200, p2)
    vals = []
    for m in (0.5, 1.0, 2.0, 8.0):
        rep = sigma_max(solver, m)
        vals.append(rep.Lambda)
        assert rep.Lambda <= min(solver.lam_dirichlet, m / interval200.volume) + 1e-9
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_picard_decrease_is_an_invariant_violation(interval200, p3, monkeypatch):
    solver = FSolver(interval200, p3)
    v0 = np.sin(np.pi * interval200.nodes[:, 0])
    monkeypatch.setattr(solver.problem, "solve", lambda b, w0, **kwargs: 0.5 * w0)
    with pytest.raises(InvariantViolationError, match="Picard iterate decreased at step 1"):
        solve_aux(solver, 1.0, v0=v0)


def picard_reference(solver, xi):
    """The auxiliary solution and F at xi by plain Picard steps from v = 0,
    each one convex solve with the load frozen at the previous iterate, to a
    relative step of 1e-12. A convex solve that stalls above its default
    tolerance (interval 200 at p = 4 near the ceiling) returns its best
    iterate: its gradient stays below 2e-10 of the load's max-norm, far below
    the 1e-7 this reference is compared at."""
    mesh, p, problem = solver.mesh, solver.params.p, solver.problem
    scale = xi ** (1.0 / (p - 1.0))
    v = np.zeros(mesh.n_nodes)
    for _ in range(5000):
        rhs = (scale * en.gauss_values(mesh, v) + 1.0) ** (p - 1.0)
        v_new = problem.solve(en.assemble_load(mesh, rhs), w0=v, gtol_soft=np.inf)
        step, v = np.max(np.abs(v_new - v)), v_new
        if step < 1e-12 * (1.0 + np.max(np.abs(v))):
            return v, xi * en.integrate_gauss(mesh, (scale * en.gauss_values(mesh, v) + 1.0) ** (p - 1.0))
    raise AssertionError(f"reference Picard iteration did not converge at xi={xi}")


@pytest.mark.parametrize("frac", [0.5, 0.9])
@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("mesh", ["interval200", "square4"])
def test_newton_solution_matches_plain_picard(mesh, p, frac, request):
    mesh = request.getfixturevalue(mesh)
    solver = FSolver(mesh, SolverParams(p=p))
    xi = frac * solver.lam_dirichlet
    sol = solve_aux(solver, xi)
    assert sol.newton_iters >= 1
    v, F = picard_reference(solver, xi)
    assert abs(sol.F_value - F) <= 1e-7 * F
    assert np.max(np.abs(sol.u_xi.values - v)) <= 1e-7 * np.max(v)


def test_failed_jacobian_factorizations_leave_picard_alone(square4, p3, monkeypatch):
    # Picard steps alone stop at a relative step below _TOL_AUX, and their F
    # comes from the iterate before the last step: it agrees with the Newton
    # solution's to a few _TOL_AUX (3.8e-9 relative here, 8.2e-9 at 0.5 lam_D)
    solver = FSolver(square4, p3)
    xi = 0.3 * solver.lam_dirichlet
    newton = solve_aux(solver, xi)

    def failing_solve(problem, b, shift=0.0, w=None, z=None):
        raise np.linalg.LinAlgError("forced failure")

    # the inner convex solves factor their Hessians in the work band directly:
    # at p != 2 only the auxiliary Newton steps call linear_solve
    monkeypatch.setattr(ConvexPEnergyProblem, "linear_solve", failing_solve)
    picard = solve_aux(solver, xi)
    assert picard.newton_iters == 0 and picard.picard_iters > 2
    assert newton.picard_iters < picard.picard_iters
    assert abs(picard.F_value - newton.F_value) <= 10.0 * mx._TOL_AUX * newton.F_value


def test_newton_stopped_above_the_solution_hands_back_a_subsolution(square4, p3, monkeypatch):
    # at p = 3 the first Newton step from a subsolution overshoots, and the
    # later iterates lie above the solution, where a Picard step would go
    # down: when Newton stops there, the Picard steps start from the last
    # iterate with G <= 0 up to the inner tolerance, here the warm start
    solver = FSolver(square4, p3)
    v0 = solver(0.3 * solver.lam_dirichlet).u_xi.values
    xi = 0.5 * solver.lam_dirichlet
    good = solve_aux(solver, xi, v0=v0)
    linear_solve, calls = ConvexPEnergyProblem.linear_solve, []

    def second_fails(problem, b, shift=0.0, w=None, z=None):
        calls.append(b)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("forced failure")
        return linear_solve(problem, b, shift, w, z)

    monkeypatch.setattr(ConvexPEnergyProblem, "linear_solve", second_fails)
    sol = solve_aux(solver, xi, v0=v0)
    assert good.picard_iters == 1 and sol.picard_iters == 2
    assert abs(sol.F_value - good.F_value) <= 1e-12 * good.F_value


def test_warm_started_evaluations_end_in_one_or_two_picard_steps(interval200, p3, monkeypatch):
    seen = []
    solve = mx.solve_aux

    def recording_solve(solver, xi, v0=None):
        sol = solve(solver, xi, v0)
        seen.append((v0 is not None, sol))
        return sol

    monkeypatch.setattr(mx, "solve_aux", recording_solve)
    FSolver(interval200, p3).invert(5.0)
    warm = [sol for started, sol in seen if started]
    assert warm
    assert all(sol.picard_iters <= 2 and sol.newton_iters >= 1 for sol in warm)


def test_small_exponent_mass_near_the_ceiling_inverts():
    # the inner Newton solves of plain Picard steps stall here at 3.8e-12
    # against a target of 1.2e-13; Newton on the auxiliary equation reaches
    # its solution, and the closing Picard step starts at it
    from robinopt import build_interval

    rep = sigma_max(FSolver(build_interval(100), SolverParams(p=1.5)), 100.0)
    assert rep.crosscheck_ok
    assert rep.F_residual <= 1e-10
    assert abs(rep.sigma_mass - 100.0) <= 1e-9 * 100.0


@pytest.mark.parametrize("frac", [0.5, 0.9, 0.999])
@pytest.mark.parametrize("mesh", ["interval200", "disk10"])
def test_direct_solution_is_a_picard_fixed_point(mesh, frac, p2, request):
    # one Picard step from the p = 2 direct solution, solved with the factor
    # of K alone, neither moves it by _TOL_AUX nor lowers it
    mesh = request.getfixturevalue(mesh)
    solver = FSolver(mesh, p2)
    sol = solve_aux(solver, frac * solver.lam_dirichlet)
    assert sol.picard_iters == 0
    v = sol.u_xi.values
    step = solver.problem.solve(sol.load) - v
    scale = 1.0 + np.max(np.abs(v))
    assert np.max(np.abs(step)) < mx._TOL_AUX * scale
    assert np.min(step) >= -mx._PICARD_SLACK * scale


def test_direct_solve_residual_is_checked(interval200, p2, monkeypatch):
    # a solve that does not match the load's operator K - xi M leaves a
    # free-node residual far above the roundoff floor
    linear_solve = ConvexPEnergyProblem.linear_solve
    monkeypatch.setattr(ConvexPEnergyProblem, "linear_solve",
                        lambda problem, b, shift=0.0: 1.001 * linear_solve(problem, b, shift))
    with pytest.raises(InvariantViolationError, match="direct auxiliary solve"):
        solve_aux(FSolver(interval200, p2), 5.0)


@pytest.mark.parametrize("m", [1e8, 1e16])
def test_huge_mass_ends_in_a_taxonomy_error(interval200, p2, m):
    # the root lies within roundoff of lam_D, or beyond float reach, where the
    # factorization of K - xi M fails: F counts as above m there, and the
    # bracket closes on adjacent floats far from m
    solver = FSolver(interval200, p2)
    with pytest.raises(ConvergenceError, match=re.escape(f"mass m={m!r} unreachable on this mesh")) as exc:
        solver.invert(m)
    assert "refine the mesh" in str(exc.value)
    assert 0.0 < exc.value.diagnostics["xi"] < solver.lam_dirichlet
    assert solver.evals <= 100
    argv = ["maximize", "--domain", "builtin:interval:200", "--p", "2", "--m", repr(m)]
    assert cli.main(argv) == 4


def test_invert_near_the_ceiling_accepts_adjacent_floats_within_sqrt_eps(interval200, p2):
    # at m = 1e4 (xi ~ lam_D - 8e-3) F carries the roundoff of the factored
    # K - xi M: the bracket may close above the 1e-10 stop, but within sqrt(eps)
    solver = FSolver(interval200, p2)
    sol = solver.invert(1e4)
    assert abs(sol.F_value - 1e4) / 1e4 <= np.sqrt(np.finfo(float).eps)
    assert solver.evals <= 100


def test_sigma_m_atoms_are_the_scaled_flux_clipped_at_zero(square4, p3, monkeypatch):
    recover_flux, seen = en.recover_flux, []

    def with_roundoff_negative(*args, **kwargs):
        # move a mass-neutral -1e-13 into the first entry: clipped, not refused
        masses = recover_flux(*args, **kwargs)
        masses[1] += masses[0] + 1e-13
        masses[0] = -1e-13
        seen.append(masses)
        return masses

    monkeypatch.setattr(en, "recover_flux", with_roundoff_negative)
    rep = sigma_max(FSolver(square4, p3), 2.0)
    nodes, masses = zip(*rep.sigma_m.atoms)
    assert list(nodes) == square4.boundary_nodes().tolist()
    assert np.array_equal(masses, np.maximum(rep.xi_m * seen[0], 0.0))
    assert masses[0] == 0.0


def test_flux_mass_mismatch_is_an_invariant_violation(interval200, p2, monkeypatch):
    recover_flux = en.recover_flux

    def off_by_1e8(*args, **kwargs):
        masses = recover_flux(*args, **kwargs)
        return masses * (1 + 1e-8)

    monkeypatch.setattr(en, "recover_flux", off_by_1e8)
    with pytest.raises(InvariantViolationError, match="does not reproduce F"):
        sigma_max(FSolver(interval200, p2), 2.0)


def test_mass_inversion_second_order_in_h():
    from robinopt import build_interval

    exact = closed_form_F_root(2.0)
    errs = []
    for n in (50, 100, 200):
        xi = FSolver(build_interval(n), SolverParams(p=2.0)).invert(2.0).xi
        errs.append(abs(xi - exact) / exact)
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) > 1.8
