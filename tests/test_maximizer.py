import numpy as np
import pytest

from robinopt import (
    ConfigError,
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
import robinopt.energy as en
import robinopt.maximizer as mx
from robinopt.energy import weak_residual
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
        assert rep.bisect_evals <= 20
        assert rep.F_residual <= 1e-9


def test_inversion_near_mass_ceiling_stays_off_the_ceiling(interval200, p2, monkeypatch):
    # m just below lam_D |Omega|: the root (xi ~ 5.2) lies far below lam_D,
    # where Picard contracts at about xi/lam_D; no evaluation may land there
    picard = []
    solve = mx.solve_aux

    def counting_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        picard.append(sol.picard_iters)
        return sol

    monkeypatch.setattr(mx, "solve_aux", counting_solve)
    solver = FSolver(interval200, p2)
    m = 0.9999 * solver.lam_dirichlet * interval200.volume
    rep = sigma_max(solver, m)
    assert sum(picard) <= 2000
    assert rep.F_residual <= 1e-9
    assert abs(rep.xi_m - closed_form_F_root(m)) <= 1e-3 * rep.xi_m


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


def test_picard_decrease_is_an_invariant_violation(interval200, p2, monkeypatch):
    solver = FSolver(interval200, p2)
    v0 = np.sin(np.pi * interval200.nodes[:, 0])
    monkeypatch.setattr(solver.problem, "solve", lambda b, w0, **kwargs: 0.5 * w0)
    with pytest.raises(InvariantViolationError, match="Picard iterate decreased at step 1"):
        solve_aux(solver, 1.0, v0=v0)


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
