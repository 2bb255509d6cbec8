"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import time
from contextlib import contextmanager

import numpy as np

import robinopt.energy as en
from robinopt import (
    BoundaryWeight,
    SolverParams,
    belsup,
    brute_force_1d,
    build_disk,
    build_interval,
    build_square,
    check_all,
    concentration_demo,
    disk_robin_p2_const,
    inflow,
    interval_dirichlet_p,
    interval_robin_p2,
    lambda_inf,
    random_weight,
    rayleigh,
    rayleigh_gradient,
    recover_flux,
    refine,
    scan_point_eigen,
    sigma_max,
    solve_dirac,
    solve_dirichlet,
    solve_robin,
)
from robinopt.innersolve import ConvexPEnergyProblem
from robinopt.maximizer import FSolver
from robinopt.oracle import bisect_root


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} [{name}]: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s over budget {budget_s}s"
    print(f"\nACCEPTANCE {num} [{name}]: PASS ({elapsed:.1f}s)")


def test_criterion_1_dirichlet_1d():
    mesh = build_interval(400)
    with criterion(1, "1D Dirichlet eigenvalues", 2 * 5.0):
        lam2 = solve_dirichlet(mesh, SolverParams(p=2.0)).lam
        assert abs(lam2 - np.pi**2) / np.pi**2 < 0.01

        exact3 = interval_dirichlet_p(3.0)
        assert abs(exact3 - 28.29) < 0.01
        lam3 = solve_dirichlet(mesh, SolverParams(p=3.0)).lam
        assert abs(lam3 - exact3) / exact3 < 0.01
        bf3 = brute_force_1d(3.0, mode="dirichlet", n_grid=10_000)
        assert abs(lam3 - bf3) / bf3 < 0.01


def test_criterion_2_robin_oracle_agreement():
    mesh = build_interval(200)
    params = SolverParams(p=2.0)
    with criterion(2, "1D Robin oracle agreement", 5.0):
        sym = solve_robin(mesh, BoundaryWeight.from_facet_density(mesh, np.ones(2)), params).lam
        oracle_sym = interval_robin_p2(1.0, 1.0)
        assert abs(oracle_sym - 1.70705) < 5e-6
        assert abs(sym - oracle_sym) / oracle_sym < 0.005

        dirac = solve_dirac(mesh, 0, 1.0, params).lam
        oracle_one = interval_robin_p2(1.0, 0.0)
        assert abs(oracle_one - 0.74017) < 5e-6
        assert abs(dirac - oracle_one) / oracle_one < 0.005


def test_criterion_3_maximizer_pipeline_interval():
    mesh = build_interval(200)
    params = SolverParams(p=2.0)
    with criterion(3, "constructive maximizer pipeline", 30.0):
        cache = FSolver(mesh, params)
        last = mesh.n_nodes - 1
        for m in (0.5, 1.0, 2.0, 8.0):
            rep = sigma_max(cache, m)
            root = bisect_root(
                lambda xi: 2 * np.sqrt(xi) * np.tan(np.sqrt(xi) / 2) - m,
                1e-12, np.pi**2 - 1e-9, rtol=1e-14,
            )
            assert abs(rep.xi_m - root) / root < 0.005
            masses = dict(rep.sigma_m.atoms)
            asym = abs(masses[0] - masses[last]) / max(masses[0], masses[last])
            assert asym < 1e-10
            assert abs(rep.crosscheck_lambda - rep.xi_m) / rep.xi_m < 1e-3
            assert abs(rep.sigma_mass - m) / m < 1e-9


def test_criterion_4_disk_constant_maximizer():
    with criterion(4, "disk maximizer is constant", 300.0):
        mesh = build_disk(0.05)
        params = SolverParams(p=2.0)
        rep = sigma_max(FSolver(mesh, params), 2 * np.pi)
        dens = rep.aux.sigma_flux.as_facet_density()
        assert (dens.max() - dens.min()) / dens.mean() < 0.02
        assert abs(dens.mean() - 1.0) < 0.02
        oracle = disk_robin_p2_const(1.0)
        assert abs(rep.Lambda - oracle) / oracle < 0.02


def test_criterion_5_auxiliary_monotonicity():
    from robinopt.maximizer import solve_aux

    with criterion(5, "auxiliary-function invariants", 120.0):
        for mesh in (build_interval(200), build_square(0.25)):
            for p in (1.5, 2.0, 3.0):
                solver = FSolver(mesh, SolverParams(p=p))
                prev = None
                f_vals = []
                for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                    xi = frac * solver.lam_dirichlet
                    sol = solve_aux(solver, xi)
                    if prev is not None:
                        assert np.all(sol.u_xi.values >= prev - 1e-9)
                    prev = sol.u_xi.values
                    f_vals.append(sol.F_value)
                    assert sol.F_value >= xi * mesh.volume - 1e-9
                assert all(b > a for a, b in zip(f_vals, f_vals[1:]))


def _facet_concentrated_weight(mesh, node, mass):
    adjacent = [k for k, f in enumerate(mesh.boundary_facets) if node in f]
    dens = np.zeros(len(mesh.boundary_facets))
    total = sum(mesh.facet_measures[k] for k in adjacent)
    for k in adjacent:
        dens[k] = mass / total
    return BoundaryWeight.from_facet_density(mesh, dens)


def _tol_h(mesh, m, params):
    rep = lambda_inf(scan_point_eigen(mesh, params), m)
    w = _facet_concentrated_weight(mesh, rep.x_m_node, m)
    lam_facet = solve_robin(mesh, w, params).lam
    return max(lam_facet - rep.lambda_inf, 0.0), rep


def test_criterion_6_optimality_of_extremizers():
    with criterion(6, "random weights sit between the extremes", 600.0):
        rng = np.random.default_rng(2024)

        # maximizer side via the boundary-constant test function
        for mesh, m in ((build_interval(200), 2.0), (build_disk(0.1), 2 * np.pi)):
            params = SolverParams(p=2.0)
            rep = sigma_max(FSolver(mesh, params), m)
            for _ in range(20):
                w = random_weight(mesh, m, rng)
                assert rayleigh(rep.u_m, w, 2.0) <= rep.xi_m + 1e-9
                assert solve_robin(mesh, w, params).lam <= rep.xi_m + 1e-6

        # minimizer side (p > dim): interval p=2 and disk p=3
        mesh = build_interval(200)
        params = SolverParams(p=2.0)
        tol_h, rep = _tol_h(mesh, 2.0, params)
        for _ in range(20):
            w = random_weight(mesh, 2.0, rng)
            assert solve_robin(mesh, w, params).lam >= rep.lambda_inf - tol_h - 1e-9

        # p = 4 on the disk: the facet-to-point gap then decays like h, so one
        # refinement halves it (up to higher-order corrections)
        coarse = build_disk(0.25)
        fine = refine(coarse)
        params = SolverParams(p=4.0)
        tol_c, rep_c = _tol_h(coarse, 2.0, params)
        tol_f, _ = _tol_h(fine, 2.0, params)
        print(f"  facet-concentration gap: coarse {tol_c:.3e}, refined {tol_f:.3e}")
        assert tol_f <= 0.65 * tol_c + 1e-12
        for _ in range(20):
            w = random_weight(coarse, 2.0, rng)
            assert solve_robin(coarse, w, params).lam >= rep_c.lambda_inf - tol_c - 1e-9


def test_criterion_7_infimum_side():
    with criterion(7, "infimum side and its sandwich", 600.0):
        mesh = build_interval(200)
        params = SolverParams(p=2.0)
        scan = scan_point_eigen(mesh, params)
        vals = []
        for m in (1.0, 10.0, 100.0, 1000.0):
            rep = lambda_inf(scan, m)
            assert rep.x_m_node in (0, mesh.n_nodes - 1)
            vals.append(rep.lambda_inf)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - (np.pi / 2) ** 2) / (np.pi / 2) ** 2 < 0.05

        square = build_square(0.125)
        params3 = SolverParams(p=3.0)
        scan3 = scan_point_eigen(square, params3)
        for m in (0.1, 1.0, 10.0, 100.0):
            rep = lambda_inf(scan3, m)
            low = inflow(m, scan3.lambda1_omega, square.volume, 3.0)
            up = min(scan3.lambda1_omega, m / square.volume)
            assert low <= rep.lambda_inf * (1 + 1e-3)
            assert rep.lambda_inf <= up * (1 + 1e-3)


def test_criterion_8_concentration_sequences():
    with criterion(8, "concentration drives the quotient to zero", 60.0):
        js = [100, 1000, 10_000, 1_000_000]
        run15 = concentration_demo(1.5, 1.0, js)
        run20 = concentration_demo(2.0, 1.0, js)
        for run in (run15, run20):
            assert all(q <= b + 1e-9 for q, b in zip(run.q, run.bound))
            assert all(b < a for a, b in zip(run.q, run.q[1:]))
        assert run15.q[-1] < 0.05
        assert run20.q[-1] < 0.12


def test_criterion_9_bounds_suite():
    with criterion(9, "closed-form bound sandwiches", 900.0):
        grid = list(np.geomspace(1e-2, 1e2, 9))
        interval = build_interval(200)
        assert check_all(interval, grid, SolverParams(p=2.0)).all_pass
        square = build_square(0.125)
        assert check_all(square, grid, SolverParams(p=2.0)).all_pass
        assert check_all(build_square(0.25), grid, SolverParams(p=3.0)).all_pass

        spot = belsup(2.0, np.pi**2, 1.0, 2.0)
        assert abs(spot - 1.6630) < 5e-5
        params = SolverParams(p=2.0)
        cache = FSolver(interval, params)
        lam_d = cache.lam_dirichlet
        small = sigma_max(cache, 1e-3)
        assert spot <= sigma_max(cache, 2.0).Lambda
        assert small.Lambda < 1e-3 * (1 + 1e-3) / interval.volume
        big = sigma_max(cache, 1e4)
        assert big.Lambda / lam_d > 0.9


def test_criterion_10_numerics_hygiene(tmp_path):
    with criterion(10, "numerics hygiene", 120.0):
        # gradient versus central differences
        mesh = build_interval(16)
        w = BoundaryWeight.from_facet_density(mesh, np.ones(2))
        rng = np.random.default_rng(7)
        orders = []
        for _ in range(10):
            u = en.NodalField(mesh, rng.uniform(0.5, 1.5, mesh.n_nodes))
            d = rng.standard_normal(mesh.n_nodes)
            g = rayleigh_gradient(u, w, 3.0, SolverParams(p=3.0).eps_reg).values
            errs = []
            for t in (1e-4, 1e-5):
                qp = rayleigh(en.NodalField(mesh, u.values + t * d), w, 3.0)
                qm = rayleigh(en.NodalField(mesh, u.values - t * d), w, 3.0)
                errs.append(abs((qp - qm) / (2 * t) - float(g @ d)))
            orders.append(np.log10(errs[0] / errs[1]))
        assert np.median(orders) >= 1.9

        # flux mass identity on the square
        sq = build_square(0.25)
        rhs = en.NodalField(sq, 1.0 + sq.nodes[:, 0] * sq.nodes[:, 1])
        load = en.assemble_load(sq, en.gauss_values(sq, rhs))
        prob = ConvexPEnergyProblem(sq, SolverParams(p=2.0), fixed_nodes=sq.boundary_nodes())
        u = en.NodalField(sq, prob.solve(load, gtol=1e-15))
        fl = recover_flux(u, load, SolverParams(p=2.0))
        assert abs(fl.total - load.sum()) <= 1e-10 * abs(load.sum())

        # empirical simplicity from two random starts
        interval = build_interval(200)
        wint = BoundaryWeight.from_facet_density(interval, np.ones(2))
        results = [
            solve_robin(interval, wint, SolverParams(p=2.0),
                        u0=np.random.default_rng(seed).uniform(0.5, 1.5, interval.n_nodes))
            for seed in (11, 23)
        ]
        assert np.max(np.abs(results[0].u.values - results[1].u.values)) < 1e-5
        assert abs(results[0].lam - results[1].lam) / results[0].lam < 1e-7

        # serial reruns are byte-identical
        from robinopt.cli import main

        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main([
                "maximize", "--domain", "builtin:interval:200", "--m", "2",
                "--out", str(out),
            ]) == 0
            blobs.append((out / "report.json").read_bytes() + (out / "sigma_m.csv").read_bytes())
        assert blobs[0] == blobs[1]
