import logging
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import robinopt.energy as en
import robinopt.innersolve as ins
from robinopt import BoundaryWeight, ConvergenceError, SolverParams, build_disk, build_interval, build_square
from robinopt.innersolve import ConvexPEnergyProblem
from tests.conftest import run_fresh

MESHES = {
    "interval": lambda: build_interval(12),
    "square": lambda: build_square(0.25),
    "disk": lambda: build_disk(0.25),
}
PATHS = ["dense", "sparse"]


def _pins(mesh):
    bnodes = mesh.boundary_nodes()
    # pinning the middle node splits the interval's free graph in two
    return {"none": None, "dirichlet": bnodes, "point": [int(bnodes[0])],
            "middle": [mesh.n_nodes // 2]}


def _weights(mesh):
    bnodes = mesh.boundary_nodes()
    facet = np.linspace(0.5, 1.5, len(mesh.boundary_facets))
    return {
        "facet": BoundaryWeight.from_facet_density(mesh, facet),
        "dirac": BoundaryWeight.dirac(mesh, int(bnodes[1]), 2.0),
        "mixed": BoundaryWeight(mesh, facet_density=facet,
                                atoms=[(int(bnodes[0]), 1.0), (int(bnodes[-1]), 0.5)]),
    }


def _expand(problem, h):
    """The full free-free matrix of stored entries h of problem._pattern:
    place them in the band and mirror it."""
    pattern = problem._pattern
    n, kd = pattern.n, pattern.kd
    flat = np.zeros((kd + 1) * n)
    flat[pattern.band_pos] = h
    ab = flat.reshape((kd + 1, n), order="F")
    full = np.zeros((n, n))
    for d in range(kd + 1):
        j = np.arange(n - d)
        full[j + d, j] = full[j, j + d] = ab[d, : n - d]
    return full


def _reference_hessian(problem, w, path="sparse"):
    """Full-mesh assembly of the element blocks, sliced to the free nodes:
    COO -> CSR for path "sparse", np.add.at into a full array for "dense"."""
    mesh = problem.mesh
    n = mesh.n_nodes

    def assemble(blocks, elems):
        k = elems.shape[1]
        rows = np.repeat(elems, k, axis=1).ravel()
        cols = np.tile(elems, (1, k)).ravel()
        if path == "dense":
            full = np.zeros((n, n))
            np.add.at(full, (rows, cols), blocks.ravel())
            return full
        return sp.csr_matrix((blocks.ravel(), (rows, cols)), shape=(n, n))

    h = assemble(en.stiffness_term(mesh).blocks(w, problem.p, problem.eps), mesh.cells)
    if problem.weight is not None:
        facet_term, atom_term = en.boundary_terms(problem.weight)
        facets = facet_term.blocks(w, problem.p, problem.eps)
        atoms = atom_term.blocks(w, problem.p, problem.eps)
        if len(facets):
            h = h + assemble(facets, mesh.boundary_facets)
        idx = np.array([a[0] for a in problem.weight.atoms], dtype=int).reshape(-1, 1)
        h = h + assemble(atoms.reshape(-1, 1, 1), idx)
    free = problem.free_idx
    h = h[free][:, free]
    return h if path == "dense" else h.toarray()


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_hessian_matches_coo_reference(mesh_name, path):
    # the band against two independent full-mesh assemblies
    mesh = MESHES[mesh_name]()
    w = np.random.default_rng(1).uniform(0.5, 1.5, mesh.n_nodes)
    for pins in _pins(mesh).values():
        for weight in _weights(mesh).values():
            for p in (1.5, 2.0, 3.0):
                problem = ConvexPEnergyProblem(mesh, SolverParams(p=p), weight=weight,
                                               fixed_nodes=pins)
                h = _expand(problem, problem.hessian(w))
                ref = _reference_hessian(problem, w, path)
                err = np.max(np.abs(h - ref)) / np.max(np.abs(ref))
                assert err <= 1e-13, (pins, weight.kind, p, err)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("mesh_name", ["interval", "disk"])
def test_hessian_matches_gradient_differences(mesh_name, p):
    mesh = MESHES[mesh_name]()
    weight = _weights(mesh)["mixed"]
    problem = ConvexPEnergyProblem(mesh, SolverParams(p=p), weight=weight,
                                   fixed_nodes=_pins(mesh)["point"])
    w = np.random.default_rng(2).uniform(0.5, 1.5, mesh.n_nodes)
    b = np.zeros(mesh.n_nodes)
    free = problem.free_idx
    step = 1e-6
    fd = np.empty((len(free), len(free)))
    for k, node in enumerate(free):
        e = np.zeros(mesh.n_nodes)
        e[node] = step
        diff = problem.gradient(w + e, b) - problem.gradient(w - e, b)
        fd[:, k] = diff[free] / (2.0 * step)
    h = _expand(problem, problem.hessian(w))
    assert np.max(np.abs(h - fd)) <= 1e-6 * np.max(np.abs(h))


@pytest.mark.parametrize("start", ["random", "constant"])
def test_dense_and_sparse_newton_directions_agree(start, monkeypatch):
    # the first direction of a solve step, the banded solve with the first
    # ridge that factors, against a dense solve of the COO reference Hessian
    # with the same ridge
    if start == "random":
        mesh = build_disk(0.25)
        w = np.random.default_rng(3).uniform(0.5, 1.5, mesh.n_nodes)
    else:
        # flat iterate on a mesh whose cell gradients of ones are exactly
        # zero: the p = 3 stiffness Hessian vanishes, so the ridge acts
        mesh = build_square(0.25)
        w = np.ones(mesh.n_nodes)
    weight = _weights(mesh)["mixed"]
    b = en.mass_action(mesh, np.ones(mesh.n_nodes), 3.0)

    class FirstDirection(Exception):
        pass

    directions = []  # (tau, d) of the first factorization that succeeds
    factor = ins._Pattern.factor

    def factor_once(pattern, h, tau=0.0):
        solve = factor(pattern, h, tau)  # a failure escalates the ridge

        def first(r):
            directions.append((tau, solve(r)))
            raise FirstDirection
        return first

    monkeypatch.setattr(ins._Pattern, "factor", factor_once)
    problem = ConvexPEnergyProblem(mesh, SolverParams(p=3.0), weight=weight)
    with pytest.raises(FirstDirection):
        problem.solve(b, w0=w)
    [(tau, d)] = directions
    g = problem.gradient(w, b)[problem.free_idx]
    assert np.all(np.isfinite(d)) and np.dot(g, d) < 0
    assert (tau > 0) == (start == "constant")
    h = _reference_hessian(problem, w) + tau * np.eye(len(problem.free_idx))
    ref = np.linalg.solve(h, -g)
    assert np.max(np.abs(d - ref)) <= 1e-10 * np.max(np.abs(ref))


def _assert_flat_start_logs_ridge_escalation(mesh, caplog):
    weight = BoundaryWeight.constant(mesh, 1.0)
    problem = ConvexPEnergyProblem(mesh, SolverParams(p=3.0), weight=weight)
    b = en.mass_action(mesh, np.ones(mesh.n_nodes), 3.0)
    with caplog.at_level(logging.DEBUG, logger="robinopt"):
        w = problem.solve(b, w0=np.ones(mesh.n_nodes))
    g = problem.gradient(w, b)
    assert np.max(np.abs(g)) <= 1e-12 * (1.0 + np.max(np.abs(b)))
    messages = [r.getMessage() for r in caplog.records if r.name == "robinopt"]
    assert any("factorization failed" in m for m in messages)
    assert any("ridge escalated to tau=" in m for m in messages)


def test_constant_start_logs_ridge_escalation(square4, caplog):
    _assert_flat_start_logs_ridge_escalation(square4, caplog)


def test_flat_start_on_disk_logs_ridge_escalation(caplog):
    # 331 free nodes: the size that sparse LU used to factor
    _assert_flat_start_logs_ridge_escalation(build_disk(0.1), caplog)


def test_first_ridge_is_floored_by_the_gradient_norm(caplog):
    # after the failed factorization of a flat p = 3 start the ridge starts at
    # tau_1 = max(1e-8 dscale, |g|inf), dscale the mean |diagonal| of the
    # Hessian; here |g|inf is the larger, by more than six decades
    mesh = build_disk(0.1)
    problem = ConvexPEnergyProblem(mesh, SolverParams(p=3.0), weight=BoundaryWeight.constant(mesh, 1.0))
    b = en.mass_action(mesh, np.ones(mesh.n_nodes), 3.0)
    w0 = np.ones(mesh.n_nodes)
    dscale = float(np.mean(np.abs(problem.hessian(w0)[problem._pattern.diag]))) + 1e-300
    gn = float(np.max(np.abs(problem.gradient(w0, b)[problem.free])))
    assert gn > 1e6 * (1e-8 * dscale)
    with caplog.at_level(logging.DEBUG, logger="robinopt"):
        problem.solve(b, w0=w0)
    events = [r for r in caplog.records if r.getMessage().startswith("Newton ridge escalated")]
    assert events and events[0].args == (max(1e-8 * dscale, gn),)


def test_nan_start_ends_the_ridge_ladder():
    # a NaN entry makes the Hessian diagonal, and so the ridge cap, NaN: the
    # ladder used to escalate forever, so the solve runs in a fresh
    # interpreter that the timeout kills
    out = run_fresh("""
import numpy as np
import robinopt.energy as en
from robinopt import ConvergenceError, SolverParams, build_interval
from robinopt.innersolve import ConvexPEnergyProblem
mesh = build_interval(40)
problem = ConvexPEnergyProblem(mesh, SolverParams(p=3), fixed_nodes=mesh.boundary_nodes())
w0 = np.ones(mesh.n_nodes)
w0[5] = np.nan
try:
    problem.solve(en.mass_action(mesh, np.ones(mesh.n_nodes), 3.0), w0=w0)
except ConvergenceError as exc:
    print(type(exc).__name__)
""", timeout=60)
    assert out.strip() == "ConvergenceError"


def test_nan_load_climbs_to_the_ridge_cap_and_raises(caplog):
    # the gradient is NaN but the Hessian at w = 0 is finite (zero at p = 3),
    # so the cap is finite and the ladder stops at it
    mesh = build_interval(40)
    problem = ConvexPEnergyProblem(mesh, SolverParams(p=3.0), fixed_nodes=mesh.boundary_nodes())
    with caplog.at_level(logging.DEBUG, logger="robinopt"), pytest.raises(ConvergenceError):
        problem.solve(np.full(mesh.n_nodes, np.nan))
    assert any(r.getMessage().startswith("Newton ridge escalated") for r in caplog.records)


def test_band_width_on_disk_is_order_sqrt_n():
    # 81 in Cuthill-McKee order at 4921 free nodes; the natural order gives 473
    mesh = build_disk(0.025)
    weight = BoundaryWeight.constant(mesh, 1.0)
    problem = ConvexPEnergyProblem(mesh, SolverParams(p=3.0), weight=weight)
    assert problem._pattern.kd <= 2.0 * np.sqrt(len(problem.free_idx))
    assert problem._pattern.kd == 81


def test_quadratic_factor_survives_later_factorizations():
    # the p = 2 problem keeps one factor and redoes it when the shift changes:
    # a shifted solve, or a failed factorization, in between must leave later
    # p = 2 solves unchanged
    mesh = build_disk(0.2)
    params = SolverParams(p=2.0)
    problem = ConvexPEnergyProblem(mesh, params, fixed_nodes=mesh.boundary_nodes())
    b = en.mass_action(mesh, np.ones(mesh.n_nodes), 2.0)
    xi = 3.0  # below the disk's Dirichlet eigenvalue, about 5.8
    before = problem.solve(b)
    shifted = problem.linear_solve(b, xi)
    assert np.array_equal(problem.solve(b), before)
    with pytest.raises(np.linalg.LinAlgError):
        problem.linear_solve(b, 100.0)  # above the Dirichlet eigenvalue
    assert np.array_equal(problem.solve(b), before)
    fresh = ConvexPEnergyProblem(mesh, params, fixed_nodes=mesh.boundary_nodes())
    assert np.array_equal(fresh.linear_solve(b, xi), shifted)
    assert not np.allclose(shifted, before)
    # the shifted solve is the one of K - xi M
    r = problem.gradient(shifted, b) - xi * en.mass_action(mesh, shifted, 2.0)
    assert np.max(np.abs(r[problem.free])) <= 1e-10 * np.max(np.abs(b))


def test_quadratic_refinement_stops_at_roundoff_floor(interval200, monkeypatch):
    # a late p = 2 Picard step near the root of F = 1e4 on interval 200:
    # xi ~ lam_D - 8e-3 and an iterate ~ 160 sin(pi x), where the residual
    # floor of the factored solve sits above gtol = 1e-13 (1 + |b|); the one
    # factor solve is already as accurate as the dense reference
    mesh = interval200
    xi = np.pi**2 - 8e-3
    v = 160.0 * np.sin(np.pi * mesh.nodes[:, 0])
    b = en.assemble_load(mesh, xi * en.gauss_values(mesh, v) + 1.0)
    gtol = 1e-13 * (1.0 + np.max(np.abs(b)))
    solves = []
    factor = ins._Pattern.factor

    def counting_factor(pattern, h, tau=0.0):
        solve = factor(pattern, h, tau)
        return lambda r: solves.append(1) or solve(r)

    monkeypatch.setattr(ins._Pattern, "factor", counting_factor)
    problem = ConvexPEnergyProblem(mesh, SolverParams(p=2.0), fixed_nodes=mesh.boundary_nodes())
    w = problem.solve(b, w0=v, gtol=gtol)
    g = problem.gradient(w, b)[problem.free]
    assert np.max(np.abs(g)) > gtol  # the step does stagnate
    assert len(solves) == 1  # exactly one factor solve
    h = _expand(problem, problem.hessian(w))
    ref = np.linalg.solve(h, b[problem.free_idx])
    assert np.max(np.abs(w[problem.free_idx] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_given_first_gradient_is_not_recomputed(square4, p3, monkeypatch):
    # the eigensolver passes its outer residual's gradient at w0 as g0: the
    # result is bit for bit the one that computes it, with one gradient less
    w = BoundaryWeight.constant(square4, 2.0)
    problem = ConvexPEnergyProblem(square4, p3, weight=w)
    w0 = 1.0 + square4.nodes[:, 0]
    b = en.mass_action(square4, w0, 3.0)
    g0 = problem.gradient(w0, b)
    calls, gradient = [], problem.gradient
    monkeypatch.setattr(problem, "gradient", lambda *a: calls.append(1) or gradient(*a))
    ref = problem.solve(b, w0=w0)
    n_ref = len(calls)
    assert np.array_equal(problem.solve(b, w0=w0, g0=g0), ref)
    assert len(calls) == 2 * n_ref - 1


def test_stalled_newton_raises_with_its_best_iterate(square4, p3, monkeypatch):
    # a target below roundoff: progress stops near 1e-17 and the solve raises,
    # carrying its best iterate. On the way the roundoff regime accepts full
    # Newton steps by their gradient, which the next step then reuses, and the
    # stall is judged by the last step's gradient: no point's is evaluated twice
    problem = ConvexPEnergyProblem(square4, p3, fixed_nodes=square4.boundary_nodes())
    b = en.mass_action(square4, np.ones(square4.n_nodes), 3.0)
    points, gradient = [], problem.gradient
    monkeypatch.setattr(problem, "gradient", lambda w, b: points.append(w.copy()) or gradient(w, b))
    with pytest.raises(ConvergenceError, match="inner Newton stalled") as exc:
        problem.solve(b, gtol=1e-30)
    best, diag = exc.value.best, exc.value.diagnostics
    assert diag["gtol"] == 1e-30 and 1e-30 < diag["gnorm"] < 1e-12
    assert best.shape == (square4.n_nodes,) and np.all(best[~problem.free] == 0.0)
    assert float(np.max(np.abs(gradient(best, b)[problem.free]))) == diag["gnorm"]
    assert not any(np.array_equal(u, v) for k, u in enumerate(points) for v in points[:k])


def _dense_assembly(mesh, blocks, elems):
    full = np.zeros((mesh.n_nodes, mesh.n_nodes))
    k = elems.shape[1]
    np.add.at(full, (np.repeat(elems, k, axis=1).ravel(), np.tile(elems, (1, k)).ravel()), blocks.ravel())
    return full


def test_shifted_solve_on_a_weighted_problem():
    # stored(mass blocks) scatters the cell blocks alone through the
    # stiffness term's slots, so the Robin pencil K + B - shift M is solved
    # (shift 0.5 is below its first eigenvalue, about 0.9)
    mesh = build_interval(20)
    weight = BoundaryWeight.constant(mesh, 1.0)
    problem = ConvexPEnergyProblem(mesh, SolverParams(p=2.0), weight=weight)
    b = en.mass_action(mesh, 1.0 + mesh.nodes[:, 0], 2.0)
    w = problem.linear_solve(b, 0.5)
    kb = _reference_hessian(problem, np.zeros(mesh.n_nodes), "dense")
    m = _dense_assembly(mesh, en.mass_blocks(mesh), mesh.cells)[problem.free_idx][:, problem.free_idx]
    ref = np.linalg.solve(kb - 0.5 * m, b[problem.free_idx])
    assert np.max(np.abs(w[problem.free_idx] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_shifted_solve_at_p3_takes_the_hessians_at_w_and_z(square4, p3):
    # at p != 2 linear_solve factors H(w) - shift M(z) afresh, the form of the
    # auxiliary problem's Newton Jacobian, against a dense solve
    problem = ConvexPEnergyProblem(square4, p3, fixed_nodes=square4.boundary_nodes())
    rng = np.random.default_rng(6)
    w, z = rng.uniform(0.5, 1.5, (2, square4.n_nodes))
    b = rng.standard_normal(square4.n_nodes)
    x = problem.linear_solve(b, 0.5, w, z)
    free = problem.free_idx
    m = _dense_assembly(square4, en.mass_term(square4).blocks(z, 3.0), square4.cells)[free][:, free]
    ref = np.linalg.solve(_reference_hessian(problem, w, "dense") - 0.5 * m, b[free])
    assert np.max(np.abs(x[free] - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.all(x[~problem.free] == 0.0)


def test_banded_lu_solves_an_indefinite_matrix(square4, p3):
    # H_N - lam H_D above the linearization's first eigenvalue, the matrix of
    # the bordered step, against a dense solve; two right-hand sides at once
    weight = _weights(square4)["mixed"]
    problem = ConvexPEnergyProblem(square4, p3, weight=weight, fixed_nodes=_pins(square4)["point"])
    w = np.random.default_rng(4).uniform(0.5, 1.5, square4.n_nodes)
    h = problem.hessian(w) - 40.0 * problem.stored(en.mass_term(square4).blocks(w, 3.0))
    dense = _expand(problem, h)
    assert np.min(np.linalg.eigvalsh(dense)) < 0 < np.max(np.linalg.eigvalsh(dense))
    rhs = np.random.default_rng(5).standard_normal((problem._pattern.n, 2))
    x = problem._pattern.lu(h)(rhs)
    ref = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_eigenpair_newton_from_a_neighbours_pair(square4, p3):
    # the point eigenpair at one boundary node, started from the next node's:
    # a positive pair whose residual is within the inner solve's tolerance
    from robinopt import solve_point

    loop = square4.boundary_loop
    ref = solve_point(square4, int(loop[1]), p3)
    problem = ConvexPEnergyProblem(square4, p3, fixed_nodes=[int(loop[1])])
    u, lam = problem.eigenpair_newton(solve_point(square4, int(loop[0]), p3).u.values, ref.lam * 1.1)
    b = lam * en.mass_action(square4, u, 3.0)
    assert np.max(np.abs(problem.gradient(u, b)[problem.free])) <= 1e-12 * (1.0 + np.max(np.abs(b)))
    assert np.all(u[problem.free] > 0)
    assert abs(en.lp_norm_p(en.NodalField(square4, u), 3.0) - 1.0) <= 1e-12
    assert abs(lam - ref.lam) <= 1e-8 * ref.lam


def _band_factors(problem, h, routines, monkeypatch):
    """Copies of what dpbtrf and dgbtrf return on factor(h) and lu(h) of
    problem's pattern when innersolve calls the given routines."""
    out = []

    def recording(routine):
        def call(*args, **kwargs):
            res = routine(*args, **kwargs)
            out.append([np.copy(x) for x in res])
            return res
        return call

    with monkeypatch.context() as m:
        m.setattr(ins, "dgbtrf", recording(routines[0]))
        m.setattr(ins, "dpbtrf", recording(routines[2]))
        problem._pattern.factor(h)
        problem._pattern.lu(h)
    return out


def test_lapack_falls_back_to_scipy_linalg(square4, p3, tmp_path, monkeypatch, caplog):
    # a directory without the extension file: the routines come from
    # scipy.linalg.lapack, with one DEBUG event, and factor bit for bit like
    # the ones loaded from the file
    from scipy.linalg import lapack

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with caplog.at_level(logging.DEBUG, logger="robinopt"):
        fallback = ins._lapack(str(tmp_path))
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        loaded = ins._lapack()  # from the installed file, which logs nothing
    assert len(caplog.records) == 1
    assert fallback == tuple(getattr(lapack, n) for n in ("dgbtrf", "dgbtrs", "dpbtrf", "dpbtrs"))
    # pinned boundary nodes make the Hessian definite, so dpbtrf succeeds
    # whatever the roundoff of the cell gradients
    problem = ConvexPEnergyProblem(square4, p3, fixed_nodes=square4.boundary_nodes())
    h = problem.hessian(np.random.default_rng(6).uniform(0.5, 1.5, square4.n_nodes))
    ours = _band_factors(problem, h, loaded, monkeypatch)
    theirs = _band_factors(problem, h, fallback, monkeypatch)
    assert len(ours) == len(theirs) == 2
    for a, b in zip(ours, theirs):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_lapack_reuses_a_loaded_extension():
    # either import order leaves one set of routines: with scipy.linalg first,
    # innersolve takes the ones it holds; with robinopt first, scipy.linalg's
    # own import of the extension (reachable as its _flapack attribute) finds
    # the ones innersolve loaded
    check = ("print(*[getattr(ins, n) is getattr(lapack, n) is getattr(linalg._flapack, n) "
             "for n in ('dgbtrf', 'dgbtrs', 'dpbtrf', 'dpbtrs')])")
    scipy_first = "import scipy.linalg as linalg, scipy.linalg.lapack as lapack; import robinopt.innersolve as ins"
    robinopt_first = "import robinopt.innersolve as ins; import scipy.linalg as linalg, scipy.linalg.lapack as lapack"
    for imports in (scipy_first, robinopt_first):
        assert run_fresh(f"{imports}; {check}").split() == ["True"] * 4
