import logging

import numpy as np
import pytest
import scipy.sparse as sp

import robinopt.energy as en
import robinopt.innersolve as ins
from robinopt import BoundaryWeight, build_disk, build_interval, build_square
from robinopt.innersolve import ConvexPEnergyProblem

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
                problem = ConvexPEnergyProblem(mesh, p, weight=weight, fixed_nodes=pins)
                h = _expand(problem, problem.hessian(w))
                ref = _reference_hessian(problem, w, path)
                err = np.max(np.abs(h - ref)) / np.max(np.abs(ref))
                assert err <= 1e-13, (pins, weight.kind, p, err)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("mesh_name", ["interval", "disk"])
def test_hessian_matches_gradient_differences(mesh_name, p):
    mesh = MESHES[mesh_name]()
    weight = _weights(mesh)["mixed"]
    problem = ConvexPEnergyProblem(mesh, p, weight=weight, fixed_nodes=_pins(mesh)["point"])
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
    # the banded direction against a dense solve of the COO reference Hessian
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
    taus = []
    factor = ins._Pattern.factor
    monkeypatch.setattr(ins._Pattern, "factor",
                        lambda pattern, h, tau=0.0: taus.append(tau) or factor(pattern, h, tau))
    problem = ConvexPEnergyProblem(mesh, 3.0, weight=weight)
    g = problem.gradient(w, b)
    d = problem._newton_direction(w, g)
    assert d is not None
    assert (taus[-1] > 0) == (start == "constant")
    h = _reference_hessian(problem, w) + taus[-1] * np.eye(len(problem.free_idx))
    ref = np.linalg.solve(h, -g[problem.free_idx])
    assert np.max(np.abs(d - ref)) <= 1e-10 * np.max(np.abs(ref))


def _assert_flat_start_logs_ridge_escalation(mesh, caplog):
    weight = BoundaryWeight.constant(mesh, 1.0)
    problem = ConvexPEnergyProblem(mesh, 3.0, weight=weight)
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


def test_band_width_on_disk_is_order_sqrt_n():
    # 81 in Cuthill-McKee order at 4921 free nodes; the natural order gives 473
    mesh = build_disk(0.025)
    problem = ConvexPEnergyProblem(mesh, 3.0, weight=BoundaryWeight.constant(mesh, 1.0))
    assert problem._pattern.kd <= 2.0 * np.sqrt(len(problem.free_idx))


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
    problem = ConvexPEnergyProblem(mesh, 2.0, fixed_nodes=mesh.boundary_nodes())
    w = problem.solve(b, w0=v, gtol=gtol)
    g = problem.gradient(w, b)[problem.free]
    assert np.max(np.abs(g)) > gtol  # the step does stagnate
    assert len(solves) == 1  # exactly one factor solve
    h = _expand(problem, problem.hessian(w))
    ref = np.linalg.solve(h, b[problem.free_idx])
    assert np.max(np.abs(w[problem.free_idx] - ref)) <= 1e-12 * np.max(np.abs(ref))
