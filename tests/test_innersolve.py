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
PATHS = {"dense": 10**9, "sparse": 0}


def _pins(mesh):
    bnodes = mesh.boundary_nodes()
    return {"none": None, "dirichlet": bnodes, "point": [int(bnodes[0])]}


def _weights(mesh):
    bnodes = mesh.boundary_nodes()
    facet = np.linspace(0.5, 1.5, len(mesh.boundary_facets))
    return {
        "facet": BoundaryWeight.from_facet_density(mesh, facet),
        "dirac": BoundaryWeight.dirac(mesh, int(bnodes[1]), 2.0),
        "mixed": BoundaryWeight(mesh, facet_density=facet,
                                atoms=[(int(bnodes[0]), 1.0), (int(bnodes[-1]), 0.5)]),
    }


def _dense(h):
    return h.toarray() if sp.issparse(h) else np.asarray(h)


def _reference_hessian(problem, w):
    """Full-mesh COO -> CSR assembly of the element blocks, sliced to the free nodes."""
    mesh = problem.mesh
    n = mesh.n_nodes

    def coo(blocks, elems):
        k = elems.shape[1]
        rows = np.repeat(elems, k, axis=1).ravel()
        cols = np.tile(elems, (1, k)).ravel()
        return sp.csr_matrix((blocks.ravel(), (rows, cols)), shape=(n, n))

    h = coo(en.stiffness_term(mesh).blocks(w, problem.p, problem.eps), mesh.cells)
    if problem.weight is not None:
        facet_term, atom_term = en.boundary_terms(problem.weight)
        facets = facet_term.blocks(w, problem.p, problem.eps)
        atoms = atom_term.blocks(w, problem.p, problem.eps).reshape(-1)
        if len(facets):
            h = h + coo(facets, mesh.boundary_facets)
        idx = np.array([a[0] for a in problem.weight.atoms], dtype=int)
        h = h + sp.csr_matrix((atoms, (idx, idx)), shape=(n, n))
    free = problem.free_idx
    return h[free][:, free].toarray()


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_hessian_matches_coo_reference(mesh_name, path, monkeypatch):
    monkeypatch.setattr(ins, "_DENSE_MAX_FREE", PATHS[path])
    mesh = MESHES[mesh_name]()
    w = np.random.default_rng(1).uniform(0.5, 1.5, mesh.n_nodes)
    for pins in _pins(mesh).values():
        for weight in _weights(mesh).values():
            for p in (1.5, 2.0, 3.0):
                problem = ConvexPEnergyProblem(mesh, p, weight=weight, fixed_nodes=pins)
                h = problem.hessian(w)
                assert isinstance(h, np.ndarray) == (path == "dense" and p != 2.0)
                ref = _reference_hessian(problem, w)
                err = np.max(np.abs(_dense(h) - ref)) / np.max(np.abs(ref))
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
    h = _dense(problem.hessian(w))
    assert np.max(np.abs(h - fd)) <= 1e-6 * np.max(np.abs(h))


@pytest.mark.parametrize("start", ["random", "constant"])
def test_dense_and_sparse_newton_directions_agree(start, monkeypatch):
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
    dirs = {}
    for path, crossover in PATHS.items():
        monkeypatch.setattr(ins, "_DENSE_MAX_FREE", crossover)
        problem = ConvexPEnergyProblem(mesh, 3.0, weight=weight)
        assert problem._pattern.dense == (path == "dense")
        dirs[path] = problem._newton_direction(w, problem.gradient(w, b))
    assert dirs["dense"] is not None and dirs["sparse"] is not None
    scale = np.max(np.abs(dirs["sparse"]))
    assert np.max(np.abs(dirs["dense"] - dirs["sparse"])) <= 1e-10 * scale


def test_constant_start_logs_ridge_escalation(square4, caplog):
    weight = BoundaryWeight.constant(square4, 1.0)
    problem = ConvexPEnergyProblem(square4, 3.0, weight=weight)
    b = en.mass_action(square4, np.ones(square4.n_nodes), 3.0)
    with caplog.at_level(logging.DEBUG, logger="robinopt"):
        w = problem.solve(b, w0=np.ones(square4.n_nodes))
    g = problem.gradient(w, b)
    assert np.max(np.abs(g)) <= 1e-12 * (1.0 + np.max(np.abs(b)))
    messages = [r.getMessage() for r in caplog.records if r.name == "robinopt"]
    assert any("factorization failed" in m for m in messages)
    assert any("ridge escalated to tau=" in m for m in messages)


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
    h = problem.hessian(w).toarray()
    ref = np.linalg.solve(h, b[problem.free_idx])
    assert np.max(np.abs(w[problem.free_idx] - ref)) <= 1e-12 * np.max(np.abs(ref))
