import dataclasses

import numpy as np
import pytest

from robinopt import (
    BoundaryWeight,
    ConfigError,
    InvariantViolationError,
    NodalField,
    SolverParams,
    boundary_term,
    build_disk,
    build_interval,
    build_square,
    grad_energy,
    random_weight,
    rayleigh,
    rayleigh_gradient,
    read_field,
    read_weight,
    recover_flux,
    write_field,
    write_weight,
)
import robinopt.energy as en
from robinopt.eigensolver import solve_dirichlet
from robinopt.errors import RobinoptError
from robinopt.innersolve import ConvexPEnergyProblem
import robinopt.maximizer as mx
from tests.test_innersolve import MESHES, _weights


@pytest.fixture(scope="module")
def mesh():
    return build_interval(16)


@pytest.fixture(scope="module")
def sigma11(mesh):
    return BoundaryWeight.from_facet_density(mesh, np.ones(2))


def linear_field(mesh):
    return NodalField(mesh, mesh.nodes[:, 0])


# -- energies ---------------------------------------------------------------

def test_grad_energy_constant_is_zero(mesh):
    assert grad_energy(NodalField.constant(mesh), 2.7) == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.2])
def test_grad_energy_linear_slope_one(mesh, p):
    assert abs(grad_energy(linear_field(mesh), p) - 1.0) < 1e-14


def test_grad_energy_square_slope_two():
    s = build_square(0.25)
    u = NodalField(s, 2.0 * s.nodes[:, 0])
    assert abs(grad_energy(u, 3.0) - 8.0) < 1e-12


def test_boundary_term_constant_field_gives_mass(mesh):
    for w in (BoundaryWeight.constant(mesh, 5.0), BoundaryWeight.dirac(mesh, 0, 5.0)):
        assert abs(boundary_term(NodalField.constant(mesh), w, 2.3) - 5.0) < 1e-13


def test_boundary_term_atom_where_field_vanishes(mesh):
    w = BoundaryWeight.dirac(mesh, 0, 3.0)
    assert boundary_term(linear_field(mesh), w, 2.0) == 0.0


def test_boundary_term_endpoint_densities(mesh, sigma11):
    assert abs(boundary_term(linear_field(mesh), sigma11, 2.0) - 1.0) < 1e-14


# -- Rayleigh quotient -------------------------------------------------------

def test_rayleigh_constant_equals_mass_over_volume(mesh):
    u = NodalField.constant(mesh)
    for m in (0.25, 1.0, 5.0):
        w = BoundaryWeight.constant(mesh, m)
        assert abs(rayleigh(u, w, 3.0) - m / mesh.volume) <= 1e-12 * m


def test_rayleigh_scale_invariance(mesh, sigma11):
    u = linear_field(mesh)
    u73 = NodalField(mesh, 7.3 * u.values)
    q1, q2 = rayleigh(u, sigma11, 2.0), rayleigh(u73, sigma11, 2.0)
    assert abs(q1 - q2) <= 1e-12 * q1


def test_rayleigh_closed_form_linear(mesh, sigma11):
    assert abs(rayleigh(linear_field(mesh), sigma11, 2.0) - 6.0) < 1e-12


def test_rayleigh_rejects_zero_field(mesh, sigma11):
    with pytest.raises(ConfigError):
        rayleigh(NodalField.constant(mesh, 0.0), sigma11, 2.0)
    with pytest.raises(ConfigError, match="undefined for u == 0"):
        rayleigh_gradient(NodalField.constant(mesh, 0.0), sigma11, 2.0, 0.0)


@pytest.mark.parametrize("values, message", [
    (np.ones(16), "does not match node count"),  # 17 nodes
    (np.r_[np.ones(16), np.nan], "non-finite"),
    (np.r_[np.ones(16), np.inf], "non-finite"),
], ids=["short", "nan", "inf"])
def test_nodal_field_refuses_a_bad_vector(mesh, values, message):
    with pytest.raises(ConfigError, match=message):
        NodalField(mesh, values)


def test_numerator_refuses_a_weight_from_another_mesh(mesh):
    with pytest.raises(ConfigError, match="different mesh"):
        en.numerator_terms(mesh, BoundaryWeight.constant(build_interval(16), 1.0))


# -- gradient ----------------------------------------------------------------

def test_gradient_vanishes_at_eigenfunction(interval200, p2):
    res = solve_dirichlet(interval200, p2)
    # free (interior) components of the quotient gradient are the residual
    g = rayleigh_gradient(res.u, BoundaryWeight(interval200), 2.0, p2.eps_reg).values
    assert np.max(np.abs(g[1:-1])) < p2.tol_res


def test_energy_derivative_boundary_supported_for_constant(mesh, sigma11):
    # stiffness + boundary action of a constant field lives on boundary nodes
    u = NodalField.constant(mesh)
    facets, atoms = en.boundary_terms(sigma11)
    r = en.stiffness_term(mesh).action(u, 2.0) + (facets.action(u, 2.0) + atoms.action(u, 2.0))
    assert np.all(r[1:-1] == 0.0)
    assert r[0] != 0.0 and r[-1] != 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_gradient_matches_central_differences(mesh, sigma11, p):
    rng = np.random.default_rng(7)
    orders = []
    for _ in range(10):
        u = NodalField(mesh, rng.uniform(0.5, 1.5, mesh.n_nodes))
        d = rng.standard_normal(mesh.n_nodes)
        g = rayleigh_gradient(u, sigma11, p, SolverParams(p=p).eps_reg).values
        errs = []
        for t in (1e-4, 1e-5):
            qp = rayleigh(NodalField(mesh, u.values + t * d), sigma11, p)
            qm = rayleigh(NodalField(mesh, u.values - t * d), sigma11, p)
            errs.append(abs((qp - qm) / (2 * t) - float(g @ d)))
        orders.append(np.log10(errs[0] / errs[1]))
        assert errs[0] < 1e-3  # a wrong gradient would sit at O(1), not O(t^2)
    assert np.median(orders) >= 1.9
    # individual pairs can dip when the t=1e-5 difference hits float noise
    assert min(orders) >= 1.3


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("kind", ["facet", "dirac", "mixed"])
@pytest.mark.parametrize("mesh_name", ["square", "disk"])
def test_gradient_matches_central_differences_2d(mesh_name, kind, p):
    # the 2D facet-rule and atom actions against differences of the values
    mesh = MESHES[mesh_name]()
    test_gradient_matches_central_differences(mesh, _weights(mesh)[kind], p)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_hessian_blocks_match_direct_formulas(mesh_name, p):
    # cells: |T| G^T (coef I + fac g g^T) G; facets: sum_q (p-1) |v_q|^{p-2}
    # c_q phi_q phi_q^T; atoms: (p-1) m |u_n|^{p-2}, written out directly
    mesh = MESHES[mesh_name]()
    u = np.random.default_rng(4).uniform(0.5, 1.5, mesh.n_nodes)
    eps = 1e-10
    G = mesh.cell_grads
    g = np.einsum("cdv,cv->cd", G, u[mesh.cells])
    s2 = np.sum(g * g, axis=1) + (eps**2 if p < 2 else 0.0)
    jac = (s2 ** ((p - 2) / 2))[:, None, None] * np.eye(mesh.dim) + (
        (p - 2) * s2 ** ((p - 4) / 2))[:, None, None] * g[:, :, None] * g[:, None, :]
    cells = mesh.cell_measures[:, None, None] * np.einsum("cdv,cde,cew->cvw", G, jac, G)

    weight = _weights(mesh)["mixed"]
    gp = 0.5 / np.sqrt(3.0)  # 2-point Gauss on 2D facets, the point value in 1D
    phi = np.array([[0.5 + gp, 0.5 - gp], [0.5 - gp, 0.5 + gp]]) if mesh.dim == 2 else np.ones((1, 1))
    wq = np.full(len(phi), 1.0 / len(phi))
    v = u[mesh.boundary_facets] @ phi.T
    d = (p - 1) * np.abs(v) ** (p - 2) * wq * (weight.facet_density * mesh.facet_measures)[:, None]
    facets = np.einsum("bq,qv,qw->bvw", d, phi, phi)
    atoms = np.array([(p - 1) * m * u[n] ** (p - 2) for n, m in weight.atoms])

    facet_term, atom_term = en.boundary_terms(weight)
    got_facets = facet_term.blocks(u, p, eps)
    got_atoms = atom_term.blocks(u, p, eps).reshape(-1)
    for got, ref in ((en.stiffness_term(mesh).blocks(u, p, eps), cells),
                     (got_facets, facets), (got_atoms, atoms)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_weak_residual_is_the_inner_gradient(p):
    # one term list and one smoothing rule: the eigensolver's residual and the
    # inner problem's gradient are the same computation, bit for bit, even
    # where the boundary smoothing matters (u ~ 0 on boundary nodes, p < 2)
    m = build_square(0.25)
    w = _weights(m)["mixed"]
    vals = 1.0 + m.nodes[:, 0] + 0.5 * m.nodes[:, 1] ** 2
    vals[m.boundary_nodes()[:3]] = 1e-12
    u, q, eps = NodalField(m, vals), 2.5, 1e-10
    problem = ConvexPEnergyProblem(m, SolverParams(p=p, eps_reg=eps), weight=w)
    expected = problem.gradient(vals, q * en.mass_action(m, u, p))
    assert np.array_equal(en.weak_residual(u, w, p, q, eps), expected)


# -- flux recovery -----------------------------------------------------------

def test_flux_of_unit_load_is_half_half():
    m = build_interval(32)
    x = m.nodes[:, 0]
    u = NodalField(m, x * (1 - x) / 2)
    load = en.assemble_load(m, en.gauss_values(m, NodalField.constant(m)))
    fl = recover_flux(u, load, SolverParams(p=2.0))
    assert np.allclose(fl, 0.5, atol=1e-12)
    assert abs(fl.sum() - 1.0) < 1e-12


def test_flux_zero_solution(mesh):
    zero = NodalField.constant(mesh, 0.0)
    load = en.assemble_load(mesh, en.gauss_values(mesh, zero))
    fl = recover_flux(zero, load, SolverParams(p=2.0))
    assert fl.shape == (len(mesh.boundary_nodes()),)
    assert np.all(fl == 0.0)


def test_flux_rejects_non_solution(mesh):
    u = NodalField(mesh, np.sin(3 * mesh.nodes[:, 0]))
    load = en.assemble_load(mesh, en.gauss_values(mesh, NodalField.constant(mesh)))
    with pytest.raises(RobinoptError):
        recover_flux(u, load, SolverParams(p=2.0))


def test_flux_of_non_solution_is_an_invariant_violation():
    m = build_interval(8)
    u = NodalField(m, np.sin(3 * m.nodes[:, 0]))
    load = en.assemble_load(m, en.gauss_values(m, NodalField.constant(m)))
    with pytest.raises(InvariantViolationError):
        recover_flux(u, load, SolverParams(p=2.0))


def test_flux_mass_identity_matches_total_load():
    m = build_square(0.25)
    rhs = NodalField(m, 1.0 + m.nodes[:, 0])
    load = en.assemble_load(m, en.gauss_values(m, rhs))
    from robinopt.innersolve import ConvexPEnergyProblem

    prob = ConvexPEnergyProblem(m, SolverParams(p=2.0), fixed_nodes=m.boundary_nodes())
    u = NodalField(m, prob.solve(load, gtol=1e-15))
    fl = recover_flux(u, load, SolverParams(p=2.0))
    assert abs(fl.sum() - load.sum()) <= 1e-10 * abs(load.sum())


def test_flux_symmetric_on_disk():
    d = build_disk(0.05)
    rhs = NodalField.constant(d)
    load = en.assemble_load(d, en.gauss_values(d, rhs))
    from robinopt.innersolve import ConvexPEnergyProblem

    prob = ConvexPEnergyProblem(d, SolverParams(p=2.0), fixed_nodes=d.boundary_nodes())
    u = NodalField(d, prob.solve(load, gtol=1e-15))
    fl = recover_flux(u, load, SolverParams(p=2.0))
    spread = (fl.max() - fl.min()) / fl.mean()
    assert spread < 0.02


# -- weights and formats ------------------------------------------------------

def test_weight_validation(mesh):
    with pytest.raises(ConfigError):
        BoundaryWeight.from_facet_density(mesh, [-1.0, 1.0])
    with pytest.raises(ConfigError):
        BoundaryWeight.dirac(mesh, 3, 1.0)  # interior node
    with pytest.raises(ConfigError, match="does not match facet count"):
        BoundaryWeight.from_facet_density(mesh, [1.0, 1.0, 1.0])  # 2 facets
    for mass in (-1.0, np.inf):
        with pytest.raises(ConfigError, match="atom masses"):
            BoundaryWeight(mesh, atoms=[(0, mass)])


@pytest.mark.parametrize("node", [-1, 99])
def test_atom_node_outside_mesh_rejected(node):
    mesh = build_interval(10)  # 11 nodes
    with pytest.raises(ConfigError):
        BoundaryWeight(mesh, atoms=[(node, 0.5)])
    with pytest.raises(ConfigError):
        BoundaryWeight.dirac(mesh, node, 0.5)


@pytest.mark.parametrize("record", [
    "atom -1 0.5", "atom 99 0.5", "facet -1 0.5", "facet 2 0.5", "atom 0", "atom x 0.5",
    "facet 0 0.25\nfacet 0 0.5",  # a repeated facet, even with the declared mass met
])
def test_read_weight_rejects_bad_records(tmp_path, record):
    path = tmp_path / "w.bw"
    path.write_text(f"bw 1 0.5\n{record}\n")
    with pytest.raises(ConfigError):
        read_weight(build_interval(10), path)  # 11 nodes, 2 boundary facets


@pytest.mark.parametrize("text", ["", "bw 2 0.5\n", "bw 1\n", "pmesh 1 1\n"],
                         ids=["empty", "version-2", "no-mass", "mesh-file"])
def test_read_weight_refuses_a_file_that_is_not_bw1(tmp_path, text):
    path = tmp_path / "w.bw"
    path.write_text(text)
    with pytest.raises(ConfigError, match="not a bw-1 file"):
        read_weight(build_interval(10), path)


def test_dirac_snaps_to_nearest_boundary_node():
    s = build_square(0.25)
    w = BoundaryWeight.dirac(s, [0.51, 0.0], 1.0)
    node = w.atoms[0][0]
    assert s.node_is_boundary[node]
    assert np.allclose(s.nodes[node], [0.5, 0.0])
    assert abs(w.snap_distance - 0.01) < 1e-12


@pytest.mark.parametrize("where", [np.nan, np.inf, 2.5, [np.nan, 0.0], [0.5, np.inf]],
                         ids=["node-nan", "node-inf", "node-2.5", "point-nan", "point-inf"])
def test_dirac_refuses_a_non_finite_point_or_a_non_integer_node(where):
    with pytest.raises(ConfigError, match="finite"):
        BoundaryWeight.dirac(build_square(0.25), where, 1.0)


def test_random_weight_mass(mesh):
    w = random_weight(mesh, 2.5, np.random.default_rng(3))
    assert abs(w.total_mass - 2.5) < 1e-12 * 2.5


def test_weight_file_round_trip(tmp_path, mesh):
    w = BoundaryWeight(
        mesh, facet_density=np.array([0.25, 1.75]),
        atoms=[(0, 0.5)],
    )
    path = tmp_path / "w.bw"
    write_weight(w, path)
    w2 = read_weight(mesh, path)
    assert w2.kind == "mixed"
    assert BoundaryWeight.constant(mesh, 1.0).kind == "facet_density"
    assert BoundaryWeight.dirac(mesh, 0, 1.0).kind == "dirac"
    assert np.array_equal(w2.facet_density, w.facet_density)
    assert w2.atoms == w.atoms
    assert w2.total_mass == w.total_mass


def test_field_csv_round_trip(tmp_path, mesh):
    u = NodalField(mesh, np.linspace(-1, 2, mesh.n_nodes) ** 3)
    path = tmp_path / "u.csv"
    write_field(u, path)
    u2 = read_field(mesh, path)
    assert np.array_equal(u2.values, u.values)


@pytest.mark.parametrize("damage", [
    "node -1", "node 9", "duplicated node", "missing node", "non-numeric", "missing file",
])
def test_read_field_rejects_bad_files(tmp_path, damage):
    mesh = build_interval(4)  # nodes 0..4
    path = tmp_path / "u.csv"
    write_field(NodalField(mesh, np.arange(5.0)), path)
    lines = path.read_text().splitlines()  # header, then the rows of nodes 0..4
    row = {"node -1": "-1,0.0,0.0", "node 9": "9,0.0,0.0", "duplicated node": "0,0.25,1.0",
           "non-numeric": "1,0.25,x"}.get(damage)
    if row is not None:
        lines[2] = row
    elif damage == "missing node":
        del lines[-1]
    path.write_text("\n".join(lines) + "\n")
    if damage == "missing file":
        path = tmp_path / "absent.csv"
    with pytest.raises(ConfigError):
        read_field(mesh, path)


# -- terms built once ----------------------------------------------------------

def test_mesh_terms_are_built_once():
    mesh = build_square(0.25)
    assert en.stiffness_term(mesh) is en.stiffness_term(mesh)
    assert en.mass_term(mesh) is en.mass_term(mesh)
    a, b = (ConvexPEnergyProblem(mesh, SolverParams(p=3.0)) for _ in range(2))
    assert a._terms[0].k0 is b._terms[0].k0


def _count_terms_and_picard_steps(monkeypatch, params):
    """(PowerTerms built, Picard steps) after each of two inversions on one FSolver."""
    built, steps = [], []
    init, solve_aux = en.PowerTerm.__init__, mx.solve_aux

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    def counting_solve_aux(*args, **kwargs):
        sol = solve_aux(*args, **kwargs)
        steps.append(sol.picard_iters)
        return sol

    monkeypatch.setattr(en.PowerTerm, "__init__", counting_init)
    monkeypatch.setattr(mx, "solve_aux", counting_solve_aux)
    solver = mx.FSolver(build_interval(50), params)
    counts = []
    for m in (0.5, 5.0):
        solver.invert(m)
        counts.append((len(built), sum(steps)))
    return counts


def test_F_inversion_builds_no_term_per_picard_step(monkeypatch):
    counts = _count_terms_and_picard_steps(monkeypatch, SolverParams(p=3.0))
    assert counts[1][1] > counts[0][1] > 0  # the second mass took more Picard steps
    assert counts[1][0] == counts[0][0] <= 2  # stiffness and mass, once each


def test_direct_F_evaluations_build_no_term(monkeypatch):
    counts = _count_terms_and_picard_steps(monkeypatch, SolverParams(p=2.0))
    assert counts[1][1] == counts[0][1] == 0  # p = 2 solves directly
    assert counts[1][0] == counts[0][0] <= 2


def test_weight_is_immutable():
    mesh = build_interval(10)
    dens = np.array([0.25, 1.75])
    w = BoundaryWeight(mesh, facet_density=dens, atoms=[(0, 0.5)])
    dens[0] = 5.0
    assert w.facet_density[0] == 0.25 and w.total_mass == 2.5
    with pytest.raises(ValueError):
        w.facet_density[0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.atoms = ()
    assert en.boundary_terms(w) is en.boundary_terms(w)


def test_solver_params_validation():
    with pytest.raises(ConfigError):
        SolverParams(p=1.05)
    with pytest.raises(ConfigError):
        SolverParams(p=11.0)
    with pytest.raises(ConfigError):
        SolverParams(p=2.0, tol_res=0.0)
    for bad in ({"tol_res": np.inf}, {"tol_res": np.nan}, {"eps_reg": -1e-10},
                {"eps_reg": np.nan}, {"max_outer": 0}, {"max_outer": 2.5},
                {"max_outer": np.inf}, {"max_outer": np.nan}):
        with pytest.raises(ConfigError):
            SolverParams(p=2.0, **bad)
    with pytest.raises(TypeError):  # the residual test is the only stopping test
        SolverParams(p=2.0, tol_rq=1e-9)
