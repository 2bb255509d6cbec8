import numpy as np
import pytest

from robinopt import ConfigError, build_disk, build_interval, build_polygon, build_square, read_mesh, refine, write_mesh
from robinopt.mesh import _build_mesh
from tests.conftest import run_fresh


def test_interval_nodes_and_facets():
    m = build_interval(4)
    assert np.allclose(m.nodes.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
    ends = sorted(int(f[0]) for f in m.boundary_facets)
    assert ends == [0, 4]
    assert np.all(m.facet_measures == 1.0)


def test_interval_measures():
    m = build_interval(200)
    assert m.volume == 1.0
    assert m.boundary_measure == 2.0
    assert m.inradius == 0.5


def test_interval_rejects_single_cell():
    with pytest.raises(ConfigError):
        build_interval(1)


@pytest.mark.parametrize("n_cells", [np.nan, np.inf, 2.5])
def test_interval_refuses_a_count_that_is_not_an_integer(n_cells):
    with pytest.raises(ConfigError):
        build_interval(n_cells)
    assert build_interval(np.int64(10)).n_cells == 10


def test_disk_volume_and_boundary():
    d = build_disk(0.1)
    assert abs(d.volume - np.pi) / np.pi < 0.01
    d5 = build_disk(0.05)
    assert abs(d5.boundary_measure - 2 * np.pi) / (2 * np.pi) < 0.005


@pytest.mark.parametrize("h", [0.1, 0.025])
def test_disk_inradius_is_the_apothem_of_its_6k_gon(h):
    exact = np.cos(np.pi / (6 * round(1 / h)))
    assert abs(build_disk(h).inradius - exact) <= 4 * np.spacing(exact)


@pytest.mark.parametrize("h", [0.0, -0.1, 1.0, 2.0])
def test_disk_rejects_bad_h(h):
    with pytest.raises(ConfigError):
        build_disk(h)


def _disk_by_loops(K):
    """Nodes and cells of build_disk(1 / K), ring by ring and cell by cell."""
    nodes, start = [np.zeros((1, 2))], [0, 1]
    for k in range(1, K + 1):
        th = 2.0 * np.pi * np.arange(6 * k) / (6 * k)
        nodes.append(np.stack([k / K * np.cos(th), k / K * np.sin(th)], axis=1))
        start.append(start[-1] + 6 * k)
    cells = [[0, 1 + j, 1 + (j + 1) % 6] for j in range(6)]
    for k in range(2, K + 1):
        for s in range(6):
            inner = [start[k - 1] + (s * (k - 1) + t) % (6 * (k - 1)) for t in range(k)]
            outer = [start[k] + (s * k + t) % (6 * k) for t in range(k + 1)]
            for t in range(k):
                cells.append([inner[t], outer[t], outer[t + 1]])
                if t < k - 1:
                    cells.append([inner[t], outer[t + 1], inner[t + 1]])
    return np.concatenate(nodes), np.array(cells)


def _square_cells_by_loops(n):
    cells = []
    for i in range(n):
        for j in range(n):
            a, b, c = i * (n + 1) + j, (i + 1) * (n + 1) + j, (n + 1) ** 2 + i * n + j
            cells += [[a, b, c], [b, b + 1, c], [b + 1, a + 1, c], [a + 1, a, c]]
    return np.array(cells)


@pytest.mark.parametrize("K", [1, 2, 5, 10])
def test_structured_builders_match_their_loop_construction(K):
    nodes, cells = _disk_by_loops(K)
    d = build_disk(1.0 / K if K > 1 else 0.9)
    assert d.nodes.tobytes() == nodes.tobytes()
    assert np.array_equal(d.cells, cells)
    assert np.array_equal(build_square(1.0 / K).cells, _square_cells_by_loops(K))


def test_square_exact_measures():
    s = build_square(0.125)
    assert abs(s.volume - 1.0) < 1e-12
    assert abs(s.boundary_measure - 4.0) < 1e-12
    assert s.inradius == 0.5
    assert build_square(0.25).inradius == 0.5


@pytest.mark.parametrize("vertices, inradius", [
    ([(0, 0), (4, 0), (0, 3)], 1.0),  # 3-4-5 right triangle
    ([(0, 0), (3.5, 0), (3.6, 0.3), (0, 3)], 1.0),  # its corner cut clear of the incircle
    ([(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)], 0.5),  # 2 x 1, collinear runs
    ([(0, 0), (10, 0), (10.5, 0.3), (0.2, 0.3)], 0.15),  # thin: half its width
    # orientation is judged relative to the side lengths, so scale does not matter
    ([(0, 0), (1e-6, 0), (1e-6, 1e-6), (0, 1e-6)], 5e-7),
    ([(0, 0), (1e-9, 0), (1e-9, 1e-9), (0, 1e-9)], 5e-10),
    # slivers whose corners the relative tolerance still sees
    ([(0, 0), (1, 0), (0.5, 1e-12)], 5e-13),
    ([(0, 0), (1, 0), (0.5, 3e-12)], 1.5e-12),
])
def test_convex_polygon_inradius_is_exact(vertices, inradius):
    m = build_polygon(vertices, 2.0)
    for mesh in (m, refine(m)):
        assert abs(mesh.inradius - inradius) <= 4 * np.spacing(inradius)


def test_nonconvex_polygon_has_no_inradius():
    L = build_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], 0.5)
    assert L.inradius is None
    assert refine(L).inradius is None
    assert abs(L.volume - 3.0) < 1e-12


@pytest.mark.parametrize("eps", [1e-14, 1e-13])
def test_sliver_below_the_tolerance_has_no_inradius(tmp_path, eps):
    # every corner turns by less than the tolerance: no polygon is left
    m = build_polygon([(0, 0), (1, 0), (0.5, eps)], 0.5)
    assert m.inradius is None
    write_mesh(m, tmp_path / "m.pmesh")
    assert read_mesh(tmp_path / "m.pmesh").inradius is None


def test_polygon_rejects_self_intersection():
    with pytest.raises(ConfigError):
        build_polygon([(0, 0), (1, 1), (1, 0), (0, 1)], 0.5)


def test_polygon_with_positive_area_rejects_self_intersection():
    # counter-clockwise by signed area (+1), so only the crossing check refuses it
    with pytest.raises(ConfigError, match="self-intersecting"):
        build_polygon([(0, 0), (2, 0), (2, 2), (1, -1), (0, 2)], 0.5)


@pytest.mark.parametrize("h", [np.nan, np.inf])
def test_square_refuses_non_finite_h(h):
    with pytest.raises(ConfigError):
        build_square(h)


@pytest.mark.parametrize("h, vertex", [(np.nan, (0, 1)), (np.inf, (0, 1)), (0.5, (0, np.inf))])
def test_polygon_refuses_non_finite_input(h, vertex):
    with pytest.raises(ConfigError):
        build_polygon([(0, 0), (1, 0), (1, 1), vertex], h)


@pytest.mark.parametrize("vertices", [[], [(0, 0)], [(0, 0), (1, 0)]])
def test_polygon_needs_three_vertices(vertices):
    with pytest.raises(ConfigError, match="at least 3 vertices"):
        build_polygon(vertices, 0.5)


def test_polygon_rejects_clockwise():
    with pytest.raises(ConfigError):
        build_polygon([(0, 0), (0, 1), (1, 1), (1, 0)], 0.5)


def test_refine_interval_doubles():
    m = build_interval(4)
    r = refine(m)
    assert r.n_cells == 8
    assert np.allclose(np.diff(r.nodes.ravel()), 0.125)


def test_refine_disk_quadruples_and_preserves_volume():
    d = build_disk(0.2)
    r = refine(d)
    assert r.n_cells == 4 * d.n_cells
    assert abs(r.volume - d.volume) < 1e-12
    assert abs(r.boundary_measure - d.boundary_measure) < 1e-12


def test_refine_square_preserves_volume():
    s = build_square(0.25)
    r = refine(s)
    assert abs(r.volume - s.volume) < 1e-12


def test_boundary_flags_consistent_after_refinement():
    d = refine(build_disk(0.25))
    flagged = set(np.flatnonzero(d.node_is_boundary))
    on_facets = set(d.boundary_facets.ravel().tolist())
    assert flagged == on_facets


def test_every_boundary_facet_owned_once(disk10):
    faces = np.concatenate(
        [disk10.cells[:, [0, 1]], disk10.cells[:, [1, 2]], disk10.cells[:, [2, 0]]]
    )
    keys = {tuple(sorted(f)) for f in disk10.boundary_facets}
    counts = {k: 0 for k in keys}
    for f in faces:
        k = tuple(sorted(f))
        if k in counts:
            counts[k] += 1
    assert all(v == 1 for v in counts.values())
    # facets come in lexicographic order of their sorted node tuples
    for m in (disk10, refine(disk10)):
        ordered = np.sort(m.boundary_facets, axis=1)
        assert np.array_equal(np.lexsort(ordered.T[::-1]), np.arange(len(ordered)))


L_SHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
TOPOLOGY_MESHES = {
    "interval": lambda: build_interval(7),
    "disk": lambda: build_disk(0.2),
    "square": lambda: build_square(0.25),
    "triangle": lambda: build_polygon([(0, 0), (4, 0), (0, 3)], 1.0),
    "L-shape": lambda: build_polygon(L_SHAPE, 0.5),
    # listed from its reflex corner: ear clipping skips that corner first
    "L-shape-from-reflex": lambda: build_polygon(
        [(0.5, 0.5), (0.5, 1), (0, 1), (0, 0), (1, 0), (1, 0.5)], 0.25),
}


@pytest.mark.parametrize("name", TOPOLOGY_MESHES)
def test_edge_table_is_the_cells_node_pairs(name):
    m = TOPOLOGY_MESHES[name]()
    for mesh in (m, refine(m)):
        e = mesh.edges
        assert np.all(e[:, 0] < e[:, 1])
        keys = e[:, 0] * mesh.n_nodes + e[:, 1]
        assert np.all(np.diff(keys) > 0)  # strictly lexicographic
        if mesh.dim == 1:
            assert np.array_equal(e, mesh.cells[np.lexsort(mesh.cells.T[::-1])])
            continue
        assert mesh.n_nodes - len(e) + mesh.n_cells == 1  # Euler, simply connected
        sides = {}
        for a, b, c in mesh.cells.tolist():
            for side in ((a, b), (b, c), (c, a)):
                sides[tuple(sorted(side))] = sides.get(tuple(sorted(side)), 0) + 1
        assert sorted(sides) == [tuple(r) for r in e.tolist()]
        once = sorted(s for s, count in sides.items() if count == 1)
        assert sorted(tuple(sorted(f)) for f in mesh.boundary_facets.tolist()) == once
    if m.dim == 2:  # the midpoint of edge k is node n_nodes + k
        r = refine(m)
        mids = 0.5 * (m.nodes[m.edges[:, 0]] + m.nodes[m.edges[:, 1]])
        assert r.nodes[m.n_nodes:].tobytes() == mids.tobytes()
        # cell k's children are cells 4k..4k+3: corner a, b, c, then the middle one
        for corner in range(3):
            assert np.array_equal(r.cells[corner::4, corner], m.cells[:, corner])
        assert np.all(r.cells[3::4] >= m.n_nodes)


@pytest.mark.parametrize("name", ["disk", "square", "L-shape"])
def test_boundary_loop_walks_from_the_lowest_node_to_its_lower_neighbour(name):
    m = TOPOLOGY_MESHES[name]()
    loop = m.boundary_loop.tolist()
    assert sorted(loop) == m.boundary_nodes().tolist()
    facets = {tuple(sorted(f)) for f in m.boundary_facets.tolist()}
    steps = {tuple(sorted(s)) for s in zip(loop, loop[1:] + loop[:1])}
    assert steps == facets
    nbrs = [b if a == loop[0] else a for a, b in facets if loop[0] in (a, b)]
    assert loop[0] == min(loop) and loop[1] == min(nbrs) and loop[-1] == max(nbrs)


@pytest.mark.parametrize("cells", [
    [[0, 1, 2], [3, 4, 5]],  # two disjoint triangles
    [[0, 1, 2], [0, 6, 7]],  # a bowtie pinched at node 0
])
def test_boundary_that_is_not_one_loop_is_refused(cells):
    nodes = [(0, 0), (1, 0), (0, 1), (5, 0), (6, 0), (5, 1), (-1, 0), (0, -1)]
    with pytest.raises(ConfigError, match="boundary is not a single closed loop"):
        _build_mesh(2, nodes, cells)


@pytest.mark.parametrize("cells", [[[0, 1, -1]], [[0, 1, 3]], []])
def test_cells_outside_the_node_list_are_refused(cells):
    with pytest.raises(ConfigError, match="nodes that do not exist"):
        _build_mesh(2, [(0, 0), (1, 0), (0, 1)], cells)


def test_cell_measures_positive_and_sum(disk10):
    assert np.all(disk10.cell_measures > 0)
    assert abs(np.sum(disk10.cell_measures) - disk10.volume) <= 1e-10 * disk10.volume
    assert abs(np.sum(disk10.facet_measures) - disk10.boundary_measure) <= 1e-10 * disk10.boundary_measure


@pytest.mark.parametrize("builder", [lambda: build_interval(7), lambda: build_disk(0.2), lambda: build_square(0.2)])
def test_text_format_round_trip(tmp_path, builder):
    m = builder()
    path = tmp_path / "m.pmesh"
    write_mesh(m, path)
    m2 = read_mesh(path)
    assert np.array_equal(m2.nodes, m.nodes)
    assert np.array_equal(m2.cells, m.cells)
    assert np.array_equal(m2.boundary_facets, m.boundary_facets)
    assert np.array_equal(m2.edges, m.edges)
    assert np.array_equal(m2.boundary_loop, m.boundary_loop)
    assert m2.volume == m.volume
    assert m2.boundary_measure == m.boundary_measure
    assert m2.inradius == m.inradius


@pytest.mark.parametrize("damage, message", [
    ("inverted cell", "degenerate or inverted cells"),
    ("dropped facet", "boundary facets do not match"),
    ("wrong header", "not a pmesh-1 file"),
    ("missing section", "expected section 'cells'"),
    ("trailing records", "records after the bfacets section"),
    ("two coordinates in 1D", "each nodes row .* must hold 1 entries"),
    ("cells tag + 7 junk", "expected section 'cells'"),
    ("nodes tag + extra", "expected section 'nodes'"),
    ("bfacets tag + x", "expected section 'bfacets'"),
])
def test_read_mesh_refuses_a_damaged_file(tmp_path, damage, message):
    path = tmp_path / "m.pmesh"
    write_mesh(build_interval(4) if damage == "two coordinates in 1D" else build_square(0.5), path)
    lines = path.read_text().splitlines()
    if damage == "trailing records":  # a section the reader does not know
        lines += ["cells 1", "0 1", "garbage here"]
    elif damage == "two coordinates in 1D":  # every node row gets a y
        lines[2:7] = [f"{x} 0.0" for x in lines[2:7]]
    elif damage == "inverted cell":
        k = next(k for k, t in enumerate(lines) if t.startswith("cells")) + 1
        a, b, c = lines[k].split()
        lines[k] = f"{b} {a} {c}"
    elif damage == "wrong header":
        lines[0] = "pmesh 2 2"
    elif " tag + " in damage:  # tokens after a section's count
        name, extra = damage.split(" tag + ")
        k = next(k for k, t in enumerate(lines) if t.startswith(name))
        lines[k] += f" {extra}"
    elif damage == "missing section":  # cells renamed: the reader finds another tag
        k = next(k for k, t in enumerate(lines) if t.startswith("cells"))
        lines[k] = lines[k].replace("cells", "triangles")
    else:  # the last boundary facet goes, and its section count drops by one
        k = next(k for k, t in enumerate(lines) if t.startswith("bfacets"))
        lines[k] = f"bfacets {int(lines[k].split()[1]) - 1}"
        lines.pop()
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=message):
        read_mesh(path)


def test_mesh_arrays_write_protected(disk10):
    with pytest.raises(ValueError):
        disk10.nodes[0, 0] = 99.0


def test_building_meshes_does_not_import_scipy_optimize():
    code = (
        "import sys\n"
        "from robinopt import build_polygon, build_square\n"
        "from robinopt.cli import main\n"
        "assert main(['mesh', '--domain', 'builtin:disk:0.1']) == 0\n"
        "assert build_square(0.25).inradius == 0.5\n"
        "assert build_polygon([(0, 0), (4, 0), (0, 3)], 1.0).inradius is not None\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    assert run_fresh(code).split()[-1] == "False"
