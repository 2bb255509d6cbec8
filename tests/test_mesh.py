import numpy as np
import pytest

from robinopt import ConfigError, build_disk, build_interval, build_polygon, build_square, read_mesh, refine, write_mesh


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


def test_polygon_rejects_self_intersection():
    with pytest.raises(ConfigError):
        build_polygon([(0, 0), (1, 1), (1, 0), (0, 1)], 0.5)


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
    assert m2.volume == m.volume
    assert m2.boundary_measure == m.boundary_measure
    assert m2.inradius == m.inradius


def test_mesh_arrays_write_protected(disk10):
    with pytest.raises(ValueError):
        disk10.nodes[0, 0] = 99.0


def test_building_meshes_does_not_import_scipy_optimize():
    import os
    import subprocess
    import sys

    import robinopt

    src = os.path.dirname(os.path.dirname(robinopt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "from robinopt import build_polygon, build_square\n"
        "from robinopt.cli import main\n"
        "assert main(['mesh', '--domain', 'builtin:disk:0.1']) == 0\n"
        "assert build_square(0.25).inradius == 0.5\n"
        "assert build_polygon([(0, 0), (4, 0), (0, 3)], 1.0).inradius is not None\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split()[-1] == "False"
