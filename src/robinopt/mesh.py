"""Simplicial meshes of the working domains with explicit boundary structure.

Provides deterministic structured meshes for
1. the unit interval (0, 1),
2. the unit disk (concentric rings of near-equilateral triangles),
3. the unit square (criss-cross pattern),
4. arbitrary simple polygons (ear clipping + uniform refinement),

together with uniform refinement and an exact text round-trip format.

Conventions
-----------
* 1D boundary facets are the two endpoint nodes, each carrying the counting
  measure 1, so a boundary integral is the two-point sum sigma(0) + sigma(1).
* The discrete 2D domain is the polygon spanned by the mesh itself; the disk
  boundary is polygonal and circle geometry enters only through oracle
  comparisons.
* Meshes are immutable after construction (arrays are write-protected),
  compared by identity and safe to share across parallel solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "Mesh",
    "build_interval",
    "build_disk",
    "build_square",
    "build_polygon",
    "refine",
    "write_mesh",
    "read_mesh",
]

_GEOM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Mesh:
    """Simplicial mesh of a 1D interval or a 2D polygonal domain.

    Attributes
    ----------
    dim : 1 or 2
    nodes : (N, dim) float array of node coordinates
    cells : (C, dim+1) int array, node indices per simplex
    boundary_facets : (B, dim) int array, node indices per boundary facet
        (a single node in 1D, an edge in 2D)
    facet_measures : (B,) facet measures (1 in 1D, edge length in 2D)
    node_is_boundary : (N,) bool
    cell_measures : (C,) cell length/area, all positive
    cell_grads : (C, dim, dim+1) gradients of the nodal hat functions,
        constant per cell
    volume : total length/area
    boundary_measure : total boundary measure
    inradius : inradius of the domain (convex domains only, else None)
    """

    dim: int
    nodes: np.ndarray
    cells: np.ndarray
    boundary_facets: np.ndarray
    facet_measures: np.ndarray
    node_is_boundary: np.ndarray
    cell_measures: np.ndarray
    cell_grads: np.ndarray
    volume: float
    boundary_measure: float
    inradius: float | None
    # boundary nodes ordered along the boundary (loop in 2D, pair in 1D)
    boundary_loop: np.ndarray = field(repr=False, default=None)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    def boundary_nodes(self):
        """Indices of boundary nodes, ascending."""
        return np.flatnonzero(self.node_is_boundary)

    def nearest_boundary_node(self, point):
        """Index of the boundary node closest to `point` and the snap distance."""
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        bnodes = self.boundary_nodes()
        d = np.linalg.norm(self.nodes[bnodes] - pt[None, :], axis=1)
        k = int(np.argmin(d))
        return int(bnodes[k]), float(d[k])


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _build_mesh(dim, nodes, cells, bfacets=None):
    """Assemble a Mesh from raw arrays, deriving all boundary structure.

    Validates the construction invariants: positive cell measures and
    declared boundary facets (if any) matching the mesh topology.
    """
    nodes = np.asarray(nodes, dtype=float).reshape(-1, dim)
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, dim + 1)

    if dim == 1:
        meas, grads = _interval_geometry(nodes, cells)
    else:
        meas, grads = _triangle_geometry(nodes, cells)
    if np.any(meas <= 0):
        raise ConfigError("mesh has degenerate or inverted cells")

    facets = _boundary_facets(dim, cells, bfacets)
    if dim == 1:
        fmeas = np.ones(len(facets))
    else:
        fmeas = np.linalg.norm(nodes[facets[:, 1]] - nodes[facets[:, 0]], axis=1)

    flags = np.zeros(len(nodes), dtype=bool)
    flags[facets.ravel()] = True

    volume = float(np.sum(meas))
    bmeasure = float(np.sum(fmeas))
    loop = _boundary_loop(dim, nodes, facets)
    inr = _inradius(dim, nodes, loop)

    return Mesh(
        dim=dim,
        nodes=_freeze(nodes),
        cells=_freeze(cells),
        boundary_facets=_freeze(facets),
        facet_measures=_freeze(fmeas),
        node_is_boundary=_freeze(flags),
        cell_measures=_freeze(meas),
        cell_grads=_freeze(grads),
        volume=volume,
        boundary_measure=bmeasure,
        inradius=inr,
        boundary_loop=_freeze(loop),
    )


def _interval_geometry(nodes, cells):
    x = nodes[:, 0]
    h = x[cells[:, 1]] - x[cells[:, 0]]
    grads = np.empty((len(cells), 1, 2))
    grads[:, 0, 0] = -1.0 / h
    grads[:, 0, 1] = 1.0 / h
    return h.copy(), grads


def _triangle_geometry(nodes, cells):
    p0 = nodes[cells[:, 0]]
    e1 = nodes[cells[:, 1]] - p0
    e2 = nodes[cells[:, 2]] - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = 0.5 * det
    # grad phi = B^{-T} grad_ref phi with B = [e1 e2], grad_ref = [-1 -1; 1 0; 0 1]
    inv = np.empty((len(cells), 2, 2))
    inv[:, 0, 0] = e2[:, 1] / det
    inv[:, 0, 1] = -e2[:, 0] / det
    inv[:, 1, 0] = -e1[:, 1] / det
    inv[:, 1, 1] = e1[:, 0] / det
    gref = np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])  # (2, 3)
    grads = np.einsum("cji,jk->cik", inv, gref)
    return area, grads


def _boundary_facets(dim, cells, bfacets):
    """Facets appearing in exactly one cell, in lexicographic order of their
    sorted node tuples."""
    if dim == 1:
        faces = cells.reshape(-1, 1)
    else:
        faces = np.concatenate(
            [cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]], axis=0
        )

    # np.unique returns the sorted node tuples in lexicographic order, and a
    # boundary facet's first occurrence is its only one
    _, first, counts = np.unique(
        np.sort(faces, axis=1), axis=0, return_index=True, return_counts=True
    )
    facets = faces[first[counts == 1]]

    if bfacets is not None:
        given = {tuple(sorted(f)) for f in np.asarray(bfacets).reshape(-1, dim)}
        found = {tuple(sorted(f)) for f in facets}
        if given != found:
            raise ConfigError("declared boundary facets do not match mesh topology")
    return facets


def _boundary_loop(dim, nodes, facets):
    """Boundary nodes in traversal order (single loop assumed in 2D)."""
    if dim == 1:
        ends = np.sort(facets[:, 0])
        return ends
    nbr = {}
    for a, b in facets:
        nbr.setdefault(int(a), []).append(int(b))
        nbr.setdefault(int(b), []).append(int(a))
    start = min(nbr)
    loop = [start]
    prev = None
    cur = start
    for _ in range(len(nbr)):
        nxt = [v for v in sorted(nbr[cur]) if v != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        if cur == start:
            break
        loop.append(cur)
    if len(loop) != len(nbr):
        raise ConfigError("boundary is not a single closed loop")
    return np.asarray(loop, dtype=np.int64)


def _inradius(dim, nodes, loop):
    """Inradius: half-length in 1D, Chebyshev center radius for convex polygons."""
    if dim == 1:
        return 0.5 * float(abs(nodes[loop[1], 0] - nodes[loop[0], 0]))
    pts = nodes[loop]
    if _signed_area(pts) < 0:
        pts = pts[::-1]
    if not _is_convex(pts):
        return None
    from scipy.optimize import linprog

    # maximize r s.t. n_i . x + r <= n_i . p_i for inward-normalized edges
    m = len(pts)
    a = pts
    b = pts[(np.arange(m) + 1) % m]
    t = b - a
    ln = np.linalg.norm(t, axis=1)
    keep = ln > _GEOM_TOL
    a, b, t, ln = a[keep], b[keep], t[keep], ln[keep]
    n = np.stack([t[:, 1], -t[:, 0]], axis=1) / ln[:, None]  # outward for ccw
    A_ub = np.concatenate([n, np.ones((len(n), 1))], axis=1)
    b_ub = np.einsum("ij,ij->i", n, a)
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * 3, method="highs")
    if not res.success:
        return None
    return float(res.x[2])


def _is_convex(pts):
    m = len(pts)
    sign = 0
    for i in range(m):
        a, b, c = pts[i], pts[(i + 1) % m], pts[(i + 2) % m]
        cr = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if abs(cr) <= _GEOM_TOL:
            continue
        s = 1 if cr > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_interval(n_cells: int) -> Mesh:
    """Uniform mesh of the unit interval (0, 1).

    The two endpoint facets carry the counting measure 1 each, so the
    discrete boundary integral of a weight sigma is sigma(0) + sigma(1).

    Parameters
    ----------
    n_cells : number of cells, at least 2.
    """
    if n_cells < 2:
        raise ConfigError("build_interval requires n_cells >= 2")
    nodes = np.linspace(0.0, 1.0, n_cells + 1)[:, None]
    cells = np.stack([np.arange(n_cells), np.arange(1, n_cells + 1)], axis=1)
    return _build_mesh(1, nodes, cells)


def build_disk(h: float) -> Mesh:
    """Structured triangulation of the unit disk by concentric rings.

    Ring k (k = 1..K, K = round(1/h)) carries 6k nodes at radius k/K;
    consecutive rings are joined by an angular two-pointer sweep, which
    yields 6K^2 near-equilateral triangles. Deterministic.

    The discrete domain is the inscribed 6K-gon: its area is within O(h^2)
    of pi and its perimeter within O(h^2) of 2*pi.
    """
    if not (0.0 < h < 1.0):
        raise ConfigError("build_disk requires 0 < h < 1")
    K = max(1, int(round(1.0 / h)))
    nodes = [np.zeros((1, 2))]
    ring_start = [0]
    for k in range(1, K + 1):
        nk = 6 * k
        th = 2.0 * np.pi * np.arange(nk) / nk
        r = k / K
        ring_start.append(ring_start[-1] + (6 * (k - 1) if k > 1 else 1))
        nodes.append(np.stack([r * np.cos(th), r * np.sin(th)], axis=1))
    nodes = np.concatenate(nodes, axis=0)

    cells = []
    # fan around the center
    s1 = ring_start[1]
    for j in range(6):
        cells.append([0, s1 + j, s1 + (j + 1) % 6])
    # ring-to-ring merge, sector by sector so the mesh is exactly 6-fold
    # symmetric: sector s of ring k spans k edges, ring k-1 spans k-1
    for k in range(2, K + 1):
        n_in, n_out = 6 * (k - 1), 6 * k
        si, so = ring_start[k - 1], ring_start[k]
        for s in range(6):
            inner = [si + (s * (k - 1) + t) % n_in for t in range(k)]
            outer = [so + (s * k + t) % n_out for t in range(k + 1)]
            for t in range(k):
                cells.append([inner[t], outer[t], outer[t + 1]])
                if t < k - 1:
                    cells.append([inner[t], outer[t + 1], inner[t + 1]])
    return _build_mesh(2, nodes, np.asarray(cells))


def build_square(h: float) -> Mesh:
    """Criss-cross triangulation of the unit square.

    Each of the n x n grid cells (n = round(1/h)) is split into four
    triangles around its center node. Volume is exactly 1 and boundary
    measure exactly 4 up to rounding.
    """
    if h <= 0:
        raise ConfigError("build_square requires h > 0")
    n = max(1, int(round(1.0 / h)))
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    cx = 0.5 * (xs[:-1] + xs[1:])
    mx, my = np.meshgrid(cx, cx, indexing="ij")
    centers = np.stack([mx.ravel(), my.ravel()], axis=1)
    nodes = np.concatenate([grid, centers], axis=0)

    def gid(i, j):
        return i * (n + 1) + j

    nc0 = (n + 1) ** 2
    cells = []
    for i in range(n):
        for j in range(n):
            c = nc0 + i * n + j
            a, b = gid(i, j), gid(i + 1, j)
            d, e = gid(i + 1, j + 1), gid(i, j + 1)
            cells += [[a, b, c], [b, d, c], [d, e, c], [e, a, c]]
    return _build_mesh(2, nodes, np.asarray(cells))


def build_polygon(vertices, h: float) -> Mesh:
    """Constrained triangulation of a simple counter-clockwise polygon.

    Ear clipping on the vertex list produces a coarse triangulation using
    only the polygon vertices; uniform refinement then subdivides until no
    edge exceeds `h`. Inradius is computed for convex polygons only.
    """
    verts = np.asarray(vertices, dtype=float).reshape(-1, 2)
    if len(verts) < 3:
        raise ConfigError("polygon needs at least 3 vertices")
    if h <= 0:
        raise ConfigError("build_polygon requires h > 0")
    if _signed_area(verts) <= 0:
        raise ConfigError("polygon must be counter-clockwise")
    if _self_intersects(verts):
        raise ConfigError("polygon is self-intersecting")

    tris = _ear_clip(verts)
    # split each ear at its centroid: every cell then touches an interior
    # node, a property uniform refinement preserves; cells with all vertices
    # on the boundary would degrade boundary flux recovery at the corners
    nodes = list(verts)
    cells = []
    for a, b, c in tris:
        k = len(nodes)
        nodes.append((verts[a] + verts[b] + verts[c]) / 3.0)
        cells += [[a, b, k], [b, c, k], [c, a, k]]
    mesh = _build_mesh(2, np.asarray(nodes), np.asarray(cells))
    while _max_edge(mesh) > h:
        mesh = refine(mesh)
    return mesh


def _signed_area(v):
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segments_intersect(p, q, r, s):
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if abs(v) <= _GEOM_TOL else (1 if v > 0 else -1)

    o1, o2 = orient(p, q, r), orient(p, q, s)
    o3, o4 = orient(r, s, p), orient(r, s, q)
    return o1 != o2 and o3 != o4


def _self_intersects(v):
    m = len(v)
    for i in range(m):
        for j in range(i + 1, m):
            if j == i or (j + 1) % m == i or (i + 1) % m == j:
                continue
            if _segments_intersect(v[i], v[(i + 1) % m], v[j], v[(j + 1) % m]):
                return True
    return False


def _ear_clip(verts):
    idx = list(range(len(verts)))
    tris = []

    def is_ear(k):
        a, b, c = verts[idx[k - 1]], verts[idx[k]], verts[idx[(k + 1) % len(idx)]]
        cr = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if cr <= _GEOM_TOL:
            return False
        for j in idx:
            if j in (idx[k - 1], idx[k], idx[(k + 1) % len(idx)]):
                continue
            if _point_in_tri(verts[j], a, b, c):
                return False
        return True

    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10 * len(verts) ** 2:
            raise ConfigError("ear clipping failed; polygon may be degenerate")
        for k in range(len(idx)):
            if is_ear(k):
                tris.append([idx[k - 1], idx[k], idx[(k + 1) % len(idx)]])
                del idx[k]
                break
    tris.append(list(idx))
    return tris


def _point_in_tri(p, a, b, c):
    def half(u, v, w):
        return (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])

    d1, d2, d3 = half(a, b, p), half(b, c, p), half(c, a, p)
    neg = (d1 < -_GEOM_TOL) or (d2 < -_GEOM_TOL) or (d3 < -_GEOM_TOL)
    pos = (d1 > _GEOM_TOL) or (d2 > _GEOM_TOL) or (d3 > _GEOM_TOL)
    return not (neg and pos)


def _max_edge(mesh):
    if mesh.dim == 1:
        return float(np.max(mesh.cell_measures))
    p = mesh.nodes[mesh.cells]
    e = np.linalg.norm(np.roll(p, -1, axis=1) - p, axis=2)
    return float(np.max(e))


def refine(mesh: Mesh) -> Mesh:
    """Uniform refinement by edge-midpoint subdivision.

    Splits every 1D cell in two, every triangle into four. Volume is
    preserved exactly for polygonal domains and boundary facets are split
    consistently with the parent facets.
    """
    if mesh.dim == 1:
        x = mesh.nodes[:, 0]
        mids = 0.5 * (x[mesh.cells[:, 0]] + x[mesh.cells[:, 1]])
        nodes = np.concatenate([x, mids])[:, None]
        n0 = mesh.n_nodes
        cells = []
        for k, (a, b) in enumerate(mesh.cells):
            m = n0 + k
            cells += [[a, m], [m, b]]
        order = np.argsort(nodes[:, 0], kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        cells = rank[np.asarray(cells)]
        return _build_mesh(1, nodes[order], cells)

    edges = set()
    for tri in mesh.cells:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)
    mid_index = {e: mesh.n_nodes + k for k, e in enumerate(edges)}
    mids = 0.5 * (mesh.nodes[[e[0] for e in edges]] + mesh.nodes[[e[1] for e in edges]])
    nodes = np.concatenate([mesh.nodes, mids], axis=0)

    cells = []
    for a, b, c in mesh.cells:
        ab = mid_index[(min(a, b), max(a, b))]
        bc = mid_index[(min(b, c), max(b, c))]
        ca = mid_index[(min(c, a), max(c, a))]
        cells += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
    return _build_mesh(2, nodes, np.asarray(cells))


# ---------------------------------------------------------------------------
# exact text round-trip format
# ---------------------------------------------------------------------------

def write_mesh(mesh: Mesh, path) -> None:
    """Write the version-tagged text format; exact round trip with read_mesh."""
    lines = [f"pmesh 1 {mesh.dim}", f"nodes {mesh.n_nodes}"]
    for row in mesh.nodes:
        lines.append(" ".join(repr(float(v)) for v in row))
    lines.append(f"cells {mesh.n_cells}")
    for row in mesh.cells:
        lines.append(" ".join(str(int(v)) for v in row))
    lines.append(f"bfacets {len(mesh.boundary_facets)}")
    for row in mesh.boundary_facets:
        lines.append(" ".join(str(int(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path) -> Mesh:
    """Read the text format written by write_mesh; ConfigError if missing or malformed."""
    try:
        with open(path) as fh:
            toks = [t for t in fh.read().split("\n") if t.strip()]
        head = toks[0].split()
        if len(head) != 3 or head[0] != "pmesh" or head[1] != "1":
            raise ConfigError(f"not a pmesh-1 file: {path}")
        dim = int(head[2])
        if dim not in (1, 2):
            raise ConfigError(f"unsupported mesh dimension {dim} in {path}: pmesh 1 has dim 1 or 2")
        pos = 1

        def section(name):
            nonlocal pos
            tag = toks[pos].split()
            if tag[0] != name:
                raise ConfigError(f"expected section {name!r} in {path}")
            count = int(tag[1])
            rows = [toks[pos + 1 + k].split() for k in range(count)]
            pos += 1 + count
            return rows

        nodes = np.asarray([[float(v) for v in r] for r in section("nodes")])
        cells = np.asarray([[int(v) for v in r] for r in section("cells")], dtype=np.int64)
        bfacets = np.asarray([[int(v) for v in r] for r in section("bfacets")], dtype=np.int64)
        return _build_mesh(dim, nodes, cells, bfacets=bfacets)
    except (OSError, IndexError, ValueError) as exc:
        raise ConfigError(f"cannot read pmesh file {path}: {exc}") from None
