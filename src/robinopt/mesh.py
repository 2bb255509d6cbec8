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
* Meshes are immutable after construction (arrays are write-protected)
  and compared by identity. Their inradius is computed on construction, for
  a convex 2D domain by the straight skeleton of its boundary polygon
  (Aichholzer, Aurenhammer, Alberts and Gaertner, J. UCS 1, 1995).
* Which nodes are neighbours is decided once per mesh, by its edge table
  `Mesh.edges`: the node pairs sharing a cell, one `np.unique` over integer
  keys lo * n + hi. The boundary facets (sides in one cell), `refine`'s
  midpoints, the longest edge and the Cuthill-McKee node order of
  `innersolve` all read it.
* Every cell has positive area, so every 2D boundary facet, kept as its cell
  orients it, runs counter-clockwise; the boundary loop follows the facets
  from the lowest boundary node, first towards its lower neighbour.
* Every polygon test (self-intersection, ear clipping, convexity for the
  inradius) asks one orientation predicate `_orient`, whether three points
  turn left, right or neither. Its tolerance is relative, |cross| <=
  _GEOM_TOL |b - a| |c - a|, so whether a polygon meshes does not depend on
  its length scale (cf. Shewchuk, Discrete Comput. Geom. 18, 1997).
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
    edges : (E, 2) int array, the node pairs that share a cell, each
        ascending, rows in lexicographic order (the cells themselves in 1D)
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
    edges: np.ndarray
    boundary_facets: np.ndarray
    facet_measures: np.ndarray
    node_is_boundary: np.ndarray
    cell_measures: np.ndarray
    cell_grads: np.ndarray
    volume: float
    boundary_measure: float
    inradius: float | None
    # boundary nodes ordered along the boundary (loop in 2D, pair in 1D)
    boundary_loop: np.ndarray = field(repr=False)

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
        """Index of the boundary node closest to `point` (shape (dim,)) and the snap distance."""
        pt = np.asarray(point, dtype=float)
        if pt.shape != (self.dim,):
            raise ConfigError(f"point {pt.tolist()} is not a point of the mesh's {self.dim}D domain")
        if not np.all(np.isfinite(pt)):
            raise ConfigError(f"point {pt.tolist()} is not finite")
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

    Validates the construction invariants: at least one cell, cell indices
    within the node list, positive cell measures and declared boundary
    facets (if any) matching the mesh topology.
    """
    nodes = np.asarray(nodes, dtype=float).reshape(-1, dim)
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, dim + 1)
    if not (cells.size and 0 <= cells.min() <= cells.max() < len(nodes)):
        raise ConfigError("mesh has no cells or its cells refer to nodes that do not exist")

    if dim == 1:
        meas, grads = _interval_geometry(nodes, cells)
    else:
        meas, grads = _triangle_geometry(nodes, cells)
    if np.any(meas <= 0):
        raise ConfigError("mesh has degenerate or inverted cells")

    edges, facets = _edge_table(dim, cells, len(nodes))
    if bfacets is not None:
        given = {tuple(sorted(f)) for f in np.asarray(bfacets).reshape(-1, dim)}
        if given != {tuple(sorted(f)) for f in facets}:
            raise ConfigError("declared boundary facets do not match mesh topology")
    if dim == 1:
        fmeas = np.ones(len(facets))
    else:
        fmeas = np.linalg.norm(nodes[facets[:, 1]] - nodes[facets[:, 0]], axis=1)

    flags = np.zeros(len(nodes), dtype=bool)
    flags[facets.ravel()] = True

    volume = float(np.sum(meas))
    bmeasure = float(np.sum(fmeas))
    loop = _boundary_loop(dim, facets)
    inr = _inradius(dim, nodes, loop)

    return Mesh(
        dim=dim,
        nodes=_freeze(nodes),
        cells=_freeze(cells),
        edges=_freeze(edges),
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


def _edge_table(dim, cells, n):
    """The edge table (node pairs sharing a cell, each ascending, in
    lexicographic order: key lo * n + hi) and the boundary facets in the same
    order: in 2D the sides in exactly one cell, each as its cell orients it,
    in 1D the nodes in exactly one cell."""
    sides = cells if dim == 1 else np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]])
    keys, first, counts = np.unique(sides.min(axis=1) * n + sides.max(axis=1),
                                    return_index=True, return_counts=True)
    if dim == 1:
        facets = np.flatnonzero(np.bincount(cells.ravel(), minlength=n) == 1)[:, None]
    else:
        facets = sides[first[counts == 1]]
    return np.stack(np.divmod(keys, n), axis=1), facets


def _boundary_loop(dim, facets):
    """Boundary nodes in traversal order: the two ends in 1D; in 2D the single
    loop from the lowest boundary node, first to its lower neighbour. Every
    cell has positive area, so each 2D facet runs counter-clockwise and maps
    its first node to its second."""
    if dim == 1:
        return np.sort(facets[:, 0])
    succ = np.full(facets.max() + 2, -1)  # -1: no facet starts here; the spare last entry keeps -1 at -1
    succ[facets[:, 0]] = facets[:, 1]
    nxt, loop = succ.tolist(), [int(facets[:, 0].min())]
    for _ in range(len(facets)):
        loop.append(nxt[loop[-1]])
    if loop[-1] != loop[0] or len(set(loop)) != len(facets):
        raise ConfigError("boundary is not a single closed loop")
    loop = np.asarray(loop[:-1], dtype=np.int64)
    return loop if loop[1] < loop[-1] else np.roll(loop[::-1], 1)


def _inradius(dim, nodes, loop):
    """Half the length in 1D; in 2D the exact inradius of a convex polygon,
    None for any other.

    Straight skeleton: edge lines n.x = c (n the inward unit normal) move
    inward at unit speed, and the edge that first meets both neighbours'
    lines in one point goes. A convex polygon has edge events only, so the
    last three lines meet at the inradius.
    """
    if dim == 1:
        return 0.5 * float(abs(nodes[loop[1], 0] - nodes[loop[0], 0]))
    pts = nodes[loop]
    if _signed_area(pts) < 0:
        pts = pts[::-1]
    turn = _orient(np.roll(pts, 1, axis=0), pts, np.roll(pts, -1, axis=0))
    if np.any(turn < 0):
        return None
    pts = pts[turn > 0]  # a collinear run becomes one edge
    if len(pts) < 3:  # a sliver below the tolerance has no corners left
        return None
    e = np.roll(pts, -1, axis=0) - pts
    n = np.stack([-e[:, 1], e[:, 0]], axis=1) / np.linalg.norm(e, axis=1)[:, None]
    c, n, m = np.einsum("ij,ij->i", n, pts).tolist(), n.tolist(), len(pts)
    prev, nxt = [(i - 1) % m for i in range(m)], [(i + 1) % m for i in range(m)]

    def vanish(i):
        # n_j.x - t = c_j for j = prev, i, next: subtract row i, Cramer's rule;
        # an edge whose system is singular or gives t <= 0 never vanishes
        j, k, (x, y) = prev[i], nxt[i], n[i]
        a1, b1, r1 = n[j][0] - x, n[j][1] - y, c[j] - c[i]
        a2, b2, r2 = n[k][0] - x, n[k][1] - y, c[k] - c[i]
        det = a1 * b2 - a2 * b1
        t = x * (r1 * b2 - r2 * b1) / det + y * (a1 * r2 - a2 * r1) / det - c[i] if det else 0.0
        return t if t > 0 else np.inf

    times = np.array([vanish(i) for i in range(m)])
    for _ in range(m - 3):
        i = int(np.argmin(times))
        times[i] = np.inf
        nxt[prev[i]], prev[nxt[i]] = nxt[i], prev[i]
        times[prev[i]], times[nxt[i]] = vanish(prev[i]), vanish(nxt[i])
    return float(np.min(times))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_interval(n_cells: int) -> Mesh:
    """Uniform mesh of the unit interval (0, 1).

    The two endpoint facets carry the counting measure 1 each, so the
    discrete boundary integral of a weight sigma is sigma(0) + sigma(1).

    Parameters
    ----------
    n_cells : number of cells, an integer at least 2.
    """
    if not (2 <= n_cells < np.inf and n_cells == int(n_cells)):
        raise ConfigError(f"build_interval requires an integer n_cells >= 2, got {n_cells!r}")
    n_cells = int(n_cells)
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
    k = np.repeat(np.arange(1, K + 1), 6 * np.arange(1, K + 1))  # the ring of nodes 1, 2, ...
    th = 2.0 * np.pi * (np.arange(len(k)) - 3 * k * (k - 1)) / (6 * k)
    nodes = np.concatenate([np.zeros((1, 2)), (k / K)[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)])

    # ring k (from node 1 + 3k(k - 1)) joins ring k - 1 (the center for k = 1)
    # sector by sector, so the mesh is exactly 6-fold symmetric: sector s of
    # ring k spans k edges, ring k - 1 spans k - 1, and its cells alternate
    # (inner t, outer t, outer t+1), (inner t, outer t+1, inner t+1)
    cells = []
    for k in range(1, K + 1):
        s, t = np.arange(6)[:, None], np.arange(k + 1)
        inner = (1 + 3 * (k - 1) * (k - 2) + (s * (k - 1) + t) % (6 * (k - 1)) if k > 1
                 else np.zeros((6, k + 1), dtype=np.int64))
        outer = 1 + 3 * k * (k - 1) + (s * k + t) % (6 * k)
        ring = np.stack([inner[:, :-1], outer[:, :-1], outer[:, 1:],
                         inner[:, :-1], outer[:, 1:], inner[:, 1:]], axis=2)
        cells.append(ring.reshape(6, 2 * k, 3)[:, :-1].reshape(-1, 3))
    return _build_mesh(2, nodes, np.concatenate(cells))


def build_square(h: float) -> Mesh:
    """Criss-cross triangulation of the unit square.

    Each of the n x n grid cells (n = round(1/h)) is split into four
    triangles around its center node. Volume is exactly 1 and boundary
    measure exactly 4 up to rounding.
    """
    if not 0 < h < np.inf:
        raise ConfigError("build_square requires a finite h > 0")
    n = max(1, int(round(1.0 / h)))
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    cx = 0.5 * (xs[:-1] + xs[1:])
    mx, my = np.meshgrid(cx, cx, indexing="ij")
    centers = np.stack([mx.ravel(), my.ravel()], axis=1)
    nodes = np.concatenate([grid, centers], axis=0)

    # grid cell (i, j) has corners a, b = a + n + 1, d = b + 1, e = a + 1 and
    # center c: cells (a, b, c), (b, d, c), (d, e, c), (e, a, c), row by row
    i, j = np.divmod(np.arange(n * n), n)
    a = i * (n + 1) + j
    b, c = a + n + 1, (n + 1) ** 2 + i * n + j
    cells = np.stack([a, b, c, b, b + 1, c, b + 1, a + 1, c, a + 1, a, c], axis=1)
    return _build_mesh(2, nodes, cells)


def build_polygon(vertices, h: float) -> Mesh:
    """Constrained triangulation of a simple counter-clockwise polygon.

    Ear clipping on the vertex list produces a coarse triangulation using
    only the polygon vertices; uniform refinement then subdivides until no
    edge exceeds `h`. Inradius is computed for convex polygons only.
    """
    verts = np.asarray(vertices, dtype=float).reshape(-1, 2)
    if len(verts) < 3:
        raise ConfigError("polygon needs at least 3 vertices")
    if not (0 < h < np.inf and np.isfinite(verts).all()):
        raise ConfigError("build_polygon requires finite vertices and a finite h > 0")
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


def _orient(a, b, c):
    """Sign of (b - a) x (c - a), broadcast over leading axes: 1 when a, b, c
    turn left, -1 when they turn right, 0 when |(b - a) x (c - a)| <=
    _GEOM_TOL |b - a| |c - a|, that is the sine of the angle at a is at most
    _GEOM_TOL."""
    u, v = np.subtract(b, a), np.subtract(c, a)
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    tol = _GEOM_TOL * np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1)
    return np.where(np.abs(cross) > tol, np.sign(cross), 0.0)


def _signed_area(v):
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _self_intersects(v):
    """Whether two sides that share no vertex cross or touch, by the signs of
    each side's ends about the other's line."""
    m = len(v)
    w = np.roll(v, -1, axis=0)  # side i runs from v[i] to w[i]
    for i in range(m - 2):
        later = slice(i + 2, m - 1 if i == 0 else m)  # side m - 1 ends at v[0]
        r, s = v[later], w[later]
        if np.any((_orient(v[i], w[i], r) != _orient(v[i], w[i], s))
                  & (_orient(r, s, v[i]) != _orient(r, s, w[i]))):
            return True
    return False


def _ear_clip(verts):
    """Triangles of the polygon: each pass cuts the first ear, a convex corner
    whose triangle holds no other remaining vertex, not even on its sides."""
    idx, tris = list(range(len(verts))), []
    while len(idx) > 3:
        pts, n = verts[idx], len(idx)
        for k in range(n):
            ear = [(k - 1) % n, k, (k + 1) % n]
            tri = pts[ear]
            if _orient(*tri) <= 0:
                continue
            side = _orient(tri[:, None], np.roll(tri, -1, axis=0)[:, None], np.delete(pts, ear, axis=0))
            if np.all(np.any(side < 0, axis=0) & np.any(side > 0, axis=0)):
                tris.append([idx[e] for e in ear])
                del idx[k]
                break
        else:
            raise ConfigError("ear clipping failed; polygon may be degenerate")
    tris.append(idx)
    return tris


def _max_edge(mesh):
    p = mesh.nodes[mesh.edges]
    return float(np.max(np.linalg.norm(p[:, 1] - p[:, 0], axis=1)))


def refine(mesh: Mesh) -> Mesh:
    """Uniform refinement by edge-midpoint subdivision.

    Splits every 1D cell in two, every triangle into four. The midpoint of
    the parent's edge k is node n_nodes + k, so the new nodes follow the
    parent's edge order (in 1D all nodes are then renumbered by coordinate).
    Volume is preserved exactly for polygonal domains and boundary facets are
    split consistently with the parent facets.
    """
    n, (lo, hi) = mesh.n_nodes, mesh.edges.T
    nodes = np.concatenate([mesh.nodes, 0.5 * (mesh.nodes[lo] + mesh.nodes[hi])])
    keys = lo * n + hi

    def mid(u, v):
        return n + np.searchsorted(keys, np.minimum(u, v) * n + np.maximum(u, v))

    if mesh.dim == 1:
        a, b = mesh.cells.T
        m = mid(a, b)
        order = np.argsort(nodes[:, 0], kind="stable")
        rank = np.argsort(order)  # a node's position in coordinate order
        return _build_mesh(1, nodes[order], rank[np.stack([a, m, m, b], axis=1).reshape(-1, 2)])
    a, b, c = mesh.cells.T
    ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
    cells = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    return _build_mesh(2, nodes, cells)


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

        def section(name, width):
            nonlocal pos
            tag = toks[pos].split()
            if len(tag) != 2 or tag[0] != name:
                raise ConfigError(f"expected section {name!r} (the line '{name} <count>') in {path}")
            count = int(tag[1])
            rows = [toks[pos + 1 + k].split() for k in range(count)]
            pos += 1 + count
            if any(len(r) != width for r in rows):
                raise ConfigError(f"each {name} row of {path} must hold {width} entries")
            return rows

        nodes = np.asarray([[float(v) for v in r] for r in section("nodes", dim)])
        cells = np.asarray([[int(v) for v in r] for r in section("cells", dim + 1)], dtype=np.int64)
        bfacets = np.asarray([[int(v) for v in r] for r in section("bfacets", dim)], dtype=np.int64)
        if pos != len(toks):
            raise ConfigError(f"records after the bfacets section of {path}")
        return _build_mesh(dim, nodes, cells, bfacets=bfacets)
    except (OSError, IndexError, ValueError) as exc:
        raise ConfigError(f"cannot read pmesh file {path}: {exc}") from None
