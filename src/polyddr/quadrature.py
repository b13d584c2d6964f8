"""Exact integration of polynomials over mesh entities.

Edges get Gauss-Legendre rules. Faces and cells are cut into simplicial
fans, and each simplex carries a collapsed Gauss-Jacobi product rule: the
Duffy map sends a cube onto the simplex and its polynomial Jacobian is
absorbed into Jacobi weights, so the rule is exact for the requested total
degree by construction and all weights stay positive. Slightly more points
than tabulated symmetric rules, but any degree is available without tables.

Faces and cells have two rule kinds, fixed by the call site:

- Polynomial integrands (the default; every operator, potential and
  product) use the coarsest vertex fan. A face of n vertices is fanned
  from its first vertex whose n-2 triangles all have doubled area above
  SIGN_RTOL * h_F^2; a cell from its first vertex whose tetrahedra over the
  face fans of the faces avoiding it all have 6 * volume above
  SIGN_RTOL * h_T^3. A triangle or a tetrahedron is then one simplex, a
  quad two, a hexahedron six. Where no vertex qualifies, the centroid fan
  below is used. Any rule exact to the degree gives the same integrals up
  to roundoff, so the coarsest one is taken.
- Non-polynomial data (data=True: interpolation of smooth fields, the load
  vector, errors against smooth fields) use the centroid fan the mesh
  validates: x_F with the loop's edges on faces, x_T with the face fans on
  cells. On such data a rule is not exact, and its error is part of the
  computed numbers; the finer centroid fan keeps those numbers (pinned
  solution errors among them) as they are.

The reference rules on [0, 1], the triangle and the tetrahedron are computed
once per degree and cached as read-only arrays; each entity rule maps them
onto its own fan. The vertex fans are searched once per mesh and serve
every degree. The search runs per mesh entity group (Mesh.face_groups,
Mesh.cell_groups): one pass per candidate anchor over all faces of one
valence, or per candidate apex over all cells of one shape, each taking
the first candidate that qualifies, with the arithmetic of the one-entity
search, so the fans are the same bit for bit. The fans are kept as stacks
of the entities of one mesh group with fans of one size, and the centroid
fans as the mesh's own group stacks. Every rule is stacked over a sequence
of entities whose fans have one size (an entity group, see
polyspaces.BasisBank, or a single entity): its fans are gathered from
those stacks, and each entity's rows are equal bit for bit whatever stack
holds them, so a rule over part of a group equals that part of the
group's rule. Data rules are built one block of a group's entities at a
time (BasisBank.data_blocks) and are not kept; data_rule_size gives a data
rule's points per entity without building it, which sets the blocks.
"""

import functools
import weakref

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .mesh import SIGN_RTOL, _cross, _groups

__all__ = ["QuadRule", "entity_rule"]


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class QuadRule:
    """Points, weights, and the guaranteed polynomial exactness degree,
    stacked over G entities: points (G, n, 3), weights (G, n). len() counts
    the points of all entities.
    """

    __slots__ = ("points", "weights", "exactness_degree")

    def __init__(self, points, weights, exactness_degree):
        self.points, self.weights = _frozen(points, weights)
        self.exactness_degree = exactness_degree

    def __len__(self):
        return self.weights.size


@functools.cache
def _gauss01(n):
    # Gauss-Legendre on [0, 1]
    x, w = roots_legendre(n)
    return _frozen(0.5 * (x + 1.0), 0.5 * w)


def _jacobi01(n, alpha):
    # nodes/weights for integral over [0,1] with weight (1-s)^alpha
    x, w = roots_jacobi(n, alpha, 0.0)
    return 0.5 * (x + 1.0), w / 2.0 ** (alpha + 1)


@functools.cache
def _triangle_ref(degree):
    """Rule for f -> int over {a,b>=0, a+b<=1} f(a,b), exact to `degree`."""
    n = max(1, (degree + 2) // 2)
    s, ws = _jacobi01(n, 1.0)
    t, wt = _gauss01(n)
    S, T = np.meshgrid(s, t, indexing="ij")
    A = S
    B = T * (1.0 - S)
    W = np.outer(ws, wt)
    return _frozen(np.column_stack([A.ravel(), B.ravel()]), W.ravel())


@functools.cache
def _tet_ref(degree):
    """Rule for the reference tetrahedron {a,b,c>=0, a+b+c<=1}."""
    n = max(1, (degree + 2) // 2)
    s, ws = _jacobi01(n, 2.0)
    t, wt = _jacobi01(n, 1.0)
    u, wu = _gauss01(n)
    S, T, U = np.meshgrid(s, t, u, indexing="ij")
    A = S
    B = T * (1.0 - S)
    C = U * (1.0 - S) * (1.0 - T)
    W = ws[:, None, None] * wt[None, :, None] * wu[None, None, :]
    pts = np.column_stack([A.ravel(), B.ravel(), C.ravel()])
    return _frozen(pts, W.ravel())


def edge_rule(mesh, ids, degree):
    n = max(1, (degree + 2) // 2)
    x, w = _gauss01(n)
    v0 = mesh.vertices[mesh.edges[ids, 0]]
    v1 = mesh.vertices[mesh.edges[ids, 1]]
    pts = v0[:, None, :] + x[None, :, None] * (v1 - v0)[:, None, :]
    return pts, w[None, :] * mesh.edge_lengths[ids][:, None]


def _fan_triangles(loop):
    """The n-2 triangles (G, n-2, 3, 3) fanning the (G, n, 3) loops from
    their first point."""
    tris = np.empty(loop.shape[:1] + (loop.shape[1] - 2, 3, 3))
    tris[:, :, 0] = loop[:, :1]
    tris[:, :, 1] = loop[:, 1:-1]
    tris[:, :, 2] = loop[:, 2:]
    return tris


def _face_fan(mesh, group):
    """Anchors, triangles and doubled areas of the coarsest valid fans of
    the faces of one mesh face group (valence n).

    A face is fanned from its first loop vertex whose n-2 fan triangles all
    have doubled area above SIGN_RTOL * h_F^2 along the face normal. The
    anchor is that vertex's loop position, -1 where none qualifies (the
    face keeps its centroid fan, and its rows of the triangles (G, n-2, 3,
    3) and areas (G, n-2) are left unset).
    """
    pts = mesh.vertices[group.faces]
    size, n = group.faces.shape
    normal = mesh.face_normals[group.ids, :, None]
    tol = SIGN_RTOL * mesh.face_diameters[group.ids] ** 2
    anchor = np.full(size, -1)
    tris = np.empty((size, n - 2, 3, 3))
    area2 = np.empty((size, n - 2))
    for a in range(n):
        loop = np.roll(pts, -a, axis=1)
        d = loop[:, 1:] - loop[:, :1]
        fan_area2 = (_cross(d[:, :-1], d[:, 1:]) @ normal)[..., 0]
        new = (anchor < 0) & (fan_area2.min(axis=1) > tol)
        anchor[new] = a
        area2[new] = fan_area2[new]
        tris[new] = _fan_triangles(loop[new])
        if (anchor >= 0).all():
            break
    return anchor, tris, area2


def _cell_fan(mesh, group):
    """Stacks (ids, tetrahedra, six times their volumes) of the coarsest
    valid fans of the cells of one mesh cell group, one per fan size.

    The apex is the first cell vertex whose tetrahedra over the face fans
    of the faces avoiding it all have 6 * volume above SIGN_RTOL * h_T^3;
    with no such vertex, the cell's centroid fan over centroid face fans.
    The volumes are taken for every face at once, and those of the faces
    through the apex ignored.
    """
    anchor = _VERTEX_FANS[mesh]["anchor"]
    valences = np.array(group.valences)
    out = []
    sizes = np.where(anchor[group.cells] >= 0, valences - 2, valences)
    for key, rows in _groups(sizes):
        cells, ids = group.cells[rows], group.ids[rows]
        verts = group.cell_vertices[rows]
        tol = SIGN_RTOL * mesh.cell_diameters[ids] ** 3
        tris, contains = [], []
        for j, n in enumerate(group.valences):
            loops = mesh.face_rows("faces", cells[:, j])
            if key[j] < n:
                at = (anchor[cells[:, j], None] + np.arange(n)) % n
                tri = _fan_triangles(
                    mesh.vertices[np.take_along_axis(loops, at, axis=1)])
            else:
                tri = mesh.face_rows("face_fans", cells[:, j])
            # outward orientation makes apex-first volumes positive
            outward = group.cell_face_signs[rows, j] > 0
            tris.append(np.where(outward[:, None, None, None], tri,
                                 tri[:, :, ::-1]))
            contains.append(np.repeat(
                (verts[:, :, None] == loops[:, None, :]).any(axis=2)[:, :, None],
                key[j], axis=2))
        tris = np.concatenate(tris, axis=1)
        contains = np.concatenate(contains, axis=2)
        apex = np.full(len(rows), -1)
        vol6 = np.empty(tris.shape[:2])
        for k in range(verts.shape[1]):
            at_k = np.linalg.det(tris - mesh.vertices[verts[:, k], None, None])
            new = (apex < 0) & (
                np.where(contains[:, k], np.inf, at_k).min(axis=1) > tol)
            apex[new] = k
            vol6[new] = at_k[new]
            if (apex >= 0).all():
                break
        # each cell's tetrahedra over the faces avoiding its apex, stacked
        # per count; cells without an apex keep their centroid fans
        at = np.arange(len(rows)), np.maximum(apex, 0)
        tets = np.empty(tris.shape[:2] + (4, 3))
        tets[:, :, 0] = mesh.vertices[verts[at], None]
        tets[:, :, 1:] = tris
        avoid = ~contains[at]
        count = np.where(apex >= 0, avoid.sum(axis=1), -1)
        for (c,), part in _groups(count[:, None]):
            if c < 0:
                out.append((ids[part], mesh.cell_rows("cell_fans", ids[part]),
                            mesh.cell_rows("cell_fan_vol6", ids[part])))
            else:
                mask = avoid[part]
                out.append((ids[part], tets[part][mask].reshape(-1, c, 4, 3),
                            vol6[part][mask].reshape(-1, c)))
    return out


class _FanTable:
    """Fans of every face or cell of a mesh, stored as stacks of entities
    with fans of one size: stacks[i] = (simplices, measures) of the
    entities with gid i, at their slot; size is each entity's simplex
    count."""

    def __init__(self, count, parts):
        self.gid = np.empty(count, dtype=int)
        self.slot = np.empty(count, dtype=int)
        self.size = np.empty(count, dtype=int)
        self.stacks = []
        for ids, simplices, measures in parts:
            self.gid[ids] = len(self.stacks)
            self.slot[ids] = np.arange(len(ids))
            self.size[ids] = measures.shape[1]
            self.stacks.append(_frozen(simplices, measures))
        _frozen(self.gid, self.slot, self.size)

    def gather(self, kind, ids):
        """Stacked simplices (G, ns, d+1, 3) and measures (G, ns) of the
        entities ids; all must have the same number of simplices."""
        gid = self.gid[ids]
        if (gid == gid[0]).all():
            simplices, measures = self.stacks[gid[0]]
            return simplices[self.slot[ids]], measures[self.slot[ids]]
        if (self.size[ids] != self.size[ids[0]]).any():
            raise ValueError(f"{kind}s of one rule group need fans of one size")
        rows = [(self.stacks[g][0][s], self.stacks[g][1][s])
                for g, s in zip(gid.tolist(), self.slot[ids].tolist())]
        return np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows])


# mesh -> {"face": _FanTable, "cell": _FanTable, "anchor": (nf,), "data
# face": ..., "data cell": ...}: the vertex fans of every face or cell,
# searched once per mesh and shared by all rule degrees, each face's fan
# anchor, and the centroid fans of the data rules
_VERTEX_FANS = weakref.WeakKeyDictionary()


def vertex_fans(mesh, kind):
    """The polynomial-rule fans of every face or cell of the mesh, as a
    _FanTable; searched on first use, for one mesh entity group at a
    time."""
    fans = _VERTEX_FANS.setdefault(mesh, {})
    if "face" not in fans:
        parts = []
        fans["anchor"] = np.empty(mesh.num_faces, dtype=int)
        for g in mesh.face_groups:
            anchor, tris, area2 = _face_fan(mesh, g)
            fans["anchor"][g.ids] = anchor
            ok = anchor >= 0
            parts.append((g.ids[ok], tris[ok], area2[ok]))
            parts.append((g.ids[~ok], g.face_fans[~ok], g.face_fan_area2[~ok]))
        fans["face"] = _FanTable(mesh.num_faces, [p for p in parts if len(p[0])])
    if kind == "cell" and "cell" not in fans:
        fans["cell"] = _FanTable(mesh.num_cells, [
            p for g in mesh.cell_groups for p in _cell_fan(mesh, g)])
    return fans[kind]


def _centroid_fans(mesh, kind):
    """The centroid fans of the mesh (the data rules'), as a _FanTable over
    the mesh entity groups."""
    fans = _VERTEX_FANS.setdefault(mesh, {})
    key = "data " + kind
    if key not in fans:
        if kind == "face":
            parts = [(g.ids, g.face_fans, g.face_fan_area2)
                     for g in mesh.face_groups]
        else:
            parts = [(g.ids, g.cell_fans, g.cell_fan_vol6)
                     for g in mesh.cell_groups]
        fans[key] = _FanTable(mesh.num_faces if kind == "face"
                              else mesh.num_cells, parts)
    return fans[key]


def _fans(mesh, kind, ids, data):
    """Stacked simplices (G, ns, d+1, 3) and measures (G, ns) of the fans
    of the entities ids; all must have the same number of simplices."""
    table = _centroid_fans(mesh, kind) if data else vertex_fans(mesh, kind)
    return table.gather(kind, ids)


def face_rule(mesh, ids, degree, data=False):
    ref, wref = _triangle_ref(degree)
    tris, area2 = _fans(mesh, "face", ids, data)
    p0 = tris[:, :, 0]
    d1 = tris[:, :, 1] - tris[:, :, 0]
    d2 = tris[:, :, 2] - tris[:, :, 0]
    pts = (
        p0[:, :, None, :]
        + ref[None, None, :, 0, None] * d1[:, :, None, :]
        + ref[None, None, :, 1, None] * d2[:, :, None, :]
    )
    wts = area2[:, :, None] * wref[None, None, :]
    return pts.reshape(len(ids), -1, 3), wts.reshape(len(ids), -1)


def cell_rule(mesh, ids, degree, data=False):
    ref, wref = _tet_ref(degree)
    tets, vol6 = _fans(mesh, "cell", ids, data)
    p0 = tets[:, :, 0]
    d = tets[:, :, 1:] - tets[:, :, :1]
    pts = p0[:, :, None, :] + ref @ d
    wts = vol6[:, :, None] * wref[None, None, :]
    return pts.reshape(len(ids), -1, 3), wts.reshape(len(ids), -1)


def data_rule_size(mesh, kind, index, degree):
    """Points of the data rule entity_rule(mesh, kind, index, degree,
    data=True), read off the entity's centroid fan and the reference rule
    without building it."""
    if kind == "edge":
        return len(_gauss01(max(1, (degree + 2) // 2))[1])
    ref = _triangle_ref(degree) if kind == "face" else _tet_ref(degree)
    return int(_centroid_fans(mesh, kind).size[index]) * len(ref[1])


def entity_rule(mesh, kind, index, degree, data=False):
    """Quadrature rule stacked over entities, exact for polynomials of
    `degree`.

    kind is "edge", "face", or "cell"; index is a sequence of entity ids
    whose fans have equal sizes (an id gives a stack of one). The default
    rule lives on the coarsest vertex fan and serves polynomial integrands.
    data=True gives the centroid-fan rule for non-polynomial data
    (interpolation, load vectors, errors against smooth fields); edges have
    one rule either way.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    ids = np.atleast_1d(np.asarray(index, dtype=int))
    if kind == "edge":
        pts, wts = edge_rule(mesh, ids, degree)
    elif kind == "face":
        pts, wts = face_rule(mesh, ids, degree, data)
    elif kind == "cell":
        pts, wts = cell_rule(mesh, ids, degree, data)
    else:
        raise ValueError(f"unknown entity kind {kind!r}")
    return QuadRule(pts, wts, degree)
