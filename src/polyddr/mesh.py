"""Polyhedral meshes with explicit orientation data.

Conventions fixed here and relied on by every other module:

- edge tangents t_E point from the lower to the higher global vertex index;
- face normals n_F follow the right-hand rule on the stored vertex loop
  (Newell's formula), so the loop direction fixes the normal once and for all;
- for an edge E of a face F, n_FE = n_F x t_E, making (t_E, n_FE, n_F)
  right-handed;
- omega_FE = +1 when n_FE points out of F at the midpoint of E (valid because
  faces are required to be star-shaped with respect to their star point x_F);
- omega_TF = +1 when n_F points out of the cell T.

Star points x_F / x_T are the arithmetic means of the entity's vertices; the
validation step rejects any face or cell that is not star-shaped with respect
to them, since the simplicial fans used for quadrature hinge on that.

Construction runs on numpy stacks, one per entity shape, with no Python
loop over entities. Faces are grouped by valence; cells by face count,
vertex and edge counts and the valences of their faces in local order.
Edges are the sorted unique vertex pairs of all loops (one np.unique), and
face_edges is its inverse. Geometry, fans, face_cells and every validation
check are one expression per group, written with the arithmetic of one
entity (a vector norm as sqrt(v . v) through matmul, sums and means along
the entity's own axis), so each array equals bit for bit what an
entity-by-entity loop gives. The per-entity tuples (faces, face_fans,
cell_vertices, ...) are read-only row views of the frozen group stacks. A
rejection names the first failing entity and check in the order: faces
(planarity, star shape, edge signs), then cells, then interior faces.
"""

import itertools
import json
from types import SimpleNamespace

import numpy as np

__all__ = [
    "Mesh",
    "MeshError",
    "load_mesh",
    "generate_cubic_mesh",
    "generate_tet_mesh",
    "agglomerate_pairs",
]

PLANARITY_RTOL = 1e-10
CLOSURE_RTOL = 1e-12
# minimum relative offset used when deriving a sign from a dot product
SIGN_RTOL = 1e-12


class MeshError(Exception):
    """Raised when mesh data violates a structural or geometric invariant."""


def _cross(a, b):
    """np.cross of 3-vectors (broadcasting), with the same products and
    differences but without its per-call axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    first = a1 * b2 - a2 * b1
    out = np.empty(first.shape + (3,))
    out[..., 0] = first
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _dots(a, b):
    """Row-wise a . b of (..., 3) stacks, each one dot product as
    np.dot of two vectors computes it (np.linalg.norm of a vector is
    sqrt(v . v))."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _diameters(points):
    # max pairwise distance over the (..., n, 3) points of each entity;
    # entities are small so the N^2 cost is fine
    diff = points[..., :, None, :] - points[..., None, :, :]
    return np.sqrt((diff**2).sum(axis=-1)).max(axis=(-2, -1))


def _ragged(lists):
    """One flat int array of a sequence of index lists, and the offsets
    (n + 1,) of the lists in it."""
    lists = list(lists)
    offsets = np.zeros(len(lists) + 1, dtype=int)
    np.cumsum(np.fromiter(map(len, lists), dtype=int, count=len(lists)),
              out=offsets[1:])
    flat = np.fromiter(itertools.chain.from_iterable(lists), dtype=int,
                       count=offsets[-1])
    return flat, offsets


def _spans(offsets, ids):
    """Flat positions of the lists ids, concatenated in order."""
    starts = offsets[ids]
    lens = offsets[ids + 1] - starts
    return np.repeat(starts + lens - np.cumsum(lens), lens) + np.arange(lens.sum())


def _groups(keys):
    """(key, ids) of the rows of the (n, k) key matrix grouped by equal
    rows, keys ascending and ids ascending in each group."""
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    bounds = np.cumsum(np.bincount(inverse, minlength=len(uniq)))[:-1]
    return list(zip(uniq.tolist(), np.split(order, bounds)))


def _list_faults(flat, offsets, bound):
    """Per list of a ragged id list: its length, whether it repeats an id,
    whether it has an id outside [0, bound)."""
    lens = np.diff(offsets)
    owner = np.repeat(np.arange(len(lens)), lens)
    order = np.lexsort((flat, owner))
    so, sf = owner[order], flat[order]
    repeats = np.zeros(len(lens), dtype=bool)
    repeats[so[1:][(so[1:] == so[:-1]) & (sf[1:] == sf[:-1])]] = True
    missing = np.zeros(len(lens), dtype=bool)
    missing[owner[(flat < 0) | (flat >= bound)]] = True
    return lens, repeats, missing


def _raise_first(*checks):
    """Raise the MeshError of the first entity failing any check, for its
    first failing check. checks are (fault per entity, describe), in
    check order; describe(index) gives the message."""
    faults = np.stack([fault for fault, _ in checks])
    failing = np.flatnonzero(faults.any(axis=0))
    if len(failing):
        i = int(failing[0])
        raise MeshError(checks[int(np.argmax(faults[:, i]))][1](i))


class Mesh:
    """Immutable polyhedral mesh.

    Parameters
    ----------
    vertices : (nv, 3) array of vertex coordinates.
    faces : sequence of vertex-index loops, one per face. Loops are stored
        as given; their order fixes the face normal.
    cells : sequence of face-index lists, one per cell.

    face_groups and cell_groups hold the entities of one shape: each group
    has the ids (ascending) and, under the name of each per-entity
    attribute (faces, face_fans, ...; cells, cell_vertices, ...), the
    read-only stack of its rows; a cell group also has the valences of its
    faces in local order. The per-entity tuples are views of the stacks.
    """

    _FACE_ARRAYS = ("faces", "face_edges", "face_edge_signs",
                    "face_edge_normals", "face_fans", "face_fan_area2")
    _CELL_ARRAYS = ("cells", "cell_vertices", "cell_edges", "cell_face_signs",
                    "cell_fans", "cell_fan_vol6")

    def __init__(self, vertices, faces, cells):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        if len(bad):
            raise MeshError(f"vertex {bad[0]} has a non-finite coordinate")
        self.vertices = vertices
        self._row_tuples = {}
        self._loops, self._loop_offsets = _ragged(faces)
        self._cell_faces, self._cell_offsets = _ragged(cells)
        self._check_indices()
        self._build_edges()
        self._build_face_geometry()
        self._build_cell_geometry()
        self._validate()
        self._freeze()

    # ------------------------------------------------------------------
    # construction

    def _check_indices(self):
        nv = len(self.vertices)
        loops = self._loops
        used = np.zeros(nv, dtype=bool)
        used[loops[(loops >= 0) & (loops < nv)]] = True
        if not used.all():
            raise MeshError("mesh has vertices not referenced by any face")
        lens, repeats, missing = _list_faults(loops, self._loop_offsets, nv)
        _raise_first(
            (lens < 3, "face {} has fewer than 3 vertices".format),
            (repeats, "face {} repeats a vertex".format),
            (missing, "face {} references a missing vertex".format),
        )
        lens, repeats, missing = _list_faults(
            self._cell_faces, self._cell_offsets, len(lens))
        _raise_first(
            (lens < 4, "cell {} has fewer than 4 faces".format),
            (repeats, "cell {} repeats a face".format),
            (missing, "cell {} references a missing face".format),
        )

    def _build_edges(self):
        # each loop position's vertex pair with the next one, sorted; the
        # sorted unique pairs are the edges
        loops, off = self._loops, self._loop_offsets
        nxt = np.arange(1, len(loops) + 1)
        nxt[off[1:] - 1] = off[:-1]
        nv = len(self.vertices)
        lo = np.minimum(loops, loops[nxt])
        hi = np.maximum(loops, loops[nxt])
        keys, self._loop_edges = np.unique(lo * nv + hi, return_inverse=True)
        edges = np.column_stack([keys // nv, keys % nv])
        self.edges = edges

        vec = self.vertices[edges[:, 1]] - self.vertices[edges[:, 0]]
        self.edge_lengths = np.linalg.norm(vec, axis=1)
        if np.any(self.edge_lengths <= 0):
            raise MeshError("zero-length edge")
        self.edge_tangents = vec / self.edge_lengths[:, None]
        self.edge_midpoints = 0.5 * (
            self.vertices[edges[:, 0]] + self.vertices[edges[:, 1]]
        )

    def _build_face_geometry(self):
        off = self._loop_offsets
        valence = np.diff(off)
        nf = len(valence)
        self.face_groups = []
        self._face_group_of = {}
        self._face_slot = np.empty(nf, dtype=int)
        for (n,), ids in _groups(valence[:, None]):
            cols = off[ids, None] + np.arange(n)
            g = SimpleNamespace(ids=ids, faces=self._loops[cols])
            self._face_slot[ids] = np.arange(len(ids))
            self._face_group_of[n] = g
            self.face_groups.append(g)

        # Newell's formula: sum of cross products around the loop gives
        # twice the area vector, oriented by the loop direction
        nvec = np.empty((nf, 3))
        for g in self.face_groups:
            pts = self.vertices[g.faces]
            nvec[g.ids] = _cross(pts, np.roll(pts, -1, axis=1)).sum(axis=1)
        nrm = np.sqrt(_dots(nvec, nvec))
        _raise_first((nrm <= 0, "face {} has zero area vector".format))
        n = self.face_normals = nvec / nrm[:, None]

        # in-plane frame: project the axis least aligned with n
        axis = np.zeros((nf, 3))
        axis[np.arange(nf), np.argmin(np.abs(n), axis=1)] = 1.0
        e1 = axis - _dots(axis, n)[:, None] * n
        e1 /= np.sqrt(_dots(e1, e1))[:, None]
        self.face_frames = np.stack([e1, _cross(n, e1)], axis=1)

        self.face_centroids = np.empty((nf, 3))
        self.face_diameters = np.empty(nf)
        self.face_areas = np.empty(nf)
        for g in self.face_groups:
            pts = self.vertices[g.faces]
            nxt = np.roll(pts, -1, axis=1)
            xf = pts.mean(axis=1)
            self.face_centroids[g.ids] = xf
            self.face_diameters[g.ids] = _diameters(pts)
            tri = np.empty(pts.shape[:2] + (3, 3))
            tri[:, :, 0] = xf[:, None]
            tri[:, :, 1] = pts
            tri[:, :, 2] = nxt
            g.face_fans = tri
            # doubled fan-triangle areas, positive for a star-shaped face
            xf = xf[:, None]
            g.face_fan_area2 = (_cross(pts - xf, nxt - xf) @ n[g.ids, :, None])[..., 0]
            self.face_areas[g.ids] = 0.5 * g.face_fan_area2.sum(axis=1)

        # edge normals and signs at every loop position
        owner = np.repeat(np.arange(nf), valence)
        nfe = _cross(n[owner], self.edge_tangents[self._loop_edges])
        mids = self.edge_midpoints[self._loop_edges]
        self._loop_edge_dots = ((mids - self.face_centroids[owner]) * nfe).sum(axis=1)
        signs = np.sign(self._loop_edge_dots).astype(int)
        for g in self.face_groups:
            cols = off[g.ids, None] + np.arange(g.faces.shape[1])
            g.face_edges = self._loop_edges[cols]
            g.face_edge_normals = nfe[cols]
            g.face_edge_signs = signs[cols]
        self._loop_edge_signs = signs

    def _rows(self, group, slots, name, ids):
        given = self.__dict__.get(name)
        if given is not None and given is not self._row_tuples[name]:
            # a per-entity attribute assigned after construction (a test
            # corrupting orientation data) is read as assigned
            return np.array([given[i] for i in ids])
        return getattr(group, name)[slots]

    def face_rows(self, name, ids):
        """The rows of the per-face attribute name (faces, face_fans, ...)
        for the faces ids, which share one valence, as one stack."""
        g = self._face_group_of[self._loop_offsets[ids[0] + 1]
                                - self._loop_offsets[ids[0]]]
        return self._rows(g, self._face_slot[ids], name, ids)

    def cell_rows(self, name, ids):
        """The rows of the per-cell attribute name (cells, cell_fans, ...)
        for the cells ids, which share one cell group, as one stack."""
        g = self.cell_groups[self._cell_group_of[ids[0]]]
        return self._rows(g, self._cell_slot[ids], name, ids)

    def _build_cell_geometry(self):
        cf, coff = self._cell_faces, self._cell_offsets
        nc, nf, nv = len(coff) - 1, len(self._face_slot), len(self.vertices)
        valence = np.diff(self._loop_offsets)
        nfaces = np.diff(coff)
        owner = np.repeat(np.arange(nc), nfaces)

        # each cell's face uses, cell by cell: two per face at most
        order = np.argsort(cf, kind="stable")
        face = cf[order]
        start = np.r_[True, face[1:] != face[:-1]]
        rank = np.arange(len(face)) - np.maximum.accumulate(
            np.where(start, np.arange(len(face)), 0))
        third = order[rank == 2]
        if len(third):
            raise MeshError(
                f"face {cf[third.min()]} belongs to more than two cells")
        self._face_uses = -np.ones((nf, 2), dtype=int)
        self._face_uses[face, rank] = order
        face_cells = np.where(self._face_uses < 0, -1, owner[self._face_uses])

        # the vertex and edge ids (sorted, unique) at the loop positions of
        # each cell's faces
        pos = _spans(self._loop_offsets, cf)
        pos_owner = np.repeat(owner, valence[cf])
        incident = {}
        for name, ids, count in (("cell_vertices", self._loops, nv),
                                 ("cell_edges", self._loop_edges,
                                  len(self.edges))):
            keys = np.unique(pos_owner * count + ids[pos])
            incident[name] = (keys % count,
                              np.bincount(keys // count, minlength=nc))

        # cells of one shape: face count, vertex and edge counts, and the
        # face valences in local order
        shape = np.zeros((nc, 3 + nfaces.max(initial=0)), dtype=int)
        shape[:, 0] = nfaces
        shape[:, 1] = incident["cell_vertices"][1]
        shape[:, 2] = incident["cell_edges"][1]
        shape[owner, 3 + np.arange(len(cf)) - coff[owner]] = valence[cf]
        self.cell_groups = []
        self._cell_group_of = np.empty(nc, dtype=int)
        self._cell_slot = np.empty(nc, dtype=int)
        for key, ids in _groups(shape):
            self._cell_group_of[ids] = len(self.cell_groups)
            self._cell_slot[ids] = np.arange(len(ids))
            m = key[0]
            g = SimpleNamespace(ids=ids, valences=key[3:3 + m],
                                cells=cf[coff[ids, None] + np.arange(m)])
            for i, (name, (flat, counts)) in enumerate(incident.items()):
                first = np.cumsum(counts) - counts
                setattr(g, name, flat[first[ids, None] + np.arange(key[1 + i])])
            self.cell_groups.append(g)

        self.cell_centroids = np.empty((nc, 3))
        self.cell_volumes = np.empty(nc)
        self.cell_diameters = np.empty(nc)
        for g in self.cell_groups:
            pts = self.vertices[g.cell_vertices]
            xt = pts.mean(axis=1)
            self.cell_centroids[g.ids] = xt
            self.cell_diameters[g.ids] = _diameters(pts)
            dots = ((self.face_centroids[g.cells] - xt[:, None])
                    * self.face_normals[g.cells]).sum(axis=2)
            g.cell_face_signs = np.sign(dots).astype(int)

            # fan tetrahedra (x_T, x_F, a, b) over each face's fan
            # triangles, with (a, b) ordered so the tet volume is positive
            # for outward oriented faces
            tets = np.empty((len(g.ids), sum(g.valences), 4, 3))
            tets[:, :, 0] = xt[:, None]
            at = 0
            for j, n in enumerate(g.valences):
                tri = self.face_rows("face_fans", g.cells[:, j])
                flip = (g.cell_face_signs[:, j] < 0)[:, None, None, None]
                tets[:, at:at + n, 1:] = np.where(flip, tri[:, :, [0, 2, 1]], tri)
                at += n
            g.cell_fans = tets
            # six times the fan-tet volumes, positive for a star-shaped cell
            g.cell_fan_vol6 = np.linalg.det(tets[:, :, 1:] - tets[:, :, :1])
            self.cell_volumes[g.ids] = (g.cell_fan_vol6 / 6.0).sum(axis=1)
        self.face_cells = face_cells
        self.boundary_faces = np.flatnonzero(face_cells[:, 1] < 0)

    def _validate(self):
        nf = len(self._face_slot)
        offset = np.empty(nf)
        star = np.empty(nf, dtype=bool)
        for g in self.face_groups:
            pts = self.vertices[g.faces]
            xf = self.face_centroids[g.ids, None]
            off = np.abs((pts - xf) @ self.face_normals[g.ids, :, None])
            offset[g.ids] = off.max(axis=(1, 2))
            h = self.face_diameters[g.ids]
            star[g.ids] = g.face_fan_area2.min(axis=1) <= SIGN_RTOL * h * h
        h = self.face_diameters
        edge_dot = np.minimum.reduceat(np.abs(self._loop_edge_dots),
                                       self._loop_offsets[:-1])
        _raise_first(
            (offset > PLANARITY_RTOL * h, lambda f: (
                f"face {f} is non-planar: offset {offset[f]:.3e} "
                f"exceeds {PLANARITY_RTOL:.0e} * h_F")),
            (star, "face {} is not star-shaped w.r.t. x_F".format),
            (edge_dot <= SIGN_RTOL * h,
             "face {}: ambiguous edge orientation sign".format),
        )

        nc = len(self.cell_diameters)
        faults = np.zeros((5, nc), dtype=bool)
        bad_edge = np.empty(nc, dtype=int)
        bad_uses = np.empty(nc, dtype=int)
        face_signs = np.empty(len(self._cell_faces), dtype=int)
        for g in self.cell_groups:
            h = self.cell_diameters[g.ids]
            xt = self.cell_centroids[g.ids, None]
            dots = ((self.face_centroids[g.cells] - xt)
                    * self.face_normals[g.cells]).sum(axis=2)
            faults[0, g.ids] = np.abs(dots).min(axis=1) <= SIGN_RTOL * h
            faults[1, g.ids] = (g.cell_fan_vol6 / 6.0).min(axis=1) <= SIGN_RTOL * h**3

            # closed boundary: each edge of the cell lies in exactly two of
            # its faces, and the signed edge orientations cancel. The first
            # edge (in face and loop order) to fail either decides.
            pos = _spans(self._loop_offsets, g.cells.ravel()).reshape(len(g.ids), -1)
            edge = self._loop_edges[pos]
            use = (np.repeat(g.cell_face_signs, g.valences, axis=1)
                   * self._loop_edge_signs[pos])
            same = edge[:, :, None] == edge[:, None, :]
            count = same.sum(axis=2)
            bad = (count != 2) | ((same * use[:, None, :]).sum(axis=2) != 0)
            first = np.argmax(bad, axis=1)[:, None]
            found = bad.any(axis=1)
            bad_uses[g.ids] = uses = np.take_along_axis(count, first, axis=1)[:, 0]
            bad_edge[g.ids] = np.take_along_axis(edge, first, axis=1)[:, 0]
            faults[2, g.ids] = found & (uses != 2)
            faults[3, g.ids] = found & (uses == 2)

            flux = (g.cell_face_signs[:, :, None]
                    * self.face_areas[g.cells, None]
                    * self.face_normals[g.cells]).sum(axis=1)
            faults[4, g.ids] = (np.sqrt(_dots(flux, flux))
                                > CLOSURE_RTOL * h * h * len(g.valences))
            face_signs[self._cell_offsets[g.ids, None]
                       + np.arange(len(g.valences))] = g.cell_face_signs
        _raise_first(
            (faults[0], "cell {}: ambiguous face orientation sign".format),
            (faults[1], "cell {} is not star-shaped w.r.t. x_T".format),
            (faults[2], lambda c: (f"cell {c}: edge {bad_edge[c]} lies in "
                                   f"{bad_uses[c]} faces, not 2")),
            (faults[3], lambda c: (f"cell {c}: inconsistent orientation at "
                                   f"edge {bad_edge[c]}")),
            (faults[4], "cell {}: boundary is not closed".format),
        )

        signs = face_signs[self._face_uses]
        _raise_first((
            (self._face_uses[:, 1] >= 0) & (signs.sum(axis=1) != 0),
            "interior face {}: cells on the same side".format,
        ))

    def _freeze(self):
        for arr in (
            self.vertices,
            self.edges,
            self.edge_tangents,
            self.edge_lengths,
            self.edge_midpoints,
            self.face_centroids,
            self.face_normals,
            self.face_frames,
            self.face_areas,
            self.face_diameters,
            self.cell_centroids,
            self.cell_volumes,
            self.cell_diameters,
            self.face_cells,
            self.boundary_faces,
        ):
            arr.flags.writeable = False
        for groups, names in ((self.face_groups, self._FACE_ARRAYS),
                              (self.cell_groups, self._CELL_ARRAYS)):
            rows = {name: [None] * sum(len(g.ids) for g in groups)
                    for name in names}
            for g in groups:
                ids = g.ids.tolist()
                for name in names:
                    stack = getattr(g, name)
                    stack.flags.writeable = False
                    for i, row in zip(ids, stack):
                        rows[name][i] = row
            for name in names:
                self._row_tuples[name] = tuple(rows[name])
                setattr(self, name, self._row_tuples[name])
        self.face_groups = tuple(self.face_groups)
        self.cell_groups = tuple(self.cell_groups)

    # ------------------------------------------------------------------
    # queries

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_faces(self):
        return len(self.faces)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def h(self):
        """Largest cell diameter."""
        return float(self.cell_diameters.max())

    def to_dict(self):
        """JSON-serializable mesh description (edges are derived on load)."""
        return {
            "vertices": self.vertices.tolist(),
            "faces": [loop.tolist() for loop in self.faces],
            "cells": [cf.tolist() for cf in self.cells],
        }


def load_mesh(path):
    """Read a mesh from a JSON file.

    Expected object keys: "vertices" (list of [x, y, z]), "faces" (list of
    vertex-index loops), "cells" (list of face-index lists), all 0-based.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeshError(f"cannot parse mesh file {path}: {exc}") from exc
    for key in ("vertices", "faces", "cells"):
        if key not in data:
            raise MeshError(f"mesh file {path} lacks '{key}'")
    return Mesh(data["vertices"], data["faces"], data["cells"])


def _grid_mesh(n, subcube_cells):
    """Mesh of the unit cube on the (n+1)^3 vertex grid.

    subcube_cells(c) lists the cells of one subcube as lists of face loops,
    with c(a, b, d) the vertex id of the subcube corner offset by (a, b, d)
    in {0, 1}^3. Loops with the same vertex set are one shared face.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coords = np.linspace(0.0, 1.0, n + 1)
    vid = lambda i, j, k: (i * (n + 1) + j) * (n + 1) + k
    vertices = np.array(
        [[coords[i], coords[j], coords[k]]
         for i in range(n + 1) for j in range(n + 1) for k in range(n + 1)]
    )
    faces = []
    face_ids = {}
    cells = []
    for i, j, k in itertools.product(range(n), repeat=3):
        corner = lambda a, b, d: vid(i + a, j + b, k + d)
        for loops in subcube_cells(corner):
            cell = []
            for loop in loops:
                key = frozenset(loop)
                if key not in face_ids:
                    face_ids[key] = len(faces)
                    faces.append(loop)
                cell.append(face_ids[key])
            cells.append(cell)
    return Mesh(vertices, faces, cells)


def _hexahedron(c):
    return [[
        (c(0, 0, 0), c(0, 0, 1), c(0, 1, 1), c(0, 1, 0)),
        (c(1, 0, 0), c(1, 1, 0), c(1, 1, 1), c(1, 0, 1)),
        (c(0, 0, 0), c(1, 0, 0), c(1, 0, 1), c(0, 0, 1)),
        (c(0, 1, 0), c(0, 1, 1), c(1, 1, 1), c(1, 1, 0)),
        (c(0, 0, 0), c(0, 1, 0), c(1, 1, 0), c(1, 0, 0)),
        (c(0, 0, 1), c(1, 0, 1), c(1, 1, 1), c(0, 1, 1)),
    ]]


def _six_tetrahedra(c):
    cells = []
    for perm in itertools.permutations(range(3)):
        step = [0, 0, 0]
        ids = [c(*step)]
        for axis in perm:
            step[axis] += 1
            ids.append(c(*step))
        cells.append([(ids[0], ids[1], ids[2]), (ids[0], ids[1], ids[3]),
                      (ids[0], ids[2], ids[3]), (ids[1], ids[2], ids[3])])
    return cells


def generate_cubic_mesh(n):
    """Uniform n x n x n hexahedral partition of the unit cube."""
    return _grid_mesh(n, _hexahedron)


def generate_tet_mesh(n):
    """Conforming tetrahedral mesh of the unit cube, six tets per subcube.

    Every subcube is split along its main diagonal into the six tetrahedra
    traced by the axis-step permutations, which makes neighbouring subcubes
    agree on the shared-face diagonals.
    """
    return _grid_mesh(n, _six_tetrahedra)


def _merged_cell_ok(mesh, faces_a, faces_b):
    """Check that the union of two cells stays a valid star-shaped cell.

    Returns the merged face list (shared faces removed) or None.
    """
    shared = set(faces_a) & set(faces_b)
    if not shared:
        return None
    merged = [f for f in list(faces_a) + list(faces_b) if f not in shared]
    verts = np.unique(np.concatenate([mesh.faces[f] for f in merged]))
    xt = mesh.vertices[verts].mean(axis=0)
    h = float(_diameters(mesh.vertices[verts]))

    edge_count = {}
    for f in merged:
        for e in mesh.face_edges[f]:
            edge_count[int(e)] = edge_count.get(int(e), 0) + 1
    if any(cnt != 2 for cnt in edge_count.values()):
        return None

    for f in merged:
        dot = (mesh.face_centroids[f] - xt) @ mesh.face_normals[f]
        if abs(dot) <= SIGN_RTOL * h:
            return None
        sign = 1.0 if dot > 0 else -1.0
        tri = mesh.face_fans[f]
        if sign < 0:
            tri = tri[:, [0, 2, 1], :]
        apex = np.broadcast_to(xt, (len(tri), 1, 3))
        tets = np.concatenate([apex, tri], axis=1)
        d = tets[:, 1:] - tets[:, :1]
        vols = np.linalg.det(d) / 6.0
        if vols.min() <= SIGN_RTOL * h**3:
            return None
    return merged


def agglomerate_pairs(mesh, seed):
    """Greedily merge face-adjacent cell pairs into polyhedral cells.

    The visit order is drawn from the seed, so the result is deterministic.
    A merge is kept only when the union stays star-shaped with respect to
    its recomputed star point; pairs violating this are left alone. Cells
    that found no partner survive unchanged.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(mesh.num_cells)
    merged_away = np.zeros(mesh.num_cells, dtype=bool)
    new_cells = []
    for c in order:
        if merged_away[c]:
            continue
        merged_away[c] = True
        neighbors = set()
        for f in mesh.cells[c]:
            for other in mesh.face_cells[f]:
                if other >= 0 and other != c and not merged_away[other]:
                    neighbors.add(int(other))
        chosen = None
        for nb in sorted(neighbors):
            candidate = _merged_cell_ok(mesh, mesh.cells[c], mesh.cells[nb])
            if candidate is not None:
                chosen = (nb, candidate)
                break
        if chosen is None:
            new_cells.append(list(mesh.cells[c]))
        else:
            merged_away[chosen[0]] = True
            new_cells.append(chosen[1])

    used = sorted({f for cf in new_cells for f in cf})
    remap = {f: i for i, f in enumerate(used)}
    faces = [mesh.faces[f].tolist() for f in used]
    cells = [[remap[f] for f in cf] for cf in new_cells]
    return Mesh(mesh.vertices, faces, cells)
