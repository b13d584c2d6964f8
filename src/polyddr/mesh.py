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
cell_vertices, ...) are read-only row views of the frozen group stacks,
built on first read. A rejection names the first failing entity and check
in the order: faces (planarity, star shape, edge signs), then cells, then
interior faces, then faces that no cell uses.
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
    # max pairwise distance over the (..., n, 3) points of each entity,
    # one difference per pair; sqrt is monotone, so it is taken of the
    # largest squared distance
    i, j = np.array([*itertools.combinations(range(points.shape[-2]), 2)]).T
    diff = points[..., i, :] - points[..., j, :]
    return np.sqrt((diff**2).sum(axis=-1).max(axis=-1))


def _ragged(lists):
    """One flat int array of a sequence of index lists, and the offsets
    (n + 1,) of the lists in it."""
    if isinstance(lists, np.ndarray) and lists.ndim == 2:
        n, m = lists.shape
        return lists.astype(int).ravel(), np.arange(0, n * m + 1, m)
    lists = list(lists)
    offsets = np.zeros(len(lists) + 1, dtype=int)
    np.cumsum(np.fromiter(map(len, lists), dtype=int, count=len(lists)),
              out=offsets[1:])
    flat = np.fromiter(itertools.chain.from_iterable(lists), dtype=int,
                       count=offsets[-1])
    return flat, offsets


def _lists(flat, offsets):
    """The index lists of a flat array and its offsets, as Python lists."""
    lens = np.diff(offsets)
    if (lens == lens[0]).all():
        return flat.reshape(len(lens), -1).tolist()
    flat, offsets = flat.tolist(), offsets.tolist()
    return [flat[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def _spans(offsets, ids):
    """Flat positions of the lists ids, concatenated in order."""
    starts = offsets[ids]
    lens = offsets[ids + 1] - starts
    return np.repeat(starts + lens - np.cumsum(lens), lens) + np.arange(lens.sum())


def _row_runs(keys):
    """The stable lexicographic order of the rows of the (n, k) int matrix
    keys, and the positions in it where a new distinct row starts."""
    order = np.lexsort(keys.T[::-1])
    sk = keys[order]
    return order, np.flatnonzero(np.r_[True, (sk[1:] != sk[:-1]).any(axis=1)])


def _groups(keys):
    """(key, ids) of the rows of the (n, k) key matrix grouped by equal
    rows, keys ascending and ids ascending in each group."""
    order, starts = _row_runs(keys)
    return list(zip(keys[order[starts]].tolist(), np.split(order, starts[1:])))


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


class _Rows:
    """A per-entity attribute of Mesh (faces, cell_fans, ...): the tuple of
    read-only row views of the group stacks, entity by entity, built on
    first read. An instance attribute of the same name shadows it."""

    def __init__(self, name, groups):
        self.name, self.groups = name, groups

    def __get__(self, mesh, owner=None):
        if mesh is None:
            return self
        if self.name not in mesh._row_tuples:
            groups = getattr(mesh, self.groups)
            rows = [row for g in groups for row in getattr(g, self.name)]
            ids = np.concatenate([g.ids for g in groups])
            mesh._row_tuples[self.name] = tuple(map(rows.__getitem__,
                                                    np.argsort(ids).tolist()))
        return mesh._row_tuples[self.name]


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
    faces in local order. The per-entity tuples are views of the stacks,
    built on first read.
    """

    _FACE_ARRAYS = ("faces", "face_edges", "face_edge_signs",
                    "face_edge_normals", "face_fans", "face_fan_area2")
    _CELL_ARRAYS = ("cells", "cell_vertices", "cell_edges", "cell_face_signs",
                    "cell_fans", "cell_fan_vol6")
    (faces, face_edges, face_edge_signs, face_edge_normals, face_fans,
     face_fan_area2) = (_Rows(name, "face_groups") for name in _FACE_ARRAYS)
    (cells, cell_vertices, cell_edges, cell_face_signs, cell_fans,
     cell_fan_vol6) = (_Rows(name, "cell_groups") for name in _CELL_ARRAYS)

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
        # the builders queue their checks, each a tuple of (fault per
        # entity, describe) in check order, for _validate to raise
        self._checks = []
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
        nxt = self._loop_next = np.arange(1, len(loops) + 1)
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
        """Face groups, geometry, fans and edge signs; queues the face
        checks (planarity, star shape, edge signs)."""
        off = self._loop_offsets
        nf = len(off) - 1
        self.face_groups = []
        self._face_group_of = {}
        self._face_slot = np.empty(nf, dtype=int)
        # Newell's formula: sum of cross products around the loop gives
        # twice the area vector, oriented by the loop direction
        nvec = np.empty((nf, 3))
        parts = []
        for (n,), ids in _groups(np.diff(off)[:, None]):
            cols = off[ids, None] + np.arange(n)
            g = SimpleNamespace(ids=ids, faces=self._loops[cols])
            self._face_slot[ids] = np.arange(len(ids))
            self._face_group_of[n] = g
            self.face_groups.append(g)
            pts = self.vertices[g.faces]
            nxt = np.roll(pts, -1, axis=1)
            nvec[ids] = _cross(pts, nxt).sum(axis=1)
            parts.append((g, cols, pts, nxt))
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
        self._loop_edge_signs = np.empty(len(self._loops), dtype=int)
        offset = np.empty(nf)
        star = np.empty(nf, dtype=bool)
        edge_dot = np.empty(nf)
        for g, cols, pts, nxt in parts:
            xf = pts.mean(axis=1)
            self.face_centroids[g.ids] = xf
            h = self.face_diameters[g.ids] = _diameters(pts)
            g.face_fans = np.stack(
                [np.broadcast_to(xf[:, None], pts.shape), pts, nxt], axis=2)
            # doubled fan-triangle areas, positive for a star-shaped face,
            # and the vertex offsets from the plane through x_F
            xf = xf[:, None]
            ng = n[g.ids, :, None]
            g.face_fan_area2 = (_cross(pts - xf, nxt - xf) @ ng)[..., 0]
            self.face_areas[g.ids] = 0.5 * g.face_fan_area2.sum(axis=1)
            offset[g.ids] = np.abs((pts - xf) @ ng).max(axis=(1, 2))
            star[g.ids] = g.face_fan_area2.min(axis=1) <= SIGN_RTOL * h * h

            # edge normals and signs at every loop position
            g.face_edges = self._loop_edges[cols]
            nfe = g.face_edge_normals = _cross(
                n[g.ids, None], self.edge_tangents[g.face_edges])
            dots = ((self.edge_midpoints[g.face_edges] - xf) * nfe).sum(axis=2)
            g.face_edge_signs = np.sign(dots).astype(int)
            self._loop_edge_signs[cols] = g.face_edge_signs
            edge_dot[g.ids] = np.abs(dots).min(axis=1)
        h = self.face_diameters
        self._checks.append((
            (offset > PLANARITY_RTOL * h, lambda f: (
                f"face {f} is non-planar: offset {offset[f]:.3e} "
                f"exceeds {PLANARITY_RTOL:.0e} * h_F")),
            (star, "face {} is not star-shaped w.r.t. x_F".format),
            (edge_dot <= SIGN_RTOL * h,
             "face {}: ambiguous edge orientation sign".format),
        ))

    def _rows(self, group, slots, name, ids):
        given = self.__dict__.get(name)
        if given is not None:
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
        """Cell groups, geometry and fans, and face_cells; queues the cell
        checks, the interior-face check and the unused-face check."""
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
        uses = -np.ones((nf, 2), dtype=int)
        uses[face, rank] = order
        face_cells = np.where(uses < 0, -1, owner[uses])

        # the vertex and edge ids (sorted, unique) at the loop positions of
        # each cell's faces
        pos = _spans(self._loop_offsets, cf)
        pos_owner = np.repeat(owner, valence[cf])
        incident = {}
        for name, ids, count in (("cell_vertices", self._loops, nv),
                                 ("cell_edges", self._loop_edges,
                                  len(self.edges))):
            keys = np.sort(pos_owner * count + ids[pos])
            keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
            counts = np.bincount(keys // count, minlength=nc)
            incident[name] = (keys % count, np.cumsum(counts) - counts, counts)

        # cells of one shape: face count, vertex and edge counts, and the
        # face valences in local order
        shape = np.zeros((nc, 3 + nfaces.max(initial=0)), dtype=int)
        shape[:, 0] = nfaces
        shape[:, 1] = incident["cell_vertices"][2]
        shape[:, 2] = incident["cell_edges"][2]
        shape[owner, 3 + np.arange(len(cf)) - coff[owner]] = valence[cf]
        self.cell_groups = []
        self._cell_group_of = np.empty(nc, dtype=int)
        self._cell_slot = np.empty(nc, dtype=int)
        self.cell_centroids = np.empty((nc, 3))
        self.cell_volumes = np.empty(nc)
        self.cell_diameters = np.empty(nc)
        faults = np.zeros((5, nc), dtype=bool)
        bad_edge = np.empty(nc, dtype=int)
        bad_uses = np.empty(nc, dtype=int)
        face_signs = np.empty(len(cf), dtype=int)
        for key, ids in _groups(shape):
            self._cell_group_of[ids] = len(self.cell_groups)
            self._cell_slot[ids] = np.arange(len(ids))
            m = key[0]
            g = SimpleNamespace(ids=ids, valences=key[3:3 + m],
                                cells=cf[coff[ids, None] + np.arange(m)])
            for i, (name, (flat, first, _)) in enumerate(incident.items()):
                setattr(g, name, flat[first[ids, None] + np.arange(key[1 + i])])
            self.cell_groups.append(g)

            pts = self.vertices[g.cell_vertices]
            xt = pts.mean(axis=1)
            self.cell_centroids[ids] = xt
            h = self.cell_diameters[ids] = _diameters(pts)
            normals = self.face_normals[g.cells]
            dots = ((self.face_centroids[g.cells] - xt[:, None])
                    * normals).sum(axis=2)
            signs = g.cell_face_signs = np.sign(dots).astype(int)

            # fan tetrahedra (x_T, x_F, a, b) over each face's fan
            # triangles (x_F, a, b), with (a, b) the loop edge reversed on
            # inward oriented faces, so the tet volume is positive
            at = _spans(self._loop_offsets, g.cells.ravel()).reshape(len(ids), -1)
            use = np.repeat(signs, g.valences, axis=1)
            a, b = self._loops[at], self._loops[self._loop_next[at]]
            xf = self.face_centroids[np.repeat(g.cells, g.valences, axis=1)]
            tets = g.cell_fans = np.stack(
                [np.broadcast_to(xt[:, None], xf.shape), xf,
                 self.vertices[np.where(use < 0, b, a)],
                 self.vertices[np.where(use < 0, a, b)]], axis=2)
            # six times the fan-tet volumes, positive for a star-shaped cell
            g.cell_fan_vol6 = np.linalg.det(tets[:, :, 1:] - tets[:, :, :1])
            vol = g.cell_fan_vol6 / 6.0
            self.cell_volumes[ids] = vol.sum(axis=1)

            faults[0, ids] = np.abs(dots).min(axis=1) <= SIGN_RTOL * h
            faults[1, ids] = vol.min(axis=1) <= SIGN_RTOL * h**3
            # closed boundary: each edge of the cell lies in exactly two of
            # its faces, and the signed edge orientations cancel. The first
            # edge (in face and loop order) to fail either decides.
            edge = self._loop_edges[at]
            use = use * self._loop_edge_signs[at]
            same = edge[:, :, None] == edge[:, None, :]
            count = same.sum(axis=2)
            bad = (count != 2) | ((same * use[:, None, :]).sum(axis=2) != 0)
            first = np.argmax(bad, axis=1)[:, None]
            found = bad.any(axis=1)
            bad_uses[ids] = n_uses = np.take_along_axis(count, first, axis=1)[:, 0]
            bad_edge[ids] = np.take_along_axis(edge, first, axis=1)[:, 0]
            faults[2, ids] = found & (n_uses != 2)
            faults[3, ids] = found & (n_uses == 2)

            flux = (signs[:, :, None] * self.face_areas[g.cells, None]
                    * normals).sum(axis=1)
            faults[4, ids] = (np.sqrt(_dots(flux, flux))
                              > CLOSURE_RTOL * h * h * m)
            face_signs[coff[ids, None] + np.arange(m)] = signs
        self.face_cells = face_cells
        self.boundary_faces = np.flatnonzero(face_cells[:, 1] < 0)

        signs = face_signs[uses]
        self._checks += [(
            (faults[0], "cell {}: ambiguous face orientation sign".format),
            (faults[1], "cell {} is not star-shaped w.r.t. x_T".format),
            (faults[2], lambda c: (f"cell {c}: edge {bad_edge[c]} lies in "
                                   f"{bad_uses[c]} faces, not 2")),
            (faults[3], lambda c: (f"cell {c}: inconsistent orientation at "
                                   f"edge {bad_edge[c]}")),
            (faults[4], "cell {}: boundary is not closed".format),
        ), ((
            (uses[:, 1] >= 0) & (signs.sum(axis=1) != 0),
            "interior face {}: cells on the same side".format,
        ),), ((uses[:, 0] < 0, "face {} belongs to no cell".format),)]

    def _validate(self):
        """Raise the first failing entity of the queued checks, faces
        first, then cells, then interior faces, then faces no cell uses."""
        for checks in self._checks:
            _raise_first(*checks)
        del self._checks

    def _freeze(self):
        for arr in (self.vertices, self.edges, self.edge_tangents,
                    self.edge_lengths, self.edge_midpoints,
                    self.face_centroids, self.face_normals, self.face_frames,
                    self.face_areas, self.face_diameters, self.cell_centroids,
                    self.cell_volumes, self.cell_diameters, self.face_cells,
                    self.boundary_faces):
            arr.flags.writeable = False
        for groups, names in ((self.face_groups, self._FACE_ARRAYS),
                              (self.cell_groups, self._CELL_ARRAYS)):
            for g in groups:
                for name in names:
                    getattr(g, name).flags.writeable = False
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
        return len(self._loop_offsets) - 1

    @property
    def num_cells(self):
        return len(self._cell_offsets) - 1

    @property
    def h(self):
        """Largest cell diameter."""
        return float(self.cell_diameters.max())

    def to_dict(self):
        """JSON-serializable mesh description (edges are derived on load)."""
        return {
            "vertices": self.vertices.tolist(),
            "faces": _lists(self._loops, self._loop_offsets),
            "cells": _lists(self._cell_faces, self._cell_offsets),
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


def _grid_mesh(n, template):
    """Mesh of the unit cube on the (n+1)^3 vertex grid.

    template holds the cells of one subcube, (cells, faces, valence, 3):
    each face loop as the offsets in {0, 1}^3 of its vertices from the
    subcube's lower corner. Subcubes run with the last axis fastest. Loops
    with the same vertex set are one shared face, numbered and stored as
    it first occurs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n + 1
    coords = np.linspace(0.0, 1.0, m)
    vertices = np.stack(np.meshgrid(coords, coords, coords, indexing="ij"),
                        axis=-1).reshape(-1, 3)
    corners = np.arange(m**3).reshape(m, m, m)[:n, :n, :n].ravel()
    loops = (corners[:, None, None, None]
             + template @ [m * m, m, 1]).reshape(-1, template.shape[2])
    # distinct vertex sets in key order, renumbered by their first use
    order, starts = _row_runs(np.sort(loops, axis=1))
    first = order[starts]
    number = np.empty(len(first), dtype=int)
    number[np.argsort(first)] = np.arange(len(first))
    face = np.empty(len(loops), dtype=int)
    face[order] = np.repeat(number, np.diff(np.r_[starts, len(order)]))
    return Mesh(vertices, loops[np.sort(first)],
                face.reshape(-1, template.shape[1]))


# the subcube's six faces as vertex loops, normals outward
_HEXAHEDRON = np.array([[
    [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)],
    [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)],
    [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)],
    [(0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)],
    [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)],
    [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)],
]])

# one tet per axis-step permutation: the corners visited from (0, 0, 0) to
# (1, 1, 1) one axis at a time, and its faces as the corner triples
_SIX_TETRAHEDRA = np.array([
    np.cumsum([(0, 0, 0), *np.eye(3, dtype=int)[list(perm)]], axis=0)[
        list(itertools.combinations(range(4), 3))]
    for perm in itertools.permutations(range(3))
])


def generate_cubic_mesh(n):
    """Uniform n x n x n hexahedral partition of the unit cube."""
    return _grid_mesh(n, _HEXAHEDRON)


def generate_tet_mesh(n):
    """Conforming tetrahedral mesh of the unit cube, six tets per subcube.

    Every subcube is split along its main diagonal into the six tetrahedra
    traced by the axis-step permutations, which makes neighbouring subcubes
    agree on the shared-face diagonals.
    """
    return _grid_mesh(n, _SIX_TETRAHEDRA)


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
    edges = np.concatenate([mesh.face_edges[f] for f in merged])
    if np.any(np.unique(edges, return_counts=True)[1] != 2):
        return None

    for f in merged:
        dot = (mesh.face_centroids[f] - xt) @ mesh.face_normals[f]
        if abs(dot) <= SIGN_RTOL * h:
            return None
        # fan tets (x_T, x_F, a, b), (a, b) reversed on an inward face
        tri = mesh.face_fans[f] if dot > 0 else mesh.face_fans[f][:, [0, 2, 1]]
        if (np.linalg.det(tri - xt) / 6.0).min() <= SIGN_RTOL * h**3:
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
