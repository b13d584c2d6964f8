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
"""

import itertools
import json

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


def _diameter(points):
    # max pairwise distance; entities are small so the N^2 cost is fine
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).max())


class Mesh:
    """Immutable polyhedral mesh.

    Parameters
    ----------
    vertices : (nv, 3) array of vertex coordinates.
    faces : sequence of vertex-index loops, one per face. Loops are stored
        as given; their order fixes the face normal.
    cells : sequence of face-index lists, one per cell.
    validate : skip the geometric validation when False. Only tests use
        this, to build deliberately corrupted meshes as negative controls.
    """

    def __init__(self, vertices, faces, cells, validate=True):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        self.vertices = vertices
        self.faces = tuple(np.asarray(f, dtype=int) for f in faces)
        self.cells = tuple(np.asarray(c, dtype=int) for c in cells)
        self._check_indices()
        self._build_edges()
        self._build_face_geometry()
        self._build_cell_geometry()
        if validate:
            self._validate()
        self._freeze()

    # ------------------------------------------------------------------
    # construction

    def _check_indices(self):
        nv = len(self.vertices)
        used = np.zeros(nv, dtype=bool)
        for loop in self.faces:
            used[loop] = True
        if not used.all():
            raise MeshError("mesh has vertices not referenced by any face")
        for i, loop in enumerate(self.faces):
            if len(loop) < 3:
                raise MeshError(f"face {i} has fewer than 3 vertices")
            if len(set(loop.tolist())) != len(loop):
                raise MeshError(f"face {i} repeats a vertex")
            if loop.min() < 0 or loop.max() >= nv:
                raise MeshError(f"face {i} references a missing vertex")
        nf = len(self.faces)
        for i, cf in enumerate(self.cells):
            if len(cf) < 4:
                raise MeshError(f"cell {i} has fewer than 4 faces")
            if len(set(cf.tolist())) != len(cf):
                raise MeshError(f"cell {i} repeats a face")
            if cf.min() < 0 or cf.max() >= nf:
                raise MeshError(f"cell {i} references a missing face")

    def _build_edges(self):
        # each loop's consecutive vertex pairs, sorted, closing pair last
        loop_pairs = []
        for loop in self.faces:
            ids = loop.tolist()
            loop_pairs.append(
                [(min(a, b), max(a, b)) for a, b in zip(ids, ids[1:] + ids[:1])]
            )
        pairs = sorted({p for lp in loop_pairs for p in lp})
        edges = np.array(pairs, dtype=int)
        self.edges = edges
        lookup = {p: i for i, p in enumerate(pairs)}
        self.face_edges = tuple(
            np.array([lookup[p] for p in lp], dtype=int) for lp in loop_pairs
        )

        vec = self.vertices[edges[:, 1]] - self.vertices[edges[:, 0]]
        self.edge_lengths = np.linalg.norm(vec, axis=1)
        if np.any(self.edge_lengths <= 0):
            raise MeshError("zero-length edge")
        self.edge_tangents = vec / self.edge_lengths[:, None]
        self.edge_midpoints = 0.5 * (
            self.vertices[edges[:, 0]] + self.vertices[edges[:, 1]]
        )

    def _build_face_geometry(self):
        nf = len(self.faces)
        self.face_centroids = np.empty((nf, 3))
        self.face_normals = np.empty((nf, 3))
        self.face_frames = np.empty((nf, 2, 3))
        self.face_areas = np.empty(nf)
        self.face_diameters = np.empty(nf)
        fans = []
        fan_area2 = []
        signs = []
        normals_fe = []
        for f, loop in enumerate(self.faces):
            pts = self.vertices[loop]
            nxt = np.concatenate((pts[1:], pts[:1]))
            xf = pts.mean(axis=0)
            # Newell's formula: sum of cross products around the loop gives
            # twice the area vector, oriented by the loop direction
            nvec = _cross(pts, nxt).sum(axis=0)
            nrm = np.linalg.norm(nvec)
            if nrm <= 0:
                raise MeshError(f"face {f} has zero area vector")
            n = nvec / nrm
            self.face_centroids[f] = xf
            self.face_normals[f] = n
            self.face_diameters[f] = _diameter(pts)
            # in-plane frame: project the axis least aligned with n
            axis = np.zeros(3)
            axis[np.argmin(np.abs(n))] = 1.0
            e1 = axis - (axis @ n) * n
            e1 /= np.linalg.norm(e1)
            self.face_frames[f, 0] = e1
            self.face_frames[f, 1] = _cross(n, e1)

            tri = np.empty((len(pts), 3, 3))
            tri[:, 0] = xf
            tri[:, 1] = pts
            tri[:, 2] = nxt
            fans.append(tri)
            # doubled fan-triangle areas, positive for a star-shaped face
            area2 = _cross(pts - xf, nxt - xf) @ n
            fan_area2.append(area2)
            self.face_areas[f] = 0.5 * area2.sum()

            t = self.edge_tangents[self.face_edges[f]]
            nfe = _cross(n, t)
            normals_fe.append(nfe)
            mids = self.edge_midpoints[self.face_edges[f]]
            dots = ((mids - xf) * nfe).sum(axis=1)
            signs.append(np.sign(dots).astype(int))
        self.face_fans = tuple(fans)
        self.face_fan_area2 = tuple(fan_area2)
        self.face_edge_normals = tuple(normals_fe)
        self.face_edge_signs = tuple(signs)

    def _build_cell_geometry(self):
        nc = len(self.cells)
        nf = len(self.faces)
        self.cell_centroids = np.empty((nc, 3))
        self.cell_volumes = np.empty(nc)
        self.cell_diameters = np.empty(nc)
        vert_sets = []
        edge_sets = []
        signs = []
        fans = []
        fan_vol6 = []
        face_cells = -np.ones((nf, 2), dtype=int)
        for c, cf in enumerate(self.cells):
            verts = np.unique(np.concatenate([self.faces[f] for f in cf]))
            vert_sets.append(verts)
            edge_sets.append(
                np.unique(np.concatenate([self.face_edges[f] for f in cf]))
            )
            pts = self.vertices[verts]
            xt = pts.mean(axis=0)
            self.cell_centroids[c] = xt
            self.cell_diameters[c] = _diameter(pts)
            dots = ((self.face_centroids[cf] - xt) * self.face_normals[cf]).sum(
                axis=1
            )
            signs.append(np.sign(dots).astype(int))
            for f in cf:
                slot = 0 if face_cells[f, 0] < 0 else 1
                if face_cells[f, slot] >= 0:
                    raise MeshError(f"face {f} belongs to more than two cells")
                face_cells[f, slot] = c

            # fan tetrahedra (x_T, x_F, a, b) over each face's fan triangles,
            # with (a, b) ordered so the tet volume is positive for outward
            # oriented faces
            tets = []
            for fi, f in enumerate(cf):
                tri = self.face_fans[f]
                if signs[c][fi] < 0:
                    tri = tri[:, [0, 2, 1], :]
                apex = np.broadcast_to(xt, (len(tri), 1, 3))
                tets.append(np.concatenate([apex, tri], axis=1))
            tets = np.concatenate(tets, axis=0)
            fans.append(tets)
            # six times the fan-tet volumes, positive for a star-shaped cell
            vol6 = np.linalg.det(tets[:, 1:] - tets[:, :1])
            fan_vol6.append(vol6)
            self.cell_volumes[c] = (vol6 / 6.0).sum()
        self.cell_vertices = tuple(vert_sets)
        self.cell_edges = tuple(edge_sets)
        self.cell_face_signs = tuple(signs)
        self.cell_fans = tuple(fans)
        self.cell_fan_vol6 = tuple(fan_vol6)
        self.face_cells = face_cells
        self.boundary_faces = np.flatnonzero(face_cells[:, 1] < 0)

    def _validate(self):
        for f, loop in enumerate(self.faces):
            pts = self.vertices[loop]
            h = self.face_diameters[f]
            off = np.abs((pts - self.face_centroids[f]) @ self.face_normals[f])
            if off.max() > PLANARITY_RTOL * h:
                raise MeshError(
                    f"face {f} is non-planar: offset {off.max():.3e} "
                    f"exceeds {PLANARITY_RTOL:.0e} * h_F"
                )
            if self.face_fan_area2[f].min() <= SIGN_RTOL * h * h:
                raise MeshError(f"face {f} is not star-shaped w.r.t. x_F")
            mids = self.edge_midpoints[self.face_edges[f]]
            dots = ((mids - self.face_centroids[f]) * self.face_edge_normals[f]).sum(
                axis=1
            )
            if np.abs(dots).min() <= SIGN_RTOL * h:
                raise MeshError(f"face {f}: ambiguous edge orientation sign")

        for c, cf in enumerate(self.cells):
            h = self.cell_diameters[c]
            dots = (
                (self.face_centroids[cf] - self.cell_centroids[c])
                * self.face_normals[cf]
            ).sum(axis=1)
            if np.abs(dots).min() <= SIGN_RTOL * h:
                raise MeshError(f"cell {c}: ambiguous face orientation sign")
            if (self.cell_fan_vol6[c] / 6.0).min() <= SIGN_RTOL * h**3:
                raise MeshError(f"cell {c} is not star-shaped w.r.t. x_T")

            # closed boundary: each edge of the cell lies in exactly two of
            # its faces, and the signed edge orientations cancel
            edge_use = {}
            for fi, f in enumerate(cf):
                wtf = self.cell_face_signs[c][fi]
                for ei, e in enumerate(self.face_edges[f]):
                    edge_use.setdefault(int(e), []).append(
                        wtf * int(self.face_edge_signs[f][ei])
                    )
            for e, uses in edge_use.items():
                if len(uses) != 2:
                    raise MeshError(
                        f"cell {c}: edge {e} lies in {len(uses)} faces, not 2"
                    )
                if uses[0] + uses[1] != 0:
                    raise MeshError(f"cell {c}: inconsistent orientation at edge {e}")

            flux = (
                self.cell_face_signs[c][:, None]
                * self.face_areas[cf, None]
                * self.face_normals[cf]
            ).sum(axis=0)
            if np.linalg.norm(flux) > CLOSURE_RTOL * h * h * len(cf):
                raise MeshError(f"cell {c}: boundary is not closed")

        for f in range(len(self.faces)):
            c0, c1 = self.face_cells[f]
            if c1 < 0:
                continue
            s0 = self.cell_face_signs[c0][list(self.cells[c0]).index(f)]
            s1 = self.cell_face_signs[c1][list(self.cells[c1]).index(f)]
            if s0 + s1 != 0:
                raise MeshError(f"interior face {f}: cells on the same side")

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
        for tup in (
            self.faces,
            self.cells,
            self.face_edges,
            self.face_edge_signs,
            self.face_edge_normals,
            self.face_fans,
            self.face_fan_area2,
            self.cell_vertices,
            self.cell_edges,
            self.cell_face_signs,
            self.cell_fans,
            self.cell_fan_vol6,
        ):
            for arr in tup:
                arr.flags.writeable = False

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

    def shape_regularity(self):
        """Per-cell min over fan tetrahedra of inradius / h_T (diagnostic)."""
        out = np.empty(self.num_cells)
        for c in range(self.num_cells):
            tets = self.cell_fans[c]
            vols = self.cell_fan_vol6[c] / 6.0
            areas = np.zeros(len(tets))
            for i, j, k in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
                cr = np.cross(tets[:, j] - tets[:, i], tets[:, k] - tets[:, i])
                areas += 0.5 * np.linalg.norm(cr, axis=1)
            out[c] = (3.0 * vols / areas).min() / self.cell_diameters[c]
        return out

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
    h = _diameter(mesh.vertices[verts])

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
