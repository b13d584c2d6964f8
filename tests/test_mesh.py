import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyddr.mesh import (
    Mesh,
    MeshError,
    load_mesh,
    generate_cubic_mesh,
    generate_tet_mesh,
    agglomerate_pairs,
)

from meshes import jittered_tet_mesh
from oracles import grid_lists_by_loops, shape_regularity


def unit_cube_mesh():
    return generate_cubic_mesh(1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cubic_counts(n):
    m = generate_cubic_mesh(n)
    assert m.num_cells == n**3
    assert m.num_faces == 3 * n**2 * (n + 1)
    assert m.num_edges == 3 * n * (n + 1) ** 2
    assert m.num_vertices == (n + 1) ** 3
    assert len(m.boundary_faces) == 6 * n**2


@pytest.mark.parametrize("n", [1, 2])
def test_tet_counts(n):
    m = generate_tet_mesh(n)
    assert m.num_cells == 6 * n**3
    assert np.isclose(m.cell_volumes.sum(), 1.0, rtol=1e-13)


def test_cubic_geometry():
    m = generate_cubic_mesh(2)
    assert np.allclose(m.face_areas, 0.25, rtol=1e-13)
    assert np.allclose(m.cell_volumes, 0.125, rtol=1e-13)
    assert np.allclose(m.edge_lengths, 0.5, rtol=1e-13)
    assert np.allclose(m.cell_diameters, np.sqrt(3) / 2, rtol=1e-13)


def test_h_halves_under_refinement():
    assert generate_cubic_mesh(2).h == pytest.approx(
        generate_cubic_mesh(1).h / 2, rel=1e-14
    )


def test_edge_tangent_orientation():
    m = generate_tet_mesh(1)
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
    vec = m.vertices[m.edges[:, 1]] - m.vertices[m.edges[:, 0]]
    assert np.allclose(
        vec / np.linalg.norm(vec, axis=1)[:, None], m.edge_tangents
    )


def _every_mesh():
    return [
        generate_cubic_mesh(1),
        generate_cubic_mesh(2),
        generate_tet_mesh(1),
        agglomerate_pairs(generate_cubic_mesh(2), seed=0),
    ]


@pytest.mark.parametrize("mesh", _every_mesh(), ids=["cube1", "cube2", "tet1", "agg2"])
def test_edge_face_frames_right_handed(mesh):
    for f in range(mesh.num_faces):
        n = mesh.face_normals[f]
        e1, e2 = mesh.face_frames[f]
        assert np.allclose(np.cross(e1, e2), n, atol=1e-13)
        for t, nfe in zip(
            mesh.edge_tangents[mesh.face_edges[f]], mesh.face_edge_normals[f]
        ):
            assert np.allclose(np.cross(n, t), nfe, atol=1e-13)
            assert np.linalg.det(np.stack([t, nfe, n])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mesh", _every_mesh(), ids=["cube1", "cube2", "tet1", "agg2"])
def test_loop_closure_per_face(mesh):
    # a closed polygon boundary: signed tangents weighted by length cancel
    for f in range(mesh.num_faces):
        s = (
            mesh.face_edge_signs[f][:, None]
            * mesh.edge_lengths[mesh.face_edges[f]][:, None]
            * mesh.edge_tangents[mesh.face_edges[f]]
        ).sum(axis=0)
        assert np.linalg.norm(s) < 1e-12 * mesh.face_diameters[f]


@pytest.mark.parametrize("mesh", _every_mesh(), ids=["cube1", "cube2", "tet1", "agg2"])
def test_cell_edge_orientation_cancellation(mesh):
    # for each cell, every edge is seen by exactly two faces with opposite
    # boundary orientations: sum of omega_TF * omega_FE vanishes
    for c in range(mesh.num_cells):
        acc = {}
        for fi, f in enumerate(mesh.cells[c]):
            for ei, e in enumerate(mesh.face_edges[f]):
                key = int(e)
                acc[key] = acc.get(key, 0) + int(
                    mesh.cell_face_signs[c][fi] * mesh.face_edge_signs[f][ei]
                )
        assert all(v == 0 for v in acc.values())


@pytest.mark.parametrize("mesh", _every_mesh(), ids=["cube1", "cube2", "tet1", "agg2"])
def test_divergence_of_constants(mesh):
    for c in range(mesh.num_cells):
        cf = mesh.cells[c]
        flux = (
            mesh.cell_face_signs[c][:, None]
            * mesh.face_areas[cf, None]
            * mesh.face_normals[cf]
        ).sum(axis=0)
        assert np.linalg.norm(flux) < 1e-12


def test_interior_face_signs_cancel():
    m = generate_cubic_mesh(2)
    interior = [f for f in range(m.num_faces) if m.face_cells[f, 1] >= 0]
    assert len(interior) == m.num_faces - 24
    for f in interior:
        c0, c1 = m.face_cells[f]
        s0 = m.cell_face_signs[c0][list(m.cells[c0]).index(f)]
        s1 = m.cell_face_signs[c1][list(m.cells[c1]).index(f)]
        assert s0 + s1 == 0


def test_agglomerate_cubic():
    base = generate_cubic_mesh(2)
    agg = agglomerate_pairs(base, seed=0)
    assert 4 <= agg.num_cells <= 8
    assert np.isclose(agg.cell_volumes.sum(), 1.0, rtol=1e-13)
    merged = [c for c in range(agg.num_cells) if len(agg.cells[c]) == 10]
    assert merged, "expected at least one merged pair of hexahedra"


def test_agglomerate_deterministic():
    base = generate_cubic_mesh(2)
    a = agglomerate_pairs(base, seed=3)
    b = agglomerate_pairs(base, seed=3)
    assert [c.tolist() for c in a.cells] == [c.tolist() for c in b.cells]


def test_agglomerate_single_cell_unchanged():
    base = generate_cubic_mesh(1)
    agg = agglomerate_pairs(base, seed=0)
    assert agg.num_cells == 1
    assert agg.num_faces == 6


def test_json_round_trip(tmp_path):
    m = agglomerate_pairs(generate_cubic_mesh(2), seed=1)
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(m.to_dict()))
    m2 = load_mesh(path)
    assert m2.num_cells == m.num_cells
    assert np.allclose(m2.vertices, m.vertices)
    assert np.allclose(m2.cell_volumes, m.cell_volumes)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MeshError):
        load_mesh(path)


def test_nonplanar_face_rejected():
    m = unit_cube_mesh()
    verts = m.vertices.copy()
    # lift one vertex off its faces' planes
    verts[0, 0] += 1e-3
    with pytest.raises(MeshError, match="non-planar"):
        Mesh(verts, [f.tolist() for f in m.faces], [c.tolist() for c in m.cells])


def test_face_in_three_cells_rejected():
    m = unit_cube_mesh()
    cells = [c.tolist() for c in m.cells]
    with pytest.raises(MeshError):
        Mesh(m.vertices, [f.tolist() for f in m.faces], cells + cells + cells)


def test_unused_vertex_rejected():
    m = unit_cube_mesh()
    verts = np.vstack([m.vertices, [9.0, 9.0, 9.0]])
    with pytest.raises(MeshError, match="not referenced"):
        Mesh(verts, [f.tolist() for f in m.faces], [c.tolist() for c in m.cells])


def _cube_data():
    m = generate_cubic_mesh(1)
    faces = [f.tolist() for f in m.faces]
    return m.vertices.copy(), faces, [c.tolist() for c in m.cells]


def _grid_data(n):
    m = generate_cubic_mesh(n)
    return m, [f.tolist() for f in m.faces]


def _cell_at(mesh, x):
    return int(np.argmin(np.abs(mesh.cell_centroids - x).max(axis=1)))


def _union_faces(mesh, ijs, n):
    """Boundary faces of the union of the first-layer cells (i, j) of
    generate_cubic_mesh(n), in cell then local order."""
    cells = [mesh.cells[_cell_at(mesh, [(i + 0.5) / n, (j + 0.5) / n, 0.5 / n])]
             for i, j in ijs]
    ids = np.concatenate(cells).tolist()
    return [f for f in ids if ids.count(f) == 1]


def _rotated_far_cube():
    # a unit cube turned about (1, 1, 1) and moved 1000 away: Newell's
    # products lose about 1e-10 of the area vectors to cancellation, which
    # keeps the faces within the planarity bound (offsets 7.8e-11 against
    # 1.4e-10) but leaves a flux sum of 1.5e-10 against 1.8e-11
    v, f, c = _cube_data()
    a = np.ones(3) / np.sqrt(3.0)
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    rot = np.eye(3) + np.sin(0.7) * k + (1 - np.cos(0.7)) * k @ k
    return v @ rot.T + 1000.0, f, c


def _corrupted(case):
    v, f, c = _cube_data()
    if case == "short face":
        return v, f + [[0, 1]], c
    if case == "short cell":
        return v, f, [c[0][:3]]
    if case == "repeated vertex":
        return v, f[:2] + [[0, 1, 0, 4]] + f[3:], c
    if case == "repeated face":
        return v, f, [c[0] + [c[0][2]]]
    if case == "missing vertex":
        # a negative id: numpy would wrap it round to the last vertex
        return v, f[:3] + [f[3][:3] + [-1]] + f[4:], c
    if case == "missing face":
        return v, f, [c[0][:5] + [6]]
    if case == "zero-length edge":
        v[7] = v[6]
        return v, f, c
    if case == "zero area vector":
        # face 3 runs along one line
        v = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]]
        return v, [[0, 1, 3], [1, 2, 3], [2, 0, 3], [0, 1, 2]], [[0, 1, 2, 3]]
    if case == "face not star-shaped":
        # a U-shaped bottom face: its vertex mean lies in the notch
        u = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
        v = [(x, y, z) for z in (0.0, 1.0) for x, y in u]
        sides = [[i, (i + 1) % 8, 8 + (i + 1) % 8, 8 + i] for i in range(8)]
        faces = sides[:1] + [list(range(7, -1, -1)), list(range(8, 16))] + sides[1:]
        return v, faces, [list(range(10))]
    if case == "first failing face":
        # the star-shaped check fails on face 1 (an octagon) before the
        # planarity check fails on face 10 (a quad)
        v, faces, cells = _corrupted("face not star-shaped")
        return v, faces + [[0, 1, 10, 13]], cells
    if case == "ambiguous edge sign":
        # a sliver of height 3e-12: in exact arithmetic its fan areas are
        # the edge lengths times the edge-sign dot products, so only
        # roundoff lets the area pass and the dot product fail
        v = [[0.1, 0, 0], [1.1, 0, 0], [0.6, 3e-12, 0], [0.5, 0.3, 1.0]]
        return v, [[0, 1, 3], [1, 2, 3], [2, 0, 3], [0, 2, 1]], [[0, 1, 2, 3]]
    if case in ("ambiguous face sign", "inconsistent orientation"):
        # non-convex prisms of generate_cubic_mesh(3): the vertex mean of
        # the first lies in the plane of a face, that of the second beyond
        # the faces of its notch, which turns their outward signs
        m, faces = _grid_data(3)
        shape = ([(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)]
                 if case == "ambiguous face sign"
                 else [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (2, 2)])
        return m.vertices, faces, [_union_faces(m, shape, 3)]
    if case == "cell not star-shaped":
        # an extra vertex 1e-11 along an edge of face 0 leaves that face
        # star-shaped (a fan triangle of doubled area 4e-12 against a
        # bound of 2e-12) but gives the cell a fan tetrahedron of volume
        # 3e-13 against SIGN_RTOL * h_T^3 = 5.2e-12
        v = np.vstack([v, [0.0, 0.0, 1e-11]])
        return v, [[0, 8, 1, 3, 2]] + f[1:], c
    if case == "first failing cell":
        # cell 0 fails a later check than cell 1 does
        v, faces, late = _corrupted("inconsistent orientation")
        _, _, early = _corrupted("ambiguous face sign")
        return v, faces, late + early
    if case == "edge not in 2 faces":
        return v, f, [c[0][:5]]
    if case == "boundary not closed":
        return _rotated_far_cube()
    if case == "cells on the same side":
        # a cube and the column of two cubes above and including it
        m, faces = _grid_data(2)
        column = _union_faces(m, [(0, 0)], 2)
        return m.vertices, faces, [m.cells[0].tolist(), column]
    if case == "face in three cells":
        return v, f, c * 3
    if case == "face in no cell":
        # cubic:3 without its centre column, all 108 faces kept: the
        # column's top, bottom and two inner faces belong to no cell
        m, faces = _grid_data(3)
        column = {_cell_at(m, [0.5, 0.5, z]) for z in (1 / 6, 0.5, 5 / 6)}
        return m.vertices, faces, [c.tolist() for i, c in enumerate(m.cells)
                                   if i not in column]
    raise AssertionError(case)


CORRUPTIONS = {
    "short face": "face 6 has fewer than 3 vertices",
    "short cell": "cell 0 has fewer than 4 faces",
    "repeated vertex": "face 2 repeats a vertex",
    "repeated face": "cell 0 repeats a face",
    "missing vertex": "face 3 references a missing vertex",
    "missing face": "cell 0 references a missing face",
    "zero-length edge": "zero-length edge",
    "zero area vector": "face 3 has zero area vector",
    "face not star-shaped": "face 1 is not star-shaped w.r.t. x_F",
    "first failing face": "face 1 is not star-shaped w.r.t. x_F",
    "ambiguous edge sign": "face 3: ambiguous edge orientation sign",
    "ambiguous face sign": "cell 0: ambiguous face orientation sign",
    "cell not star-shaped": "cell 0 is not star-shaped w.r.t. x_T",
    "first failing cell": "cell 0: inconsistent orientation at edge 56",
    "edge not in 2 faces": "cell 0: edge 3 lies in 1 faces, not 2",
    "inconsistent orientation": "cell 0: inconsistent orientation at edge 56",
    "boundary not closed": "cell 0: boundary is not closed",
    "cells on the same side": "interior face 0: cells on the same side",
    "face in three cells": "face 0 belongs to more than two cells",
    "face in no cell": "face 57 belongs to no cell",
}

@pytest.mark.parametrize("case", CORRUPTIONS)
def test_corrupted_mesh_rejected_with_entity(case):
    """Each MeshError branch names the first failing entity and check in
    the order faces (planarity, star shape, edge signs), cells, interior
    faces, faces no cell uses."""
    with pytest.raises(MeshError) as err:
        Mesh(*_corrupted(case))
    assert str(err.value) == CORRUPTIONS[case]


def test_vertex_id_past_the_end_rejected():
    v, f, c = _cube_data()
    f[4] = f[4][:3] + [8]
    with pytest.raises(MeshError, match="^face 4 references a missing vertex$"):
        Mesh(v, f, c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected_before_geometry(bad):
    """A NaN or infinite coordinate is named as such, before any geometry
    (and so any floating-point warning) is computed."""
    v, f, c = _cube_data()
    v[5, 1] = bad
    v[6, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError,
                           match="^vertex 5 has a non-finite coordinate$"):
            Mesh(v, f, c)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_convex_polyhedron_valid(seed):
    # single-cell meshes from convex hulls of random clouds: the validator
    # must accept them and the geometry must be coherent
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((12, 3))
    hull = ConvexHull(pts)
    used = np.unique(hull.simplices)
    remap = {int(v): i for i, v in enumerate(used)}
    verts = pts[used]
    faces = [[remap[int(v)] for v in tri] for tri in hull.simplices]
    m = Mesh(verts, faces, [list(range(len(faces)))])
    assert m.cell_volumes[0] == pytest.approx(hull.volume, rel=1e-10)
    assert shape_regularity(m)[0] > 0


def test_face_geometry_matches_the_np_cross_formulas():
    """Normals, frames, fan areas and edge normals equal, bit for bit, the
    np.cross/np.roll formulas on a jittered mesh and an agglomerate."""
    base = generate_tet_mesh(2)
    rng = np.random.default_rng(5)
    free = (base.vertices > 0.0) & (base.vertices < 1.0)
    jitter = np.where(free, rng.uniform(-0.07, 0.07, base.vertices.shape), 0.0)
    data = base.to_dict()
    jittered = Mesh(base.vertices + jitter, data["faces"], data["cells"])
    for m in (jittered, agglomerate_pairs(generate_cubic_mesh(3), seed=0)):
        for f, loop in enumerate(m.faces):
            pts = m.vertices[loop]
            nxt = np.roll(pts, -1, axis=0)
            nvec = np.cross(pts, nxt).sum(axis=0)
            n = nvec / np.linalg.norm(nvec)
            assert np.array_equal(m.face_normals[f], n)
            assert np.array_equal(m.face_frames[f, 1],
                                  np.cross(n, m.face_frames[f, 0]))
            xf = m.face_centroids[f]
            area2 = np.cross(pts - xf, nxt - xf) @ n
            assert np.array_equal(m.face_fan_area2[f], area2)
            t = m.edge_tangents[m.face_edges[f]]
            assert np.array_equal(m.face_edge_normals[f],
                                  np.cross(n[None, :], t))


def _house_mesh():
    """A unit cube with a pyramid on its top face: triangles and quads,
    a hexahedron and a pyramid."""
    verts = np.vstack([generate_cubic_mesh(1).vertices, [[0.5, 0.5, 1.6]]])
    faces = [f.tolist() for f in generate_cubic_mesh(1).faces]
    top = faces[5]
    faces += [[top[i], top[(i + 1) % 4], 8] for i in range(4)]
    return Mesh(verts, faces, [list(range(6)), [5, 6, 7, 8, 9]])


def _hull_mesh():
    from scipy.spatial import ConvexHull

    pts = np.random.default_rng(42).standard_normal((12, 3))
    hull = ConvexHull(pts)
    used = np.unique(hull.simplices)
    remap = {int(v): i for i, v in enumerate(used)}
    faces = [[remap[int(v)] for v in tri] for tri in hull.simplices]
    return Mesh(pts[used], faces, [list(range(len(faces)))])


def _pentagram_prism():
    ang = np.pi / 2 + np.pi / 5 * np.arange(10)
    rad = np.where(np.arange(10) % 2 == 0, 1.0, 0.3)
    ring = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    verts = np.vstack([np.column_stack([ring, np.zeros(10)]),
                       np.column_stack([ring, np.ones(10)])])
    faces = [list(range(10)), list(range(10, 20))]
    faces += [[i, (i + 1) % 10, 10 + (i + 1) % 10, 10 + i] for i in range(10)]
    return Mesh(verts, faces, [list(range(12))])


GROUPED_MESHES = {
    "cubic3": lambda: generate_cubic_mesh(3),
    "tet2": lambda: generate_tet_mesh(2),
    "jittered-tet2": lambda: jittered_tet_mesh(2, 3),
    "agglo3": lambda: agglomerate_pairs(generate_cubic_mesh(3), seed=0),
    "agglo-tet2": lambda: agglomerate_pairs(generate_tet_mesh(2), seed=0),
    "pentagram": _pentagram_prism,
    "hull": _hull_mesh,
    "house": _house_mesh,
}


@pytest.mark.parametrize("name", sorted(GROUPED_MESHES))
def test_entity_geometry_matches_the_per_entity_formulas(name):
    """Every stacked array equals, bit for bit, the entity-by-entity
    formulas (np.cross, np.linalg.norm, np.unique, np.linalg.det), on the
    generated grids (one face and one cell group each), a jittered tet
    mesh, and meshes with several face or cell groups (all but the
    hull)."""
    m = GROUPED_MESHES[name]()
    pairs = sorted({tuple(sorted(p)) for loop in m.faces
                    for p in zip(loop.tolist(), np.roll(loop, -1).tolist())})
    assert np.array_equal(m.edges, np.array(pairs))
    for f, loop in enumerate(m.faces):
        pts = m.vertices[loop]
        nxt = np.roll(pts, -1, axis=0)
        xf = pts.mean(axis=0)
        nvec = np.cross(pts, nxt).sum(axis=0)
        n = nvec / np.linalg.norm(nvec)
        assert m.face_centroids[f].tobytes() == xf.tobytes()
        assert m.face_normals[f].tobytes() == n.tobytes()
        axis = np.zeros(3)
        axis[np.argmin(np.abs(n))] = 1.0
        e1 = axis - (axis @ n) * n
        e1 /= np.linalg.norm(e1)
        assert m.face_frames[f].tobytes() == np.stack([e1, np.cross(n, e1)]).tobytes()
        diff = pts[:, None] - pts[None, :]
        assert m.face_diameters[f] == np.sqrt((diff**2).sum(axis=2)).max()
        area2 = np.cross(pts - xf, nxt - xf) @ n
        assert m.face_fan_area2[f].tobytes() == area2.tobytes()
        assert m.face_areas[f] == 0.5 * area2.sum()
        fan = np.stack([np.broadcast_to(xf, pts.shape), pts, nxt], axis=1)
        assert m.face_fans[f].tobytes() == fan.tobytes()
        edges = [pairs.index(tuple(sorted(p)))
                 for p in zip(loop.tolist(), np.roll(loop, -1).tolist())]
        assert m.face_edges[f].tolist() == edges
        nfe = np.cross(n, m.edge_tangents[edges])
        dots = ((m.edge_midpoints[edges] - xf) * nfe).sum(axis=1)
        assert m.face_edge_normals[f].tobytes() == nfe.tobytes()
        assert m.face_edge_signs[f].tolist() == np.sign(dots).astype(int).tolist()

    face_cells = -np.ones((m.num_faces, 2), dtype=int)
    for c, cf in enumerate(m.cells):
        verts = np.unique(np.concatenate([m.faces[f] for f in cf]))
        assert m.cell_vertices[c].tolist() == verts.tolist()
        edges = np.unique(np.concatenate([m.face_edges[f] for f in cf]))
        assert m.cell_edges[c].tolist() == edges.tolist()
        pts = m.vertices[verts]
        xt = pts.mean(axis=0)
        assert m.cell_centroids[c].tobytes() == xt.tobytes()
        diff = pts[:, None] - pts[None, :]
        assert m.cell_diameters[c] == np.sqrt((diff**2).sum(axis=2)).max()
        dots = ((m.face_centroids[cf] - xt) * m.face_normals[cf]).sum(axis=1)
        signs = np.sign(dots).astype(int)
        assert m.cell_face_signs[c].tolist() == signs.tolist()
        tets = np.concatenate([
            np.concatenate([
                np.broadcast_to(xt, (len(m.face_fans[f]), 1, 3)),
                m.face_fans[f][:, [0, 2, 1]] if s < 0 else m.face_fans[f],
            ], axis=1)
            for f, s in zip(cf.tolist(), signs)
        ])
        assert m.cell_fans[c].tobytes() == tets.tobytes()
        vol6 = np.linalg.det(tets[:, 1:] - tets[:, :1])
        assert m.cell_fan_vol6[c].tobytes() == vol6.tobytes()
        assert m.cell_volumes[c] == (vol6 / 6.0).sum()
        for f in cf:
            face_cells[f, int(face_cells[f, 0] >= 0)] = c
    assert np.array_equal(m.face_cells, face_cells)
    assert np.array_equal(m.boundary_faces, np.flatnonzero(face_cells[:, 1] < 0))


def test_mesh_build_cost_does_not_grow_per_entity(monkeypatch):
    """Mesh construction runs per entity group, not per entity: it makes
    as many _cross calls on tet:4 (864 faces) as on tet:2 (120)."""
    from polyddr import mesh as mesh_module

    calls = []
    cross = mesh_module._cross

    def counted(a, b):
        calls.append(1)
        return cross(a, b)

    data = {n: generate_tet_mesh(n).to_dict() for n in (2, 4)}
    counts = {}
    monkeypatch.setattr(mesh_module, "_cross", counted)
    for n, d in data.items():
        calls.clear()
        Mesh(d["vertices"], d["faces"], d["cells"])
        counts[n] = len(calls)
    assert counts[2] == counts[4] > 0


@pytest.mark.parametrize("kind", ["cubic", "tet"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_grid_generator_matches_the_subcube_loop(kind, n):
    """The array generator gives the loop's vertices, face loops and cells
    exactly: faces numbered and stored as they first occur."""
    generate = {"cubic": generate_cubic_mesh, "tet": generate_tet_mesh}[kind]
    m = generate(n)
    vertices, faces, cells = grid_lists_by_loops(n, kind)
    assert m.vertices.tobytes() == vertices.tobytes()
    data = m.to_dict()
    assert data["faces"] == faces
    assert data["cells"] == cells
    assert [loop.tolist() for loop in m.faces] == faces
    assert [cf.tolist() for cf in m.cells] == cells


def test_grid_generator_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="n must be >= 1"):
        generate_cubic_mesh(0)


ROUND_TRIP_MESHES = {
    "tet2": lambda: generate_tet_mesh(2),
    "jittered-tet2": lambda: jittered_tet_mesh(2, 3),
    "agglo3": lambda: agglomerate_pairs(generate_cubic_mesh(3), seed=0),
    "house": _house_mesh,
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_MESHES))
def test_to_dict_round_trip_is_bit_for_bit(name):
    """to_dict gives the loops and face lists as given, through JSON too,
    and the mesh rebuilt from it has the same arrays, bit for bit."""
    m = ROUND_TRIP_MESHES[name]()
    data = m.to_dict()
    assert data["faces"] == [loop.tolist() for loop in m.faces]
    assert data["cells"] == [cf.tolist() for cf in m.cells]
    assert all(type(i) is int for loop in data["faces"] for i in loop)
    assert json.loads(json.dumps(data)) == data
    m2 = Mesh(data["vertices"], data["faces"], data["cells"])
    assert m2.to_dict() == data
    for name in ("vertices", "edges", "edge_tangents", "face_normals",
                 "face_frames", "face_areas", "face_centroids",
                 "cell_centroids", "cell_volumes", "cell_diameters",
                 "face_cells", "boundary_faces"):
        assert getattr(m2, name).tobytes() == getattr(m, name).tobytes(), name
    for g, g2 in zip(m.cell_groups + m.face_groups,
                     m2.cell_groups + m2.face_groups):
        for key, value in vars(g).items():
            assert np.asarray(vars(g2)[key]).tobytes() == \
                np.asarray(value).tobytes(), key


def test_counts_and_a_solve_build_no_per_entity_tuple():
    """The per-entity tuples are built on first read, and neither the
    counts nor a full solve read one."""
    from polyddr.scheme import assemble, error_norms, manufactured_problem, solve

    m = jittered_tet_mesh(2, 3)
    assert (m.num_faces, m.num_cells) == (120, 48)
    problem = manufactured_problem(m, 1)
    error_norms(problem, *solve(assemble(problem)))
    assert m._row_tuples == {}
    assert m.faces[7].base is not None and not m.faces[7].flags.writeable
    assert set(m._row_tuples) == {"faces"}
