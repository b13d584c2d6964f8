import json

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


def test_validate_false_accepts_corrupted():
    # the testing hook used to build negative controls downstream
    m = unit_cube_mesh()
    verts = m.vertices.copy()
    verts[0, 0] += 1e-3
    Mesh(verts, [f.tolist() for f in m.faces], [c.tolist() for c in m.cells],
         validate=False)


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
    assert m.shape_regularity()[0] > 0


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
