import numpy as np
import pytest
import sympy as sp

import oracles
from polyddr.mesh import (
    Mesh,
    agglomerate_pairs,
    generate_cubic_mesh,
    generate_tet_mesh,
)
from polyddr.quadrature import (
    _gauss01,
    _tet_ref,
    _triangle_ref,
    data_rule_size,
    entity_rule,
)


def integrate(rule, f):
    """Integral of a pointwise-evaluable scalar field by a rule stack of
    one."""
    return float(rule.weights[0] @ np.asarray(f(rule.points[0]), dtype=float))


def test_oracle_against_sympy():
    # validate the oracle module itself on two symbolic integrals
    x, y, z = sp.symbols("x y z")
    val = sp.integrate(
        x**2 * y, (z, 0, 1 - x - y), (y, 0, 1 - x), (x, 0, 1)
    )
    assert oracles.ref_tet_moment(2, 1, 0) == pytest.approx(float(val), rel=1e-14)
    tri = sp.integrate(x**3 * y**2, (y, 0, 1 - x), (x, 0, 1))
    assert oracles.ref_tri_moment(3, 2) == pytest.approx(float(tri), rel=1e-14)

    rng = np.random.default_rng(0)
    tet = rng.standard_normal((4, 3))
    p = oracles.Poly3({(1, 2, 0): 0.7, (0, 0, 3): -1.3, (1, 1, 1): 0.4})
    expr = 0.7 * x * y**2 - 1.3 * z**3 + 0.4 * x * y * z
    # symbolic integral over the mapped tetrahedron
    u, v, w = sp.symbols("u v w")
    sub = {
        var: tet[0][d]
        + (tet[1][d] - tet[0][d]) * u
        + (tet[2][d] - tet[0][d]) * v
        + (tet[3][d] - tet[0][d]) * w
        for d, var in enumerate((x, y, z))
    }
    jac = abs(np.linalg.det((tet[1:] - tet[0]).T))
    ref = sp.integrate(
        expr.subs(sub), (w, 0, 1 - u - v), (v, 0, 1 - u), (u, 0, 1)
    )
    assert oracles.integrate_poly_tet(p, tet) == pytest.approx(
        float(jac * ref), rel=1e-12
    )


@pytest.fixture(scope="module")
def meshes():
    return {
        "cubic": generate_cubic_mesh(2),
        "tet": generate_tet_mesh(1),
        "agglo": agglomerate_pairs(generate_cubic_mesh(2), seed=0),
    }


def test_weights_sum_to_measures(meshes):
    for m in meshes.values():
        for e in range(m.num_edges):
            r = entity_rule(m, "edge", e, 3)
            assert r.weights.sum() == pytest.approx(m.edge_lengths[e], rel=1e-13)
        for f in range(m.num_faces):
            r = entity_rule(m, "face", f, 3)
            assert r.weights.sum() == pytest.approx(m.face_areas[f], rel=1e-13)
        for c in range(m.num_cells):
            r = entity_rule(m, "cell", c, 3)
            assert r.weights.sum() == pytest.approx(m.cell_volumes[c], rel=1e-13)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8, 11])
def test_cell_monomial_exactness(meshes, degree):
    rng = np.random.default_rng(degree)
    for m in meshes.values():
        for c in [0, m.num_cells - 1]:
            rule = entity_rule(m, "cell", c, degree)
            p = oracles.Poly3.random(rng, degree)
            exact = oracles.integrate_poly_cell(p, m, c)
            got = integrate(rule, lambda pts: p.eval(pts))
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("degree", [0, 1, 2, 4, 7, 10])
def test_face_monomial_exactness(meshes, degree):
    rng = np.random.default_rng(100 + degree)
    for m in meshes.values():
        for f in [0, m.num_faces // 2]:
            rule = entity_rule(m, "face", f, degree)
            p = oracles.Poly3.random(rng, degree)
            exact = oracles.integrate_poly_face(p, m, f)
            got = integrate(rule, lambda pts: p.eval(pts))
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("degree", [0, 1, 3, 6, 9])
def test_edge_monomial_exactness(meshes, degree):
    rng = np.random.default_rng(200 + degree)
    m = meshes["tet"]
    for e in [0, m.num_edges - 1]:
        rule = entity_rule(m, "edge", e, degree)
        p = oracles.Poly3.random(rng, degree)
        exact = oracles.integrate_poly_segment(
            p, m.vertices[m.edges[e, 0]], m.vertices[m.edges[e, 1]]
        )
        got = integrate(rule, lambda pts: p.eval(pts))
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-14)


def convex_hull_mesh(rng):
    from scipy.spatial import ConvexHull

    pts = rng.standard_normal((14, 3))
    hull = ConvexHull(pts)
    used = np.unique(hull.simplices)
    remap = {int(v): i for i, v in enumerate(used)}
    return Mesh(
        pts[used],
        [[remap[int(v)] for v in tri] for tri in hull.simplices],
        [list(range(len(hull.simplices)))],
    )


def test_general_position_polyhedron():
    rng = np.random.default_rng(42)
    m = convex_hull_mesh(rng)
    p = oracles.Poly3.random(rng, 6)
    rule = entity_rule(m, "cell", 0, 6)
    exact = oracles.integrate_poly_cell(p, m, 0)
    assert integrate(rule, lambda q: p.eval(q)) == pytest.approx(exact, rel=1e-11)


def test_unit_cube_basics():
    m = generate_cubic_mesh(1)
    r0 = entity_rule(m, "cell", 0, 0)
    assert r0.weights.sum() == pytest.approx(1.0, rel=1e-14)
    # odd symmetry about the center kills this product
    r4 = entity_rule(m, "cell", 0, 4)
    val = integrate(
        r4,
        lambda p: (p[:, 0] - 0.5) ** 2 * (p[:, 1] - 0.5) * (p[:, 2] - 0.5),
    )
    assert abs(val) < 1e-15


def test_square_face_moment():
    m = generate_cubic_mesh(1)
    # pick the face lying in the z=0 plane
    f = next(
        f for f in range(m.num_faces)
        if abs(abs(m.face_normals[f, 2]) - 1) < 1e-12
        and abs(m.face_centroids[f, 2]) < 1e-12
    )
    r = entity_rule(m, "face", f, 4)
    val = integrate(r, lambda p: p[:, 0] ** 2 * p[:, 1] ** 2)
    assert val == pytest.approx(1.0 / 9.0, rel=1e-13)


def test_trig_integral_on_cube():
    m = generate_cubic_mesh(1)
    r = entity_rule(m, "cell", 0, 10)
    val = integrate(r, lambda p: np.sin(np.pi * p[:, 0]))
    assert val == pytest.approx(2.0 / np.pi, abs=1e-6)


def test_refinement_additivity():
    p = oracles.Poly3({(2, 1, 0): 1.0, (0, 0, 3): 2.0, (1, 1, 1): -0.5})
    exact = oracles.integrate_poly_unit_cube(p)
    for n in (1, 2, 3):
        m = generate_cubic_mesh(n)
        total = sum(
            integrate(entity_rule(m, "cell", c, 3), lambda q: p.eval(q))
            for c in range(m.num_cells)
        )
        assert total == pytest.approx(exact, rel=1e-12)


def test_invalid_inputs():
    m = generate_cubic_mesh(1)
    with pytest.raises(ValueError):
        entity_rule(m, "cell", 0, -1)
    with pytest.raises(ValueError):
        entity_rule(m, "volume", 0, 2)


def test_every_rule_is_stacked():
    """An id gives a rule stack of one, equal to its row of a longer
    stack; no call returns unstacked points."""
    m = generate_tet_mesh(1)
    for kind in ("edge", "face", "cell"):
        one = entity_rule(m, kind, 2, 3)
        assert one.points.ndim == 3 and len(one.points) == 1
        stack = entity_rule(m, kind, [0, 2], 3)
        assert np.array_equal(stack.points[1], one.points[0])
        assert np.array_equal(stack.weights[1:], one.weights)


def test_rule_immutable():
    m = generate_cubic_mesh(1)
    r = entity_rule(m, "cell", 0, 2)
    with pytest.raises(ValueError):
        r.weights[0] = 0.0


def test_reference_rules_are_cached_and_read_only():
    for make, arg in ((_gauss01, 3), (_triangle_ref, 4), (_tet_ref, 4)):
        points, weights = make(arg)
        assert make(arg)[0] is points
        for arr in (points, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_rules_of_one_degree_differ_between_entities(meshes):
    m = meshes["tet"]
    for kind in ("edge", "face", "cell"):
        a = entity_rule(m, kind, 0, 4)
        b = entity_rule(m, kind, 1, 4)
        assert a.points.shape == b.points.shape
        assert not np.allclose(a.points, b.points)


def pyramid_mesh():
    verts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.1, 0.0, 0.0],
            [1.0, 1.2, 0.0],
            [0.0, 0.9, 0.0],
            [0.3, 0.4, 0.9],
        ]
    )
    faces = [[0, 3, 2, 1], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
    return Mesh(verts, faces, [[0, 1, 2, 3, 4]])


def pentagram_prism():
    """Prism over a pentagram outline whose inner radius is below the
    regular star's, so the polygon's kernel (a small central pentagon)
    touches none of its ten vertices: no vertex fan is valid, while the
    centroid fan is."""
    ang = np.pi / 2 + np.pi / 5 * np.arange(10)
    rad = np.where(np.arange(10) % 2 == 0, 1.0, 0.3)
    ring = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    verts = np.vstack([np.column_stack([ring, np.zeros(10)]),
                       np.column_stack([ring, np.ones(10)])])
    faces = [list(range(10)), list(range(10, 20))]
    faces += [[i, (i + 1) % 10, 10 + (i + 1) % 10, 10 + i] for i in range(10)]
    return Mesh(verts, faces, [list(range(12))])


POLY_MESHES = {
    "tet1": lambda: generate_tet_mesh(1),
    "cubic2": lambda: generate_cubic_mesh(2),
    "agglo2": lambda: agglomerate_pairs(generate_cubic_mesh(2), seed=0),
    "pyramid": pyramid_mesh,
    "hull": lambda: convex_hull_mesh(np.random.default_rng(42)),
}


def _centroid_fan_rule(m, kind, i, degree):
    """The centroid-fan rule written out with the arithmetic of the data
    rules, as the bit-for-bit reference."""
    if kind == "face":
        ref, wref = _triangle_ref(degree)
        tris = m.face_fans[i]
        p0 = tris[:, 0]
        d1 = tris[:, 1] - tris[:, 0]
        d2 = tris[:, 2] - tris[:, 0]
        pts = (
            p0[:, None, :]
            + ref[None, :, 0, None] * d1[:, None, :]
            + ref[None, :, 1, None] * d2[:, None, :]
        )
        wts = m.face_fan_area2[i][:, None] * wref[None, :]
    else:
        ref, wref = _tet_ref(degree)
        tets = m.cell_fans[i]
        pts = tets[:, 0][:, None, :] + ref @ (tets[:, 1:] - tets[:, :1])
        wts = m.cell_fan_vol6[i][:, None] * wref[None, :]
    return pts.reshape(-1, 3), wts.ravel()


@pytest.mark.parametrize("name", sorted(POLY_MESHES))
@pytest.mark.parametrize("degree", [0, 2, 5])
def test_polynomial_rules_are_exact_positive_and_coarse(name, degree):
    m = POLY_MESHES[name]()
    rng = np.random.default_rng(300 + degree)
    ntri = len(_triangle_ref(degree)[1])
    for kind in ("face", "cell"):
        count = m.num_faces if kind == "face" else m.num_cells
        for i in range(count):
            rule = entity_rule(m, kind, i, degree)
            assert (rule.weights > 0).all()
            p = oracles.Poly3.random(rng, degree)
            if kind == "face":
                exact = oracles.integrate_poly_face(p, m, i)
                assert len(rule) == ntri * (len(m.faces[i]) - 2)
            else:
                exact = oracles.integrate_poly_cell(p, m, i)
                if len(m.cell_vertices[i]) == 4:
                    assert len(rule) == len(_tet_ref(degree)[1])
                assert len(rule) < len(m.cell_fans[i]) * len(_tet_ref(degree)[1])
            got = integrate(rule, lambda q: p.eval(q))
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_hexahedra_take_six_tetrahedra():
    m = generate_cubic_mesh(2)
    for c in range(m.num_cells):
        assert len(entity_rule(m, "cell", c, 4)) == 6 * len(_tet_ref(4)[1])


@pytest.mark.parametrize("degree", [0, 2, 7])
def test_no_valid_vertex_fan_falls_back_to_the_centroid_fan(degree):
    m = pentagram_prism()
    rng = np.random.default_rng(400 + degree)
    for kind, i, oracle in (("face", 0, oracles.integrate_poly_face),
                            ("cell", 0, oracles.integrate_poly_cell)):
        rule = entity_rule(m, kind, i, degree)
        pts, wts = _centroid_fan_rule(m, kind, i, degree)
        assert np.array_equal(rule.points[0], pts)
        assert np.array_equal(rule.weights[0], wts)
        p = oracles.Poly3.random(rng, degree)
        got = integrate(rule, lambda q: p.eval(q))
        assert got == pytest.approx(oracle(p, m, i), rel=1e-12, abs=1e-14)
    # the side quads still have vertex fans
    assert len(entity_rule(m, "face", 2, degree)) == 2 * len(
        _triangle_ref(degree)[1])


@pytest.mark.parametrize("name", ["tet1", "agglo2", "pyramid"])
def test_data_rules_are_the_centroid_fan_rules(name):
    m = POLY_MESHES[name]()
    for degree in (0, 6, 9):
        for kind, count in (("face", m.num_faces), ("cell", m.num_cells)):
            for i in range(count):
                rule = entity_rule(m, kind, i, degree, data=True)
                pts, wts = _centroid_fan_rule(m, kind, i, degree)
                assert np.array_equal(rule.points[0], pts)
                assert np.array_equal(rule.weights[0], wts)
                assert data_rule_size(m, kind, i, degree) == len(rule)
    e = entity_rule(m, "edge", 0, 5, data=True)
    assert np.array_equal(e.points, entity_rule(m, "edge", 0, 5).points)
    assert data_rule_size(m, "edge", 0, 5) == len(e)


@pytest.mark.parametrize("name", ["tet1", "agglo2", "hull", "pentagram"])
def test_fans_are_searched_once_and_stacked_rules_are_bitwise(monkeypatch, name):
    from polyddr import quadrature

    calls = {"_face_fan": 0, "_cell_fan": 0}
    for fn in calls:
        def counted(mesh, group, _search=getattr(quadrature, fn), _fn=fn):
            calls[_fn] += 1
            return _search(mesh, group)
        monkeypatch.setattr(quadrature, fn, counted)
    m = pentagram_prism() if name == "pentagram" else POLY_MESHES[name]()
    counts = {"face": m.num_faces, "cell": m.num_cells}
    for degree in (0, 3, 6):
        for kind, count in counts.items():
            sizes = {}
            for i in range(count):
                rule = entity_rule(m, kind, i, degree)
                sizes.setdefault(len(rule), []).append((i, rule))
            # one stacked rule per fan size equals the per-entity rules
            for same in sizes.values():
                stack = entity_rule(m, kind, [i for i, _ in same], degree)
                for g, (_, rule) in enumerate(same):
                    assert np.array_equal(stack.points[g], rule.points[0])
                    assert np.array_equal(stack.weights[g], rule.weights[0])
    # one search per mesh entity group, for all degrees
    assert calls == {"_face_fan": len(m.face_groups),
                     "_cell_fan": len(m.cell_groups)}


def _signature_groups(m, kind):
    """Entity ids grouped by a per-entity signature, groups in order of
    their first entity: face valence and polynomial-rule fan size; for
    cells the valences and fan sizes of their faces in local order, their
    edge and vertex counts and their own fan size. A degree-0 rule has one
    point per fan simplex."""
    def fan(kind, i):
        return len(entity_rule(m, kind, i, 0))

    if kind == "edge":
        keys = [()] * m.num_edges
    elif kind == "face":
        keys = [(len(loop), fan("face", f)) for f, loop in enumerate(m.faces)]
    else:
        keys = [(tuple(len(m.faces[f]) for f in faces),
                 tuple(fan("face", f) for f in faces),
                 len(m.cell_edges[c]), len(m.cell_vertices[c]), fan("cell", c))
                for c, faces in enumerate(m.cells)]
    members = {}
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
    return list(members.values())


@pytest.mark.parametrize("name", sorted(POLY_MESHES) + ["agglo3", "pentagram"])
def test_entity_groups_follow_the_per_entity_signatures(name):
    from polyddr.polyspaces import BasisBank

    if name == "pentagram":
        m = pentagram_prism()
    elif name == "agglo3":
        m = agglomerate_pairs(generate_cubic_mesh(3), seed=0)
    else:
        m = POLY_MESHES[name]()
    bank = BasisBank(m, 0)
    per_entity = {
        "face": {"vertices": m.faces, "edges": m.face_edges,
                 "signs": m.face_edge_signs, "edge_normals": m.face_edge_normals},
        "cell": {"vertices": m.cell_vertices, "edges": m.cell_edges,
                 "faces": m.cells, "signs": m.cell_face_signs},
    }
    for kind in ("edge", "face", "cell"):
        want = _signature_groups(m, kind)
        groups = bank.groups(kind)
        assert [g.ids.tolist() for g in groups] == want
        for g in groups:
            for slot, i in enumerate(g.ids.tolist()):
                assert bank.group(kind, i) == (g, slot)
            for attr, rows in per_entity.get(kind, {}).items():
                stack = np.array([rows[i] for i in g.ids])
                assert np.array_equal(getattr(g, attr), stack), (kind, attr)
