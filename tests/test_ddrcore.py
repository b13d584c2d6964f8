"""Discrete differential operators: polynomial consistency against the
independent polynomial oracle, dof-level identities, commutation with
interpolation, complex composition, and orientation negative controls."""

import copy

import numpy as np
import pytest

from polyddr.mesh import Mesh, generate_cubic_mesh, generate_tet_mesh, agglomerate_pairs
from polyddr import ddrcore
from polyddr.polyspaces import BasisBank, dim_P, l2_project
from polyddr.ddrcore import (
    make_space,
    interpolate,
    edge_reconstruct,
    op_grad_edge,
    op_grad_face,
    op_scalar_trace,
    op_grad_cell,
    op_curl_face,
    op_tangential_trace,
    op_curl_cell,
    op_div_cell,
    op_potential,
    global_operator,
)

from oracles import (Poly3, VecPoly3, layout_by_branches, link_identities_check,
                     local_complex_matrix)
from stacks import basis_of, entity, local_dofs, own_dofs, rule_of, sub_slice


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


MESHES = {
    "cube": lambda: generate_cubic_mesh(1),
    "tet": lambda: generate_tet_mesh(1),
    "pyr": lambda: pyramid_mesh(),
    "agglo": lambda: agglomerate_pairs(generate_cubic_mesh(2), seed=0),
}


@pytest.fixture(scope="module")
def ctx():
    meshes = {name: make() for name, make in MESHES.items()}
    cache = {}

    def spaces(name, k):
        key = (name, k)
        if key not in cache:
            mesh = meshes[name]
            bank = BasisBank(mesh, k)
            cache[key] = tuple(
                make_space(mesh, w, k, bank=bank)
                for w in ("grad", "curl", "div", "l2")
            )
        return cache[key]

    class Ctx:
        pass

    out = Ctx()
    out.meshes = meshes
    out.spaces = spaces
    return out


def big_cell(mesh):
    return int(np.argmax([len(c) for c in mesh.cells]))


CASES = [
    ("cube", 0, 0),
    ("cube", 1, 0),
    ("cube", 2, 0),
    ("tet", 0, 0),
    ("tet", 1, 0),
    ("tet", 2, 3),
    ("pyr", 0, 0),
    ("pyr", 1, 0),
    ("pyr", 2, 0),
    ("agglo", 0, None),
    ("agglo", 1, None),
]


def _cell_of(ctx, name, c):
    return big_cell(ctx.meshes[name]) if c is None else c


# ----------------------------------------------------------------------
# layout


def test_local_dof_counts_tet_and_hex(ctx):
    expected = {
        ("tet", 0): (4, 6, 4, 1),
        ("tet", 1): (15, 28, 18, 4),
        ("tet", 2): (32, 65, 44, 10),
        ("cube", 0): (8, 12, 6, 1),
        ("cube", 1): (27, 46, 24, 4),
        ("cube", 2): (54, 99, 56, 10),
    }
    for (name, k), dims in expected.items():
        got = tuple(
            len(local_dofs(s, "cell", 0)[0]) for s in ctx.spaces(name, k)
        )
        assert got == dims, (name, k, got)


def test_local_dof_counts_tet_and_hex_at_k3_k4():
    # the closed-form counts past criterion 1's k <= 2
    expected = {
        ("tet", 3): (56, 120, 85, 20),
        ("tet", 4): (88, 196, 144, 35),
        ("cube", 3): (90, 174, 105, 20),
        ("cube", 4): (136, 274, 174, 35),
    }
    for (name, k), dims in expected.items():
        mesh = MESHES[name]()
        got = tuple(len(local_dofs(make_space(mesh, w, k), "cell", 0)[0])
                    for w in ("grad", "curl", "div", "l2"))
        assert got == dims, (name, k, got)


@pytest.mark.parametrize("name", ["cubic2", "tet2", "agglo2", "pyr"])
def test_layout_matches_branch_oracle(name):
    mesh = {"cubic2": lambda: generate_cubic_mesh(2),
            "tet2": lambda: generate_tet_mesh(2),
            "agglo2": MESHES["agglo"], "pyr": pyramid_mesh}[name]()
    for k in range(5):
        bank = BasisBank(mesh, k)
        for which in ("grad", "curl", "div", "l2"):
            space = make_space(mesh, which, k, bank=bank)
            want = layout_by_branches(mesh, which, k)
            assert space.families == want.families, (which, k)
            assert {kind: [int(o) for o in offs] for kind, offs in
                    space.offsets.items()} == want.offsets, (which, k)
            assert space.width == want.width, (which, k)
            assert space.start == want.start, (which, k)
            assert space.dim == want.dim, (which, k)
            for kind in ("edge", "face", "cell"):
                for group in bank.groups(kind):
                    assert np.array_equal(space.group_dofs(group),
                                          want.group_dofs(group))


def test_global_dims_closed_form(ctx):
    mesh = generate_cubic_mesh(2)
    nv, ne, nf, nc = 27, 54, 36, 8
    for k in (0, 1, 2):
        bank = BasisBank(mesh, k)
        sg = make_space(mesh, "grad", k, bank=bank)
        sc = make_space(mesh, "curl", k, bank=bank)
        sd = make_space(mesh, "div", k, bank=bank)
        sl = make_space(mesh, "l2", k, bank=bank)
        assert sg.dim == nv + ne * k + nf * dim_P(k - 1, 2) + nc * dim_P(k - 1, 3)
        face_c = (dim_P(k, 2) - 1 if k else 0) + dim_P(k - 1, 2)
        cell_c = (3 * dim_P(k - 1, 3) - dim_P(k - 2, 3)) + dim_P(k - 1, 3)
        assert sc.dim == ne * (k + 1) + nf * face_c + nc * cell_c
        cell_d = (dim_P(k, 3) - 1 if k else 0) + (
            3 * dim_P(k - 1, 3) - dim_P(k - 2, 3)
        )
        assert sd.dim == nf * dim_P(k, 2) + nc * cell_d
        assert sl.dim == nc * dim_P(k, 3)


def test_make_space_builds_no_bases():
    mesh = generate_cubic_mesh(3)
    s = make_space(mesh, "curl", 1)
    assert s.dim > 0
    assert len(s.bank._cores) == 0
    assert len(s.bank._bases) == 0


# ----------------------------------------------------------------------
# polynomial consistency of the scalar chain


@pytest.mark.parametrize("name,k,c", CASES)
def test_scalar_chain_consistency(ctx, name, k, c):
    mesh = ctx.meshes[name]
    c = _cell_of(ctx, name, c)
    sg, _, _, _ = ctx.spaces(name, k)
    bank = sg.bank
    rng = np.random.default_rng(100 + 7 * k)
    q = Poly3.random(rng, k + 1)
    gq = q.grad()
    qi = interpolate(sg, lambda p: q.eval(p))
    scale = 1.0 + max(abs(v) for v in q.coeffs.values())

    for e in mesh.cell_edges[c][:4]:
        e = int(e)
        rule = rule_of(bank, "edge", e, 2 * k + 6)
        pts = rule.points[0]
        t = mesh.edge_tangents[e]
        rec = entity(edge_reconstruct, sg, "edge", e)
        got = rec.apply(qi.values) @ rec.target.eval(rule.points, rec.sel)[0]
        assert np.abs(got - q.eval(pts)).max() < 1e-11 * scale
        ge = entity(op_grad_edge, sg, "edge", e)
        got = ge.apply(qi.values) @ ge.target.eval(rule.points, ge.sel)[0]
        assert np.abs(got - gq.eval(pts) @ t).max() < 1e-11 * scale

    for f in [int(x) for x in mesh.cells[c][:4]]:
        rule = rule_of(bank, "face", f, 2 * k + 6)
        pts = rule.points[0]
        n = mesh.face_normals[f]
        gv = gq.eval(pts)
        gtan = gv - np.outer(gv @ n, n)
        gf = entity(op_grad_face, sg, "face", f)
        got = np.einsum(
            "s,spx->px", gf.apply(qi.values), gf.target.eval(rule.points, gf.sel)[0]
        )
        assert np.abs(got - gtan).max() < 1e-10 * scale
        tr = entity(op_scalar_trace, sg, "face", f)
        got = tr.apply(qi.values) @ tr.target.eval(rule.points, tr.sel)[0]
        assert np.abs(got - q.eval(pts)).max() < 1e-10 * scale

    rule = rule_of(bank, "cell", c, 2 * k + 6)
    pts = rule.points[0]
    gc = entity(op_grad_cell, sg, "cell", c)
    got = np.einsum(
        "s,spx->px", gc.apply(qi.values), gc.target.eval(rule.points, gc.sel)[0]
    )
    assert np.abs(got - gq.eval(pts)).max() < 1e-10 * scale
    pg = entity(op_potential, sg, "cell", c)
    got = pg.apply(qi.values) @ pg.target.eval(rule.points, pg.sel)[0]
    assert np.abs(got - q.eval(pts)).max() < 1e-10 * scale


@pytest.mark.parametrize("name,k", [("pyr", 0), ("pyr", 1), ("pyr", 2), ("agglo", 1)])
def test_scalar_trace_keeps_face_moments(ctx, name, k):
    # projecting the degree-(k+1) face trace back to the degree-(k-1)
    # face moments returns the input dofs, for every dof vector
    mesh = ctx.meshes[name]
    sg, _, _, _ = ctx.spaces(name, k)
    f = 0
    tr = entity(op_scalar_trace, sg, "face", f)
    nkeep = dim_P(k - 1, 2)
    if nkeep == 0:
        return
    want = np.zeros((nkeep, len(tr.dofs)))
    sl = tr.layout[("face", f)]
    want[:, sl] = np.eye(nkeep)
    assert np.abs(tr.matrix[:nkeep] - want).max() < 1e-11


@pytest.mark.parametrize("name,k", [("cube", 1), ("pyr", 2), ("agglo", 1)])
def test_grad_potential_keeps_cell_moments(ctx, name, k):
    mesh = ctx.meshes[name]
    c = big_cell(mesh) if name == "agglo" else 0
    sg, _, _, _ = ctx.spaces(name, k)
    pg = entity(op_potential, sg, "cell", c)
    nkeep = dim_P(k - 1, 3)
    want = np.zeros((nkeep, len(pg.dofs)))
    want[:, pg.layout[("cell", c)]] = np.eye(nkeep)
    assert np.abs(pg.matrix[:nkeep] - want).max() < 1e-11


# ----------------------------------------------------------------------
# polynomial consistency of the field chain


@pytest.mark.parametrize("name,k,c", CASES)
def test_field_chain_consistency(ctx, name, k, c):
    mesh = ctx.meshes[name]
    c = _cell_of(ctx, name, c)
    _, scu, _, _ = ctx.spaces(name, k)
    bank = scu.bank
    rng = np.random.default_rng(200 + 7 * k)
    v = VecPoly3.random(rng, k)
    cv = v.curl()
    vi = interpolate(scu, lambda p: v.eval(p))
    scale = 1.0 + max(
        abs(co) for comp in v.comps for co in comp.coeffs.values()
    )

    for f in [int(x) for x in mesh.cells[c][:4]]:
        rule = rule_of(bank, "face", f, 2 * k + 6)
        pts = rule.points[0]
        n = mesh.face_normals[f]
        # face rotation of the tangential part equals the normal
        # component of the curl
        cf = entity(op_curl_face, scu, "face", f)
        got = cf.apply(vi.values) @ cf.target.eval(rule.points, cf.sel)[0]
        want = cv.eval(pts) @ n
        assert np.abs(got - want).max() < 1e-10 * scale
        # tangential trace reproduces the tangential part
        gt = entity(op_tangential_trace, scu, "face", f)
        got = np.einsum(
            "s,spx->px", gt.apply(vi.values), gt.target.eval(rule.points, gt.sel)[0]
        )
        vv = v.eval(pts)
        vtan = vv - np.outer(vv @ n, n)
        assert np.abs(got - vtan).max() < 1e-10 * scale

    rule = rule_of(bank, "cell", c, 2 * k + 6)
    pts = rule.points[0]
    ct = entity(op_curl_cell, scu, "cell", c)
    got = np.einsum(
        "s,spx->px", ct.apply(vi.values), ct.target.eval(rule.points, ct.sel)[0]
    )
    assert np.abs(got - cv.eval(pts)).max() < 1e-10 * scale
    pc = entity(op_potential, scu, "cell", c)
    got = np.einsum(
        "s,spx->px", pc.apply(vi.values), pc.target.eval(rule.points, pc.sel)[0]
    )
    assert np.abs(got - v.eval(pts)).max() < 1e-10 * scale


@pytest.mark.parametrize("name,k", [("cube", 0), ("cube", 1), ("pyr", 1), ("pyr", 2)])
def test_field_chain_on_trimmed_fields(ctx, name, k):
    # consistency extends to the trimmed space one degree up
    mesh = ctx.meshes[name]
    c = 0
    _, scu, _, _ = ctx.spaces(name, k)
    bank = scu.bank
    ne, sel = basis_of(bank, "nedelec", "cell", c, k + 1)
    rng = np.random.default_rng(77)
    a = rng.standard_normal(ne.dim)

    field = lambda p: np.einsum("s,spx->px", a, ne.eval(p[None], sel)[0])
    vi = interpolate(scu, field)

    rule = rule_of(bank, "cell", c, 2 * k + 6)
    ct = entity(op_curl_cell, scu, "cell", c)
    got = np.einsum(
        "s,spx->px", ct.apply(vi.values), ct.target.eval(rule.points, ct.sel)[0]
    )
    want = np.einsum("s,spx->px", a, ne.curl(rule.points, sel)[0])
    scale = 1.0 + np.abs(want).max()
    assert np.abs(got - want).max() < 1e-10 * scale

    for f in [int(x) for x in mesh.cells[c][:3]]:
        frule = rule_of(bank, "face", f, 2 * k + 6)
        n = mesh.face_normals[f]
        gt = entity(op_tangential_trace, scu, "face", f)
        got = np.einsum(
            "s,spx->px", gt.apply(vi.values), gt.target.eval(frule.points, gt.sel)[0]
        )
        vb, fs = basis_of(bank, "vector", "face", f, k)
        coef = l2_project(vb, field, frule, fs)[0]
        want = np.einsum("s,spx->px", coef, vb.eval(frule.points, fs)[0])
        assert np.abs(got - want).max() < 1e-9 * scale


@pytest.mark.parametrize("name,k", [("cube", 1), ("pyr", 1), ("agglo", 1), ("pyr", 2)])
def test_field_potential_keeps_complement_moments(ctx, name, k):
    mesh = ctx.meshes[name]
    c = big_cell(mesh) if name == "agglo" else 0
    _, scu, _, _ = ctx.spaces(name, k)
    bank = scu.bank
    pc = entity(op_potential, scu, "cell", c)
    cc, sel = basis_of(bank, "curl_complement", "cell", c, k)
    if cc.dim == 0:
        return
    proj = cc._Ws[sel][0] @ pc.matrix
    want = np.zeros_like(proj)
    want[:, sub_slice(scu, pc.layout, "cell", c, 1)] = np.eye(cc.dim)
    assert np.abs(proj - want).max() < 1e-11


@pytest.mark.parametrize("name,k", [("cube", 0), ("pyr", 1), ("agglo", 1)])
def test_field_potential_parts_extension(ctx, name, k):
    # the defining equation of the field potential extends from curls of
    # the radial complement to curls of the whole trimmed space
    mesh = ctx.meshes[name]
    c = big_cell(mesh) if name == "agglo" else 0
    _, scu, _, _ = ctx.spaces(name, k)
    bank = scu.bank
    rule = rule_of(bank, "cell", c)
    ne, sel = basis_of(bank, "nedelec", "cell", c, k + 1)
    pc = entity(op_potential, scu, "cell", c)
    ct = entity(op_curl_cell, scu, "cell", c)
    pos = {int(g): i for i, g in enumerate(pc.dofs)}

    X1 = np.einsum(
        "ipx,mpx,p->im", ne.curl(rule.points, sel)[0],
        pc.target.eval(rule.points, pc.sel)[0], rule.weights[0],
    )
    lhs = X1 @ pc.matrix
    rhs = ne._Ws[sel][0][:, : ct.target.dim] @ ct.matrix
    for fi, f in enumerate(mesh.cells[c]):
        f = int(f)
        gt = entity(op_tangential_trace, scu, "face", f)
        frule = rule_of(bank, "face", f)
        n = mesh.face_normals[f]
        wtf = mesh.cell_face_signs[c][fi]
        zxn = np.cross(ne.eval(frule.points, sel)[0], n[None, None, :])
        T = np.einsum(
            "ipx,mpx,p->im", zxn, gt.target.eval(frule.points, gt.sel)[0],
            frule.weights[0]
        )
        cols = [pos[int(g)] for g in gt.dofs]
        rhs[:, cols] -= wtf * (T @ gt.matrix)
    assert np.abs(lhs - rhs).max() < 1e-11


# ----------------------------------------------------------------------
# polynomial consistency of the flux chain


@pytest.mark.parametrize("name,k,c", CASES)
def test_flux_chain_consistency(ctx, name, k, c):
    mesh = ctx.meshes[name]
    c = _cell_of(ctx, name, c)
    _, _, sd, _ = ctx.spaces(name, k)
    bank = sd.bank
    rng = np.random.default_rng(300 + 7 * k)
    w = VecPoly3.random(rng, k + 2)
    dw = w.div()
    wi = interpolate(sd, lambda p: w.eval(p))
    scale = 1.0 + max(
        abs(co) for comp in w.comps for co in comp.coeffs.values()
    )

    rule = rule_of(bank, "cell", c, 2 * k + 6)
    dt = entity(op_div_cell, sd, "cell", c)
    got = dt.apply(wi.values) @ dt.target.eval(rule.points, dt.sel)[0]
    sb, sel = basis_of(bank, "scalar", "cell", c, k)
    want = (l2_project(sb, lambda p: dw.eval(p), rule, sel)[0]
            @ sb.eval(rule.points, sel)[0])
    assert np.abs(got - want).max() < 1e-10 * scale


@pytest.mark.parametrize("name,k", [("cube", 0), ("cube", 1), ("pyr", 2), ("agglo", 1)])
def test_flux_potential_on_trimmed_fields(ctx, name, k):
    mesh = ctx.meshes[name]
    c = big_cell(mesh) if name == "agglo" else 0
    _, _, sd, _ = ctx.spaces(name, k)
    bank = sd.bank
    rt, rs = basis_of(bank, "raviart_thomas", "cell", c, k + 1)
    rng = np.random.default_rng(88)
    a = rng.standard_normal(rt.dim)
    field = lambda p: np.einsum("s,spx->px", a, rt.eval(p[None], rs)[0])
    wi = interpolate(sd, field)

    rule = rule_of(bank, "cell", c, 2 * k + 6)
    pd = entity(op_potential, sd, "cell", c)
    got = np.einsum(
        "s,spx->px", pd.apply(wi.values), pd.target.eval(rule.points, pd.sel)[0]
    )
    vb, sel = basis_of(bank, "vector", "cell", c, k)
    coef = l2_project(vb, field, rule, sel)[0]
    want = np.einsum("s,spx->px", coef, vb.eval(rule.points, sel)[0])
    scale = 1.0 + np.abs(want).max()
    assert np.abs(got - want).max() < 1e-9 * scale


@pytest.mark.parametrize("name,k", [("pyr", 1), ("agglo", 1)])
def test_flux_potential_keeps_complement_moments(ctx, name, k):
    mesh = ctx.meshes[name]
    c = big_cell(mesh) if name == "agglo" else 0
    _, _, sd, _ = ctx.spaces(name, k)
    bank = sd.bank
    pd = entity(op_potential, sd, "cell", c)
    cg, sel = basis_of(bank, "grad_complement", "cell", c, k)
    if cg.dim == 0:
        return
    proj = cg._Ws[sel][0] @ pd.matrix
    want = np.zeros_like(proj)
    want[:, sub_slice(sd, pd.layout, "cell", c, 1)] = np.eye(cg.dim)
    assert np.abs(proj - want).max() < 1e-11


# ----------------------------------------------------------------------
# dof-level identities


@pytest.mark.parametrize("name,k,c", CASES)
def test_link_identities(ctx, name, k, c):
    c = _cell_of(ctx, name, c)
    sg, scu, sd, _ = ctx.spaces(name, k)
    links = link_identities_check(sg, scu, sd, c)
    for key, val in links.items():
        assert val < 1e-10, (key, val)


@pytest.mark.parametrize("name,k", [("pyr", 0), ("pyr", 1), ("pyr", 2)])
def test_face_rotation_kills_gradients(ctx, name, k):
    # assembling the discrete gradient into a face and applying the face
    # rotation gives zero for every dof vector, and the tangential trace
    # of a gradient is the face gradient itself
    mesh = ctx.meshes[name]
    sg, scu, _, _ = ctx.spaces(name, k)
    f = 1
    gf = entity(op_grad_face, sg, "face", f)
    idx_c, lay_c = local_dofs(scu, "face", f)
    pos = {int(g): i for i, g in enumerate(idx_c)}
    M = np.zeros((len(idx_c), len(gf.dofs)))
    for e in [int(x) for x in mesh.face_edges[f]]:
        ge = entity(op_grad_edge, sg, "edge", e)
        cols = [list(gf.dofs).index(g) for g in ge.dofs]
        M[np.ix_(range(*lay_c[("edge", e)].indices(len(idx_c))), cols)] = ge.matrix
    bank = scu.bank
    for i, (fam, l) in enumerate(scu.families["face"]):
        b, sel = basis_of(bank, fam, "face", f, l)
        if b.dim == 0:
            continue
        W = np.zeros((b.dim, gf.target.dim))
        W[:, : b._Ws.shape[2]] = b._Ws[sel][0]
        sl = sub_slice(scu, lay_c, "face", f, i)
        M[sl] = W @ gf.matrix

    cf = entity(op_curl_face, scu, "face", f)
    assert np.abs(cf.matrix @ M).max() < 1e-11
    gt = entity(op_tangential_trace, scu, "face", f)
    assert np.abs(gt.matrix @ M - gf.matrix).max() < 1e-10


@pytest.mark.parametrize("name,k", [("cube", 0), ("cube", 1), ("tet", 1), ("agglo", 0), ("agglo", 1)])
def test_global_complex_compositions_vanish(ctx, name, k):
    sg, scu, sd, sl = ctx.spaces(name, k)
    uG = global_operator(sg, scu)
    uC = global_operator(scu, sd)
    D = global_operator(sd, sl)
    m1 = uC @ uG
    m2 = D @ uC
    r1 = np.abs(m1.data).max() if m1.nnz else 0.0
    r2 = np.abs(m2.data).max() if m2.nnz else 0.0
    assert r1 < 1e-10
    assert r2 < 1e-10


def test_local_complex_matrix_matches_global(ctx):
    sg, scu, sd, _ = ctx.spaces("pyr", 1)
    uG = global_operator(sg, scu)
    loc = local_complex_matrix(sg, scu, 0)
    idx_out, _ = local_dofs(scu, "cell", 0)
    idx_in, _ = local_dofs(sg, "cell", 0)
    dense = uG[np.ix_(idx_out, idx_in)].toarray()
    assert np.abs(dense - loc).max() < 1e-13


# ----------------------------------------------------------------------
# commutation with interpolation on smooth fields


@pytest.mark.parametrize("k", [0, 1])
def test_commutation_smooth_fields(k):
    mesh = generate_cubic_mesh(2)
    bank = BasisBank(mesh, k)
    sg = make_space(mesh, "grad", k, bank=bank)
    scu = make_space(mesh, "curl", k, bank=bank)
    sd = make_space(mesh, "div", k, bank=bank)
    sl = make_space(mesh, "l2", k, bank=bank)

    q = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]) * p[:, 2]
    gq = lambda p: np.stack(
        [
            np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]) * p[:, 2],
            np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]) * p[:, 2],
            np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
        ],
        axis=-1,
    )
    deg = 2 * k + 8
    uG = global_operator(sg, scu)
    lhs = uG @ interpolate(sg, q, degree=deg).values
    rhs = interpolate(scu, gq, degree=deg).values
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() < 1e-8 * scale

    v = lambda p: np.stack(
        [
            np.sin(np.pi * p[:, 1]) * p[:, 2],
            np.cos(np.pi * p[:, 2]),
            p[:, 0] * np.sin(np.pi * p[:, 1]),
        ],
        axis=-1,
    )
    cv = lambda p: np.stack(
        [
            p[:, 0] * np.pi * np.cos(np.pi * p[:, 1]) + np.pi * np.sin(np.pi * p[:, 2]),
            np.sin(np.pi * p[:, 1]) - np.sin(np.pi * p[:, 1]),
            -np.pi * np.cos(np.pi * p[:, 1]) * p[:, 2],
        ],
        axis=-1,
    )
    uC = global_operator(scu, sd)
    lhs = uC @ interpolate(scu, v, degree=deg).values
    rhs = interpolate(sd, cv, degree=deg).values
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() < 1e-8 * scale

    w = v
    dw = lambda p: np.zeros(len(p))
    D = global_operator(sd, sl)
    lhs = D @ interpolate(sd, w, degree=deg).values
    rhs = interpolate(sl, dw, degree=deg).values
    assert np.abs(lhs - rhs).max() < 1e-8


# ----------------------------------------------------------------------
# negative controls: corrupted orientation data must break the identities


def test_flipped_edge_sign_breaks_links():
    mesh = generate_cubic_mesh(1)
    hacked = copy.copy(mesh)
    signs = [s.copy() for s in mesh.face_edge_signs]
    signs[0][0] = -signs[0][0]
    hacked.face_edge_signs = tuple(signs)

    bank = BasisBank(hacked, 1)
    sg = make_space(hacked, "grad", 1, bank=bank)
    scu = make_space(hacked, "curl", 1, bank=bank)
    sd = make_space(hacked, "div", 1, bank=bank)
    links = link_identities_check(sg, scu, sd, 0)
    assert links["grad_link"] > 1e-6


def test_flipped_face_sign_breaks_links():
    mesh = generate_cubic_mesh(1)
    hacked = copy.copy(mesh)
    signs = [s.copy() for s in mesh.cell_face_signs]
    signs[0][0] = -signs[0][0]
    hacked.cell_face_signs = tuple(signs)

    bank = BasisBank(hacked, 1)
    sg = make_space(hacked, "grad", 1, bank=bank)
    scu = make_space(hacked, "curl", 1, bank=bank)
    sd = make_space(hacked, "div", 1, bank=bank)
    links = link_identities_check(sg, scu, sd, 0)
    assert max(links["grad_link"], links["curl_link"]) > 1e-6


# ----------------------------------------------------------------------
# failures name the operator, the entity and the measured quantity


GUARDED = [
    ("grad", "edge", edge_reconstruct, None, "edge reconstruction"),
    ("grad", "face", op_scalar_trace, op_grad_face, "scalar face trace"),
    ("curl", "face", op_tangential_trace, op_curl_face, "tangential face trace"),
    ("grad", "cell", op_potential, op_grad_cell, "scalar potential on cell"),
    ("curl", "cell", op_potential, op_curl_cell, "field potential on cell"),
    ("div", "cell", op_potential, op_div_cell, "flux potential on cell"),
]


@pytest.mark.parametrize("which,kind,op,prerequisite,label", GUARDED,
                         ids=[g[-1].replace(" ", "_") for g in GUARDED])
def test_guarded_solve_names_operator(monkeypatch, which, kind, op,
                                      prerequisite, label):
    mesh = generate_tet_mesh(1)
    recorded = make_space(mesh, which, 1)
    # tet:1 has one group per kind, so the recorded worst is its group's
    (group,) = recorded.bank.groups(kind)
    op(recorded, group)
    cond, worst = recorded.worst_cond[label]
    space = make_space(mesh, which, 1, bank=recorded.bank)
    if prerequisite is not None:
        prerequisite(space, group)
    # every condition number is >= 1, so each guarded solve now fails
    monkeypatch.setattr(ddrcore, "COND_LIMIT", 0.5)
    with pytest.raises(RuntimeError) as err:
        op(space, group)
    msg = str(err.value)
    assert msg.startswith(f"{label} {worst}: "), msg
    assert f"condition number {cond:.3e} exceeds" in msg, msg


def test_worst_condition_numbers_are_recorded():
    mesh = generate_tet_mesh(1)
    spaces = {w: make_space(mesh, w, 1) for w in ("grad", "curl", "div")}
    for space in spaces.values():
        entity(op_potential, space, "cell", 2)
    counts = {"edge": mesh.num_edges, "face": mesh.num_faces,
              "cell": mesh.num_cells}
    labels = {
        "grad": {"edge reconstruction": "edge", "scalar face trace": "face",
                 "scalar potential on cell": "cell"},
        "curl": {"tangential face trace": "face",
                 "field potential on cell": "cell"},
        "div": {"flux potential on cell": "cell"},
    }
    for which, expected in labels.items():
        worst = spaces[which].worst_cond
        assert set(worst) == set(expected)
        for label, kind in expected.items():
            cond, index = worst[label]
            assert np.isfinite(cond) and cond >= 1.0, (label, cond)
            assert isinstance(index, int) and 0 <= index < counts[kind]


def _edge_reconstruction_conds(space):
    """Condition numbers of the edge reconstruction systems, built in the
    test from the public edge bases."""
    mesh, k = space.mesh, space.k
    conds = []
    for e in range(mesh.num_edges):
        b, sel = basis_of(space.bank, "scalar", "edge", e, k + 1)
        V = b.eval(mesh.vertices[mesh.edges[[e]]], sel)[0]
        M = np.zeros((k + 2, k + 2))
        M[:2] = V.T
        M[2 + np.arange(k), np.arange(k)] = 1.0
        conds.append(np.linalg.cond(M))
    return np.array(conds)


def _long_edge_first(mesh):
    """The same mesh with its vertices renumbered so that edge 0 (edges
    are numbered in sorted vertex-pair order) is a longest edge, whose
    reconstruction is the best conditioned."""
    a, b = mesh.edges[int(np.argmax(mesh.edge_lengths))]
    order = [a, b] + [v for v in range(mesh.num_vertices) if v not in (a, b)]
    new = np.empty(mesh.num_vertices, dtype=int)
    new[order] = np.arange(mesh.num_vertices)
    data = mesh.to_dict()
    return Mesh(np.array(data["vertices"])[order],
                [new[f].tolist() for f in data["faces"]], data["cells"])


def test_group_guard_names_the_worst_failing_entity(monkeypatch):
    mesh = _long_edge_first(generate_tet_mesh(2))
    conds = _edge_reconstruction_conds(make_space(mesh, "grad", 1))
    # edges of three lengths: three condition levels, apart beyond roundoff;
    # the group's first edge is not among the worst
    levels = np.unique(np.round(conds, 6))
    assert len(levels) == 3 and levels[1] > 1.01 * levels[0]
    assert conds[0] < levels[2] - 1e-3
    limit = np.sqrt(levels[0] * levels[1])
    passing = int(np.argmin(conds))

    recorded = make_space(mesh, "grad", 1)
    entity(edge_reconstruct, recorded, "edge", passing)
    cond, worst = recorded.worst_cond["edge reconstruction"]
    assert cond == pytest.approx(conds.max(), rel=1e-12)
    assert conds[worst] == pytest.approx(conds.max(), rel=1e-12)

    monkeypatch.setattr(ddrcore, "COND_LIMIT", limit)
    with pytest.raises(RuntimeError) as err:
        entity(edge_reconstruct, make_space(mesh, "grad", 1), "edge", passing)
    assert str(err.value).startswith(f"edge reconstruction {worst}: "), err.value
    assert "condition number" in str(err.value)


def _merged_cubic_mesh():
    """generate_cubic_mesh(2) with cells 0 and 1 merged across their shared
    face: one 1 x 1 x 2 box beside six hexahedra."""
    data = generate_cubic_mesh(2).to_dict()
    cells = [list(c) for c in data["cells"]]
    shared = set(cells[0]) & set(cells[1])
    assert len(shared) == 1
    merged = [f for f in cells[0] + cells[1] if f not in shared]
    cells = [merged] + cells[2:]
    keep = [f for f in range(len(data["faces"])) if f not in shared]
    renumber = {f: i for i, f in enumerate(keep)}
    return Mesh(np.array(data["vertices"]), [data["faces"][f] for f in keep],
                [[renumber[f] for f in c] for c in cells])


MIXED = {
    "merged_cubic2": _merged_cubic_mesh,
    "agglo3": lambda: agglomerate_pairs(generate_cubic_mesh(3), seed=0),
}


@pytest.mark.parametrize("name", sorted(MIXED))
def test_mixed_signatures_keep_the_complex(name):
    from polyddr.verification import check_complex, check_polynomial_consistency

    mesh = MIXED[name]()
    sizes = sorted(len(g) for g in BasisBank(mesh, 0).groups("cell"))
    assert sizes == ([1, 6] if name == "merged_cubic2" else [3, 12])
    for k in (0, 1, 2):
        bank = BasisBank(mesh, k)
        spaces = [make_space(mesh, w, k, bank=bank) for w in ("grad", "curl", "div")]
        for c in range(mesh.num_cells):
            for key, val in link_identities_check(*spaces, c).items():
                assert val < 1e-10, (k, c, key, val)
        assert check_polynomial_consistency(mesh, k, bank=bank).passed, k
        assert check_complex(mesh, k, bank=bank).passed, k


@pytest.mark.parametrize("name", sorted(MIXED))
def test_first_touch_order_does_not_change_local_matrices(name):
    from polyddr.products import stabilization

    mesh = MIXED[name]()
    last = mesh.num_cells - 1
    for which in ("grad", "curl", "div"):
        a = make_space(mesh, which, 1)
        b = make_space(mesh, which, 1)
        entity(op_potential, a, "cell", 0)
        entity(stabilization, b, "cell", last)
        if which != "div":
            trace = op_scalar_trace if which == "grad" else op_tangential_trace
            entity(trace, b, "face", mesh.num_faces - 1)
        for c in range(mesh.num_cells):
            for op in (op_potential, stabilization):
                assert np.array_equal(entity(op, a, "cell", c).matrix,
                                      entity(op, b, "cell", c).matrix)
        for f in range(mesh.num_faces):
            op = {"grad": op_scalar_trace, "curl": op_tangential_trace,
                  "div": None}[which]
            if op is not None:
                assert np.array_equal(entity(op, a, "face", f).matrix,
                                      entity(op, b, "face", f).matrix)


# ----------------------------------------------------------------------
# interpolation sanity


def test_interpolate_l2_space_is_projection(ctx):
    mesh = ctx.meshes["pyr"]
    _, _, _, sl = ctx.spaces("pyr", 2)
    rng = np.random.default_rng(41)
    q = Poly3.random(rng, 2)
    qi = interpolate(sl, lambda p: q.eval(p))
    b, sel = basis_of(sl.bank, "scalar", "cell", 0, 2)
    rule = rule_of(sl.bank, "cell", 0, 8)
    got = qi.values[own_dofs(sl, "cell", 0)] @ b.eval(rule.points, sel)[0]
    assert np.abs(got - q.eval(rule.points[0])).max() < 1e-11


@pytest.mark.parametrize("case", ["another mesh", "a larger mesh",
                                  "another degree"])
def test_space_rejects_a_bank_of_another_mesh_or_degree(case):
    """A bank serves only the mesh and degree it is built for: one built
    for an equal mesh scaled by 2 gave a wrong product silently, one of a
    larger mesh an IndexError deep in the boundary loop. The error names
    both."""
    mesh = generate_cubic_mesh(2)
    data = mesh.to_dict()
    scaled = Mesh(2 * np.array(data["vertices"]), data["faces"], data["cells"])
    bank = {"another mesh": BasisBank(mesh, 0),
            "a larger mesh": BasisBank(generate_cubic_mesh(3), 0),
            "another degree": BasisBank(scaled, 1)}[case]
    with pytest.raises(ValueError) as err:
        make_space(scaled, "div", 0, bank=bank)
    msg = str(err.value)
    assert msg == (f"the basis bank is built for degree {bank.k} on mesh "
                   f"{id(bank.mesh):#x} ({bank.mesh.num_cells} cells), the div "
                   f"space for degree 0 on mesh {id(scaled):#x} (8 cells)"), msg
    assert make_space(scaled, "div", 0, bank=BasisBank(scaled, 0)).dim


def test_dof_vector_shape_guard(ctx):
    sg, _, _, _ = ctx.spaces("cube", 0)
    from polyddr.ddrcore import DofVector

    with pytest.raises(ValueError):
        DofVector(sg, np.zeros(sg.dim + 1))
