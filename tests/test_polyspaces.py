"""Bases of polynomial spaces: orthonormality, dimensions, decompositions,
traces, and projection against an independent raw-monomial oracle."""

from fractions import Fraction

import numpy as np
import pytest

from polyddr import polyspaces
from polyddr.ddrcore import global_operator, make_space
from polyddr.mesh import Mesh, generate_cubic_mesh, generate_tet_mesh, agglomerate_pairs
from polyddr.quadrature import entity_rule
from polyddr.polyspaces import (
    BasisBank,
    _make_core,
    dim_P,
    space_dim,
    scalar_basis,
    vector_basis,
    subspace_basis,
    l2_project,
    recovery,
)
from polyddr.products import assemble_product

import oracles
from meshes import jittered_tet_mesh
from oracles import (
    Poly3,
    VecPoly3,
    count_monomials,
    integrate_poly_cell,
    integrate_products,
    isomorphism_matrix,
)
from stacks import basis_of


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


@pytest.fixture(scope="module")
def meshes():
    return {
        "cube": generate_cubic_mesh(1),
        "tet": generate_tet_mesh(1),
        "pyr": pyramid_mesh(),
        "agglo": agglomerate_pairs(generate_cubic_mesh(2), seed=0),
    }


def big_cell(mesh):
    counts = [len(c) for c in mesh.cells]
    return int(np.argmax(counts))


ENTITIES = [
    ("cube", "face", 0),
    ("pyr", "face", 0),
    ("pyr", "face", 1),
    ("cube", "cell", 0),
    ("tet", "cell", 0),
    ("pyr", "cell", 0),
]

VEC_FAMILIES = ["grad_image", "grad_complement", "curl_image", "curl_complement"]


# ----------------------------------------------------------------------
# dimensions


def test_dim_P_matches_enumeration():
    for d in (1, 2, 3):
        for l in range(6):
            assert dim_P(l, d) == count_monomials(l, d)
    assert dim_P(-1, 3) == 0


def test_space_dims_consistent_with_direct_sums():
    for d in (2, 3):
        for l in range(5):
            full = 2 * dim_P(l, 2) if d == 2 else 3 * dim_P(l, 3)
            assert (
                space_dim("grad_image", l, d)
                + space_dim("grad_complement", l, d)
                == full
            )
            assert (
                space_dim("curl_image", l, d)
                + space_dim("curl_complement", l, d)
                == full
            )


def test_classic_trimmed_dimensions():
    assert space_dim("nedelec", 1, 3) == 6
    assert space_dim("raviart_thomas", 1, 3) == 4
    assert space_dim("nedelec", 2, 3) == 20
    assert space_dim("raviart_thomas", 2, 3) == 15
    assert space_dim("nedelec", 1, 2) == 3
    assert space_dim("raviart_thomas", 1, 2) == 3


@pytest.mark.parametrize("name,kind,idx", ENTITIES)
@pytest.mark.parametrize("l", [0, 1, 2])
def test_subspace_dims_realized(meshes, name, kind, idx, l):
    mesh = meshes[name]
    d = 2 if kind == "face" else 3
    for fam in VEC_FAMILIES:
        b = subspace_basis(mesh, kind, idx, fam, l)
        assert b.dim == space_dim(fam, l, d)


# ----------------------------------------------------------------------
# orthonormality and prefix structure


@pytest.mark.parametrize(
    "name,kind,idx,l",
    [(*e, 3) for e in ENTITIES] + [(*e, 5) for e in ENTITIES],
    ids=[f"{n}-{k}-{i}" for n, k, i in ENTITIES]
    + [f"{n}-{k}-{i}-l5" for n, k, i in ENTITIES],
)
def test_scalar_gram_identity(meshes, name, kind, idx, l):
    mesh = meshes[name]
    rule = entity_rule(mesh, kind, idx, 2 * l + 2)
    b = scalar_basis(mesh, kind, [idx], l)
    V = b.eval(rule.points)[0]
    G = np.einsum("ip,jp,p->ij", V, V, rule.weights[0])
    assert np.abs(G - np.eye(b.dim)).max() < 1e-10


@pytest.mark.parametrize("name,kind,idx", ENTITIES)
@pytest.mark.parametrize("fam", VEC_FAMILIES)
def test_subspace_gram_identity(meshes, name, kind, idx, fam):
    mesh = meshes[name]
    l = 2
    b = subspace_basis(mesh, kind, idx, fam, l)
    if b.dim == 0:
        return
    rule = entity_rule(mesh, kind, [idx], 2 * l + 2)
    V = b.eval(rule.points)[0]
    G = np.einsum("ipx,jpx,p->ij", V, V, rule.weights[0])
    assert np.abs(G - np.eye(b.dim)).max() < 1e-10
    W = b._Ws[0]
    assert np.abs(W @ W.T - np.eye(b.dim)).max() < 1e-12


def test_first_member_is_normalized_constant(meshes):
    mesh = meshes["pyr"]
    b = scalar_basis(mesh, "cell", 0, 2)
    pts = mesh.cell_centroids[:1] + np.array(
        [[0.0, 0.0, 0.1], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]]
    )
    vals = b.eval(pts[None])[0, 0]
    vol = mesh.cell_volumes[0]
    assert np.allclose(vals, vol ** -0.5, rtol=1e-12)


def test_scalar_prefix_property(meshes):
    mesh = meshes["pyr"]
    rng = np.random.default_rng(3)
    pts = mesh.cell_centroids[0] + 0.2 * rng.standard_normal((7, 3))
    lo = scalar_basis(mesh, "cell", [0], 1).eval(pts[None])[0]
    hi = scalar_basis(mesh, "cell", [0], 3).eval(pts[None])[0]
    assert np.abs(hi[: len(lo)] - lo).max() < 1e-11


def test_trimmed_gram_matches_quadrature(meshes):
    mesh = meshes["pyr"]
    for fam in ("nedelec", "raviart_thomas"):
        b = subspace_basis(mesh, "cell", 0, fam, 2)
        assert not b.orthonormal
        rule = entity_rule(mesh, "cell", [0], 8)
        V = b.eval(rule.points)[0]
        G = np.einsum("ipx,jpx,p->ij", V, V, rule.weights[0])
        W = b._Ws[0]
        assert np.abs(G - W @ W.T).max() < 1e-10


# ----------------------------------------------------------------------
# derivative evaluations against finite differences


def _fd_setup(mesh, kind, index, family, l, seed, npts):
    """A pyramid basis, points near the entity's centroid (in its plane for
    a face), and the axes to difference along: Cartesian on the cell, the
    face frame on a face."""
    if family == "scalar":
        b = scalar_basis(mesh, kind, index, l)
    elif family == "vector":
        b = vector_basis(mesh, kind, index, l)
    else:
        b = subspace_basis(mesh, kind, index, family, l)
    if kind == "cell":
        x0, axes = mesh.cell_centroids[index], np.eye(3)
    else:
        x0, axes = mesh.face_centroids[index], mesh.face_frames[index]
    rng = np.random.default_rng(seed)
    pts = x0 + 0.15 * rng.standard_normal((npts, len(axes))) @ axes
    return b, pts, axes


def _fd_derivatives(b, pts, axes, h=1e-6):
    """Central differences of every member along each axis,
    (dim, npts, ..., naxes)."""
    return np.stack(
        [(b.eval((pts + h * e)[None])[0] - b.eval((pts - h * e)[None])[0])
         / (2 * h) for e in axes],
        axis=-1,
    )


@pytest.mark.parametrize("kind,family,l", [
    ("cell", "scalar", 3),
    ("cell", "zero_mean", 3),
    ("face", "zero_mean", 3),
])
def test_scalar_grad_matches_fd(meshes, kind, family, l):
    index = 0 if kind == "cell" else 1  # pyramid face 1 is tilted
    b, pts, axes = _fd_setup(meshes["pyr"], kind, index, family, l, 5, 5)
    fd = _fd_derivatives(b, pts, axes)
    assert np.abs(b.grad(pts[None])[0] @ axes.T - fd).max() < 1e-5


@pytest.mark.parametrize("kind,family,l", [
    ("cell", "vector", 2),
    ("cell", "grad_complement", 2),
    ("cell", "curl_complement", 2),
    ("cell", "curl_image", 1),
    ("cell", "raviart_thomas", 2),
    ("face", "curl_complement", 2),
    ("face", "raviart_thomas", 2),
])
def test_vector_div_curl_match_fd(meshes, kind, family, l):
    index = 0 if kind == "cell" else 1  # pyramid face 1 is tilted
    b, pts, axes = _fd_setup(meshes["pyr"], kind, index, family, l, 6, 4)
    # jac[i, p, component, a]: derivative along axes[a]
    jac = _fd_derivatives(b, pts, axes)
    div_fd = np.einsum("ipxa,ax->ip", jac, axes)
    assert np.abs(b.div(pts[None])[0] - div_fd).max() < 1e-5
    if kind == "cell":
        curl_fd = np.stack(
            [
                jac[:, :, 2, 1] - jac[:, :, 1, 2],
                jac[:, :, 0, 2] - jac[:, :, 2, 0],
                jac[:, :, 1, 0] - jac[:, :, 0, 1],
            ],
            axis=-1,
        )
        assert np.abs(b.curl(pts[None])[0] - curl_fd).max() < 1e-5


def test_face_members_are_tangent(meshes):
    mesh = meshes["pyr"]
    for f in range(mesh.num_faces):
        rule = entity_rule(mesh, "face", [f], 4)
        n = mesh.face_normals[f]
        for fam in VEC_FAMILIES:
            b = subspace_basis(mesh, "face", [f], fam, 2)
            if b.dim == 0:
                continue
            V = b.eval(rule.points)[0]
            assert np.abs(V @ n).max() < 1e-11


def test_stacked_tabulation_needs_stacked_points():
    """Unstacked points (npts, 3) raise on every tabulation method, naming
    the stacked shape, on a group stack and on a stack of one (where they
    used to give the entity's values without the stack axis). Stacked
    points give each entity its own values, and the selector sel the
    values of the entities it names."""
    mesh = generate_tet_mesh(1)
    bank = BasisBank(mesh, 1)
    group, slot = bank.group("cell", 1)
    assert len(group) > 1
    pts = mesh.cell_centroids[[1]]
    for stack in (group.ids, [1]):
        scalars = scalar_basis(mesh, "cell", stack, 1)
        vectors = vector_basis(mesh, "cell", stack, 1)
        for method in (scalars.eval, scalars.grad, vectors.eval, vectors.div,
                       vectors.curl):
            with pytest.raises(ValueError, match=r"pass \(G, npts, 3\)$"):
                method(pts)
    scalars = bank.group_basis(group, "scalar", 1)
    vectors = bank.group_basis(group, "vector", 1)
    stacked = np.broadcast_to(pts, (len(group), 1, 3))
    for method in (scalars.eval, scalars.grad, vectors.div, vectors.curl):
        assert np.array_equal(method(stacked)[slot],
                              method(stacked[[slot]], [slot])[0])


# ----------------------------------------------------------------------
# decompositions, hierarchy, recovery


@pytest.mark.parametrize("name,kind,idx", ENTITIES)
@pytest.mark.parametrize("pair", [("grad_image", "grad_complement"),
                                  ("curl_image", "curl_complement")])
@pytest.mark.parametrize("l", [1, 2])
def test_direct_sum_spans_full_space(meshes, name, kind, idx, pair, l):
    mesh = meshes[name]
    bs = subspace_basis(mesh, kind, [idx], pair[0], l)
    bc = subspace_basis(mesh, kind, [idx], pair[1], l)
    d = 2 if kind == "face" else 3
    full = (2 if d == 2 else 3) * dim_P(l, d)
    M = np.vstack([bs._Ws[0], bc._Ws[0]])
    assert M.shape == (full, full)
    assert np.linalg.cond(M) < 1e6

    rng = np.random.default_rng(11)
    a = rng.standard_normal(full)
    b = bs._Ws[0] @ a
    c = bc._Ws[0] @ a
    back = recovery(bs, bc, b[None], c[None])[0][0]
    assert np.abs(back - a).max() < 1e-9


@pytest.mark.parametrize("fam", ["grad_complement", "curl_complement"])
def test_complement_hierarchy_nested(meshes, fam):
    mesh = meshes["agglo"]
    c = big_cell(mesh)
    for l in (1, 2, 3):
        lo = subspace_basis(mesh, "cell", [c], fam, l - 1)._Ws[0]
        Whi = subspace_basis(mesh, "cell", [c], fam, l)._Ws[0]
        if len(lo) == 0:
            continue
        Wlo = np.zeros((len(lo), Whi.shape[1]))
        Wlo[:, : lo.shape[1]] = lo
        resid = Wlo - (Wlo @ Whi.T) @ Whi
        assert np.abs(resid).max() < 1e-10


def test_image_families_are_not_nested(meshes):
    # gradients of degree l+1 scalars are not contained in gradients of
    # degree l+2 scalars' complement; sanity check that the hierarchy
    # holds for complements only, by exhibiting a non-member
    mesh = meshes["cube"]
    lo = subspace_basis(mesh, "cell", [0], "curl_image", 0)._Ws[0]
    Whi = subspace_basis(mesh, "cell", [0], "curl_complement", 1)._Ws[0]
    Wlo = np.zeros((len(lo), Whi.shape[1]))
    Wlo[:, : lo.shape[1]] = lo
    resid = Wlo - (Wlo @ Whi.T) @ Whi
    assert np.abs(resid).max() > 0.1


# ----------------------------------------------------------------------
# bijective differential maps


@pytest.mark.parametrize("name,which,kind", [
    ("cube", "face_rot", "face"),
    ("pyr", "face_rot", "face"),
    ("cube", "face_div", "face"),
    ("pyr", "face_div", "face"),
    ("cube", "cell_div", "cell"),
    ("pyr", "cell_div", "cell"),
    ("agglo", "cell_div", "cell"),
    ("cube", "cell_curl", "cell"),
    ("pyr", "cell_curl", "cell"),
    ("agglo", "cell_curl", "cell"),
])
@pytest.mark.parametrize("l", [1, 2])
def test_isomorphism_matrices_invertible(meshes, name, which, kind, l):
    mesh = meshes[name]
    idx = big_cell(mesh) if (kind == "cell" and name == "agglo") else 0
    M = isomorphism_matrix(mesh, kind, idx, which, l)
    assert M.shape[0] == M.shape[1]
    if M.shape[0] == 0:
        return
    assert np.linalg.cond(M) < 1e5


# ----------------------------------------------------------------------
# traces of trimmed spaces


def _edge_poly_residual(mesh, e, vals, rule, degree):
    """Distance from scalar edge values to polynomials of the degree."""
    if degree < 0:
        return float(np.abs(vals).max()) if vals.size else 0.0
    B = scalar_basis(mesh, "edge", [e], degree).eval(rule.points)[0]
    coeff = B @ (rule.weights[0] * vals)
    return float(np.abs(vals - coeff @ B).max())


@pytest.mark.parametrize("name,f", [("cube", 0), ("pyr", 0), ("pyr", 2)])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_face_trimmed_edge_traces(meshes, name, f, l):
    mesh = meshes[name]
    ne = subspace_basis(mesh, "face", [f], "nedelec", l)
    rt = subspace_basis(mesh, "face", [f], "raviart_thomas", l)
    for j, e in enumerate(mesh.face_edges[f]):
        rule = entity_rule(mesh, "edge", [e], 2 * l + 2)
        t = mesh.edge_tangents[e]
        nfe = mesh.face_edge_normals[f][j]
        Vn = ne.eval(rule.points)[0]
        Vr = rt.eval(rule.points)[0]
        scale = 1.0 + max(np.abs(Vn).max(), np.abs(Vr).max())
        for i in range(ne.dim):
            r = _edge_poly_residual(mesh, e, Vn[i] @ t, rule, l - 1)
            assert r < 1e-9 * scale
        for i in range(rt.dim):
            r = _edge_poly_residual(mesh, e, Vr[i] @ nfe, rule, l - 1)
            assert r < 1e-9 * scale


@pytest.mark.parametrize("name", ["cube", "pyr", "agglo"])
@pytest.mark.parametrize("l", [1, 2])
def test_cell_trimmed_traces(meshes, name, l):
    mesh = meshes[name]
    c = big_cell(mesh) if name == "agglo" else 0
    ne = subspace_basis(mesh, "cell", [c], "nedelec", l)
    rt = subspace_basis(mesh, "cell", [c], "raviart_thomas", l)

    for e in mesh.cell_edges[c]:
        rule = entity_rule(mesh, "edge", [e], 2 * l + 2)
        t = mesh.edge_tangents[e]
        V = ne.eval(rule.points)[0]
        scale = 1.0 + np.abs(V).max()
        for i in range(ne.dim):
            r = _edge_poly_residual(mesh, e, V[i] @ t, rule, l - 1)
            assert r < 1e-9 * scale

    for f in mesh.cells[c]:
        rule = entity_rule(mesh, "face", [f], 2 * l + 4)
        n = mesh.face_normals[f]
        sw = np.sqrt(rule.weights[0])[:, None]

        # tangential rotation of edge-type members lies in the trimmed
        # normal-type face space: the remainder of its L2 projection, a
        # weighted least-squares fit of the face members' values, vanishes
        face_rt = subspace_basis(mesh, "face", [f], "raviart_thomas", l)
        V = ne.eval(rule.points)[0]
        B = face_rt.eval(rule.points)[0]
        A = (B * sw).reshape(len(B), -1).T
        scale = 1.0 + np.abs(V).max()
        for i in range(ne.dim):
            g = np.cross(V[i], n[None, :])
            coeff = np.linalg.lstsq(A, (g * sw).ravel(), rcond=None)[0]
            resid = g - np.einsum("s,spx->px", coeff, B)
            assert np.abs(resid).max() < 1e-9 * scale

        # normal component of face-type members is a scalar of degree l-1
        Bs = scalar_basis(mesh, "face", [f], l - 1).eval(rule.points)[0]
        V = rt.eval(rule.points)[0]
        scale = 1.0 + np.abs(V).max()
        for i in range(rt.dim):
            vals = V[i] @ n
            coeff = Bs @ (rule.weights[0] * vals)
            assert np.abs(vals - coeff @ Bs).max() < 1e-9 * scale


# ----------------------------------------------------------------------
# projections against an independent oracle


def test_projection_reproduces_members(meshes):
    mesh = meshes["agglo"]
    c = big_cell(mesh)
    rng = np.random.default_rng(17)
    for fam in VEC_FAMILIES:
        b = subspace_basis(mesh, "cell", [c], fam, 2)
        a = rng.standard_normal(b.dim)
        rule = entity_rule(mesh, "cell", [c], 6)
        f = lambda p: np.einsum("s,spx->px", a, b.eval(p[None])[0])
        back = l2_project(b, f, rule)[0]
        assert np.abs(back - a).max() < 1e-10


def test_scalar_projection_vs_raw_monomial_oracle(meshes):
    mesh = meshes["pyr"]
    rng = np.random.default_rng(23)
    f = Poly3.random(rng, 4)
    l = 2

    exps = [
        (a, b, c)
        for a in range(l + 1)
        for b in range(l + 1)
        for c in range(l + 1)
        if a + b + c <= l
    ]
    exps.sort()
    G = np.zeros((len(exps), len(exps)))
    rhs = np.zeros(len(exps))
    monos = [Poly3({e: 1.0}) for e in exps]
    for i, mi in enumerate(monos):
        rhs[i] = integrate_poly_cell(f * mi, mesh, 0)
        for j, mj in enumerate(monos):
            G[i, j] = integrate_poly_cell(mi * mj, mesh, 0)
    coef = np.linalg.solve(G, rhs)

    basis = scalar_basis(mesh, "cell", [0], l)
    rule = entity_rule(mesh, "cell", [0], 2 * 4)
    pkg = l2_project(basis, lambda p: f.eval(p), rule)[0]

    pts = mesh.cell_centroids[0] + 0.2 * rng.standard_normal((9, 3))
    oracle_vals = sum(c * m.eval(pts) for c, m in zip(coef, monos))
    pkg_vals = pkg @ basis.eval(pts[None])[0]
    assert np.abs(pkg_vals - oracle_vals).max() < 1e-9


@pytest.mark.parametrize("kind", ["face", "cell"])
@pytest.mark.parametrize("fam", ["nedelec", "raviart_thomas"])
def test_projection_needs_an_orthonormal_basis(meshes, kind, fam):
    """l2_project takes moments, the projection only on orthonormal
    members; the concatenated trimmed spaces raise where a Gram system used
    to be solved."""
    mesh = meshes["pyr"]
    b = subspace_basis(mesh, kind, [0], fam, 2)
    rule = entity_rule(mesh, kind, [0], 6)
    with pytest.raises(ValueError, match=f"orthonormal basis, not '{fam}'"):
        l2_project(b, lambda p: p, rule)


def test_face_projection_keeps_tangential_part(meshes):
    mesh = meshes["pyr"]
    rng = np.random.default_rng(29)
    v = VecPoly3.random(rng, 2)
    for f in (0, 1):
        n = mesh.face_normals[f]
        basis = vector_basis(mesh, "face", [f], 2)
        rule = entity_rule(mesh, "face", [f], 8)
        coeff = l2_project(basis, lambda p: v.eval(p), rule)[0]
        got = np.einsum("s,spx->px", coeff, basis.eval(rule.points)[0])
        full = v.eval(rule.points[0])
        tang = full - np.outer(full @ n, n)
        assert np.abs(got - tang).max() < 1e-10


def test_gradients_project_onto_image_family(meshes):
    mesh = meshes["agglo"]
    c = big_cell(mesh)
    rng = np.random.default_rng(31)
    q = Poly3.random(rng, 3)
    g = q.grad()
    b = subspace_basis(mesh, "cell", [c], "grad_image", 2)
    rule = entity_rule(mesh, "cell", [c], 8)
    coeff = l2_project(b, lambda p: g.eval(p), rule)[0]
    got = np.einsum("s,spx->px", coeff, b.eval(rule.points)[0])
    assert np.abs(got - g.eval(rule.points[0])).max() < 1e-9


def test_curls_project_onto_curl_image(meshes):
    mesh = meshes["agglo"]
    c = big_cell(mesh)
    rng = np.random.default_rng(37)
    v = VecPoly3.random(rng, 3)
    w = v.curl()
    b = subspace_basis(mesh, "cell", [c], "curl_image", 2)
    rule = entity_rule(mesh, "cell", [c], 8)
    coeff = l2_project(b, lambda p: w.eval(p), rule)[0]
    got = np.einsum("s,spx->px", coeff, b.eval(rule.points)[0])
    assert np.abs(got - w.eval(rule.points[0])).max() < 1e-9


# ----------------------------------------------------------------------
# bank consistency


def test_bank_caches_and_matches_standalone(meshes):
    mesh = meshes["pyr"]
    bank = BasisBank(mesh, 1)
    (group,) = bank.groups("cell")
    b1 = bank.group_basis(group, "curl_complement", 2)
    b2 = bank.group_basis(group, "curl_complement", 2)
    assert b1 is b2

    alone = subspace_basis(mesh, "cell", [0], "curl_complement", 2)
    Wa = b1._Ws[0]
    Wb = alone._Ws[0]
    w = max(Wa.shape[1], Wb.shape[1])
    Pa = np.zeros((Wa.shape[0], w))
    Pa[:, : Wa.shape[1]] = Wa
    Pb = np.zeros((Wb.shape[0], w))
    Pb[:, : Wb.shape[1]] = Wb
    assert np.abs(Pa.T @ Pa - Pb.T @ Pb).max() < 1e-9

    # one fixed rule: on a cube cell and a square face, where the moments
    # of the generators have equal singular values, the group basis of the
    # bank (its own core and rule) is the standalone basis entry by entry
    mesh = meshes["cube"]
    bank = BasisBank(mesh, 1)
    for kind in ("cell", "face"):
        for fam in VEC_FAMILIES:
            for l in (0, 1, 2):
                b, sel = basis_of(bank, fam, kind, 0, l)
                Wa = b._Ws[sel][0]
                Wb = subspace_basis(mesh, kind, [0], fam, l)._Ws[0]
                assert Wa.shape == Wb.shape
                assert np.abs(Wa - Wb).max(initial=0.0) < 1e-12


def test_bank_rule_cache_degrees(meshes):
    mesh = meshes["cube"]
    bank = BasisBank(mesh, 0)
    (group,) = bank.groups("cell")
    r1 = bank.group_rule(group)
    assert r1.exactness_degree >= 4
    r2 = bank.group_rule(group, 10)
    assert r2.exactness_degree >= 10
    assert bank.group_rule(group) is r1
    # the bank holds polynomial rules only: data rules stay on the centroid
    # fan, four times the points of the vertex fan on a cube
    r3 = entity_rule(mesh, "cell", group.ids, 10, data=True)
    assert len(r3) == 4 * len(r2)


def test_degenerate_entity_raises():
    verts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.5, 0.5, 1e-16],
        ]
    )
    faces = [[0, 3, 2, 1], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
    with pytest.raises(Exception):
        mesh = Mesh(verts, faces, [[0, 1, 2, 3, 4]])
        scalar_basis(mesh, "cell", 0, 3)


def test_degenerate_core_geometry_raises(meshes):
    # a cell core on the coplanar points of a face rule: the monomials in
    # the normal direction collapse onto lower ones
    mesh = meshes["cube"]
    rule = entity_rule(mesh, "face", 0, 4)
    with pytest.raises(ValueError, match="degenerate entity geometry"):
        _make_core(mesh, "cell", 0, 2, rule=rule)


@pytest.mark.parametrize("rows", [(3, 8), (8, 3)])
@pytest.mark.parametrize("vector", [False, True])
def test_integrate_products_matches_einsum(rows, vector):
    rng = np.random.default_rng(7)
    value = (13, 3) if vector else (13,)
    A = rng.standard_normal((rows[0],) + value)
    B = rng.standard_normal((rows[1],) + value)
    w = rng.random(13)
    spec = "ipx,jpx,p->ij" if vector else "ip,jp,p->ij"
    ref = np.einsum(spec, A, B, w)
    got = integrate_products(A, B, w)
    assert got.shape == rows
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


MONOMIAL_MESHES = {
    "cubic2": lambda: generate_cubic_mesh(2),
    "tet2": lambda: generate_tet_mesh(2),
    "jittered-tet2": lambda: jittered_tet_mesh(2, 5),
    "agglo2": lambda: agglomerate_pairs(generate_cubic_mesh(2), seed=0),
}


@pytest.mark.parametrize("name", MONOMIAL_MESHES)
@pytest.mark.parametrize("k", range(4))
def test_monomials_match_the_full_map_oracle(name, k):
    """Every prefix of the monomials of every edge, face and cell core, on
    the whole stack and on a strict subset of it, is bit for bit what the
    full coordinate map gives."""
    bank = BasisBank(MONOMIAL_MESHES[name](), k)
    for kind in ("edge", "face", "cell"):
        for group in bank.groups(kind):
            core, pts = bank.core(group), bank.group_rule(group).points
            sel = np.arange(len(group))[1::2]
            for n in range(len(core.exps) + 1):
                for s, p in ((None, pts), (sel, pts[sel])):
                    assert np.array_equal(core._monomials(p, n, s),
                                          oracles.monomials_full_map(core, p, n, s))


def test_constant_monomials_skip_the_coordinate_map(meshes):
    """n <= 1 asks for the constant alone: ones, whatever the frame."""
    mesh = meshes["cube"]
    core = _make_core(mesh, "face", [0, 1, 2], 2)
    pts = entity_rule(mesh, "face", [0, 1, 2], 4).points
    core.frame = np.full_like(core.frame, np.nan)
    assert np.array_equal(core._monomials(pts, 1), np.ones((3, 1, pts.shape[1])))
    assert core._monomials(pts, 0).shape == (3, 0, pts.shape[1])
    assert np.isnan(core._monomials(pts, 2)[:, 1:]).all()


# ----------------------------------------------------------------------
# the fixed rule: bases from coefficients, the same choice on every entity


def _exact_independent(T):
    """Rows of an integer table outside the span of the rows before them,
    by Gaussian elimination in rational arithmetic."""
    pivots, keep = {}, []
    for i, t in enumerate(T):
        r = [Fraction(int(x)) for x in t]
        for c, p in pivots.items():
            if r[c]:
                f = r[c] / p[c]
                r = [a - f * b for a, b in zip(r, p)]
        lead = next((c for c, x in enumerate(r) if x), None)
        if lead is not None:
            pivots[lead] = r
            keep.append(i)
    return keep


@pytest.mark.parametrize("fam", VEC_FAMILIES)
@pytest.mark.parametrize("d", [2, 3])
def test_kept_generators_are_the_exact_prefix_rank_rule(fam, d):
    """With monomial seeds the generating sets are integer tables; the kept
    rows are those that raise the exact rank of their prefix, as many as
    the closed-form dimension."""
    for l in range(6):
        n = dim_P(l + 1 if fam.endswith("image") else l - 1, d)
        T = polyspaces._generators(fam, l, d, np.eye(n)[None])[0]
        T = T.reshape(len(T), d * dim_P(l, d))
        assert np.array_equal(T, np.round(T))
        keep = polyspaces._independent(fam, l, d)
        assert keep.tolist() == _exact_independent(T)
        assert len(keep) == space_dim(fam, l, d)


ORACLE_ENTITIES = [
    ("cube", "face"), ("cube", "cell"), ("tet", "face"), ("tet", "cell"),
    ("pyr", "face"), ("pyr", "cell"), ("agglo", "face"), ("agglo", "cell"),
]


@pytest.mark.parametrize("name,kind", ORACLE_ENTITIES)
@pytest.mark.parametrize("k", range(5))
def test_bases_span_the_svd_oracle(meshes, name, kind, k):
    """Every family at every degree a degree-k bank builds spans what the
    tabulate-and-SVD oracle spans, and its rows are orthonormal."""
    mesh = meshes[name]
    c = big_cell(mesh)
    indices = [c] if kind == "cell" else [int(f) for f in mesh.cells[c][[0, -1]]]
    bank = BasisBank(mesh, k)
    for index in indices:
        for fam in VEC_FAMILIES:
            for l in range(k + 2):
                b, sel = basis_of(bank, fam, kind, index, l)
                W = b._Ws[sel][0]
                ref = oracles.svd_subspace_basis(mesh, kind, index, fam, l)
                assert W.shape == ref.shape
                assert np.abs(W.T @ W - ref.T @ ref).max(initial=0.0) < 1e-12
                assert np.abs(W @ W.T - np.eye(len(W))).max(initial=0.0) < 1e-12


def test_subspace_basis_on_a_core_uses_no_points(meshes, monkeypatch):
    """Given a core, every family is built from coefficients: no rule is
    made and nothing is tabulated."""
    mesh = meshes["pyr"]
    cores = {kind: _make_core(mesh, kind, 0, 4) for kind in ("face", "cell")}

    def forbidden(*args, **kwargs):
        raise AssertionError("subspace_basis used quadrature points")

    monkeypatch.setattr(polyspaces, "entity_rule", forbidden)
    monkeypatch.setattr(polyspaces, "_tabulate", forbidden)
    for kind, core in cores.items():
        for fam in polyspaces.FAMILIES:
            for l in range(4):
                b = subspace_basis(mesh, kind, 0, fam, l, core=core)
                assert b.dim == space_dim(fam, l, core.d)


@pytest.mark.parametrize("kind,fam,l", [("cell", "curl_image", 1),
                                        ("face", "grad_complement", 3)])
def test_rank_guard_names_family_entity_and_rank(meshes, monkeypatch, kind,
                                                 fam, l):
    """A dependent kept generator (here the first one repeated in place of
    the last) is a rank error naming the family, the entity, the rank
    found and the dimension expected."""
    mesh = meshes["pyr"]
    keep = polyspaces._independent(fam, l, 3 if kind == "cell" else 2)
    monkeypatch.setattr(polyspaces, "_independent",
                        lambda *args: np.r_[keep[:1], keep[:-1]])
    dim = len(keep)
    with pytest.raises(ValueError, match=f"^rank of {fam} generators on "
                       f"{kind} 0 is {dim - 1}, expected {dim}$"):
        subspace_basis(mesh, kind, 0, fam, l)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1)])
def test_operators_are_canonical_under_a_one_ulp_shift(n, k):
    """Moving one interior vertex of a cube mesh by one ulp moves the
    global differentials and the assembled products by roundoff only: the
    bases are a continuous function of the geometry, also on the cubes and
    squares where the generators' moments have equal singular values."""
    data = generate_cubic_mesh(n).to_dict()
    vertices = np.array(data["vertices"])
    v = np.flatnonzero(((vertices > 0) & (vertices < 1)).all(axis=1))[0]
    shifted = vertices.copy()
    shifted[v, 0] = np.nextafter(shifted[v, 0], np.inf)

    def matrices(vertices):
        mesh = Mesh(vertices, data["faces"], data["cells"])
        bank = BasisBank(mesh, k)
        grad, curl, div = (make_space(mesh, which, k, bank=bank)
                           for which in ("grad", "curl", "div"))
        return [global_operator(grad, curl), global_operator(curl, div),
                assemble_product(curl), assemble_product(div)]

    for a, b in zip(matrices(vertices), matrices(shifted)):
        a, b = a.toarray(), b.toarray()
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
