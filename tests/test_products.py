"""Stabilized products and norms: symmetry, positivity, vanishing of the
stabilization on interpolates, exactness against the polynomial oracle,
kernel ranks, norm equivalence, assembly, and graph-norm identities."""

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st

from polyddr.mesh import Mesh, generate_cubic_mesh, generate_tet_mesh, agglomerate_pairs
from polyddr.polyspaces import BasisBank, dim_P
from polyddr.ddrcore import (
    INTERP_DEGREE_MARGIN,
    make_space,
    interpolate,
    global_operator,
    edge_reconstruct,
    local_interpolation,
    op_potential,
    op_scalar_trace,
    op_tangential_trace,
)
from polyddr.products import (
    stabilization,
    l2_product,
    component_gram,
    component_norm,
    assemble_product,
    graph_norms,
)
from polyddr.quadrature import entity_rule

from oracles import (
    Poly3,
    VecPoly3,
    component_norm_by_assembly,
    graph_norms_by_assembly,
    integrate_poly_cell,
    integrate_products,
)
from stacks import Local, basis_of, entity, own_dofs, rule_of


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
            cache[key] = {
                w: make_space(mesh, w, k, bank=bank)
                for w in ("grad", "curl", "div", "l2")
            }
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

WHICHES = ("grad", "curl", "div")
VARIANTS = ("trace", "interpolation")


def _cell_of(ctx, name, c):
    return big_cell(ctx.meshes[name]) if c is None else c


def _local_interpolation(space, c, basis):
    """The library's stacked local interpolation of a basis stacked over
    the group of cell c, read at cell c."""
    group, slot = space.bank.group("cell", c)
    return local_interpolation(space, group, basis)[slot]


def _stabilization(space, c, variant):
    """The stabilization of one variant: "trace" is the library's; the
    "interpolation" oracle penalizes the dof-space residual against the
    interpolated potential, measured in the component product. Both vanish
    when the potential reproduces the data."""
    if variant == "trace" or space.which == "l2":
        return entity(stabilization, space, "cell", c)
    pot = entity(op_potential, space, "cell", c)
    J = _local_interpolation(space, c, pot.target)
    R = np.eye(len(pot.dofs)) - J @ pot.matrix
    C = entity(component_gram, space, "cell", c).matrix
    return Local(pot.dofs, R.T @ C @ R)


def _l2_product(space, c, variant):
    """Potential Gram plus the stabilization of one variant."""
    if variant == "trace" or space.which == "l2":
        return entity(l2_product, space, "cell", c)
    pot = entity(op_potential, space, "cell", c)
    S = _stabilization(space, c, variant).matrix
    return Local(pot.dofs, pot.matrix.T @ pot.matrix + S)


def _random_field(which, k, rng):
    """An oracle polynomial the potential reconstruction reproduces, plus
    a callable for the interpolator."""
    if which == "grad":
        p = Poly3.random(rng, k + 1)
        return p, lambda pts: p.eval(pts)
    p = VecPoly3.random(rng, k)
    return p, lambda pts: p.eval(pts)


# ----------------------------------------------------------------------
# structure of the local forms


@pytest.mark.parametrize("name,k,c", CASES)
@pytest.mark.parametrize("which", WHICHES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_stabilization_symmetric_psd(ctx, name, k, c, which, variant):
    c = _cell_of(ctx, name, c)
    space = ctx.spaces(name, k)[which]
    form = _stabilization(space, c, variant)
    S = form.matrix
    assert np.allclose(S, S.T, atol=1e-12 * max(1.0, np.abs(S).max()))
    eigs = la.eigvalsh(0.5 * (S + S.T))
    assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


@pytest.mark.parametrize("name,k,c", CASES)
@pytest.mark.parametrize("which", WHICHES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_product_positive_definite(ctx, name, k, c, which, variant):
    c = _cell_of(ctx, name, c)
    space = ctx.spaces(name, k)[which]
    M = _l2_product(space, c, variant).matrix
    eigs = la.eigvalsh(0.5 * (M + M.T))
    assert eigs.min() > 1e-10 * eigs.max(), (eigs.min(), eigs.max())


@pytest.mark.parametrize("name,k,c", CASES)
@pytest.mark.parametrize("which", WHICHES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_stabilization_vanishes_on_interpolates(ctx, name, k, c, which, variant):
    c = _cell_of(ctx, name, c)
    sp = ctx.spaces(name, k)
    space = sp[which]
    rng = np.random.default_rng(17 * k + hash(name) % 101)
    _, fn = _random_field(which, k, rng)
    v = interpolate(space, fn).values
    form = _stabilization(space, c, variant)
    prod = _l2_product(space, c, variant)
    err = abs(form.apply(v, v))
    scale = max(prod.apply(v, v), 1e-14)
    assert err <= 1e-10 * scale, (err, scale)


@pytest.mark.parametrize("name,k,c", CASES)
@pytest.mark.parametrize("which", WHICHES + ("l2",))
@pytest.mark.parametrize("variant", VARIANTS)
def test_product_matches_continuous_on_interpolates(ctx, name, k, c, which, variant):
    mesh = ctx.meshes[name]
    space = ctx.spaces(name, k)[which]
    rng = np.random.default_rng(23 + 7 * k)
    deg = k if which != "grad" else k + 1
    if which in ("grad", "l2"):
        p = Poly3.random(rng, deg if which == "grad" else k)
        q = Poly3.random(rng, deg if which == "grad" else k)
        fp = lambda pts: p.eval(pts)
        fq = lambda pts: q.eval(pts)
        integrand = p * q
    else:
        p = VecPoly3.random(rng, deg)
        q = VecPoly3.random(rng, deg)
        fp = lambda pts: p.eval(pts)
        fq = lambda pts: q.eval(pts)
        integrand = p.dot_poly(q)
    vp = interpolate(space, fp).values
    vq = interpolate(space, fq).values
    got = sum(
        _l2_product(space, cc, variant).apply(vp, vq)
        for cc in range(mesh.num_cells)
    )
    want = sum(
        integrate_poly_cell(integrand, mesh, cc)
        for cc in range(mesh.num_cells)
    )
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("name,k,c", CASES)
@pytest.mark.parametrize("which", WHICHES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_stabilization_kernel_is_polynomial_interpolates(ctx, name, k, c, which, variant):
    c = _cell_of(ctx, name, c)
    space = ctx.spaces(name, k)[which]
    S = _stabilization(space, c, variant).matrix
    n = S.shape[0]
    scale = np.abs(_l2_product(space, c, variant).matrix).max()
    sv = la.svdvals(0.5 * (S + S.T))
    rank = int(np.sum(sv > 1e-8 * scale))
    kernel = dim_P(k + 1, 3) if which == "grad" else 3 * dim_P(k, 3)
    assert rank == n - kernel, (rank, n, kernel)


def _interpolate_by_entity(space, f):
    """Dofs of a smooth field entity by entity, with moment code of its
    own: vertex values, then on every edge, face and cell the field (its
    tangential component on field-space edges, its normal component on
    flux-space faces) integrated by the entity's data rule against each
    dof family's basis."""
    mesh, bank, k = space.mesh, space.bank, space.k
    degree = 2 * k + INTERP_DEGREE_MARGIN
    out = np.zeros(space.dim)
    if space.width["vertex"]:
        out[: mesh.num_vertices] = f(mesh.vertices)
    for kind, count in (("edge", mesh.num_edges), ("face", mesh.num_faces),
                        ("cell", mesh.num_cells)):
        if not space.width[kind]:
            continue
        for i in range(count):
            rule = entity_rule(mesh, kind, [i], degree, data=True)
            vals = np.asarray(f(rule.points[0]))
            if kind == "edge" and space.which == "curl":
                vals = vals @ mesh.edge_tangents[i]
            elif kind == "face" and space.which == "div":
                vals = vals @ mesh.face_normals[i]
            moments = [integrate_products(b.eval(rule.points, sel)[0],
                                          vals[None], rule.weights[0])[:, 0]
                       for b, sel in (basis_of(bank, fam, kind, i, l)
                                      for fam, l in space.families[kind])
                       if b.dim]
            out[own_dofs(space, kind, i)] = np.concatenate(moments)
    return out


@pytest.mark.parametrize("name", ["pyr", "tet", "agglo"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("which", WHICHES + ("l2",))
def test_interpolate_matches_entity_moment_oracle(ctx, name, k, which):
    """interpolate against the entity-by-entity oracle, whose moment code
    shares nothing with the library's (ddrcore._moments)."""
    space = ctx.spaces(name, k)[which]
    if which in ("grad", "l2"):
        f = lambda p: np.sin(p[:, 0] + 2 * p[:, 1]) * np.exp(p[:, 2])
    else:
        f = lambda p: np.stack([np.cos(p[:, 1]) * p[:, 2],
                                np.sin(p[:, 0] + p[:, 2]),
                                np.exp(p[:, 0] - p[:, 1])], axis=1)
    got = interpolate(space, f).values
    want = _interpolate_by_entity(space, f)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", ["pyr", "tet", "agglo"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("which", WHICHES)
def test_entity_moments_match_interpolation_oracle(ctx, name, k, which):
    """The local interpolation of a cell potential's target equals, column
    by column, the global interpolate of each member read at the cell's
    dofs: trace-table pairings in coefficient space against moments at the
    data rules, two routes that share no moment code.
    test_interpolate_matches_entity_moment_oracle checks the moments."""
    c = big_cell(ctx.meshes[name])
    space = ctx.spaces(name, k)[which]
    pot = entity(op_potential, space, "cell", c)
    J = _local_interpolation(space, c, pot.target)
    want = np.column_stack([
        interpolate(space, lambda pts, m=m: pot.target.eval(
            pts[None], pot.sel)[0, m]).values
        for m in range(pot.target.dim)])[pot.dofs]
    assert np.abs(J - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", ["pyr", "tet", "agglo"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("which", WHICHES)
def test_trace_stabilization_matches_oracle(ctx, name, k, which):
    """For a random dof vector, the trace stabilization equals h_F times
    the squared L2(F) mismatch between the potential's face trace and the
    face reconstruction, plus h_E^2 times the squared L2(E) mismatch
    between its edge trace and the edge reconstruction, summed over the
    cell's faces and edges."""
    c = big_cell(ctx.meshes[name])
    space = ctx.spaces(name, k)[which]
    mesh, bank = space.mesh, space.bank
    v = np.random.default_rng(17).standard_normal(space.dim)
    pot = entity(op_potential, space, "cell", c)
    u = pot.apply(v)

    def at(basis, sel, coeffs, pts):
        return np.tensordot(coeffs, basis.eval(pts, sel)[0], axes=1)

    def sq_mismatch(kind, j, trace, basis, sel, coeffs):
        rule = rule_of(bank, kind, j)
        d = (trace(at(pot.target, pot.sel, u, rule.points))
             - at(basis, sel, coeffs, rule.points))
        return float(np.sum(d.reshape(rule.weights.shape[1], -1) ** 2, axis=1)
                     @ rule.weights[0])

    want = 0.0
    for f in map(int, mesh.cells[c]):
        n = mesh.face_normals[f]
        if which == "grad":
            tr = entity(op_scalar_trace, space, "face", f)
            trace, rec = (lambda p: p), (tr.target, tr.sel, tr.apply(v))
        elif which == "curl":
            tr = entity(op_tangential_trace, space, "face", f)
            trace = lambda p: p - np.outer(p @ n, n)
            rec = (tr.target, tr.sel, tr.apply(v))
        else:
            trace = lambda p: p @ n
            rec = (*basis_of(bank, "scalar", "face", f, k),
                   v[own_dofs(space, "face", f)])
        want += mesh.face_diameters[f] * sq_mismatch("face", f, trace, *rec)
    for e in map(int, mesh.cell_edges[c] if which != "div" else []):
        if which == "grad":
            er = entity(edge_reconstruct, space, "edge", e)
            trace, rec = (lambda p: p), (er.target, er.sel, er.apply(v))
        else:
            t = mesh.edge_tangents[e]
            trace = lambda p: p @ t
            rec = (*basis_of(bank, "scalar", "edge", e, k),
                   v[own_dofs(space, "edge", e)])
        want += mesh.edge_lengths[e] ** 2 * sq_mismatch("edge", e, trace, *rec)

    got = entity(stabilization, space, "cell", c).apply(v, v)
    scale = entity(l2_product, space, "cell", c).apply(v, v)
    assert abs(got - want) <= 1e-12 * scale, (got, want, scale)


def test_stabilization_has_no_variant(ctx):
    space = ctx.spaces("cube", 0)["curl"]
    with pytest.raises(TypeError):
        stabilization(space, 0, "trace")


# ----------------------------------------------------------------------
# component norms


@pytest.mark.parametrize("name,k,c", CASES)
@pytest.mark.parametrize("which", WHICHES + ("l2",))
def test_component_gram_positive_definite(ctx, name, k, c, which):
    c = _cell_of(ctx, name, c)
    space = ctx.spaces(name, k)[which]
    C = entity(component_gram, space, "cell", c).matrix
    eigs = la.eigvalsh(C)
    assert eigs.min() > 0, eigs.min()


@pytest.mark.parametrize("name,k", [("cube", 0), ("tet", 1), ("agglo", 0)])
@pytest.mark.parametrize("which", WHICHES + ("l2",))
def test_component_norm_definite(ctx, name, k, which):
    space = ctx.spaces(name, k)[which]
    rng = np.random.default_rng(5)
    v = rng.standard_normal(space.dim)
    assert component_norm(space, v) > 0
    assert component_norm(space, np.zeros(space.dim)) == 0.0


@pytest.mark.parametrize("length", [11, 17])
def test_component_norm_rejects_a_wrong_length(length):
    space = make_space(generate_cubic_mesh(1), "curl", 0)
    assert space.dim == 12
    with pytest.raises(ValueError, match="does not match the space dimension"):
        component_norm(space, np.ones(length))


@pytest.mark.parametrize("name,k,c", CASES)
@pytest.mark.parametrize("which", WHICHES)
def test_product_component_norm_equivalence(ctx, name, k, c, which):
    c = _cell_of(ctx, name, c)
    space = ctx.spaces(name, k)[which]
    M = entity(l2_product, space, "cell", c).matrix
    C = entity(component_gram, space, "cell", c).matrix
    eigs = la.eigvalsh(0.5 * (M + M.T), C)
    assert eigs.min() > 0
    # equivalence constants grow quickly with the degree; the bound only
    # guards against outright degeneracy
    assert eigs.max() / eigs.min() < 1e7, (eigs.min(), eigs.max())


# ----------------------------------------------------------------------
# assembly and graph norms


@pytest.mark.parametrize("name,k", [("tet", 0), ("tet", 1), ("agglo", 0)])
@pytest.mark.parametrize("which", WHICHES)
def test_assembled_product_matches_local_forms(ctx, name, k, which):
    mesh = ctx.meshes[name]
    space = ctx.spaces(name, k)[which]
    M = assemble_product(space)
    asym = abs(M - M.T).max()
    assert asym <= 1e-12 * max(1.0, abs(M).max())
    rng = np.random.default_rng(11)
    v = rng.standard_normal(space.dim)
    w = rng.standard_normal(space.dim)
    direct = sum(
        entity(l2_product, space, "cell", c).apply(v, w)
        for c in range(mesh.num_cells)
    )
    assert float(v @ (M @ w)) == pytest.approx(direct, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name,k", [("tet", 0), ("tet", 1), ("agglo", 0)])
def test_graph_norms_drop_to_plain_norms_on_complex_images(ctx, name, k):
    """A discrete curl of a gradient vanishes, so the graph norm of a
    gradient field is its plain product norm; same for the divergence of
    a discrete curl."""
    sp = ctx.spaces(name, k)
    rng = np.random.default_rng(3)
    q = rng.standard_normal(sp["grad"].dim)
    v = rng.standard_normal(sp["curl"].dim)

    uG = global_operator(sp["grad"], sp["curl"])
    uC = global_operator(sp["curl"], sp["div"])
    H = uG @ q
    A = uC @ v

    gf, ga = graph_norms(sp["curl"], sp["div"], sp["l2"], H, A)
    Mc = assemble_product(sp["curl"])
    Md = assemble_product(sp["div"])
    assert gf == pytest.approx(np.sqrt(H @ (Mc @ H)), rel=1e-10)
    assert ga == pytest.approx(np.sqrt(A @ (Md @ A)), rel=1e-10)


def test_graph_norms_of_column_stacks_match_single_pairs(ctx):
    sp = ctx.spaces("agglo", 1)
    rng = np.random.default_rng(11)
    H = rng.standard_normal((sp["curl"].dim, 3))
    A = rng.standard_normal((sp["div"].dim, 3))
    mu = 1.0 + rng.random(ctx.meshes["agglo"].num_cells)
    gf, ga = graph_norms(sp["curl"], sp["div"], sp["l2"], H, A, mu=mu)
    assert gf.shape == ga.shape == (3,)
    for j in range(3):
        f1, a1 = graph_norms(sp["curl"], sp["div"], sp["l2"], H[:, j], A[:, j],
                             mu=mu)
        assert gf[j] == pytest.approx(f1, rel=1e-12)
        assert ga[j] == pytest.approx(a1, rel=1e-12)


def test_graph_norms_with_coefficient(ctx):
    sp = ctx.spaces("tet", 0)
    mesh = ctx.meshes["tet"]
    rng = np.random.default_rng(9)
    H = rng.standard_normal(sp["curl"].dim)
    A = rng.standard_normal(sp["div"].dim)
    mu = 1.0 + rng.random(mesh.num_cells)

    gf, ga = graph_norms(sp["curl"], sp["div"], sp["l2"], H, A, mu=mu)
    Mc = assemble_product(sp["curl"], coeff=mu)
    Md = assemble_product(sp["div"])
    uC = global_operator(sp["curl"], sp["div"])
    D = global_operator(sp["div"], sp["l2"])
    ch = uC @ H
    dv = D @ A
    want_f = np.sqrt(H @ (Mc @ H) + ch @ (Md @ ch))
    want_a = np.sqrt(A @ (Md @ A) + dv @ dv)
    assert gf == pytest.approx(want_f, rel=1e-12)
    assert ga == pytest.approx(want_a, rel=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", ["cube", "tet", "pyr", "agglo"])
def test_norms_from_local_forms_match_assembled_matrices(ctx, name, k):
    """graph_norms and component_norm sum the local forms; the oracle
    assembles the global matrices. Per-cell mu spans 1e-3 to 1e3, and the
    graph norms take a column stack whose columns differ in scale."""
    sp = ctx.spaces(name, k)
    rng = np.random.default_rng(17)
    ncells = ctx.meshes[name].num_cells
    mu = 10.0 ** np.linspace(-3.0, 3.0, ncells)[rng.permutation(ncells)]
    scale = 10.0 ** np.arange(-2.0, 3.0)
    H = rng.standard_normal((sp["curl"].dim, len(scale))) * scale
    A = rng.standard_normal((sp["div"].dim, len(scale))) * scale
    for coeff in (None, mu):
        got = graph_norms(sp["curl"], sp["div"], sp["l2"], H, A, mu=coeff)
        want = graph_norms_by_assembly(sp["curl"], sp["div"], sp["l2"], H, A,
                                       mu=coeff)
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 1e-13 * w), (coeff is None, g, w)
    for space in sp.values():
        v = rng.standard_normal(space.dim)
        got, want = component_norm(space, v), component_norm_by_assembly(space, v)
        assert abs(got - want) <= 1e-13 * want, (space.which, got, want)


def test_scalar_coefficient_broadcasts_over_cells(ctx):
    space = ctx.spaces("agglo", 0)["curl"]
    want = 2.0 * assemble_product(space).toarray()
    assert np.array_equal(assemble_product(space, coeff=2.0).toarray(), want)
    mu = np.full(ctx.meshes["agglo"].num_cells, 2.0)
    assert np.array_equal(assemble_product(space, coeff=mu).toarray(), want)


@pytest.mark.parametrize("bad,message", [
    (np.ones(2), r"^coefficient must be scalar or per-cell$"),
    (np.ones((1, 1)), r"^coefficient must be scalar or per-cell$"),
    (np.nan, r"^coefficient of cell 0 is not finite \(nan\)$"),
    (0.0, r"^coefficient must be strictly positive$"),
])
def test_product_coefficient_is_validated(bad, message):
    """assemble_product(coeff=) and graph_norms(mu=) check a coefficient as
    MagnetostaticsProblem checks the permeability: an array of another
    length was indexed silently, a NaN went into the matrix."""
    mesh = generate_cubic_mesh(1)
    sp = {w: make_space(mesh, w, 0) for w in ("curl", "div", "l2")}
    with pytest.raises(ValueError, match=message):
        assemble_product(sp["curl"], coeff=bad)
    with pytest.raises(ValueError, match=message):
        graph_norms(sp["curl"], sp["div"], sp["l2"], np.ones(sp["curl"].dim),
                    np.ones(sp["div"].dim), mu=bad)


# ----------------------------------------------------------------------
# randomized inner-product laws


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_product_is_inner_product_random_vectors(ctx, seed):
    space = ctx.spaces("pyr", 1)["curl"]
    form = entity(l2_product, space, "cell", 0)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(space.dim)
    v = rng.standard_normal(space.dim)
    uu = form.apply(u, u)
    vv = form.apply(v, v)
    uv = form.apply(u, v)
    assert uu >= 0 and vv >= 0
    assert uv == pytest.approx(form.apply(v, u), rel=1e-12, abs=1e-12)
    assert abs(uv) <= np.sqrt(uu * vv) * (1 + 1e-10) + 1e-12
