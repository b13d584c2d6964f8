"""Boundary integrals in coefficient space against the point-tabulation
algorithm they replace.

The oracle below builds the by-parts boundary terms and the trace
stabilizations the direct way: it tabulates the tests, the potentials and
the boundary reconstructions at the rule points of every boundary part and
integrates the products with the rule weights. Swapped in for the library
routines, it gives every boundary-term-bearing operator and every trace
stabilization a second, independent value.
"""

import numpy as np
import pytest

from polyddr import ddrcore, products
from polyddr.ddrcore import (
    _boundary_parts,
    _columns,
    _trace,
    edge_reconstruct,
    make_space,
    op_curl_cell,
    op_curl_face,
    op_div_cell,
    op_grad_cell,
    op_grad_face,
    op_potential,
    op_scalar_trace,
    op_tangential_trace,
)
from polyddr.mesh import agglomerate_pairs, generate_cubic_mesh, generate_tet_mesh
from polyddr.polyspaces import (
    BasisBank,
    PolyBasis,
    _cross_matrix,
    dim_P,
    trace_table,
)
from polyddr.products import _Forms, l2_product, stabilization
from polyddr.verification import check_polynomial_consistency

from meshes import jittered_tet_mesh
from oracles import integrate_products
from stacks import entity


def _boundary_term_at_points(space, group, M, idx, tests, what, sign=1.0,
                             degree=None):
    """The boundary term of integration by parts from tabulations at the
    boundary parts' rule points."""
    blocks, dofs = [], []
    for _, subgroup, slots, omega, n in _boundary_parts(space, group):
        rec = _trace(space, subgroup.kind)(space, subgroup)
        rule = space.bank.group_rule(subgroup, degree)
        pts = rule.points[slots]
        V = tests.eval(pts)
        W = rec.target.eval(pts, slots)
        if V.ndim == 4:
            if W.ndim == 4:
                V = V @ _cross_matrix(n)[:, None]
            else:
                V = (V @ n[:, None, :, None])[..., 0]
        T = integrate_products(V, W, rule.weights[slots])
        blocks.append(omega[:, None, None] * (T @ rec.matrix[slots]))
        dofs.append(rec.dofs[slots])
    G, m, n = M.shape
    cols = _columns(idx, np.concatenate(dofs, axis=1))
    rows = np.arange(G * m).reshape(G, m, 1)
    flat = (rows * n + cols[:, None, :]).ravel()
    vals = np.concatenate(blocks, axis=2).ravel()
    M += sign * np.bincount(flat, vals, M.size).reshape(M.shape)


def _dof_values(matrix, V):
    P = matrix.transpose(0, 2, 1) @ V.reshape(V.shape[0], V.shape[1], -1)
    return P.reshape(P.shape[:2] + V.shape[2:])


def _stab_trace_at_points(space, group):
    """The trace stabilization from the per-dof mismatches tabulated at the
    boundary parts' rule points."""
    mesh, bank = space.mesh, space.bank
    pot = op_potential(space, group)
    G, n = pot.dofs.shape
    S = np.zeros((G, n, n))
    parts = [("face", group.faces, mesh.face_diameters[group.faces])]
    if _trace(space, "edge") is not None:
        parts.append(("edge", group.edges, mesh.edge_lengths[group.edges] ** 2))
    vector = pot.target.value_dim > 1
    for kind, ents, h in parts:
        trace = _trace(space, kind)
        for p in range(ents.shape[1]):
            j = ents[:, p]
            subgroup, slots = bank.locate(kind, j)
            rule = bank.group_rule(subgroup)
            rec = trace(space, subgroup)
            rows = _columns(pot.dofs, rec.dofs[slots])
            d = mesh.face_normals[j] if kind == "face" else mesh.edge_tangents[j]
            pts = rule.points[slots]
            V = pot.target.eval(pts)
            W = rec.target.eval(pts, slots)
            if vector and W.ndim == 4:
                V = V @ (np.eye(3) - d[:, :, None] * d[:, None, :])[:, None]
            elif vector:
                V = (V @ d[:, None, :, None])[..., 0]
            R = _dof_values(pot.matrix, V)
            R[np.arange(G)[:, None], rows] -= _dof_values(rec.matrix[slots], W)
            S += h[:, p, None, None] * integrate_products(R, R, rule.weights[slots])
    return _Forms(pot.dofs, S)


CONFIGS = {
    "tet1-k3": (lambda: generate_tet_mesh(1), 3),
    "agglo2-k2": (lambda: agglomerate_pairs(generate_cubic_mesh(2), seed=0), 2),
    "jittered-tet2-k0": (lambda: jittered_tet_mesh(2, 5), 0),
    "jittered-tet2-k1": (lambda: jittered_tet_mesh(2, 5), 1),
    "cubic2-k1": (lambda: generate_cubic_mesh(2), 1),
}

# every operator with a boundary term, per space, and the entities it acts on
OPERATORS = {
    "grad": ((op_grad_face, "face"), (op_scalar_trace, "face"),
             (op_grad_cell, "cell"), (op_potential, "cell")),
    "curl": ((op_curl_face, "face"), (op_tangential_trace, "face"),
             (op_curl_cell, "cell"), (op_potential, "cell")),
    "div": ((op_div_cell, "cell"), (op_potential, "cell")),
}


def _spaces(mesh, k):
    """Fresh grad, curl and div spaces on one bank. Edge reconstructions
    take point values at the vertices, not boundary integrals, so they are
    built here, before the rest is watched."""
    bank = BasisBank(mesh, k)
    spaces = {which: make_space(mesh, which, k, bank=bank) for which in OPERATORS}
    for group in bank.groups("edge"):
        edge_reconstruct(spaces["grad"], group)
    return spaces


def _build_all(spaces):
    """Every boundary-term-bearing operator, stabilization and product:
    {(space, name, entity): matrix}."""
    out = {}
    for which, ops in OPERATORS.items():
        space = spaces[which]
        mesh = space.mesh
        for op, kind in ops:
            count = mesh.num_faces if kind == "face" else mesh.num_cells
            for i in range(count):
                out[(which, op.__name__, i)] = entity(op, space, kind, i).matrix
        for c in range(mesh.num_cells):
            for form in (stabilization, l2_product):
                out[(which, form.__name__, c)] = entity(form, space, "cell", c).matrix
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_boundary_integrals_match_the_point_oracle(monkeypatch, name):
    make, k = CONFIGS[name]
    mesh = make()

    # the library build tabulates no basis at boundary rule points
    calls = []
    tabulate = PolyBasis.eval

    def watched(self, *args, **kwargs):
        calls.append(self.kind)
        return tabulate(self, *args, **kwargs)

    spaces = _spaces(mesh, k)
    monkeypatch.setattr(PolyBasis, "eval", watched)
    got = _build_all(spaces)
    assert calls == []

    monkeypatch.setattr(ddrcore, "_add_boundary_term", _boundary_term_at_points)
    monkeypatch.setattr(products, "_stab_trace", _stab_trace_at_points)
    spaces = _spaces(mesh, k)
    before = len(calls)
    want = _build_all(spaces)
    assert len(calls) > before  # the oracle did tabulate

    assert got.keys() == want.keys()
    for key, ref in want.items():
        which, op, c = key
        if op == "stabilization":
            # the grad-space stabilization at k=0 on tets is pure roundoff,
            # so stabilizations are measured against their product's scale
            scale = np.abs(want[(which, "l2_product", c)]).max()
        else:
            scale = np.abs(ref).max()
        err = np.abs(got[key] - ref).max() if ref.size else 0.0
        assert err <= 1e-12 * scale, (key, err, scale)


def test_inexact_boundary_rule_names_the_operator(monkeypatch):
    """The scalar face trace integrates degree-(k+2) tests against the
    degree-(k+1) edge reconstruction, so its edge rule must be exact to
    degree 2k+3; with the default edge rule (2k+2) the build stops."""
    default = BasisBank._degree
    monkeypatch.setattr(BasisBank, "_degree",
                        lambda self, kind, degree: default(self, kind, None))
    space = make_space(generate_tet_mesh(1), "grad", 1)
    entity(op_grad_face, space, "face", 0)  # degree 1 + 2 fits the default edge rule
    with pytest.raises(ValueError) as err:
        entity(op_scalar_trace, space, "face", 0)
    assert str(err.value) == (
        "scalar face trace: traces of degree 3 against degree-2 members need "
        "a rule exact to degree 5; the rule is exact to degree 4")


def test_trace_norm_needs_the_trace_in_the_member_span():
    """A squared trace norm in coordinates needs the trace inside the span
    of the members, whatever the rule."""
    mesh = generate_tet_mesh(1)
    bank = BasisBank(mesh, 1)
    group = bank.groups("cell")[0]
    core = bank.core(group)
    subgroup, slots = bank.locate("face", group.faces[:, 0])
    sub, rule = bank.core(subgroup), bank.group_rule(subgroup)
    n, k = dim_P(2, 3), dim_P(1, 2)
    T = trace_table(core, sub, slots, rule, n, k, "probe")
    assert T.shape == (len(group), n, k)
    with pytest.raises(ValueError) as err:
        trace_table(core, sub, slots, rule, n, k, "probe", norm=True)
    assert str(err.value) == (
        "probe: traces of degree 2 against degree-1 members need degree "
        "2 <= 1 and a rule exact to degree 3; the rule is exact to degree 6")


def _trace_tables(bank):
    """The trace tables cached on the cores of a bank and of its bases."""
    cores = {id(c): c for c in [*bank._cores.values(),
                                *(b._core for b in bank._bases.values())]}
    return [T for c in cores.values() for T in c._traces.values()]


def test_trace_tables_are_cached_per_exact_key():
    """A repeated request returns the cached, read-only table; another
    (n, k), rule degree, position or bank builds a table of its own."""
    mesh = generate_tet_mesh(1)

    def request(bank, p=0, degree=None, n=dim_P(2, 3), k=dim_P(1, 2)):
        group = bank.groups("cell")[0]
        subgroup, slots = bank.locate("face", group.faces[:, p])
        return trace_table(bank.core(group), bank.core(subgroup), slots,
                           bank.group_rule(subgroup, degree), n, k, "probe")

    bank = BasisBank(mesh, 1)
    T = request(bank)
    assert request(bank) is T and not T.flags.writeable
    others = [request(bank, n=dim_P(1, 3)), request(bank, k=dim_P(0, 2)),
              request(bank, degree=8), request(bank, p=1),
              request(BasisBank(mesh, 1))]
    assert len({id(A) for A in [T, *others]}) == 6
    assert len(_trace_tables(bank)) == 5
    assert np.array_equal(others[-1], T)
    assert others[0].shape == (len(T), dim_P(1, 3), T.shape[2])
    assert others[1].shape == T.shape[:2] + (1,)


def test_consistency_check_builds_each_trace_table_once(monkeypatch):
    """The k=3 polynomial consistency check on generate_tet_mesh(1) asks
    for 112 trace tables of 63 distinct keys and builds 63: the answers,
    all kept alive, are 63 distinct arrays, the ones the bank caches."""
    answers = []

    def counted(*args, **kwargs):
        answers.append(trace_table(*args, **kwargs))
        return answers[-1]

    monkeypatch.setattr(ddrcore, "trace_table", counted)
    bank = BasisBank(generate_tet_mesh(1), 3)
    assert check_polynomial_consistency(bank.mesh, 3, bank=bank).passed
    built = {id(T) for T in answers}
    assert (len(answers), len(built)) == (112, 63)
    assert built == {id(T) for T in _trace_tables(bank)}
