"""Congruence classes: every local object is built once per class, on the
representative group, and gathered to the entity group by class index.

The oracle is the same code with every class a singleton (only the
classifier is replaced), so each entity builds its own matrices. The
negative controls change the geometry or the orientation data of one
entity, which must then leave its class."""

import copy

import numpy as np
import pytest

from polyddr import polyspaces
from polyddr.ddrcore import (
    edge_reconstruct,
    global_operator,
    make_space,
    op_curl_cell,
    op_curl_face,
    op_div_cell,
    op_grad_cell,
    op_grad_edge,
    op_grad_face,
    op_potential,
    op_scalar_trace,
    op_tangential_trace,
)
from polyddr.mesh import Mesh, agglomerate_pairs, generate_cubic_mesh, generate_tet_mesh
from polyddr.polyspaces import BasisBank
from polyddr.products import assemble_product, component_gram, l2_product, stabilization
from polyddr.verification import check_polynomial_consistency

from meshes import jittered_tet_mesh


def flip_cell_face_sign(mesh, cell):
    """mesh with the orientation sign of the first face of cell flipped."""
    hacked = copy.copy(mesh)
    signs = [s.copy() for s in mesh.cell_face_signs]
    signs[cell][0] = -signs[cell][0]
    hacked.cell_face_signs = tuple(signs)
    return hacked


MESHES = {
    "cubic2": lambda: generate_cubic_mesh(2),
    "cubic3": lambda: generate_cubic_mesh(3),
    "tet2": lambda: generate_tet_mesh(2),
    "agglo3": lambda: agglomerate_pairs(generate_cubic_mesh(3), seed=0),
    "jittered-tet2": lambda: jittered_tet_mesh(2, 3),
    # cell 26 shares its class with cell 13, the representative
    "cubic3-flipped": lambda: flip_cell_face_sign(generate_cubic_mesh(3), 26),
}

# entry point -> (spaces it is built on, kind)
STACKS = {
    edge_reconstruct: (("grad",), "edge"),
    op_grad_edge: (("grad",), "edge"),
    op_grad_face: (("grad",), "face"),
    op_scalar_trace: (("grad",), "face"),
    op_curl_face: (("curl",), "face"),
    op_tangential_trace: (("curl",), "face"),
    op_grad_cell: (("grad",), "cell"),
    op_curl_cell: (("curl",), "cell"),
    op_div_cell: (("div",), "cell"),
    op_potential: (("grad", "curl", "div"), "cell"),
    stabilization: (("grad", "curl", "div", "l2"), "cell"),
    l2_product: (("grad", "curl", "div", "l2"), "cell"),
    component_gram: (("grad", "curl", "div", "l2"), "cell"),
}
WHICH = ("grad", "curl", "div", "l2")


def _singletons(keys, quantum):
    return np.arange(len(keys)), np.arange(len(keys))


def _everything(mesh, k):
    """Every stacked local matrix, its dofs and target coefficients, the
    three global operators and the four assembled products."""
    bank = BasisBank(mesh, k)
    spaces = {w: make_space(mesh, w, k, bank=bank) for w in WHICH}
    out = {}
    for op, (which, kind) in STACKS.items():
        for w in which:
            for gid, group in enumerate(bank.groups(kind)):
                stack = op(spaces[w], group)
                key = (op.__name__, w, gid)
                out[key + ("dofs",)] = stack.dofs
                out[key + ("matrix",)] = stack.matrix
                if hasattr(stack, "target"):
                    out[key + ("target",)] = stack.target._Cs
    for a, b in zip(WHICH, WHICH[1:]):
        out[("global", a, b)] = global_operator(spaces[a], spaces[b]).toarray()
    for w in WHICH:
        out[("product", w)] = assemble_product(spaces[w]).toarray()
    return bank, out


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("name", MESHES)
def test_gathered_stacks_match_the_singleton_oracle(monkeypatch, name, k):
    mesh = MESHES[name]()
    bank, got = _everything(mesh, k)
    with monkeypatch.context() as m:
        m.setattr(polyspaces, "_classify", _singletons)
        oracle_bank, want = _everything(mesh, k)
    assert all(g.rep is g for kind in ("edge", "face", "cell")
               for g in oracle_bank.groups(kind))
    if name != "jittered-tet2":
        assert bank.class_counts("face")[0] < mesh.num_faces
    assert got.keys() == want.keys()
    for key in want:
        if key[-1] == "dofs":
            assert np.array_equal(got[key], want[key]), key
            continue
        # a stabilization is relative to the product it is part of: on
        # tets at k=0 the scalar one vanishes, roundoff alone
        of = ("l2_product",) + key[1:] if key[0] == "stabilization" else key
        scale = max(np.abs(want[of]).max(initial=0.0), 1e-300)
        assert np.abs(got[key] - want[key]).max(initial=0.0) <= 1e-12 * scale, key


@pytest.mark.parametrize("name, k", [("cubic3", 2), ("tet2", 1), ("agglo3", 1)])
def test_members_match_their_own_builds_to_roundoff(monkeypatch, name, k):
    """On the generated meshes translated entities agree to roundoff, so a
    member's gathered potential is its own build to a few ulps."""
    mesh = MESHES[name]()
    spaces = {w: make_space(mesh, w, k) for w in ("grad", "curl", "div")}
    with monkeypatch.context() as m:
        m.setattr(polyspaces, "_classify", _singletons)
        alone = {w: make_space(mesh, w, k) for w in ("grad", "curl", "div")}
        for w, space in alone.items():
            for group in space.bank.groups("cell"):
                op_potential(space, group)
    for w, space in spaces.items():
        for group, own in zip(space.bank.groups("cell"), alone[w].bank.groups("cell")):
            got = op_potential(space, group).matrix
            want = op_potential(alone[w], own).matrix
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), w


# ----------------------------------------------------------------------
# negative controls


def _classes(mesh, kind, k=0):
    """Class of every entity of one kind as (group id, class) pairs."""
    bank = BasisBank(mesh, k)
    out = [None] * {"edge": mesh.num_edges, "face": mesh.num_faces,
                    "cell": mesh.num_cells}[kind]
    for gid, group in enumerate(bank.groups(kind)):
        for i, c in zip(group.ids.tolist(), group.classes.tolist()):
            out[i] = (gid, c)
    return out


def _classmates(classes, i):
    return {j for j, c in enumerate(classes) if c == classes[i]} - {i}


def _rebuilt(mesh, vertices=None, faces=None):
    data = mesh.to_dict()
    return Mesh(np.array(data["vertices"]) if vertices is None else vertices,
                data["faces"] if faces is None else faces, data["cells"])


def test_a_shifted_vertex_splits_the_classes_around_it():
    mesh = generate_tet_mesh(3)
    v = int(np.flatnonzero((mesh.vertices > 0.2).all(axis=1)
                           & (mesh.vertices < 0.8).all(axis=1))[0])
    shifted = mesh.vertices.copy()
    shifted[v] += 1e-9 * mesh.h * np.array([0.6, -0.48, 0.64])
    moved = _rebuilt(mesh, vertices=shifted)
    touching = {
        "cell": [c for c in range(mesh.num_cells) if v in mesh.cell_vertices[c]],
        "face": [f for f in range(mesh.num_faces) if v in mesh.faces[f]],
        "edge": [e for e in range(mesh.num_edges) if v in mesh.edges[e]],
    }
    for kind, ents in touching.items():
        before, after = _classes(mesh, kind), _classes(moved, kind)
        for i in ents:
            assert _classmates(before, i), (kind, i)  # a class to leave
            assert not _classmates(after, i), (kind, i)
        # the entities away from the vertex keep their classes
        away = [i for i in range(len(before)) if i not in ents]
        assert all(_classmates(after, i) == _classmates(before, i) - set(ents)
                   for i in away), kind


def test_a_reversed_face_loop_leaves_its_class():
    mesh = generate_cubic_mesh(3)
    before = _classes(mesh, "face")
    f = next(f for f in range(mesh.num_faces) if _classmates(before, f))
    faces = [list(loop) for loop in mesh.to_dict()["faces"]]
    faces[f] = faces[f][::-1]
    after = _classes(_rebuilt(mesh, faces=faces), "face")
    assert not _classmates(after, f) & _classmates(before, f)


def test_a_reversed_edge_leaves_its_class():
    # swapping two consecutive vertex ids reverses the edge between them
    # and no other edge (tangents point from the lower to the higher id)
    mesh = generate_cubic_mesh(3)
    before = _classes(mesh, "edge")
    e = next(e for e, (a, b) in enumerate(mesh.edges)
             if b == a + 1 and _classmates(before, e))
    a = int(mesh.edges[e][0])
    order = np.arange(mesh.num_vertices)
    order[[a, a + 1]] = order[[a + 1, a]]
    data = mesh.to_dict()
    swapped = Mesh(np.array(data["vertices"])[order],
                   [order[loop].tolist() for loop in data["faces"]], data["cells"])
    # new id of each edge, by its vertices
    ids = {tuple(pair): i for i, pair in enumerate(swapped.edges.tolist())}
    new = [ids[tuple(sorted(order[pair]))] for pair in mesh.edges.tolist()]
    flipped = [i for i in range(mesh.num_edges)
               if (swapped.edge_tangents[new[i]] != mesh.edge_tangents[i]).any()]
    assert flipped == [e]
    after = _classes(swapped, "edge")
    assert not _classmates(after, new[e]) & {new[i] for i in _classmates(before, e)}


def test_a_mirrored_cell_never_shares_a_class():
    """Three copies of one tetrahedron, vertex ids in the same order: a
    translated copy shares the original's class, a mirrored one does not."""
    tet = np.array([[0.0, 0.0, 0.0], [1.0, 0.1, 0.2], [0.3, 1.0, 0.1],
                    [0.2, 0.4, 1.1]])
    mirrored = tet * [-1.0, 1.0, 1.0]
    vertices = np.vstack([tet, tet + [3.0, 0.0, 0.0], mirrored + [7.0, 0.0, 0.0]])
    loops = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
    faces = [[v + 4 * c for v in loop] for c in range(3) for loop in loops]
    mesh = Mesh(vertices, faces, [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]])
    classes = _classes(mesh, "cell")
    assert classes[0] == classes[1]
    assert classes[2] != classes[0]


def test_a_flipped_sign_on_a_member_is_built_and_caught():
    """The flipped cell is not its class's representative, so only a key
    holding the orientation signs gives it its own build; the consistency
    check then names it."""
    mesh = generate_cubic_mesh(3)
    assert 26 in _classmates(_classes(mesh, "cell"), 13)
    hacked = MESHES["cubic3-flipped"]()
    assert not _classmates(_classes(hacked, "cell"), 26)
    rep = check_polynomial_consistency(hacked, 0)
    assert not rep.passed
    assert all("(('cell', 26" in line for line in rep.failures), rep.failures


# ----------------------------------------------------------------------
# reporting


def test_class_counts_on_congruent_meshes():
    bank = BasisBank(generate_cubic_mesh(4), 1)
    assert [bank.class_counts(kind) for kind in ("cell", "face", "edge")] == [
        (8, 64), (6, 240), (3, 300)]
    bank = BasisBank(jittered_tet_mesh(2, 0), 0)
    mesh = bank.mesh
    assert [bank.class_counts(kind) for kind in ("cell", "face", "edge")] == [
        (mesh.num_cells,) * 2, (mesh.num_faces,) * 2, (mesh.num_edges,) * 2]
