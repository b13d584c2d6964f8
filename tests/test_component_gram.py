"""The stacked component Gram against the per-cell build it replaced.

The oracle below builds one cell's component Gram entity by entity: the
identity on the cell block, h_F times the identity on each face block and,
once per face holding it, h_F h_E times the edge block (the identity in the
field space, the Gram of the reconstructed edge polynomial in the scalar
space). Its global matrix gives component norms a second value, and
swapped in for the stacked scatter, so do the Poincaré constants.
"""

import numpy as np
import pytest
from scipy import sparse

import polyddr.verification as ver
from polyddr.ddrcore import edge_reconstruct, make_space
from polyddr.polyspaces import BasisBank
from polyddr.products import component_gram, component_norm
from polyddr.verification import mesh_family

from stacks import entity, local_dofs

WHICHES = ("grad", "curl", "div", "l2")


def _gram_by_entities(space, c):
    mesh = space.mesh
    idx, layout = local_dofs(space, "cell", c)
    pos = {int(g): i for i, g in enumerate(idx)}
    C = np.zeros((len(idx), len(idx)))
    sl = layout[("cell", c)]
    C[sl, sl] = np.eye(sl.stop - sl.start)
    if space.which == "l2":
        return C
    for f in map(int, mesh.cells[c]):
        hf = mesh.face_diameters[f]
        fsl = layout.get(("face", f))
        if fsl is not None:
            C[fsl, fsl] += hf * np.eye(fsl.stop - fsl.start)
        for e in map(int, mesh.face_edges[f]):
            he = mesh.edge_lengths[e]
            if space.which == "grad":
                rec = entity(edge_reconstruct, space, "edge", e)
                cols = [pos[int(g)] for g in rec.dofs]
                C[np.ix_(cols, cols)] += hf * he * (rec.matrix.T @ rec.matrix)
            elif space.which == "curl":
                esl = layout[("edge", e)]
                C[esl, esl] += hf * he * np.eye(esl.stop - esl.start)
    return C


def _gram_matrix_by_cells(space):
    G = np.zeros((space.dim, space.dim))
    for c in range(space.mesh.num_cells):
        idx, _ = local_dofs(space, "cell", c)
        G[np.ix_(idx, idx)] += _gram_by_entities(space, c)
    return sparse.csr_matrix(G)


def _swap_scatter(monkeypatch, module, calls):
    """Replace module's _assemble by the per-cell oracle for component
    Grams, logging each call in calls."""

    def oracle(space, op, coeff=None):
        assert op.__name__ == "component_gram" and coeff is None
        calls.append(space.which)
        return _gram_matrix_by_cells(space)

    monkeypatch.setattr(module, "_assemble", oracle)


def _rel(got, want):
    return np.abs(np.subtract(got, want)).max() / np.abs(want).max()


GRAM_MESHES = {
    "cubic2": lambda: mesh_family("cubic")(2),
    "tet2": lambda: mesh_family("tet")(2),
    "agglo2": lambda: mesh_family("agglo")(2, seed=1),
    "agglo3": lambda: mesh_family("agglo")(3, seed=1),
}


@pytest.fixture(scope="module")
def gram_meshes():
    return {name: make() for name, make in GRAM_MESHES.items()}


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("name", list(GRAM_MESHES))
def test_stacked_gram_matches_entity_build(gram_meshes, name, k):
    mesh = gram_meshes[name]
    bank = BasisBank(mesh, k)
    for which in WHICHES:
        space = make_space(mesh, which, k, bank=bank)
        for c in range(mesh.num_cells):
            got = entity(component_gram, space, "cell", c).matrix
            want = _gram_by_entities(space, c)
            assert got.shape == want.shape
            assert _rel(got, want) <= 1e-12, (which, c, _rel(got, want))


NORM_CASES = [
    (lambda: mesh_family("cubic")(1), 0),
    (lambda: mesh_family("cubic")(1), 1),
    (lambda: mesh_family("cubic")(2), 0),
    (lambda: mesh_family("cubic")(2), 1),
    (lambda: mesh_family("tet")(1), 1),
    (lambda: mesh_family("agglo")(2, seed=1), 1),
]
NORM_IDS = ["cubic1-k0", "cubic1-k1", "cubic2-k0", "cubic2-k1", "tet1-k1",
            "agglo2-k1"]


@pytest.mark.parametrize("mesh,k", NORM_CASES, ids=NORM_IDS)
def test_component_norm_matches_entity_build(mesh, k):
    mesh = mesh()
    rng = np.random.default_rng(3)
    spaces = [make_space(mesh, which, k) for which in WHICHES]
    vectors = [rng.standard_normal(s.dim) for s in spaces]
    got = [component_norm(s, v) for s, v in zip(spaces, vectors)]
    want = [np.sqrt(v @ (_gram_matrix_by_cells(s) @ v))
            for s, v in zip(spaces, vectors)]
    assert np.all(np.abs(np.subtract(got, want)) <= 1e-12 * np.abs(want)), (
        got, want)


@pytest.mark.parametrize("mesh,k", NORM_CASES, ids=NORM_IDS)
def test_poincare_constants_match_entity_build(monkeypatch, mesh, k):
    mesh = mesh()
    got = ver._poincare_constants(mesh, k)
    with monkeypatch.context() as m:
        calls = []
        _swap_scatter(m, ver, calls)
        want = ver._poincare_constants(mesh, k)
    assert calls == ["grad", "curl", "div"]
    assert np.all(np.abs(np.subtract(got, want)) <= 1e-12 * np.abs(want)), (
        got, want)
