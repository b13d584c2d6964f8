"""Data rules are streamed block by block and held by no cache.

Non-polynomial data (interpolation, the load vector, L2 errors against
smooth fields) is integrated on centroid-fan rules, built one value block
at a time by BasisBank.data_blocks. The oracle here builds the whole
group's data rule at once and hands out its value blocks, as a cached rule
would; every result must be bit for bit the same. The memory tests check
that no data rule outlives its block.
"""

import tracemalloc

import numpy as np
import pytest

import polyddr
from polyddr.ddrcore import (
    INTERP_DEGREE_MARGIN,
    interpolate,
    make_space,
    op_curl_cell,
    op_potential,
)
from polyddr.mesh import agglomerate_pairs, generate_cubic_mesh, generate_tet_mesh
from polyddr.polyspaces import BasisBank, value_blocks
from polyddr.products import load_vector
from polyddr.quadrature import QuadRule, entity_rule
from polyddr.scheme import manufactured_solution
from polyddr.verification import TrigScalar, TrigVector, _l2_error_sq

from meshes import jittered_tet_mesh

MESHES = {
    "tet1": lambda: generate_tet_mesh(1),
    "cubic2": lambda: generate_cubic_mesh(2),
    "agglo2": lambda: agglomerate_pairs(generate_cubic_mesh(2), seed=1),
    "jittered-tet2": lambda: jittered_tet_mesh(2, 1),
}


def _whole_group_blocks(bank, group, degree, counts):
    """Oracle for BasisBank.data_blocks: the whole group's data rule, built
    at once, cut into its value blocks; their number goes to counts."""
    rule = entity_rule(bank.mesh, group.kind, group.ids, degree, data=True)
    blocks = value_blocks(*rule.weights.shape)
    counts.append(len(blocks))
    for sl in blocks:
        yield sl, QuadRule(rule.points[sl], rule.weights[sl], degree)


def _data_results(mesh, k):
    rng = np.random.default_rng(5)
    q, v = TrigScalar.random(rng), TrigVector.random(rng)
    bank = BasisBank(mesh, k)
    out = {}
    for which in ("grad", "curl", "div", "l2"):
        space = make_space(mesh, which, k, bank=bank)
        f = q.eval if which in ("grad", "l2") else v.eval
        dofs = interpolate(space, f).values
        out[which, "interpolate"] = dofs
        if which == "l2":
            continue
        out[which, "load_vector"] = load_vector(space, f)
        out[which, "l2_error"] = _l2_error_sq(space, op_potential, 1.1 * dofs, f)
    curl = make_space(mesh, "curl", k, bank=bank)
    out["curl", "curl_error"] = _l2_error_sq(
        curl, op_curl_cell, out["curl", "interpolate"], v.curl().eval)
    return out


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", list(MESHES))
def test_streamed_data_rules_match_whole_group_rule(monkeypatch, name, k):
    mesh = MESHES[name]()
    streamed = _data_results(mesh, k)
    blocks = []
    monkeypatch.setattr(BasisBank, "data_blocks", lambda bank, group, degree:
                        _whole_group_blocks(bank, group, degree, blocks))
    whole = _data_results(mesh, k)
    assert streamed.keys() == whole.keys()
    for key in streamed:
        assert np.array_equal(streamed[key], whole[key]), key
    if name == "jittered-tet2":
        assert max(blocks) > 1  # a group is split, so the blocks are tested


@pytest.mark.parametrize("mesh, k", [
    (lambda: jittered_tet_mesh(2, 1), 0),
    (lambda: generate_cubic_mesh(2), 1),
], ids=["jittered-tet2-k0", "cubic2-k1"])
def test_bank_holds_no_data_rule_after_error_norms(mesh, k):
    mesh = mesh()
    problem = polyddr.manufactured_problem(mesh, k)
    field, potential = polyddr.solve(polyddr.assemble(problem))
    polyddr.error_norms(problem, field, potential)
    bank = problem.spaces()[0].bank
    assert bank._group_rules
    # every rule the bank holds is a polynomial (vertex-fan) rule
    for (kind, gid, degree, *_), rule in bank._group_rules.items():
        poly = entity_rule(mesh, kind, bank.groups(kind)[gid].ids, degree)
        assert np.array_equal(rule.points, poly.points), (kind, gid, degree)


def test_load_vector_peak_stays_below_the_whole_cell_data_rule():
    mesh = jittered_tet_mesh(4, 0)
    space = make_space(mesh, "div", 0)
    for group in space.bank.groups("cell"):
        op_potential(space, group)
    source = manufactured_solution()["source"]
    tracemalloc.start()
    try:
        load_vector(space, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole = entity_rule(mesh, "cell", np.arange(mesh.num_cells),
                        2 * space.k + INTERP_DEGREE_MARGIN, data=True)
    assert peak < whole.points.nbytes + whole.weights.nbytes
