"""Data rules are streamed block by block and held by no cache.

Non-polynomial data (interpolation, the load vector, L2 errors against
smooth fields) is integrated on centroid-fan rules, built one value block
at a time by BasisBank.data_blocks. The oracle here builds the whole
group's data rule at once and hands out its value blocks, as a cached rule
would; every result must be bit for bit the same. The memory tests check
that no data rule outlives its block.

Several fields interpolated in one call share each block's rule and its
monomial table: the results must be bit for bit those of separate calls,
and error_norms must build each data rule, and tabulate monomials on it,
once per block.
"""

import itertools
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
import polyddr.polyspaces as polyspaces
from polyddr.polyspaces import BasisBank, _ScalarCore, value_blocks
from polyddr.products import load_vector
from polyddr.quadrature import QuadRule, data_rule_size, entity_rule
from polyddr.scheme import manufactured_solution
from polyddr.verification import TrigScalar, TrigVector, _l2_error_sq

from meshes import jittered_tet_mesh

MESHES = {
    "tet1": lambda: generate_tet_mesh(1),
    "cubic2": lambda: generate_cubic_mesh(2),
    "agglo2": lambda: agglomerate_pairs(generate_cubic_mesh(2), seed=1),
    "jittered-tet2": lambda: jittered_tet_mesh(2, 1),
}
WHICHES = ("grad", "curl", "div", "l2")


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


@pytest.mark.parametrize("size", [4096, 65536])
@pytest.mark.parametrize("name, k", [("jittered-tet2", 0), ("cubic2", 1)])
def test_block_size_does_not_change_the_data_results(monkeypatch, size,
                                                      name, k):
    """BLOCK_VALUES sizes the blocks for the cache only: interpolates,
    load vectors and L2 errors are the same bit for bit at any size."""
    mesh = MESHES[name]()
    default = _data_results(mesh, k)
    monkeypatch.setattr(polyspaces, "BLOCK_VALUES", size)
    resized = _data_results(mesh, k)
    assert len(default) == 11
    for key in default:
        assert np.array_equal(default[key], resized[key]), key


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
    # every rule the bank holds, on a full group or on a representative
    # group (one entity per congruence class), is a polynomial (vertex-fan)
    # rule of that group's entities
    for (group, degree), rule in bank._group_rules.items():
        poly = entity_rule(mesh, group.kind, group.ids, degree)
        assert np.array_equal(rule.points, poly.points), (group.kind, degree)
        assert np.array_equal(rule.weights, poly.weights), (group.kind, degree)
    reps = [g for g, _ in bank._group_rules
            if all(g is not full for full in bank.groups(g.kind))]
    # on the cubes (6 face classes of 36 faces) the face cores are built
    # on representative groups; every jittered tet is a class of its own
    assert bool(reps) == (mesh.num_cells == 8)


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


# ----------------------------------------------------------------------
# several fields in one pass


ONE_PASS_MESHES = {
    "cubic2": lambda: generate_cubic_mesh(2),
    "tet2": lambda: generate_tet_mesh(2),
    "jittered-tet2": lambda: jittered_tet_mesh(2, 1),
    "agglo2": lambda: agglomerate_pairs(generate_cubic_mesh(2), seed=1),
}


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", list(ONE_PASS_MESHES))
def test_tuple_interpolation_matches_separate_calls(name, k):
    """Every pair of the four spaces, a space with itself included, in one
    call against two calls; the second slot takes other fields than the
    first, so a swapped or shared result shows."""
    mesh = ONE_PASS_MESHES[name]()
    rng = np.random.default_rng(8)
    scalars = (TrigScalar.random(rng).eval, TrigScalar.random(rng).eval)
    vectors = (TrigVector.random(rng).eval, TrigVector.random(rng).eval)
    bank = BasisBank(mesh, k)
    spaces = {w: make_space(mesh, w, k, bank=bank) for w in WHICHES}

    def field(which, slot):
        return (scalars if which in ("grad", "l2") else vectors)[slot]

    alone = {(w, slot): interpolate(spaces[w], field(w, slot)).values
             for w in WHICHES for slot in (0, 1)}
    for a, b in itertools.combinations_with_replacement(WHICHES, 2):
        got = interpolate((spaces[a], spaces[b]), (field(a, 0), field(b, 1)))
        assert [v.space for v in got] == [spaces[a], spaces[b]]
        assert np.array_equal(got[0].values, alone[a, 0]), (a, b)
        assert np.array_equal(got[1].values, alone[b, 1]), (a, b)


def test_tuple_interpolation_rejects_mismatched_arguments():
    mesh = generate_cubic_mesh(1)
    curl, div = (make_space(mesh, w, 0) for w in ("curl", "div"))
    f = manufactured_solution()["field"]
    for space, fields in (((curl,), (f, f)), ((curl,), f), (curl, (f,)),
                          ((), ())):
        with pytest.raises(ValueError, match="equal-length"):
            interpolate(space, fields)
    with pytest.raises(ValueError, match="share one basis bank"):
        interpolate((curl, div), (f, f))


@pytest.mark.parametrize("mesh, k", [
    (lambda: jittered_tet_mesh(2, 1), 0),
    (lambda: generate_cubic_mesh(2), 1),
], ids=["jittered-tet2-k0", "cubic2-k1"])
def test_error_norms_builds_each_data_rule_once(monkeypatch, mesh, k):
    """One error_norms call builds one data rule per data block of the
    field and flux spaces and tabulates the monomials at its points once."""
    mesh = mesh()
    problem = polyddr.manufactured_problem(mesh, k)
    field, potential = polyddr.solve(polyddr.assemble(problem))
    sc, sd, _ = problem.spaces()
    bank, degree = sc.bank, 2 * k + INTERP_DEGREE_MARGIN
    blocks = sum(
        len(value_blocks(len(g), data_rule_size(mesh, kind, g.ids[0], degree)))
        for kind in ("edge", "face", "cell") if sc.width[kind] or sd.width[kind]
        for g in bank.groups(kind))

    rules, tables = [], []
    build, tabulate = polyspaces.entity_rule, _ScalarCore._monomials

    def counted_rule(*args, **kwargs):
        rule = build(*args, **kwargs)
        if kwargs.get("data"):
            rules.append(rule.points)
        return rule

    def counted_monomials(core, pts, *args, **kwargs):
        if any(pts is p for p in rules):
            tables.append(id(pts))
        return tabulate(core, pts, *args, **kwargs)

    monkeypatch.setattr(polyspaces, "entity_rule", counted_rule)
    monkeypatch.setattr(_ScalarCore, "_monomials", counted_monomials)
    polyddr.error_norms(problem, field, potential)
    assert len(rules) == blocks
    assert len(tables) == len(set(tables)) == blocks


def test_two_field_interpolation_peak_stays_below_the_whole_cell_data_rule():
    mesh = jittered_tet_mesh(4, 0)
    bank = BasisBank(mesh, 1)
    spaces = tuple(make_space(mesh, w, 1, bank=bank) for w in ("curl", "div"))
    fields = manufactured_solution()
    fields = (fields["field"], fields["vector_potential"])
    interpolate(spaces, fields)  # the bases and cores, which the bank keeps
    tracemalloc.start()
    try:
        interpolate(spaces, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole = entity_rule(mesh, "cell", np.arange(mesh.num_cells),
                        2 * bank.k + INTERP_DEGREE_MARGIN, data=True)
    assert peak < whole.points.nbytes + whole.weights.nbytes
