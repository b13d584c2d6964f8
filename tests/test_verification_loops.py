"""Verification's stacked sums against the per-cell loops they replace.

The oracles below compute, one cell at a time, the L2 errors of the
primal consistency check, its stabilization seminorms, the load vectors
paired with the dofs in the adjoint functionals, and the mean constraint of
the scalar Poincaré constant (from the closed form of the first orthonormal
member, 1/sqrt|T|). Swapped in for the stacked routines, they give every
series and constant a second value.

The polynomial-consistency check has two more: the local interpolation of
one entity, which integrates each dof block against the tabulated family
bases at that entity's own rule, and the check's per-cell body, which
builds every identity of one cell (and of each of its faces) from the
per-entity operators and that local interpolation.
"""

import sys

import numpy as np
import pytest

import polyddr.verification as ver
from polyddr import ddrcore
from polyddr.ddrcore import (
    _boundary_parts,
    local_interpolation,
    make_space,
    op_potential,
    op_tangential_trace,
)
from polyddr.mesh import agglomerate_pairs, generate_cubic_mesh, generate_tet_mesh
from polyddr.polyspaces import INTERP_DEGREE_MARGIN, BasisBank
from polyddr.products import l2_product, stabilization
from polyddr.quadrature import entity_rule
from polyddr.verification import (
    CheckReport,
    check_adjoint_decay,
    check_polynomial_consistency,
    check_primal_consistency,
)

from meshes import jittered_tet_mesh
from oracles import integrate_products
from stacks import basis_of, entity, local_dofs, rule_of

CONFIGS = [
    ("cubic", 0, (2, 4, 8)),
    ("tet", 1, (1, 2)),
    ("agglo", 1, (1, 2)),
    ("agglo", 2, (1, 2)),
    ("cubic", 1, (1, 2, 4)),
]
IDS = [f"{fam}-k{k}" for fam, k, _ in CONFIGS]


def _l2_error_sq_by_cells(space, op, dofs, f):
    total = 0.0
    for c in range(space.mesh.num_cells):
        rule = entity_rule(space.mesh, "cell", [c],
                           2 * space.k + INTERP_DEGREE_MARGIN, data=True)
        pts, weights = rule.points[0], rule.weights[0]
        loc = entity(op, space, "cell", c)
        vals = np.tensordot(loc.apply(dofs),
                            loc.target.eval(rule.points, loc.sel)[0], axes=1)
        diff = (vals - f(pts)).reshape(len(weights), -1)
        total += float(np.sum(diff ** 2 * weights[:, None]))
    return total


def _stabilization_sq_by_cells(space, dofs):
    return sum(max(entity(stabilization, space, "cell", c).apply(dofs, dofs),
                   0.0)
               for c in range(space.mesh.num_cells))


def _load_vector_by_cells(space, f):
    out = np.zeros(space.dim)
    for c in range(space.mesh.num_cells):
        rule = entity_rule(space.mesh, "cell", [c],
                           2 * space.k + INTERP_DEGREE_MARGIN, data=True)
        pts, weights = rule.points[0], rule.weights[0]
        pot = entity(op_potential, space, "cell", c)
        npts = len(weights)
        vals = pot.target.eval(rule.points, pot.sel)[0].reshape(
            pot.target.dim, npts, -1)
        fv = np.asarray(f(pts)).reshape(npts, -1)
        moments = np.einsum("mpx,px,p->m", vals, fv, weights)
        out[pot.dofs] += pot.matrix.T @ moments
    return out


def _mean_by_cells(space, f):
    ell = np.zeros(space.dim)
    for c in range(space.mesh.num_cells):
        pot = entity(op_potential, space, "cell", c)
        ell[pot.dofs] += np.sqrt(space.mesh.cell_volumes[c]) * pot.matrix[0]
    return ell


def _swap(monkeypatch, calls, name, fn):
    """Replace verification's name by fn, logging each call in calls."""

    def wrapper(*args):
        calls.append(name)
        return fn(*args)

    monkeypatch.setattr(ver, name, wrapper)


def _assert_series_close(got, want, suffix):
    keys = [key for key in want.metrics if key.endswith(suffix)]
    assert keys
    for key in keys:
        a, b = np.array(got.metrics[key]), np.array(want.metrics[key])
        assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b)), (key, a, b)
    assert got.passed == want.passed


@pytest.mark.parametrize("family,k,levels", CONFIGS, ids=IDS)
def test_primal_series_match_cell_loops(monkeypatch, family, k, levels):
    got = check_primal_consistency(family, k, levels)
    with monkeypatch.context() as m:
        calls = []
        _swap(m, calls, "_l2_error_sq", _l2_error_sq_by_cells)
        _swap(m, calls, "_stabilization_sq", _stabilization_sq_by_cells)
        want = check_primal_consistency(family, k, levels)
    assert len(calls) == 8 * len(levels)
    _assert_series_close(got, want, "_errors")


@pytest.mark.parametrize("family,k,levels", CONFIGS, ids=IDS)
def test_adjoint_series_match_cell_loops(monkeypatch, family, k, levels):
    got = check_adjoint_decay(family, k, levels)
    with monkeypatch.context() as m:
        calls = []
        _swap(m, calls, "load_vector", _load_vector_by_cells)
        want = check_adjoint_decay(family, k, levels)
    assert len(calls) == 3 * len(levels)
    _assert_series_close(got, want, "_values")


@pytest.mark.parametrize("mesh,k", [
    (lambda: generate_cubic_mesh(1), 0),
    (lambda: generate_cubic_mesh(2), 0),
    (lambda: generate_cubic_mesh(2), 1),
    (lambda: generate_tet_mesh(1), 1),
    (lambda: agglomerate_pairs(generate_cubic_mesh(2), seed=0), 1),
], ids=["cubic1-k0", "cubic2-k0", "cubic2-k1", "tet1-k1", "agglo2-k1"])
def test_poincare_constants_match_cell_loop(monkeypatch, mesh, k):
    mesh = mesh()
    got = ver._poincare_constants(mesh, k)
    with monkeypatch.context() as m:
        calls = []
        _swap(m, calls, "load_vector", _mean_by_cells)
        want = ver._poincare_constants(mesh, k)
    assert calls == ["load_vector"]
    assert np.all(np.abs(np.subtract(got, want)) <= 1e-10 * np.abs(want))


@pytest.mark.parametrize("check", [check_primal_consistency, check_adjoint_decay])
@pytest.mark.parametrize("levels", [(), (2,)])
def test_rate_checks_reject_fewer_than_two_levels(check, levels):
    with pytest.raises(ValueError, match="a rate needs at least two levels"):
        check("cubic", 0, levels)


# ----------------------------------------------------------------------
# polynomial consistency


def _local_interpolation_by_entity(space, kind, index, basis, sel):
    """Local interpolation on one face or cell of the polynomial basis
    stacked entity sel ([slot]) of the stack basis: column j is the local
    dof vector (local_dofs order) of member j. Each block integrates the
    member values, tangential on field-space edges and normal on flux-space
    faces, against the tabulated family bases at its entity's polynomial
    rule."""
    mesh, bank = space.mesh, space.bank
    idx, layout = local_dofs(space, kind, index)
    J = np.zeros((len(idx), basis.dim))
    for (ent, i), sl in layout.items():
        if sl.start == sl.stop:
            continue
        if ent == "vertex":
            J[sl] = basis.eval(mesh.vertices[[i]][None], sel)[0].T
            continue
        rule = rule_of(bank, ent, i)
        vals = basis.eval(rule.points, sel)[0]
        if ent == "edge" and space.which == "curl":
            vals = vals @ mesh.edge_tangents[i]
        elif ent == "face" and space.which == "div":
            vals = vals @ mesh.face_normals[i]
        J[sl] = np.concatenate([
            integrate_products(b.eval(rule.points, bs)[0], vals,
                               rule.weights[0])
            for b, bs in (basis_of(bank, fam, ent, i, l)
                          for fam, l in space.families[ent]) if b.dim])
    return J


def _local_interpolation_by_entities(space, group, basis, slots=None):
    """The stacked local interpolation, one entity at a time."""
    slots = range(len(group)) if slots is None else slots
    return np.stack([
        _local_interpolation_by_entity(space, group.kind, int(group.ids[s]),
                                       basis, [g])
        for g, s in enumerate(slots)])


def _consistency_by_cells(mesh, k, seed=0, bank=None):
    """check_polynomial_consistency cell by cell, and face by face of each
    cell, with the per-entity local interpolation."""
    report = CheckReport(f"polynomial_consistency(k={k})")
    bank = bank if bank is not None else BasisBank(mesh, k)
    spaces = {w: make_space(mesh, w, k, bank=bank) for w in ("grad", "curl", "div")}
    rng = np.random.default_rng(seed)
    interp = _local_interpolation_by_entity
    worst = dict.fromkeys(("scalar_potential", "field_potential",
                           "flux_potential_trimmed", "tangential_trace_trimmed",
                           "stabilization_on_interpolates"), 0.0)
    offenders = {}

    def track(key, value, entity):
        if value > worst[key]:
            worst[key] = value
            offenders[key] = entity

    for c in range(mesh.num_cells):
        pots = {w: entity(op_potential, spaces[w], "cell", c) for w in spaces}
        J = {w: interp(spaces[w], "cell", c, pots[w].target, pots[w].sel)
             for w in spaces}
        for which, key in (("grad", "scalar_potential"), ("curl", "field_potential")):
            pot = pots[which]
            resid = np.abs(pot.matrix @ J[which] - np.eye(pot.target.dim)).max()
            track(key, resid, ("cell", c))

        pot = pots["div"]
        rt, rs = basis_of(bank, "raviart_thomas", "cell", c, k + 1)
        proj = rt._Ws[rs][0][:, : pot.target.dim].T
        resid = np.abs(pot.matrix @ interp(spaces["div"], "cell", c, rt, rs)
                       - proj).max()
        track("flux_potential_trimmed", resid / max(np.abs(proj).max(), 1e-30),
              ("cell", c))

        space = spaces["curl"]
        ne, ns = basis_of(bank, "nedelec", "cell", c, k + 1)
        for f in [int(x) for x in mesh.cells[c]]:
            tr = entity(op_tangential_trace, space, "face", f)
            rule = rule_of(bank, "face", f)
            nrm = mesh.face_normals[f]
            vals = ne.eval(rule.points, ns)[0]
            tang = vals - (vals @ nrm)[:, :, None] * nrm
            proj = integrate_products(tr.target.eval(rule.points, tr.sel)[0],
                                      tang, rule.weights[0])
            resid = np.abs(tr.matrix @ interp(space, "face", f, ne, ns)
                           - proj).max()
            track("tangential_trace_trimmed",
                  resid / max(np.abs(proj).max(), 1e-30), ("face", f))

        for which, space in spaces.items():
            v = J[which] @ rng.standard_normal(pots[which].target.dim)
            s = entity(stabilization, space, "cell", c).matrix
            m = entity(l2_product, space, "cell", c).matrix
            num = abs(float(v @ s @ v))
            den = max(float(v @ m @ v), 1e-30)
            track("stabilization_on_interpolates", num / den, ("cell", c, which))

    for key, value in worst.items():
        report.gate_below(key, value, 1e-9, context=str(offenders.get(key, "")))
    return report


CONSISTENCY_MESHES = {
    "tet1": lambda: generate_tet_mesh(1),
    "cubic2": lambda: generate_cubic_mesh(2),
    "agglo2": lambda: agglomerate_pairs(generate_cubic_mesh(2), seed=1),
    "agglo3": lambda: agglomerate_pairs(generate_cubic_mesh(3), seed=1),
    "jittered-tet2": lambda: jittered_tet_mesh(2, 3),
}


def _assert_close_rel(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(CONSISTENCY_MESHES))
def test_local_interpolation_matches_entity_oracle(name, k):
    """The stacked local interpolation of every cell potential's target and
    of the Raviart-Thomas basis on cell closures, and of the cell Nedelec
    basis on the closure of each face position, against the per-entity
    oracle."""
    mesh = CONSISTENCY_MESHES[name]()
    bank = BasisBank(mesh, k)
    spaces = {w: make_space(mesh, w, k, bank=bank) for w in ("grad", "curl", "div")}
    for group in bank.groups("cell"):
        for which, space in spaces.items():
            basis = op_potential(space, group).target
            _assert_close_rel(local_interpolation(space, group, basis),
                              _local_interpolation_by_entities(space, group, basis))
        rt = bank.group_basis(group, "raviart_thomas", k + 1)
        _assert_close_rel(local_interpolation(spaces["div"], group, rt),
                          _local_interpolation_by_entities(spaces["div"], group, rt))
        ne = bank.group_basis(group, "nedelec", k + 1)
        for _, sub, slots, _, _ in _boundary_parts(spaces["curl"], group):
            _assert_close_rel(
                local_interpolation(spaces["curl"], sub, ne, slots),
                _local_interpolation_by_entities(spaces["curl"], sub, ne, slots))


def _assert_reports_agree(got, want):
    assert got.metrics.keys() == want.metrics.keys()
    for key, value in want.metrics.items():
        assert abs(got.metrics[key] - value) <= 1e-12, (key, got.metrics[key], value)
    assert got.passed == want.passed


@pytest.mark.parametrize("name,k", [
    ("tet1", 0), ("tet1", 1), ("tet1", 2), ("tet1", 3), ("cubic2", 1),
    ("agglo2", 1), ("agglo3", 1), ("jittered-tet2", 2),
])
def test_consistency_check_matches_cell_oracle(monkeypatch, name, k):
    """Every metric of the stacked check agrees with the per-cell loop, and
    with the stacked check running on the per-entity local interpolation."""
    mesh = CONSISTENCY_MESHES[name]()
    got = check_polynomial_consistency(mesh, k, seed=4)
    _assert_reports_agree(got, _consistency_by_cells(mesh, k, seed=4))
    with monkeypatch.context() as m:
        calls = []
        _swap(m, calls, "local_interpolation", _local_interpolation_by_entities)
        swapped = check_polynomial_consistency(mesh, k, seed=4)
    assert calls
    _assert_reports_agree(swapped, got)


def _corrupt(monkeypatch, name, which, kind, index, factor=1.0 + 1e-6):
    """Scale entity index's slot, once, in the stacks that the ddrcore entry
    point name returns for the space which, under every name that refers
    to the entry point in polyddr and in this module."""
    original = getattr(ddrcore, name)
    done = {}  # id -> stack, kept alive so that ids stay unique

    def corrupted(space, group):
        out = original(space, group)
        owner, slot = space.bank.group(kind, index)
        if space.which == which and owner is group and id(out) not in done:
            done[id(out)] = out
            out.matrix[slot] *= factor
        return out

    modules = [m for key, m in sys.modules.items() if key.startswith("polyddr.")]
    for module in modules + [sys.modules[__name__]]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, corrupted)


def _failure(report, key):
    lines = [line for line in report.failures if line.startswith(f"{key} =")]
    assert len(lines) == 1, report.failures
    return lines[0]


@pytest.mark.parametrize("which,key", [("grad", "scalar_potential"),
                                       ("curl", "field_potential")])
def test_consistency_names_the_corrupted_cell(monkeypatch, which, key):
    mesh, c = generate_tet_mesh(1), 3
    _corrupt(monkeypatch, "op_potential", which, "cell", c)
    for check in (check_polynomial_consistency, _consistency_by_cells):
        report = check(mesh, 1)
        assert not report.passed
        assert _failure(report, key).endswith(f"(('cell', {c}))")


def test_consistency_names_the_corrupted_face(monkeypatch):
    mesh = agglomerate_pairs(generate_cubic_mesh(2), seed=1)
    f = mesh.num_faces // 2
    _corrupt(monkeypatch, "op_tangential_trace", "curl", "face", f)
    for check in (check_polynomial_consistency, _consistency_by_cells):
        report = check(mesh, 1)
        assert not report.passed
        assert _failure(report, "tangential_trace_trimmed").endswith(
            f"(('face', {f}))")


def test_consistency_fails_on_a_nan_potential(monkeypatch):
    """A NaN residual fails the report and names its cell; the per-cell
    loop's strict comparison skipped it and passed."""
    mesh, c = generate_tet_mesh(1), 2
    _corrupt(monkeypatch, "op_potential", "grad", "cell", c, np.nan)
    report = check_polynomial_consistency(mesh, 0)
    assert not report.passed
    assert _failure(report, "scalar_potential") == (
        f"scalar_potential = nan not below 1e-09 (('cell', {c}))")
