"""Verification's stacked sums against the per-cell loops they replace.

The oracles below compute, one cell at a time, the L2 errors of the
primal consistency check, its stabilization seminorms, the load vectors
paired with the dofs in the adjoint functionals, and the mean constraint of
the scalar Poincaré constant (from the closed form of the first orthonormal
member, 1/sqrt|T|). Swapped in for the stacked routines, they give every
series and constant a second value.
"""

import numpy as np
import pytest

import polyddr.verification as ver
from polyddr.ddrcore import INTERP_DEGREE_MARGIN, op_potential
from polyddr.mesh import agglomerate_pairs, generate_cubic_mesh, generate_tet_mesh
from polyddr.products import stabilization
from polyddr.verification import check_adjoint_decay, check_primal_consistency

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
        rule = space.bank.rule("cell", c, 2 * space.k + INTERP_DEGREE_MARGIN,
                               data=True)
        loc = op(space, c)
        vals = np.tensordot(loc.apply(dofs), loc.target.eval(rule.points), axes=1)
        diff = (vals - f(rule.points)).reshape(len(rule.weights), -1)
        total += float(np.sum(diff ** 2 * rule.weights[:, None]))
    return total


def _stabilization_sq_by_cells(space, dofs):
    return sum(max(stabilization(space, c).apply(dofs, dofs), 0.0)
               for c in range(space.mesh.num_cells))


def _load_vector_by_cells(space, f):
    out = np.zeros(space.dim)
    for c in range(space.mesh.num_cells):
        rule = space.bank.rule("cell", c, 2 * space.k + INTERP_DEGREE_MARGIN,
                               data=True)
        pot = op_potential(space, c)
        npts = len(rule.weights)
        vals = pot.target.eval(rule.points).reshape(pot.target.dim, npts, -1)
        fv = np.asarray(f(rule.points)).reshape(npts, -1)
        moments = np.einsum("mpx,px,p->m", vals, fv, rule.weights)
        out[pot.dofs] += pot.matrix.T @ moments
    return out


def _mean_by_cells(space, f):
    ell = np.zeros(space.dim)
    for c in range(space.mesh.num_cells):
        pot = op_potential(space, c)
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
