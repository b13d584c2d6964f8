"""Verification harness: report plumbing, trigonometric field oracles,
structural checks on small meshes, rate-check series shapes, Poincaré
constants, and one corrupted-input negative control per check."""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyddr.mesh import (
    Mesh,
    generate_cubic_mesh,
    generate_tet_mesh,
    agglomerate_pairs,
)
from polyddr.polyspaces import BasisBank, PolyBasis, recovery
import polyddr.verification as ver
from polyddr.verification import (
    CheckReport,
    TrigScalar,
    TrigVector,
    mesh_family,
    check_complex,
    check_commutation,
    check_polynomial_consistency,
    check_traces,
    check_recovery,
    check_primal_consistency,
    check_adjoint_decay,
    check_poincare,
)

from meshes import jittered_tet_mesh
from oracles import check_traces_by_points


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


def flip_face_edge_sign(mesh):
    hacked = copy.copy(mesh)
    signs = [s.copy() for s in mesh.face_edge_signs]
    signs[0][0] = -signs[0][0]
    hacked.face_edge_signs = tuple(signs)
    return hacked


def flip_cell_face_sign(mesh):
    hacked = copy.copy(mesh)
    signs = [s.copy() for s in mesh.cell_face_signs]
    signs[0][0] = -signs[0][0]
    hacked.cell_face_signs = tuple(signs)
    return hacked


# ----------------------------------------------------------------------
# report plumbing


def test_report_pass_and_fail_transitions():
    rep = CheckReport("demo")
    assert rep.status == "pass"
    rep.record("plain", 3)
    rep.gate_below("small", 1e-12, 1e-10)
    rep.gate_at_least("slope", 1.9, 1.7)
    rep.gate_equal("rank", 5, 5)
    assert rep.passed and not rep.failures

    rep.gate_below("big", 2.0, 1e-10, context="cell 7")
    assert rep.status == "FAIL"
    assert any("big" in f and "cell 7" in f for f in rep.failures)

    rep.gate_at_least("flat", 0.1, 0.7)
    rep.gate_equal("wrong", 4, 5)
    assert len(rep.failures) == 3


def test_report_lines_and_json_round_trip():
    rep = CheckReport("demo")
    rep.gate_below("resid", 1e-12, 1e-10)
    rep.notes.append("stage skipped")
    lines = rep.lines()
    assert lines[0] == "[pass] demo"
    assert any("resid" in line and "tol" in line for line in lines)
    assert any("note: stage skipped" in line for line in lines)

    data = json.loads(rep.to_json())
    assert data["name"] == "demo"
    assert data["status"] == "pass"
    assert data["metrics"]["resid"] == 1e-12
    assert data["tolerances"]["resid"] == "< 1e-10"
    assert data["notes"] == ["stage skipped"]


def test_mesh_family_names():
    assert mesh_family("cubic")(1).num_cells == 1
    assert mesh_family("tet")(1).num_cells == 6
    assert mesh_family("agglo")(2).num_cells < 8
    with pytest.raises(ValueError):
        mesh_family("spherical")


# ----------------------------------------------------------------------
# trigonometric fields carry their own derivatives


def _fd_gradient(f, pts, eps=1e-6):
    cols = []
    for a in range(3):
        shift = np.zeros(3)
        shift[a] = eps
        cols.append((f(pts + shift) - f(pts - shift)) / (2 * eps))
    return np.column_stack(cols)


def test_trig_scalar_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    field = TrigScalar.random(rng)
    pts = rng.uniform(0.1, 0.9, size=(40, 3))
    exact = field.grad().eval(pts)
    approx = _fd_gradient(field.eval, pts)
    assert np.abs(exact - approx).max() < 1e-6 * max(np.abs(exact).max(), 1.0)


def test_trig_vector_divergence_and_curl_match_finite_differences():
    rng = np.random.default_rng(4)
    field = TrigVector.random(rng)
    pts = rng.uniform(0.1, 0.9, size=(40, 3))

    jac = [_fd_gradient(lambda p, a=a: field.eval(p)[:, a], pts) for a in range(3)]
    div_fd = jac[0][:, 0] + jac[1][:, 1] + jac[2][:, 2]
    curl_fd = np.column_stack(
        [
            jac[2][:, 1] - jac[1][:, 2],
            jac[0][:, 2] - jac[2][:, 0],
            jac[1][:, 0] - jac[0][:, 1],
        ]
    )
    scale = max(np.abs(curl_fd).max(), 1.0)
    assert np.abs(field.div().eval(pts) - div_fd).max() < 1e-5 * scale
    assert np.abs(field.curl().eval(pts) - curl_fd).max() < 1e-5 * scale


def test_trig_calculus_identities():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, size=(30, 3))
    scalar = TrigScalar.random(rng)
    vec = TrigVector.random(rng)
    assert np.abs(scalar.grad().curl().eval(pts)).max() < 1e-12
    assert np.abs(vec.curl().div().eval(pts)).max() < 1e-12


# ----------------------------------------------------------------------
# complex and exactness


def test_complex_passes_on_small_cubic():
    rep = check_complex(generate_cubic_mesh(2), 0)
    assert rep.passed, rep.lines()
    assert rep.metrics["total_dofs"] == 125
    assert rep.metrics["rank_gradient"] == 26
    assert rep.metrics["rank_curl"] == 28
    assert rep.metrics["rank_divergence"] == 8
    assert rep.metrics["nullity_gradient"] == 1


def test_complex_passes_on_tet_and_agglomerated():
    assert check_complex(generate_tet_mesh(1), 1).passed
    assert check_complex(agglomerate_pairs(generate_cubic_mesh(2), seed=0), 0).passed


def test_complex_skips_rank_stage_above_dense_limit(monkeypatch):
    monkeypatch.setattr(ver, "DENSE_DOF_LIMIT", 10)
    rep = check_complex(generate_cubic_mesh(1), 0)
    assert rep.passed
    assert "rank_gradient" not in rep.metrics
    assert any("skipped" in note for note in rep.notes)


def test_complex_fails_on_flipped_edge_sign():
    rep = check_complex(flip_face_edge_sign(generate_cubic_mesh(1)), 0)
    assert not rep.passed
    assert any("curl_of_gradient" in f for f in rep.failures)


# ----------------------------------------------------------------------
# commutation


def test_commutation_passes_on_cubic_and_tet():
    assert check_commutation(generate_cubic_mesh(2), 0).passed
    assert check_commutation(generate_tet_mesh(1), 1).passed


def test_commutation_is_deterministic():
    a = check_commutation(generate_cubic_mesh(1), 0, seed=7)
    b = check_commutation(generate_cubic_mesh(1), 0, seed=7)
    assert a.metrics == b.metrics


def test_commutation_fails_under_crude_quadrature():
    rep = check_commutation(generate_cubic_mesh(2), 0, degree=2)
    assert not rep.passed
    assert rep.metrics["commutation_gradient_rel"] > 1e-8


# ----------------------------------------------------------------------
# polynomial consistency


@pytest.mark.parametrize("k", [0, 1])
def test_polynomial_consistency_passes(k):
    assert check_polynomial_consistency(generate_cubic_mesh(1), k).passed
    assert check_polynomial_consistency(generate_tet_mesh(1), k).passed


def test_polynomial_consistency_passes_on_agglomerated():
    mesh = agglomerate_pairs(generate_cubic_mesh(2), seed=0)
    assert check_polynomial_consistency(mesh, 0).passed


def test_polynomial_consistency_fails_on_flipped_face_sign():
    rep = check_polynomial_consistency(flip_cell_face_sign(generate_cubic_mesh(1)), 0)
    assert not rep.passed
    assert all("(('cell', 0" in line for line in rep.failures), rep.failures


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), amplitude=st.floats(0.0, 0.15),
       k=st.integers(0, 2))
def test_polynomial_consistency_on_jittered_tets(seed, amplitude, k):
    """Distorted tets: interior vertices of tet:2 jittered by up to 0.15 h."""
    rep = check_polynomial_consistency(jittered_tet_mesh(2, seed, amplitude), k)
    assert rep.passed, rep.failures


def test_polynomial_consistency_on_jittered_tets_at_degree_three():
    rep = check_polynomial_consistency(jittered_tet_mesh(2, 11), 3)
    assert rep.passed, rep.failures


# ----------------------------------------------------------------------
# traces and recovery


def test_traces_pass_on_pyramid():
    rep = check_traces(pyramid_mesh(), max_degree=3)
    assert rep.passed, rep.lines()


def non_planar_pyramid(monkeypatch):
    """A pyramid whose base is lifted at one corner: Mesh would reject the
    non-planar face, so validation is patched out for its construction."""
    verts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.12],
            [0.0, 1.0, 0.0],
            [0.4, 0.5, 0.9],
        ]
    )
    faces = [[0, 3, 2, 1], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
    with monkeypatch.context() as m:
        m.setattr(Mesh, "_validate", lambda self: None)
        return Mesh(verts, faces, [[0, 1, 2, 3, 4]])


def _failed(report):
    return {line.split(" =")[0] for line in report.failures}


def test_traces_fail_on_non_planar_face(monkeypatch):
    mesh = non_planar_pyramid(monkeypatch)
    rep = check_traces(mesh, max_degree=2)
    assert not rep.passed
    assert _failed(rep) == _failed(check_traces_by_points(mesh, max_degree=2)) == {
        "face_rotated_trace_resid", "face_normal_trace_resid"}


TRACE_MESHES = {
    "pyr": pyramid_mesh,
    "agglo2": lambda: agglomerate_pairs(generate_cubic_mesh(2), seed=0),
    "tet1": lambda: generate_tet_mesh(1),
    "cubic2": lambda: generate_cubic_mesh(2),
    "jittered-tet2": lambda: jittered_tet_mesh(2, 3),
}


@pytest.mark.parametrize("name", sorted(TRACE_MESHES))
def test_traces_pass_with_the_point_oracle(name):
    mesh = TRACE_MESHES[name]()
    for check in (check_traces, check_traces_by_points):
        rep = check(mesh, max_degree=3)
        assert rep.passed, (check.__name__, rep.lines())


@pytest.mark.parametrize("family,failing", [
    ("nedelec", {"face_rotated_trace_resid", "edge_tangential_trace_resid"}),
    ("raviart_thomas", {"face_normal_trace_resid"}),
])
def test_traces_fail_on_full_vector_cell_spaces(monkeypatch, family, failing):
    """A cell trimmed family swapped for the full vector space of its
    degree, whose traces leave the face and edge spaces: the quantities
    that read the family fail and name a face or edge and a degree."""
    original = BasisBank.group_basis

    def swapped(self, group, fam, l):
        if group.kind == "cell" and fam == family:
            fam = "vector"
        return original(self, group, fam, l)

    monkeypatch.setattr(BasisBank, "group_basis", swapped)
    mesh = pyramid_mesh()
    for check in (check_traces, check_traces_by_points):
        rep = check(mesh, max_degree=2)
        assert _failed(rep) == failing, (check.__name__, rep.failures)
        for line in rep.failures:
            entity, l = map(int, re.search(r"\(\((\d+), (\d+)\)\)$", line).groups())
            kind = "edge" if line.startswith("edge") else "face"
            assert entity < getattr(mesh, f"num_{kind}s") and 1 <= l <= 2, line


def test_polynomials_are_tabulated_only_at_vertices(monkeypatch):
    """The consistency and trace checks pair polynomials in coefficient
    space: every point any basis is evaluated at is a mesh vertex."""
    mesh = generate_tet_mesh(1)
    original = PolyBasis.eval
    seen = []

    def spy(self, pts, sel=None):
        seen.append(np.asarray(pts).reshape(-1, 3))
        return original(self, pts, sel)

    monkeypatch.setattr(PolyBasis, "eval", spy)
    assert check_polynomial_consistency(mesh, 3).passed
    assert check_traces(mesh, max_degree=3).passed
    assert seen
    for pts in seen:
        assert (pts[:, None] == mesh.vertices[None]).all(axis=2).any(axis=1).all()


def test_recovery_passes_on_pyramid():
    rep = check_recovery(pyramid_mesh(), max_degree=3)
    assert rep.passed, rep.lines()
    assert rep.metrics["recovery_resid"] < 1e-9


def test_recovery_residual_detects_corrupted_projection():
    bank = BasisBank(pyramid_mesh(), 2)
    (group,) = bank.groups("cell")
    bs = bank.group_basis(group, "grad_image", 2)
    bc = bank.group_basis(group, "grad_complement", 2)
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(bs.dim + bc.dim)
    image_part = bs._Ws[0] @ coeffs
    complement_part = bc._Ws[0] @ coeffs
    corrupted = complement_part + 1e-3 * np.abs(complement_part).max() * (
        rng.standard_normal(complement_part.shape)
    )
    back = recovery(bs, bc, image_part[None], corrupted[None])[0][0]
    resid = np.abs(back - coeffs).max() / np.abs(coeffs).max()
    assert resid > 1e-9


def test_recovery_fails_its_report_on_a_dependent_pair(monkeypatch):
    # a cell complement sharing a member with its image makes the pair
    # dependent: the report fails, naming the pair and its condition number
    build = BasisBank.group_basis

    def dependent(self, group, family, l):
        out = build(self, group, family, l)
        if (group.kind, family, l) == ("cell", "grad_complement", 2):
            out = copy.copy(out)
            out._Ws = out._Ws.copy()
            out._Ws[:, 0] = build(self, group, "grad_image", l)._Ws[:, 0]
        return out

    monkeypatch.setattr(BasisBank, "group_basis", dependent)
    rep = check_recovery(generate_cubic_mesh(1), max_degree=3)
    assert not rep.passed
    assert rep.metrics["recovery_resid"] == np.inf
    assert "('cell', 0, 'grad_image', 2), condition number" in rep.failures[0]


# ----------------------------------------------------------------------
# rate checks: series shapes at desk scale, gates exercised in the
# acceptance suite at the (2, 4, 8) refinement levels


PRIMAL_SERIES = (
    "scalar_potential",
    "field_potential",
    "flux_potential",
    "cell_curl",
    "cell_divergence",
    "stab_scalar",
    "stab_field",
    "stab_flux",
)


def test_primal_consistency_series_shapes():
    rep = check_primal_consistency("cubic", 0, (2, 4))
    for key in PRIMAL_SERIES:
        errs = rep.metrics[f"{key}_errors"]
        assert len(errs) == 2
        assert all(e > 0 for e in errs)
        assert errs[1] < errs[0]
        assert f"{key}_slope" in rep.metrics


def test_primal_consistency_fails_on_corrupted_family(monkeypatch):
    monkeypatch.setattr(
        ver,
        "mesh_family",
        lambda name: lambda n: flip_face_edge_sign(generate_cubic_mesh(n)),
    )
    rep = check_primal_consistency("cubic", 0, (1, 2, 4))
    assert not rep.passed


def test_adjoint_decay_series_shapes():
    rep = check_adjoint_decay("cubic", 0, (2, 4))
    for key in ("gradient", "curl", "divergence"):
        vals = rep.metrics[f"adjoint_{key}_values"]
        assert len(vals) == 2
        assert all(v > 0 for v in vals)
        assert vals[1] < vals[0]


def test_adjoint_decay_fails_on_corrupted_family(monkeypatch):
    monkeypatch.setattr(
        ver,
        "mesh_family",
        lambda name: lambda n: flip_cell_face_sign(generate_cubic_mesh(n)),
    )
    rep = check_adjoint_decay("cubic", 0, (1, 2, 4))
    assert not rep.passed
    assert any("adjoint_gradient" in f for f in rep.failures)


# ----------------------------------------------------------------------
# Poincaré constants


def test_poincare_constants_on_unit_cube():
    rep = check_poincare(generate_cubic_mesh(1), 0, refined=generate_cubic_mesh(2))
    assert rep.passed, rep.lines()
    assert rep.metrics["poincare_gradient"] == pytest.approx(0.763763, rel=1e-4)
    assert rep.metrics["poincare_curl"] == pytest.approx(0.707107, rel=1e-4)
    assert rep.metrics["poincare_divergence"] == pytest.approx(0.485492, rel=1e-4)
    assert rep.metrics["poincare_gradient_ratio"] < ver.POINCARE_RATIO


def test_poincare_fails_above_dense_limit(monkeypatch):
    monkeypatch.setattr(ver, "DENSE_DOF_LIMIT", 10)
    rep = check_poincare(generate_cubic_mesh(1), 0)
    assert not rep.passed
    assert any("exceed" in f for f in rep.failures)


def test_poincare_fails_when_the_refined_mesh_exceeds_the_dense_limit(
        monkeypatch):
    monkeypatch.setattr(ver, "DENSE_DOF_LIMIT", 100)
    rep = check_poincare(generate_cubic_mesh(1), 0,
                         refined=generate_cubic_mesh(2))
    assert not rep.passed
    assert "poincare_gradient" in rep.metrics
    assert any(f.startswith("refined mesh:") and "exceed" in f
               for f in rep.failures), rep.failures
