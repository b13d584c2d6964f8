"""Acceptance gate: twelve pinned criteria covering dimension tables,
complex and exactness identities, polynomial consistency, commutation,
convergence and consistency rates, Poincaré constants, trace and
recovery identities, and CLI determinism.  Tolerances and time budgets
are stated inline and are not to be loosened."""

import time

import numpy as np
import pytest

from polyddr.mesh import generate_cubic_mesh, generate_tet_mesh, agglomerate_pairs
from polyddr.polyspaces import BasisBank
from polyddr.ddrcore import make_space, global_operator
from polyddr.scheme import manufactured_problem, assemble, solve, error_norms
from polyddr.verification import (
    check_complex,
    check_commutation,
    check_polynomial_consistency,
    check_traces,
    check_recovery,
    check_primal_consistency,
    check_adjoint_decay,
    check_poincare,
)
from polyddr.cli import main

from stacks import local_dofs


@pytest.fixture(scope="module")
def meshes():
    return {
        "cubic1": generate_cubic_mesh(1),
        "cubic2": generate_cubic_mesh(2),
        "tet1": generate_tet_mesh(1),
        "agglo2": agglomerate_pairs(generate_cubic_mesh(2), seed=0),
    }


def _local_counts(mesh, k):
    counts = []
    for which in ("grad", "curl", "div", "l2"):
        space = make_space(mesh, which, k)
        idx, _ = local_dofs(space, "cell", 0)
        counts.append(len(idx))
    return tuple(counts)


# criterion 1: local DOF counts on a tetrahedron and a hexahedron match
# the closed-form dimension table exactly, k in {0, 1, 2}
def test_criterion_01_local_dof_counts(meshes):
    expected_tet = {0: (4, 6, 4, 1), 1: (15, 28, 18, 4), 2: (32, 65, 44, 10)}
    expected_hexa = {0: (8, 12, 6, 1), 1: (27, 46, 24, 4), 2: (54, 99, 56, 10)}
    for k in (0, 1, 2):
        assert _local_counts(meshes["tet1"], k) == expected_tet[k]
        assert _local_counts(meshes["cubic1"], k) == expected_hexa[k]


# criterion 2: global dimensions on the 16^3 cubic mesh match exactly,
# computed from closed forms without building any polynomial basis
def test_criterion_02_global_dims_on_16_cubed():
    mesh = generate_cubic_mesh(16)
    t0 = time.monotonic()
    dims = {
        ("curl", 0): make_space(mesh, "curl", 0).dim,
        ("div", 0): make_space(mesh, "div", 0).dim,
        ("curl", 1): make_space(mesh, "curl", 1).dim,
        ("div", 1): make_space(mesh, "div", 1).dim,
    }
    elapsed = time.monotonic() - t0
    assert dims[("curl", 0)] == 13872
    assert dims[("curl", 1)] == 83296
    assert dims[("div", 0)] == 13056
    assert dims[("div", 1)] == 63744
    assert elapsed < 5.0, f"dimension query took {elapsed:.1f}s; bases were built"


# criterion 3: composed operators vanish to 1e-10 on four mesh shapes
# for k in {0, 1}, within a 60 s budget
def test_criterion_03_complex_compositions(meshes):
    t0 = time.monotonic()
    for name in ("cubic1", "cubic2", "tet1", "agglo2"):
        mesh = meshes[name]
        for k in (0, 1):
            bank = BasisBank(mesh, k)
            sg = make_space(mesh, "grad", k, bank=bank)
            sc = make_space(mesh, "curl", k, bank=bank)
            sd = make_space(mesh, "div", k, bank=bank)
            sl = make_space(mesh, "l2", k, bank=bank)
            comp1 = global_operator(sc, sd) @ global_operator(sg, sc)
            comp2 = global_operator(sd, sl) @ global_operator(sc, sd)
            max1 = np.abs(comp1).max() if comp1.nnz else 0.0
            max2 = np.abs(comp2).max() if comp2.nnz else 0.0
            assert max1 < 1e-10, f"{name} k={k}: curl of gradient {max1:.2e}"
            assert max2 < 1e-10, f"{name} k={k}: divergence of curl {max2:.2e}"
    assert time.monotonic() - t0 < 60.0


# criterion 4: exactness ranks by dense SVD on cubic n <= 2, k=0,
# within a 30 s budget
def test_criterion_04_exactness_ranks(meshes):
    t0 = time.monotonic()
    for name in ("cubic1", "cubic2"):
        report = check_complex(meshes[name], 0)
        assert report.passed, report.lines()
        assert report.metrics["nullity_gradient"] == 1
        assert (
            report.metrics["rank_gradient"]
            == report.metrics["rank_gradient_vs_nullity_curl"]
        )
        assert (
            report.metrics["rank_curl"]
            == report.metrics["rank_curl_vs_nullity_divergence"]
        )
        assert report.metrics["rank_divergence"] == meshes[name].num_cells
    assert time.monotonic() - t0 < 30.0


# criterion 5: potentials invert interpolation on polynomials, the flux
# potential and tangential trace reproduce trimmed-space projections,
# and every stabilization vanishes on polynomial interpolates, to 1e-9
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", ["cubic1", "tet1", "agglo2"])
def test_criterion_05_polynomial_consistency(meshes, name, k):
    report = check_polynomial_consistency(meshes[name], k)
    assert report.passed, report.lines()


# criterion 6: commutation residuals below 1e-8 relative on random
# trigonometric fields, cubic n=2, k in {0, 1}
@pytest.mark.parametrize("k", [0, 1])
def test_criterion_06_commutation(meshes, k):
    report = check_commutation(meshes["cubic2"], k)
    assert report.passed, report.lines()
    for which in ("gradient", "curl", "divergence"):
        assert report.metrics[f"commutation_{which}_rel"] < 1e-8


# criterion 7: magnetostatics convergence on cubic {2, 4, 8}; the rate
# on the finest level pair is at least k + 0.7; k=0 within 2 min,
# k=1 within 15 min
@pytest.mark.parametrize("k,budget", [(0, 120.0), (1, 900.0)])
def test_criterion_07_convergence(k, budget):
    t0 = time.monotonic()
    errs = []
    for n in (2, 4, 8):
        problem = manufactured_problem(generate_cubic_mesh(n), k)
        field, potential = solve(assemble(problem))
        _, _, e_rel = error_norms(problem, field, potential)
        errs.append(e_rel)
    elapsed = time.monotonic() - t0
    assert errs[1] < errs[0] and errs[2] < errs[1]
    rate = float(np.log2(errs[1] / errs[2]))
    assert rate >= k + 0.7, f"k={k}: finest-pair rate {rate:.3f}, errors {errs}"
    assert elapsed < budget, f"k={k}: {elapsed:.0f}s over budget {budget:.0f}s"


# criterion 8: primal consistency rate suite on cubic {2, 4, 8}, k=0,
# every series within 0.3 of its expected slope
def test_criterion_08_primal_consistency_suite():
    report = check_primal_consistency("cubic", 0, (2, 4, 8))
    assert report.passed, report.lines()


# criterion 9: adjoint integration-by-parts defects decay with slope at
# least k + 0.7 on cubic {2, 4, 8}, k=0
def test_criterion_09_adjoint_decay():
    report = check_adjoint_decay("cubic", 0, (2, 4, 8))
    assert report.passed, report.lines()
    for which in ("gradient", "curl", "divergence"):
        assert report.metrics[f"adjoint_{which}_slope"] >= 0.7


# criterion 10: Poincaré constants on cubic n in {1, 2}, k=0, are
# finite, below the harness bound, and stable under refinement
def test_criterion_10_poincare(meshes):
    report = check_poincare(meshes["cubic1"], 0, refined=meshes["cubic2"])
    assert report.passed, report.lines()
    for which in ("gradient", "curl", "divergence"):
        constant = report.metrics[f"poincare_{which}"]
        assert np.isfinite(constant) and constant < 50.0
        assert report.metrics[f"poincare_{which}_ratio"] <= 1.5


# criterion 11: trace and recovery identities hold to 1e-9 on every
# entity of the agglomerated mesh for degrees up to 3
def test_criterion_11_traces_and_recovery(meshes):
    traces = check_traces(meshes["agglo2"], max_degree=3)
    assert traces.passed, traces.lines()
    recov = check_recovery(meshes["agglo2"], max_degree=3)
    assert recov.passed, recov.lines()
    assert recov.metrics["recovery_resid"] < 1e-9


# criterion 12: identical config with different --threads produces
# byte-identical artifacts for every CLI command
def test_criterion_12_cli_thread_invariance(tmp_path):
    outputs = {}
    for threads in ("1", "4"):
        conv = tmp_path / f"conv_{threads}.csv"
        slv = tmp_path / f"solve_{threads}.json"
        ver = tmp_path / f"verify_{threads}.json"
        assert main([
            "converge", "--family", "cubic", "--degrees", "0",
            "--levels", "2,4", "--threads", threads, "--out", str(conv),
        ]) == 0
        assert main([
            "solve", "--mesh", "cubic:2", "--degree", "0",
            "--threads", threads, "--out", str(slv),
        ]) == 0
        assert main([
            "verify", "--mesh", "builtin:cubic:2", "--degree", "0",
            "--suite", "complex", "--threads", threads, "--out", str(ver),
        ]) == 0
        outputs[threads] = (conv.read_bytes(), slv.read_bytes(), ver.read_bytes())
    assert outputs["1"] == outputs["4"]
