"""Mixed magnetostatics: manufactured fields against a symbolic oracle,
block structure, solvability, residuals, error norms, and a two-level
decrease of the relative error."""

import numpy as np
import pytest
import scipy.linalg as la
import sympy as sp

from polyddr import products
from polyddr.mesh import generate_cubic_mesh, generate_tet_mesh
from polyddr.ddrcore import interpolate, global_operator
from polyddr.scheme import (
    MagnetostaticsProblem,
    SparseSystem,
    assemble,
    solve,
    manufactured_solution,
    manufactured_problem,
    error_norms,
)

from meshes import without_cells


# ----------------------------------------------------------------------
# symbolic oracle for the manufactured fields


@pytest.fixture(scope="module")
def symbolic():
    x, y, z = sp.symbols("x y z")
    scalar = sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2 * sp.sin(sp.pi * z)
    potential = sp.Matrix([sp.diff(scalar, y), -sp.diff(scalar, x), 0])

    def curl(v):
        return sp.Matrix(
            [
                sp.diff(v[2], y) - sp.diff(v[1], z),
                sp.diff(v[0], z) - sp.diff(v[2], x),
                sp.diff(v[1], x) - sp.diff(v[0], y),
            ]
        )

    field = curl(potential)
    source = curl(field)

    def lamb(expr):
        fns = [sp.lambdify((x, y, z), comp, "numpy") for comp in expr]
        def call(pts):
            cols = [np.broadcast_to(f(pts[:, 0], pts[:, 1], pts[:, 2]),
                                    len(pts)).astype(float) for f in fns]
            return np.column_stack(cols)
        return call

    out = {
        "scalar": sp.lambdify((x, y, z), scalar, "numpy"),
        "scalar_gradient": lamb(
            sp.Matrix([sp.diff(scalar, v) for v in (x, y, z)])
        ),
        "vector_potential": lamb(potential),
        "field": lamb(field),
        "source": lamb(source),
        "divergence": sp.simplify(
            sp.diff(potential[0], x)
            + sp.diff(potential[1], y)
            + sp.diff(potential[2], z)
        ),
        "symbols": (x, y, z),
        "potential_expr": potential,
    }
    return out


def test_manufactured_matches_symbolic_oracle(symbolic):
    fields = manufactured_solution()
    rng = np.random.default_rng(0)
    pts = rng.random((50, 3))
    sc = fields["scalar"](pts)
    want_sc = symbolic["scalar"](pts[:, 0], pts[:, 1], pts[:, 2])
    assert np.allclose(sc, want_sc, atol=1e-12)
    for key in ("scalar_gradient", "vector_potential", "field", "source"):
        got = fields[key](pts)
        want = symbolic[key](pts)
        scale = 1.0 + np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-10 * scale, key


def test_manufactured_matches_symbolic_oracle_to_roundoff(symbolic):
    """The double angles are formed algebraically from one sine and cosine
    per coordinate; that must cost no more than roundoff, at points
    covering the cube, its faces and the angles where sin and cos vanish."""
    fields = manufactured_solution()
    rng = np.random.default_rng(6)
    pts = np.concatenate([rng.random((200, 3)), rng.integers(0, 5, (64, 3)) / 4])
    x, y, z = pts.T
    want = symbolic["scalar"](x, y, z)
    scale = 1.0 + np.abs(want).max()
    assert np.abs(fields["scalar"](pts) - want).max() <= 1e-13 * scale
    for key in ("scalar_gradient", "vector_potential", "field", "source"):
        got = fields[key](pts)
        want = symbolic[key](pts)
        assert got.shape == want.shape == (len(pts), 3), key
        scale = 1.0 + np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-13 * scale, key


def test_source_is_curl_of_field_fd():
    """Central differences of the field give the source, as they give the
    field from the potential: the bundled fields are one curl apart."""
    fields = manufactured_solution()
    rng = np.random.default_rng(7)
    pts = 0.05 + 0.9 * rng.random((50, 3))
    eps = 1e-5

    def curl(f):
        d = np.zeros((3,) + pts.shape)
        for a in range(3):
            step = np.zeros(3)
            step[a] = eps
            d[a] = (f(pts + step) - f(pts - step)) / (2 * eps)  # d_a f
        return np.column_stack([d[1][:, 2] - d[2][:, 1],
                                d[2][:, 0] - d[0][:, 2],
                                d[0][:, 1] - d[1][:, 0]])

    for f, g in (("vector_potential", "field"), ("field", "source")):
        want = fields[g](pts)
        scale = 1.0 + np.abs(want).max()
        assert np.abs(curl(fields[f]) - want).max() <= 1e-6 * scale, g


def test_manufactured_potential_is_divergence_free(symbolic):
    assert symbolic["divergence"] == 0
    fields = manufactured_solution()
    rng = np.random.default_rng(1)
    pts = rng.random((50, 3))
    eps = 1e-6
    div = np.zeros(len(pts))
    for a in range(3):
        dp = np.zeros(3)
        dp[a] = eps
        div += (
            fields["vector_potential"](pts + dp)[:, a]
            - fields["vector_potential"](pts - dp)[:, a]
        ) / (2 * eps)
    assert np.abs(div).max() < 1e-6


def test_manufactured_potential_vanishes_on_boundary():
    fields = manufactured_solution()
    rng = np.random.default_rng(2)
    for axis in range(3):
        for side in (0.0, 1.0):
            pts = rng.random((20, 3))
            pts[:, axis] = side
            vals = fields["vector_potential"](pts)
            assert np.abs(vals).max() < 1e-12, (axis, side)


def test_manufactured_potential_zero_at_center():
    fields = manufactured_solution()
    val = fields["vector_potential"](np.array([[0.5, 0.5, 0.5]]))
    assert np.abs(val).max() < 1e-13


def test_field_is_curl_of_potential_fd():
    fields = manufactured_solution()
    rng = np.random.default_rng(3)
    pts = rng.random((30, 3))
    eps = 1e-6

    def pd(f, a, p):
        dp = np.zeros(3)
        dp[a] = eps
        return (f(p + dp) - f(p - dp)) / (2 * eps)

    va = fields["vector_potential"]
    dx, dy, dz = (pd(va, a, pts) for a in range(3))
    curl = np.column_stack(
        [dy[:, 2] - dz[:, 1], dz[:, 0] - dx[:, 2], dx[:, 1] - dy[:, 0]]
    )
    got = fields["field"](pts)
    assert np.abs(curl - got).max() < 1e-4 * (1 + np.abs(got).max())


# ----------------------------------------------------------------------
# assembly structure


@pytest.fixture(scope="module")
def small_system():
    mesh = generate_cubic_mesh(2)
    problem = manufactured_problem(mesh, 0)
    system = assemble(problem)
    return problem, system


def test_system_dimension_cubic2_k0(small_system):
    problem, system = small_system
    sc, sd, _ = problem.spaces()
    assert sc.dim == 54 and sd.dim == 36
    assert system.matrix.shape == (90, 90)
    assert system.n_curl == 54 and system.n_div == 36


def test_block_pattern(small_system):
    _, system = small_system
    nc = system.n_curl
    M = system.matrix.toarray()
    a = M[:nc, :nc]
    top_right = M[:nc, nc:]
    bottom_left = M[nc:, :nc]
    c = M[nc:, nc:]
    assert np.allclose(a, a.T, atol=1e-12)
    assert np.allclose(top_right, -bottom_left.T, atol=1e-12)
    assert np.allclose(c, c.T, atol=1e-12)
    la.cholesky(a)
    eigs = la.eigvalsh(c)
    assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


def test_rhs_curl_block_zero(small_system):
    _, system = small_system
    assert np.all(system.rhs[: system.n_curl] == 0.0)


def test_zero_source_gives_zero_solution():
    mesh = generate_cubic_mesh(1)
    problem = MagnetostaticsProblem(
        mesh, 0, source=lambda pts: np.zeros((len(pts), 3))
    )
    system = assemble(problem)
    field, potential = solve(system)
    assert np.abs(field).max() < 1e-13
    assert np.abs(potential).max() < 1e-13


def test_mu_must_be_positive():
    mesh = generate_cubic_mesh(1)
    with pytest.raises(ValueError):
        MagnetostaticsProblem(mesh, 0, mu=0.0)
    with pytest.raises(ValueError):
        MagnetostaticsProblem(mesh, 0, mu=np.array([-1.0]))


def test_non_finite_mu_names_the_cell():
    mesh = generate_cubic_mesh(2)
    mu = np.ones(mesh.num_cells)
    mu[3] = np.nan
    with pytest.raises(ValueError,
                       match=r"^permeability of cell 3 is not finite \(nan\)$"):
        MagnetostaticsProblem(mesh, 0, mu=mu)
    with pytest.raises(ValueError,
                       match=r"^permeability of cell 0 is not finite \(inf\)$"):
        MagnetostaticsProblem(mesh, 0, mu=np.inf)


@pytest.mark.parametrize("make", [generate_cubic_mesh, generate_tet_mesh],
                         ids=["cubic3", "tet3"])
def test_a_cavity_raises_and_a_solid_torus_solves(make):
    """Deleting the centre subcube of a 3^3 mesh encloses a cavity (b2 = 1):
    the system has a harmonic 2-form in its kernel (smallest singular value
    2e-16 against 29 on cubic:3 k=0), so assemble raises naming b2.
    Deleting the centre column leaves a solid torus (b1 = 1, b2 = 0),
    whose system is regular (smallest singular value 0.041 on cubic:3 and
    0.013 on tet:3)."""
    mesh = make(3)
    central = np.abs(mesh.cell_centroids - 0.5) < 1 / 6
    cavity = without_cells(mesh, np.flatnonzero(central.all(axis=1)))
    with pytest.raises(ValueError, match=r"cavities \(b2 = 1\)"):
        assemble(manufactured_problem(cavity, 0))
    torus = without_cells(mesh, np.flatnonzero(central[:, :2].all(axis=1)))
    system = assemble(manufactured_problem(torus, 0))
    solve(system)
    assert system.residual < 1e-12


# ----------------------------------------------------------------------
# solve and errors


def test_manufactured_solve_residual_and_gauge(small_system):
    problem, system = small_system
    field, potential = solve(system)
    assert system.residual < 1e-10

    sc, sd, sl = problem.spaces()
    D = global_operator(sd, sl)
    from polyddr.products import assemble_product

    Md = assemble_product(sd)
    div_norm = np.linalg.norm(D @ potential)
    pot_norm = np.sqrt(potential @ (Md @ potential))
    assert div_norm <= 1e-8 * max(pot_norm, 1e-30)


def test_assembly_and_solve_deterministic():
    mesh = generate_cubic_mesh(2)
    runs = []
    for _ in range(2):
        problem = manufactured_problem(mesh, 0)
        system = assemble(problem)
        x = np.concatenate(solve(system))
        runs.append((system.matrix.toarray().tobytes(),
                     system.rhs.tobytes(), x.tobytes()))
    assert runs[0] == runs[1]


def test_error_norms_zero_on_interpolates(small_system):
    problem, system = small_system
    sc, sd, _ = problem.spaces()
    vf = interpolate(sc, problem.exact_field).values
    vp = interpolate(sd, problem.exact_vector_potential).values
    e_curl, e_div, e_rel = error_norms(problem, vf, vp)
    assert e_curl < 1e-12 and e_div < 1e-12 and e_rel < 1e-12


def test_error_norms_assembles_each_matrix_once(monkeypatch):
    """One graph_norms call serves the error and the reference: the two
    differentials are assembled once each, and the two products not at
    all, since the norms are summed from the local forms."""
    problem = manufactured_problem(generate_tet_mesh(1), 1)
    field, potential = solve(assemble(problem))
    calls = []
    for name in ("assemble_product", "global_operator"):
        def counted(*args, _name=name, _fn=getattr(products, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(products, name, counted)
    error_norms(problem, field, potential)
    assert sorted(calls) == ["global_operator"] * 2


def test_error_decreases_under_refinement():
    errs = []
    for n in (1, 2):
        problem = manufactured_problem(generate_cubic_mesh(n), 0)
        system = assemble(problem)
        field, potential = solve(system)
        errs.append(error_norms(problem, field, potential)[2])
    assert 0 < errs[1] < errs[0]


def test_solve_on_tets():
    problem = manufactured_problem(generate_tet_mesh(2), 0)
    system = assemble(problem)
    field, potential = solve(system)
    assert system.residual < 1e-10
    e_curl, e_div, e_rel = error_norms(problem, field, potential)
    assert np.isfinite(e_rel) and e_rel > 0


def test_variable_mu_still_solvable():
    mesh = generate_cubic_mesh(2)
    fields = manufactured_solution()
    rng = np.random.default_rng(4)
    mu = 1.0 + rng.random(mesh.num_cells)
    problem = MagnetostaticsProblem(mesh, 0, mu=mu, source=fields["source"])
    system = assemble(problem)
    solve(system)
    assert system.residual < 1e-10


def test_nan_source_fails_the_residual_check():
    fields = manufactured_solution()

    def source(pts):
        out = fields["source"](pts)
        out[:, 2] = np.nan
        return out

    system = assemble(MagnetostaticsProblem(generate_cubic_mesh(2), 0, source=source))
    with pytest.raises(RuntimeError,
                       match=r"^solver residual nan exceeds 1e-10 \(smallest pivot "):
        solve(system)
    assert system.solution is None and system.residual is None
