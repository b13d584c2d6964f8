"""Mixed magnetostatics on the discrete spaces.

Unknowns are a field in the edge-based space and a vector potential in
the face-based space. The first equation matches the permeability-
weighted field product against the discrete curl of the test field
paired with the potential; the second applies the discrete curl to the
field and adds a divergence penalty that fixes the gauge. The assembled
block matrix is [[a, -b^T], [b, c]] with a symmetric positive definite
and c positive semidefinite, solved by a direct sparse factorization.
The load is the source's load vector on the face-based space
(products.load_vector). Non-finite permeabilities are rejected up front,
and a solve whose relative residual is not below the limit, NaN included,
raises.

The bundled manufactured solution lives on the unit cube: the potential
is the rotated gradient of a separable trigonometric scalar, so it is
divergence-free with vanishing tangential (indeed full) boundary trace,
and the field and source follow by taking curls.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .polyspaces import BasisBank
from .ddrcore import (
    make_space,
    interpolate,
    global_operator,
)
from .products import (
    _cell_coefficients,
    assemble_product,
    graph_norms,
    load_vector,
)

__all__ = [
    "MagnetostaticsProblem",
    "SparseSystem",
    "assemble",
    "solve",
    "manufactured_solution",
    "manufactured_problem",
    "error_norms",
]

RESIDUAL_LIMIT = 1e-10


class MagnetostaticsProblem:
    """Problem data: mesh, degree, per-cell permeability, source field,
    and optionally the exact field and vector potential for error
    evaluation. The scheme is well posed on domains without cavities
    (b2 = 0), which assemble checks; holes through the domain (b1 > 0) are
    allowed."""

    def __init__(self, mesh, degree, mu=None, source=None,
                 exact_field=None, exact_vector_potential=None):
        self.mesh = mesh
        self.degree = degree
        self.mu = _cell_coefficients(mesh, 1.0 if mu is None else mu,
                                    "permeability")
        self.source = source
        self.exact_field = exact_field
        self.exact_vector_potential = exact_vector_potential
        self._spaces = None

    def spaces(self):
        """Edge-based, face-based, and cell-moment spaces on a shared
        basis bank (built lazily on first use)."""
        if self._spaces is None:
            bank = BasisBank(self.mesh, self.degree)
            self._spaces = tuple(
                make_space(self.mesh, w, self.degree, bank=bank)
                for w in ("curl", "div", "l2")
            )
        return self._spaces


class SparseSystem:
    """Assembled saddle-point system over field and potential dofs: a CSC
    matrix and the load; solve sets the solution, the relative residual
    and the LU fill (lu_nnz, the entries SuperLU stores for L and U)."""

    __slots__ = ("matrix", "rhs", "n_curl", "n_div", "solution", "residual",
                 "lu_nnz")

    def __init__(self, matrix, rhs, n_curl, n_div):
        self.matrix = matrix
        self.rhs = rhs
        self.n_curl = n_curl
        self.n_div = n_div
        self.solution = None
        self.residual = None
        self.lu_nnz = None


def _cavities(mesh):
    """b2, the number of cavities of the meshed domain: the components of
    its boundary (boundary faces joined through shared vertices) less the
    components of the domain (cells joined through interior faces)."""
    nc, nf = mesh.num_cells, mesh.num_faces
    inner = mesh.face_cells[:, 1] >= 0
    cells = mesh.face_cells[inner]
    domain = sparse.coo_matrix((np.ones(len(cells)), cells.T), shape=(nc, nc))
    faces, verts = [], []
    for g in mesh.face_groups:
        on = ~inner[g.ids]
        faces.append(np.repeat(g.ids[on], g.faces.shape[1]))
        verts.append(g.faces[on].ravel())
    faces, verts = np.concatenate(faces), nf + np.concatenate(verts)
    n = nf + mesh.num_vertices
    boundary = sparse.coo_matrix((np.ones(len(faces)), (faces, verts)),
                                 shape=(n, n))
    labels = connected_components(boundary, directed=False)[1]
    return (len(np.unique(labels[mesh.boundary_faces]))
            - connected_components(domain, directed=False)[0])


def assemble(problem, threads=None):
    """Assemble the block system [[a, -b^T], [b, c]] and the load.

    A domain with cavities (b2 > 0) raises a ValueError: the system then
    has one discrete harmonic 2-form per cavity in its kernel.

    threads is accepted for compatibility and ignored: all work is serial,
    one entity group after another."""
    b2 = _cavities(problem.mesh)
    if b2:
        raise ValueError(
            f"the domain encloses cavities (b2 = {b2}), so the magnetostatics "
            "system is singular: one harmonic 2-form per cavity")
    sc, sd, sl = problem.spaces()
    a = assemble_product(sc, coeff=problem.mu)
    md = assemble_product(sd)
    uC = global_operator(sc, sd)
    D = global_operator(sd, sl)
    b = (md @ uC).tocsc()
    c = (D.T @ D).tocsc()
    # all four blocks in CSC: bmat stacks them without a COO round trip
    matrix = sparse.bmat([[a.tocsc(), -b.T.tocsc()], [b, c]], format="csc")
    if problem.source is None:
        load = np.zeros(sd.dim)
    else:
        load = load_vector(sd, problem.source)
    rhs = np.concatenate([np.zeros(sc.dim), load])
    return SparseSystem(matrix, rhs, sc.dim, sd.dim)


def solve(system):
    """Direct sparse solve; stores the solution, the relative residual
    and the LU fill on the system and returns the (field, potential)
    split. The fill is SuperLU's count of stored factor entries, explicit
    zeros of its supernodes included: 620,386 on cubic:4 k=1 and 168,845
    on the jittered tet:4 k=0 of the benchmark (seed 0). Counting L.nnz +
    U.nnz instead would copy the factors.

    The factorization uses one fixed policy, chosen for this system:
    - SymmetricMode: the matrix is structurally symmetric, so SuperLU
      orders A^T + A and prefers diagonal pivots;
    - permc_spec="MMD_AT_PLUS_A": a minimum-degree ordering of that
      symmetric pattern;
    - diag_pivot_thresh=1e-3: c = D^T D has a zero diagonal on
      divergence-free dofs, so pure diagonal pivoting (threshold 0)
      breaks down (residual 1.7e4 on cubic:2 k=0, 1.5e13 on tet:4 k=1);
      at 1e-2 and 1e-1 off-diagonal pivots spoil the ordering (L.nnz +
      U.nnz 28.3M and 35.8M on cubic:8 k=1, against 11.7M at 1e-3);
    - relax=4: only elimination subtrees of fewer than 4 columns merge
      into one relaxed supernode (SuperLU's default merges larger ones),
      so fewer explicit zeros are stored. Stored fill fell from 669,926 to 632,166 on
      cubic:4 k=1 and from 194,802 to 168,845 on the jittered tet:4 k=0,
      and the factorization got faster (cubic:8 k=1: 1.7 to 1.3 s). With
      the default relaxation the fill's ratio to the default LU's moved
      from 0.588 to 0.613 across one-ulp perturbations of the cubic:4 k=1
      matrix; with relax=4 the worst of 16 such perturbations is 0.578.
      Keep relax below SuperLU's panel size: a sweep with relax=32 was
      seen to make glibc abort under MALLOC_CHECK_=3.
    Against the default (COLAMD, partial pivoting) L.nnz + U.nnz fell from
    32.1M to 11.7M on cubic:8 k=1, 55.3M to 11.7M on tet:4 k=2 and
    1.12M to 0.63M on cubic:4 k=1. One step of iterative refinement with
    the same factors, x += lu.solve(b - A x), recovers the accuracy the
    weaker pivoting gives up (jittered tet:2 k=3: residual 1.6e-11 to
    5e-14, against 1.8e-13 for the default LU) for a few percent of the
    factorization's time."""
    matrix, rhs = system.matrix, system.rhs
    try:
        lu = splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                  relax=4, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise RuntimeError(f"sparse factorization failed: {exc}") from exc
    x = lu.solve(rhs)
    x += lu.solve(rhs - matrix @ x)
    num = np.linalg.norm(matrix @ x - rhs)
    den = max(np.linalg.norm(rhs), 1e-30)
    residual = num / den
    if not residual <= RESIDUAL_LIMIT:
        pivot = np.abs(lu.U.diagonal()).min()
        raise RuntimeError(
            f"solver residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e} "
            f"(smallest pivot {pivot:.3e}, LU fill {lu.nnz})"
        )
    system.solution = x
    system.residual = residual
    system.lu_nnz = lu.nnz
    return x[: system.n_curl], x[system.n_curl :]


def _trig(pts):
    """sin(pi t) and cos(pi t), (3, npts) each, of the coordinates t of
    the points, from u = tan(pi t / 2): with d = 2 / (1 + u^2), sin = u d
    and cos = d - 1, in place. numpy's float64 tangent is vectorized where
    its sine and cosine are not (192k points on an AVX-512 host, numpy
    2.4: 11 ms against 23 ms for a sine and a cosine)."""
    u = np.multiply(pts.T, 0.5 * np.pi, order="C")
    np.tan(u, out=u)
    d = np.multiply(u, u)
    d += 1.0
    np.divide(2.0, d, out=d)
    u *= d
    d -= 1.0
    return u, d


def manufactured_solution():
    """Smooth exact fields on the unit cube.

    The scalar sin^2(pi x) sin^2(pi y) sin(pi z) vanishes on the whole
    boundary; the vector potential (its y-derivative, minus its
    x-derivative, 0) is divergence-free and vanishes on the boundary;
    the field is its curl and the source the curl of the field.

    Every field is built from one table of sin(pi t) and cos(pi t) per
    coordinate t (_trig, one tangent per coordinate and point), with the
    double angles formed algebraically: sin(2 pi t) = 2 sin cos and
    cos(2 pi t) = 1 - 2 sin^2."""
    pi = np.pi

    def scalar(pts):
        sx, sy, sz = _trig(pts)[0]
        return sx * sx * sy * sy * sz

    def scalar_gradient(pts):
        (sx, sy, sz), (cx, cy, cz) = _trig(pts)
        sx2, sy2 = sx * sx, sy * sy
        out = np.empty((len(pts), 3))
        out[:, 0] = 2 * pi * sx * cx * sy2 * sz
        out[:, 1] = 2 * pi * sx2 * sy * cy * sz
        out[:, 2] = pi * sx2 * sy2 * cz
        return out

    def vector_potential(pts):
        (sx, sy, sz), (cx, cy, _) = _trig(pts)
        out = np.empty((len(pts), 3))
        out[:, 0] = 2 * pi * sx * sx * sy * cy * sz
        out[:, 1] = -2 * pi * sx * cx * sy * sy * sz
        out[:, 2] = 0.0
        return out

    def field(pts):
        (sx, sy, sz), (cx, cy, cz) = _trig(pts)
        sx2, sy2 = sx * sx, sy * sy
        out = np.empty((len(pts), 3))
        out[:, 0] = 2 * pi ** 2 * sx * cx * sy2 * cz
        out[:, 1] = 2 * pi ** 2 * sx2 * sy * cy * cz
        out[:, 2] = -2 * pi ** 2 * sz * (
            (1 - 2 * sx2) * sy2 + sx2 * (1 - 2 * sy2))
        return out

    def source(pts):
        (sx, sy, sz), (cx, cy, _) = _trig(pts)
        out = np.empty((len(pts), 3))
        out[:, 0] = -2 * pi ** 3 * sy * cy * (2 - 9 * sx * sx) * sz
        out[:, 1] = 2 * pi ** 3 * sx * cx * (2 - 9 * sy * sy) * sz
        out[:, 2] = 0.0
        return out

    return {
        "scalar": scalar,
        "scalar_gradient": scalar_gradient,
        "vector_potential": vector_potential,
        "field": field,
        "source": source,
    }


def manufactured_problem(mesh, degree):
    """Unit-permeability problem with the bundled exact fields."""
    fields = manufactured_solution()
    return MagnetostaticsProblem(
        mesh,
        degree,
        mu=1.0,
        source=fields["source"],
        exact_field=fields["field"],
        exact_vector_potential=fields["vector_potential"],
    )


def error_norms(problem, field_vals, potential_vals):
    """Graph-norm errors against the interpolated exact fields and the
    relative combined error (root-sum-square over the interpolates').

    The exact field and potential are interpolated in one pass over the
    data rules (one interpolate call), and one graph_norms call takes the
    norms of the errors and of the interpolates from the local forms."""
    if problem.exact_field is None or problem.exact_vector_potential is None:
        raise ValueError("problem carries no exact solution")
    sc, sd, sl = problem.spaces()
    ref_f, ref_p = (v.values for v in interpolate(
        (sc, sd), (problem.exact_field, problem.exact_vector_potential)))

    (e_curl, n_curl), (e_div, n_div) = graph_norms(
        sc, sd, sl, np.column_stack([field_vals - ref_f, ref_f]),
        np.column_stack([potential_vals - ref_p, ref_p]), mu=problem.mu)
    num = np.hypot(e_curl, e_div)
    den = max(np.hypot(n_curl, n_div), 1e-300)
    return float(e_curl), float(e_div), float(num / den)
