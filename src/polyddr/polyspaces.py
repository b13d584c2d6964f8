"""Orthonormal bases for polynomial spaces attached to mesh entities.

Scalar spaces use scaled monomials in local coordinates (x - x_Y)/h_Y (one
variable along t_E on edges, two in the face frame, three on cells),
orthonormalized by a Householder QR factorization of the sqrt(weight)-scaled
monomial matrix at the entity's quadrature points, with signs fixed so that
R has a positive diagonal (the basis Gram-Schmidt would give). The monomial
order is graded, so the first dim P^m members of a degree-L basis are
exactly an orthonormal basis of P^m: every lower-degree space is a prefix
of a higher-degree one, which keeps all cross-degree bookkeeping consistent
to roundoff.

Members are tabulated from one table of coordinate powers built by
cumulative products: values and gradients are one matrix product each.
integrate_products turns two tabulations into the matrix of their
integrals with one weighted matrix product; every quadrature contraction of
the discrete operators goes through it.

Vector spaces are spanned by scalar members times frame axes (tangent axes
on faces, Cartesian axes on cells) and inherit the prefix property. The
differential-image and Koszul-complement subspaces are represented by
coefficient matrices over that orthonormal vector basis, obtained by a
rank-revealing SVD of their natural generating sets; a rank different from
the closed-form dimension is a hard error.

Families (naming by what the space is, not by any symbol):
- "grad_image":       gradients of scalars of degree l+1
- "grad_complement":  Koszul complement of grad_image in full vectors of
                      degree l (radial rotation on faces, radial cross on cells)
- "curl_image":       rotated gradients on faces / curls on cells, degree l
- "curl_complement":  radial Koszul complement of curl_image
- "zero_mean":        scalars of degree l with zero mean
- "nedelec":          grad_image(l-1) + grad_complement(l), concatenated
- "raviart_thomas":   curl_image(l-1) + curl_complement(l), concatenated

The two decompositions full = grad_image + grad_complement
= curl_image + curl_complement are direct but NOT orthogonal; the recovery
operator below reconstructs a field from its two orthogonal projections.
"""

import functools
import itertools
import math

import numpy as np
from scipy.linalg import solve_triangular

from .quadrature import entity_rule

__all__ = [
    "PolyBasis",
    "dim_P",
    "space_dim",
    "scalar_basis",
    "vector_basis",
    "subspace_basis",
    "l2_project",
    "integrate_products",
    "recovery",
    "projection_overlap",
    "isomorphism_matrix",
    "BasisBank",
]

DROP_TOL = 1e-8

FAMILIES = (
    "grad_image",
    "grad_complement",
    "curl_image",
    "curl_complement",
    "zero_mean",
    "nedelec",
    "raviart_thomas",
)


def dim_P(l, d):
    """dim of polynomials of total degree <= l in d variables (0 for l<0)."""
    if l < 0:
        return 0
    return math.comb(l + d, d)


def space_dim(family, l, d):
    """Closed-form dimension of a subspace family on a d-entity (d=2,3)."""
    if family == "zero_mean":
        return max(dim_P(l, d) - 1, 0)
    if family == "grad_image":
        return dim_P(l + 1, d) - 1 if l >= 0 else 0
    if family == "curl_image":
        if d == 2:
            return dim_P(l + 1, 2) - 1 if l >= 0 else 0
        return 3 * dim_P(l, 3) - dim_P(l - 1, 3) if l >= 0 else 0
    if family == "grad_complement":
        if d == 2:
            return dim_P(l - 1, 2)
        return 3 * dim_P(l - 1, 3) - dim_P(l - 2, 3)
    if family == "curl_complement":
        return dim_P(l - 1, d)
    if family == "nedelec":
        return space_dim("grad_image", l - 1, d) + space_dim(
            "grad_complement", l, d
        )
    if family == "raviart_thomas":
        return space_dim("curl_image", l - 1, d) + space_dim(
            "curl_complement", l, d
        )
    raise ValueError(f"unknown family {family!r}")


@functools.cache
def _monomial_tables(L, d):
    """Graded exponents of the scaled monomials of degree <= L in d
    variables, (nm, d); the rows exps * d + a of a (power, axis) table that
    hold each monomial's factors; and the matrices of d/dxi_a in the
    monomial basis, (d, nm, dim P^{L-1}): monomial i differentiates to
    D[a, i] over the lower-degree prefix.  All depend on (L, d) only and
    are read-only."""
    exps = []
    for deg in range(L + 1):
        block = [
            e
            for e in itertools.product(range(deg + 1), repeat=d)
            if sum(e) == deg
        ]
        exps.extend(sorted(block, reverse=True))
    index = {e: i for i, e in enumerate(exps)}
    D = np.zeros((d, len(exps), dim_P(L - 1, d)))
    for i, e in enumerate(exps):
        for a in range(d):
            if e[a]:
                lowered = e[:a] + (e[a] - 1,) + e[a + 1 :]
                D[a, i, index[lowered]] = e[a]
    exps = np.array(exps, dtype=int).reshape(len(exps), d)
    rows = exps * d + np.arange(d)
    for a in (exps, rows, D):
        a.flags.writeable = False
    return exps, rows, D


def integrate_products(A, B, weights):
    """Matrix of the integrals of A_i . B_j from tabulations at rule points.

    A is (m, npts) or (m, npts, 3) and B the same kind with n rows; the
    result is (m, n).  One matmul: the weights go on the operand with fewer
    rows, so the weighted copy stays small.
    """
    w = weights if A.ndim == 2 else weights[:, None]
    if len(A) <= len(B):
        A = A * w
    else:
        B = B * w
    cols = math.prod(A.shape[1:])
    return A.reshape(len(A), cols) @ B.reshape(len(B), cols).T


class _ScalarCore:
    """Orthonormal scalar basis of degree L on one entity.

    Stores the orthonormalization coefficients over scaled monomials, so
    members and their gradients can be evaluated at arbitrary points.  The
    coefficients are lower triangular (member i uses monomials 0..i), so a
    prefix of members needs only a prefix of the monomials.
    """

    def __init__(self, x0, h, frame, L, rule):
        self.x0 = np.asarray(x0, dtype=float)
        self.h = float(h)
        self.frame = np.asarray(frame, dtype=float)  # (d, 3) rows
        self.L = L
        self.d = len(self.frame)
        self.exps, self._rows, D = _monomial_tables(L, self.d)
        self.rule = rule
        nm = len(self.exps)

        # Householder QR of the sqrt(w)-weighted monomial matrix: columns of
        # A R^{-1} are orthonormal, so the members have coefficients R^{-T}.
        A = (self._monomials(rule.points, nm) * np.sqrt(rule.weights)).T
        R = np.linalg.qr(A, mode="r")
        diag = np.abs(np.diag(R))
        base = np.linalg.norm(A, axis=0)
        if len(diag) < nm or not np.all(diag > 1e-13 * np.maximum(base, 1.0)):
            raise ValueError(
                "degenerate entity geometry: monomials are numerically "
                "dependent under the quadrature inner product"
            )
        R *= np.sign(np.diag(R))[:, None]
        self.coeffs = solve_triangular(R, np.eye(nm)).T
        # coefficients of the member gradients' global components, (3, nm, .)
        self._grad_coeffs = np.tensordot(
            self.frame / self.h, self.coeffs @ D, axes=(0, 0)
        )

    def _monomials(self, pts, n):
        """The first n scaled monomials at the points, (n, npts), read off
        one table of coordinate powers built by cumulative products."""
        xi = (((np.atleast_2d(pts) - self.x0) @ self.frame.T) / self.h).T
        top = int(self.exps[n - 1].sum()) if n else 0  # graded order
        P = np.empty((top + 1,) + xi.shape)
        P[0] = 1.0
        for e in range(top):
            np.multiply(P[e], xi, out=P[e + 1])
        P = P.reshape(-1, xi.shape[1])
        rows = self._rows[:n]
        out = P[rows[:, 0]]
        for a in range(1, self.d):
            out *= P[rows[:, a]]
        return out

    def eval(self, pts, nrows):
        return self.coeffs[:nrows, :nrows] @ self._monomials(pts, nrows)

    def grad(self, pts, nrows):
        """Gradients as global 3-vectors, shape (nrows, npts, 3)."""
        top = int(self.exps[nrows - 1].sum()) if nrows else 0
        ncols = dim_P(top - 1, self.d)
        G = self._grad_coeffs[:, :nrows, :ncols].reshape(3 * nrows, ncols)
        M = self._monomials(pts, ncols)
        return (G @ M).reshape(3, nrows, M.shape[1]).transpose(1, 2, 0)


def _combine(W, V):
    """Rows of W applied to vector tabulations V (n, npts, 3)."""
    n, npts, _ = V.shape
    return (W @ V.reshape(n, npts * 3)).reshape(len(W), npts, 3)


class PolyBasis:
    """Basis of a polynomial space on a mesh entity.

    eval() returns (dim, npts) for scalar spaces and (dim, npts, 3) for
    vector spaces; members of face spaces are tangent fields expressed in
    global coordinates (value_dim 2 says tangent-plane, the evaluation is
    still a 3-vector). All kinds except the concatenated trimmed spaces
    ("nedelec", "raviart_thomas") are L2-orthonormal on their entity.
    """

    def __init__(self, entity_kind, entity_id, kind, degree, core, mode,
                 axes, W, dim, orthonormal):
        self.entity_kind = entity_kind
        self.entity_id = entity_id
        self.kind = kind
        self.degree = degree
        self._core = core
        self._mode = mode
        self._axes = axes
        self._W = W
        self.dim = dim
        self.orthonormal = orthonormal
        if mode == "vector":
            self.value_dim = len(axes)
        else:
            self.value_dim = 1

    # -- internal helpers ------------------------------------------------

    def _scalar_rows(self):
        # number of scalar-core members backing the representation
        w = self._W.shape[1] if self._W is not None else self.dim
        if self._mode == "vector":
            return w // len(self._axes)
        return w

    def _vector_values(self, pts):
        ns = self._scalar_rows()
        s = self._core.eval(pts, ns)
        na = len(self._axes)
        out = (
            s[:, None, :, None] * self._axes[None, :, None, :]
        ).reshape(ns * na, -1, 3)
        return out

    def _vector_div(self, pts):
        ns = self._scalar_rows()
        g = self._core.grad(pts, ns)
        na = len(self._axes)
        return (g @ self._axes.T).transpose(0, 2, 1).reshape(ns * na, -1)

    def _vector_curl(self, pts):
        ns = self._scalar_rows()
        g = self._core.grad(pts, ns)
        na = len(self._axes)
        out = np.cross(g[:, None, :, :], self._axes[None, :, None, :])
        return out.reshape(ns * na, -1, 3)

    # -- public evaluation ----------------------------------------------

    def eval(self, pts):
        if self._mode == "scalar":
            if self._W is None:
                return self._core.eval(pts, self.dim)
            rows = self._W.shape[1]
            return self._W @ self._core.eval(pts, rows)
        V = self._vector_values(pts)
        if self._W is None:
            return V[: self.dim]
        return _combine(self._W, V)

    def grad(self, pts):
        """Member gradients (scalar spaces only), shape (dim, npts, 3)."""
        if self._mode != "scalar":
            raise ValueError("grad is defined for scalar bases")
        if self._W is None:
            return self._core.grad(pts, self.dim)
        rows = self._W.shape[1]
        return _combine(self._W, self._core.grad(pts, rows))

    def div(self, pts):
        """Member divergences; on faces this is the in-plane divergence."""
        if self._mode != "vector":
            raise ValueError("div is defined for vector bases")
        D = self._vector_div(pts)
        if self._W is None:
            return D[: self.dim]
        return self._W @ D

    def curl(self, pts):
        """Member curls (cell vector spaces only), shape (dim, npts, 3)."""
        if self._mode != "vector" or len(self._axes) != 3:
            raise ValueError("curl is defined for cell vector bases")
        C = self._vector_curl(pts)
        if self._W is None:
            return C[: self.dim]
        return _combine(self._W, C)

    def coeff_matrix(self):
        """Coefficients over the orthonormal parent basis (dim x width)."""
        if self._W is not None:
            return self._W
        width = self.dim
        eye = np.eye(width)
        return eye

    def gram(self):
        """Exact L2 Gram matrix from coefficient space."""
        W = self.coeff_matrix()
        return W @ W.T


# ----------------------------------------------------------------------
# construction


def _entity_frame(mesh, kind, index):
    if kind == "edge":
        x0 = mesh.edge_midpoints[index]
        h = mesh.edge_lengths[index]
        frame = mesh.edge_tangents[index][None, :]
    elif kind == "face":
        x0 = mesh.face_centroids[index]
        h = mesh.face_diameters[index]
        frame = mesh.face_frames[index]
    elif kind == "cell":
        x0 = mesh.cell_centroids[index]
        h = mesh.cell_diameters[index]
        frame = np.eye(3)
    else:
        raise ValueError(f"unknown entity kind {kind!r}")
    return x0, h, frame


def _make_core(mesh, kind, index, L, rule=None):
    x0, h, frame = _entity_frame(mesh, kind, index)
    if rule is None:
        rule = entity_rule(mesh, kind, index, max(2 * L, 0))
    return _ScalarCore(x0, h, frame, L, rule)


def scalar_basis(mesh, kind, index, l, core=None):
    """Orthonormal basis of scalars of degree <= l on one entity."""
    if core is None:
        core = _make_core(mesh, kind, index, max(l, 0))
    dim = dim_P(l, core.d)
    return PolyBasis(kind, index, "scalar", l, core, "scalar", None, None,
                     dim, True)


def vector_basis(mesh, kind, index, l, core=None):
    """Orthonormal basis of full vector polynomials of degree <= l."""
    if kind == "edge":
        raise ValueError("vector bases live on faces and cells")
    if core is None:
        core = _make_core(mesh, kind, index, max(l, 0))
    axes = np.eye(3) if kind == "cell" else np.asarray(core.frame)
    dim = dim_P(l, core.d) * len(axes)
    return PolyBasis(kind, index, "vector", l, core, "vector", axes, None,
                     dim, True)


def _radial_values(core, pts):
    return np.atleast_2d(pts) - core.x0


def _subspace_generators(mesh, kind, index, family, l, core, rule):
    """Values of the natural generating set at the rule points, (ng,np,3)."""
    pts = rule.points
    d = core.d
    if family == "grad_image":
        n = dim_P(l + 1, d)
        return core.grad(pts, n)[1:]
    if family == "curl_image":
        if kind == "face":
            n = dim_P(l + 1, 2)
            g = core.grad(pts, n)[1:]
            nrm = mesh.face_normals[index]
            return np.cross(g, nrm[None, None, :])
        n = dim_P(l + 1, 3)
        g = core.grad(pts, n)
        gens = np.cross(g[:, None, :, :], np.eye(3)[None, :, None, :])
        return gens.reshape(3 * n, -1, 3)
    if family == "grad_complement":
        n = dim_P(l - 1, d)
        if n == 0:
            return np.zeros((0, len(pts), 3))
        s = core.eval(pts, n)
        r = _radial_values(core, pts)
        if kind == "face":
            rot = np.cross(mesh.face_normals[index][None, :], r)
            return s[:, :, None] * rot[None, :, :]
        gens = np.cross(
            r[None, None, :, :], np.eye(3)[None, :, None, :]
        ) * s[:, None, :, None]
        return gens.reshape(3 * n, -1, 3)
    if family == "curl_complement":
        n = dim_P(l - 1, d)
        if n == 0:
            return np.zeros((0, len(pts), 3))
        s = core.eval(pts, n)
        r = _radial_values(core, pts)
        return s[:, :, None] * r[None, :, :]
    raise ValueError(f"unknown vector family {family!r}")


def subspace_basis(mesh, kind, index, family, l, core=None, rule=None):
    """Orthonormal basis of one subspace family (or a trimmed concatenation).

    The basis is expressed over the orthonormal full-vector basis of the
    same degree, so its coefficient rows are exactly its L2 geometry.
    """
    if kind == "edge":
        raise ValueError("subspace bases live on faces and cells")
    x0, h, frame = _entity_frame(mesh, kind, index)
    d = len(frame)

    if family == "zero_mean":
        if core is None:
            core = _make_core(mesh, kind, index, max(l, 0), rule)
        dim = space_dim("zero_mean", l, d)
        W = np.eye(dim + 1)[1:] if dim else np.zeros((0, 1))
        return PolyBasis(kind, index, family, l, core, "scalar", None, W,
                         dim, True)

    if family in ("nedelec", "raviart_thomas"):
        sub = "grad" if family == "nedelec" else "curl"
        if core is None:
            core = _make_core(mesh, kind, index, max(l, 0), rule)
        lo = subspace_basis(mesh, kind, index, f"{sub}_image", l - 1,
                            core=core, rule=rule)
        hi = subspace_basis(mesh, kind, index, f"{sub}_complement", l,
                            core=core, rule=rule)
        axes = np.eye(3) if kind == "cell" else np.asarray(core.frame)
        width = dim_P(l, d) * len(axes)
        Wlo = np.zeros((lo.dim, width))
        if lo.dim:
            Wlo[:, : lo._W.shape[1]] = lo._W
        W = np.vstack([Wlo, hi._W])
        return PolyBasis(kind, index, family, l, core, "vector", axes, W,
                         lo.dim + hi.dim, False)

    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")

    # generators need scalar degree l+1 for the image families
    need_L = l + 1 if family.endswith("image") else max(l, 0)
    if core is None or core.L < need_L:
        core = _make_core(mesh, kind, index, need_L, rule)
    if rule is None:
        rule = core.rule

    dim = space_dim(family, l, d)
    axes = np.eye(3) if kind == "cell" else np.asarray(core.frame)
    width = dim_P(l, d) * len(axes)
    if dim == 0:
        W = np.zeros((0, width))
        return PolyBasis(kind, index, family, l, core, "vector", axes, W,
                         0, True)

    gens = _subspace_generators(mesh, kind, index, family, l, core, rule)
    # moments against the parent members s_m * axes[a], in (m, a) order,
    # without tabulating the parent vector basis
    S = core.eval(rule.points, width // len(axes)) * rule.weights
    moments = ((S @ gens) @ axes.T).reshape(len(gens), width)
    U, sing, Vt = np.linalg.svd(moments, full_matrices=False)
    rank = int((sing >= DROP_TOL * sing[0]).sum()) if len(sing) else 0
    if rank != dim:
        raise ValueError(
            f"rank of {family} generators on {kind} {index} is {rank}, "
            f"expected {dim}"
        )
    W = Vt[:dim]
    return PolyBasis(kind, index, family, l, core, "vector", axes, W,
                     dim, True)


# ----------------------------------------------------------------------
# projections, recovery, diagnostics


def l2_project(basis, f, rule=None, mesh=None):
    """Coefficients of the L2 projection of a field onto the basis.

    f is a callable on an (npts, 3) array of points returning (npts,) for
    scalar bases or (npts, 3) for vector bases; 3-vector fields over faces
    are projected onto the tangent plane implicitly (members are tangent).
    """
    if rule is None:
        if mesh is None:
            rule = basis._core.rule
        else:
            rule = entity_rule(mesh, basis.entity_kind, basis.entity_id,
                               2 * max(basis.degree, 0) + 2)
    vals = f(rule.points) if callable(f) else np.asarray(f)
    B = basis.eval(rule.points)
    moments = integrate_products(B, np.asarray(vals)[None], rule.weights)[:, 0]
    if basis.orthonormal:
        return moments
    return np.linalg.solve(basis.gram(), moments)


def recovery(basis_s, basis_sc, b, c):
    """Reconstruct a full vector polynomial from its two projections.

    basis_s, basis_sc: complementary subspaces of the same full vector
    space (an image family and its Koszul complement, same entity, same
    degree). Returns coefficients over the orthonormal full vector basis of
    the unique field whose projections on the pair are (b, c).
    """
    Ws = basis_s.coeff_matrix()
    Wc = basis_sc.coeff_matrix()
    width = max(Ws.shape[1], Wc.shape[1])
    M = np.zeros((Ws.shape[0] + Wc.shape[0], width))
    M[: Ws.shape[0], : Ws.shape[1]] = Ws
    M[Ws.shape[0] :, : Wc.shape[1]] = Wc
    if M.shape[0] != width:
        raise ValueError("subspace dimensions do not add up to the full space")
    return np.linalg.solve(M, np.concatenate([b, c]))


def projection_overlap(basis_s, basis_sc):
    """Largest singular value of the cross-Gram of two complement spaces.

    Strictly below 1 exactly when the direct sum is stable; reported as a
    per-entity diagnostic.
    """
    Ws = basis_s.coeff_matrix()
    Wc = basis_sc.coeff_matrix()
    width = max(Ws.shape[1], Wc.shape[1])
    A = np.zeros((Ws.shape[0], width))
    A[:, : Ws.shape[1]] = Ws
    B = np.zeros((Wc.shape[0], width))
    B[:, : Wc.shape[1]] = Wc
    cross = A @ B.T
    if cross.size == 0:
        return 0.0
    return float(np.linalg.norm(cross, 2))


def isomorphism_matrix(mesh, kind, index, which, l):
    """Matrix of one of the bijective differential maps between subspaces.

    which: "face_rot"  rotated gradient, zero-mean scalars(l) -> curl_image(l-1)
           "face_div"  in-plane divergence, curl_complement(l) -> scalars(l-1)
           "cell_div"  divergence, curl_complement(l) -> scalars(l-1)
           "cell_curl" curl, grad_complement(l) -> curl_image(l-1)
    Rows are target coefficients, columns source members; square and
    invertible whenever the mesh entity is sound.
    """
    rule = entity_rule(mesh, kind, index, 2 * max(l, 1))
    core = _make_core(mesh, kind, index, l + 1, rule)
    if which == "face_rot":
        src = subspace_basis(mesh, "face", index, "zero_mean", l, core=core,
                             rule=rule)
        tgt = subspace_basis(mesh, "face", index, "curl_image", l - 1,
                             core=core, rule=rule)
        g = src.grad(rule.points)
        vals = np.cross(g, mesh.face_normals[index][None, None, :])
    elif which in ("face_div", "cell_div"):
        src = subspace_basis(mesh, kind, index, "curl_complement", l,
                             core=core, rule=rule)
        tgt = scalar_basis(mesh, kind, index, l - 1, core=core)
        vals = src.div(rule.points)
    elif which == "cell_curl":
        src = subspace_basis(mesh, "cell", index, "grad_complement", l,
                             core=core, rule=rule)
        tgt = subspace_basis(mesh, "cell", index, "curl_image", l - 1,
                             core=core, rule=rule)
        vals = src.curl(rule.points)
    else:
        raise ValueError(f"unknown map {which!r}")
    return integrate_products(tgt.eval(rule.points), vals, rule.weights)


# ----------------------------------------------------------------------
# cached per-mesh bases


class BasisBank:
    """Per-mesh cache of quadrature rules, cores, and bases for one degree.

    Core scalar degree is k+1 on edges and k+2 on faces and cells: the
    largest spaces the discrete operators touch are the degree-(k+2)
    radial complements used by the trace and potential systems. Default
    rules integrate degree 2k+4 on faces/cells and 2k+2 on edges exactly,
    which covers every product of two represented polynomials.
    """

    def __init__(self, mesh, k):
        if k < 0:
            raise ValueError("degree must be >= 0")
        self.mesh = mesh
        self.k = k
        self._rules = {}
        self._cores = {}
        self._bases = {}

    def rule(self, kind, index, degree=None):
        if degree is None:
            degree = 2 * self.k + (2 if kind == "edge" else 4)
        key = (kind, index, degree)
        out = self._rules.get(key)
        if out is None:
            out = entity_rule(self.mesh, kind, index, degree)
            self._rules[key] = out
        return out

    def core(self, kind, index):
        key = (kind, index)
        out = self._cores.get(key)
        if out is None:
            L = self.k + 1 if kind == "edge" else self.k + 2
            out = _make_core(self.mesh, kind, index, L,
                             rule=self.rule(kind, index))
            self._cores[key] = out
        return out

    def scalars(self, kind, index, l):
        key = ("scalar", kind, index, l)
        out = self._bases.get(key)
        if out is None:
            out = scalar_basis(self.mesh, kind, index, l,
                               core=self.core(kind, index))
            self._bases[key] = out
        return out

    def vectors(self, kind, index, l):
        key = ("vector", kind, index, l)
        out = self._bases.get(key)
        if out is None:
            out = vector_basis(self.mesh, kind, index, l,
                               core=self.core(kind, index))
            self._bases[key] = out
        return out

    def subspace(self, kind, index, family, l):
        key = (family, kind, index, l)
        out = self._bases.get(key)
        if out is None:
            out = subspace_basis(self.mesh, kind, index, family, l,
                                 core=self.core(kind, index),
                                 rule=self.rule(kind, index))
            self._bases[key] = out
        return out
