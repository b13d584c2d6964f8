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

Vector spaces are spanned by scalar members times frame axes (tangent axes
on faces, Cartesian axes on cells) and inherit the prefix property. The
differential-image and Koszul-complement subspaces are represented by
coefficient matrices W over that orthonormal vector basis, obtained by a
rank-revealing SVD of their natural generating sets; a rank different from
the closed-form dimension is a hard error.

Every basis, whatever its kind, is stored the same way: one coefficient
array over its entity's scaled monomials, (dim, nm) for scalar spaces and
(dim, 3, nm) in global components for vector spaces, built once from W and
the orthonormalization coefficients. Gradient, divergence and curl arrays
follow from a monomial derivative table, so values and derivatives are
each one matrix product against one table of coordinate powers built by
cumulative products. integrate_products turns two tabulations into the
matrix of their integrals with one weighted matrix product; every
quadrature contraction of the discrete operators goes through it.

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

    Stores the orthonormalization coefficients over scaled monomials and the
    monomial derivative table, so any polynomial given by its monomial
    coefficients can be tabulated and differentiated.  The coefficients are
    lower triangular (member i uses monomials 0..i), so a prefix of members
    needs only a prefix of the monomials.
    """

    def __init__(self, x0, h, frame, L, rule):
        self.x0 = np.asarray(x0, dtype=float)
        self.h = float(h)
        self.frame = np.asarray(frame, dtype=float)  # (d, 3) rows
        self.L = L
        self.d = len(self.frame)
        self.exps, self._rows, self._D = _monomial_tables(L, self.d)
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

    def gradient(self, C):
        """Monomial coefficients of the global gradients of the polynomials
        with coefficients C (..., n): (..., 3, n') with n' the number of
        monomials of one degree less than monomial n-1."""
        n = C.shape[-1]
        n1 = dim_P(int(self.exps[n - 1].sum()) - 1, self.d) if n else 0
        CD = np.tensordot(C, self._D[:, :n, :n1], axes=(-1, 1))
        return (self.frame.T / self.h) @ CD


def _tabulate(core, C, pts):
    """Values at the points of the polynomials with monomial coefficients
    C over the core: (m, npts) for scalar rows C (m, n), (m, npts, 3) for
    vector rows C (m, 3, n) in global components.  One matmul."""
    M = core._monomials(pts, C.shape[-1])
    V = C.reshape(math.prod(C.shape[:-1]), C.shape[-1]) @ M
    if C.ndim == 2:
        return V
    return V.reshape(len(C), 3, M.shape[1]).transpose(0, 2, 1)


def _cross_matrix(v):
    """The 3x3 matrix K with V @ K = V x v for any (..., 3) array V."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


# V @ _AXIS_CROSS[a] = V x e_a for the Cartesian axes
_AXIS_CROSS = np.array([_cross_matrix(e) for e in np.eye(3)])
_AXIS_CROSS.flags.writeable = False


class PolyBasis:
    """Basis of a polynomial space on a mesh entity.

    Every basis is one coefficient array over the scaled monomials of its
    entity's core: (dim, nm) for scalar spaces and (dim, 3, nm) in global
    components for vector spaces.  The constructor builds it from W, the
    coefficients over the orthonormal parent basis of the same degree (the
    scalar members s_m, or the vector members s_m times frame axis a in
    (m, a) order), and the core's orthonormalization coefficients.  eval,
    grad, div and curl each tabulate one such array with a single matmul;
    the grad, div and curl arrays are derived once, on first use, from the
    core's monomial derivative table.

    eval() returns (dim, npts) for scalar spaces and (dim, npts, 3) for
    vector spaces; members of face spaces are tangent fields expressed in
    global coordinates (value_dim 2 says tangent-plane, the evaluation is
    still a 3-vector). All kinds except the concatenated trimmed spaces
    ("nedelec", "raviart_thomas") are L2-orthonormal on their entity.
    """

    def __init__(self, entity_kind, entity_id, kind, degree, core, W,
                 axes=None, orthonormal=True):
        self.entity_kind = entity_kind
        self.entity_id = entity_id
        self.kind = kind
        self.degree = degree
        self._core = core
        self._W = W
        self.dim = len(W)
        self.orthonormal = orthonormal
        self.value_dim = 1 if axes is None else len(axes)
        ns = W.shape[1] // self.value_dim
        S = core.coeffs[:ns, :ns]
        if axes is None:
            self._C = W @ S
        else:
            Wam = W.reshape(self.dim, ns, len(axes)).transpose(0, 2, 1)
            self._C = axes.T @ (Wam @ S)

    @functools.cached_property
    def _grad_map(self):
        return self._core.gradient(self._C)

    @functools.cached_property
    def _div_map(self):
        J = self._core.gradient(self._C)  # (dim, component, axis, n')
        return J[:, 0, 0] + J[:, 1, 1] + J[:, 2, 2]

    @functools.cached_property
    def _curl_map(self):
        J = self._core.gradient(self._C)
        return np.stack([J[:, 2, 1] - J[:, 1, 2], J[:, 0, 2] - J[:, 2, 0],
                         J[:, 1, 0] - J[:, 0, 1]], axis=1)

    def eval(self, pts):
        return _tabulate(self._core, self._C, pts)

    def grad(self, pts):
        """Member gradients (scalar spaces only), shape (dim, npts, 3)."""
        if self.value_dim != 1:
            raise ValueError("grad is defined for scalar bases")
        return _tabulate(self._core, self._grad_map, pts)

    def div(self, pts):
        """Member divergences; on faces this is the in-plane divergence."""
        if self.value_dim == 1:
            raise ValueError("div is defined for vector bases")
        return _tabulate(self._core, self._div_map, pts)

    def curl(self, pts):
        """Member curls (cell vector spaces only), shape (dim, npts, 3)."""
        if self.value_dim != 3:
            raise ValueError("curl is defined for cell vector bases")
        return _tabulate(self._core, self._curl_map, pts)

    def coeff_matrix(self):
        """Coefficients over the orthonormal parent basis (dim x width)."""
        return self._W

    def gram(self):
        """Exact L2 Gram matrix from coefficient space."""
        return self._W @ self._W.T


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
    return PolyBasis(kind, index, "scalar", l, core, np.eye(dim_P(l, core.d)))


def _axes(kind, core):
    return np.eye(3) if kind == "cell" else core.frame


def vector_basis(mesh, kind, index, l, core=None):
    """Orthonormal basis of full vector polynomials of degree <= l."""
    if kind == "edge":
        raise ValueError("vector bases live on faces and cells")
    if core is None:
        core = _make_core(mesh, kind, index, max(l, 0))
    axes = _axes(kind, core)
    return PolyBasis(kind, index, "vector", l, core,
                     np.eye(dim_P(l, core.d) * len(axes)), axes)


def _subspace_generators(mesh, kind, index, family, l, core, rule):
    """Values of the natural generating set at the rule points, (ng,np,3)."""
    pts = rule.points
    if family.endswith("image"):
        n = dim_P(l + 1, core.d)
        g = _tabulate(core, core.gradient(core.coeffs[:n, :n]), pts)
        if family == "grad_image":
            return g[1:]  # the constant member has no gradient
        if kind == "face":
            return g[1:] @ _cross_matrix(mesh.face_normals[index])
        # grad s_m x e_a in (m, a) order
        return (g[:, None] @ _AXIS_CROSS).reshape(3 * n, -1, 3)
    n = dim_P(l - 1, core.d)
    if n == 0:
        return np.zeros((0, len(pts), 3))
    s = _tabulate(core, core.coeffs[:n, :n], pts)
    r = np.atleast_2d(pts) - core.x0
    if family == "curl_complement":
        return s[:, :, None] * r[None, :, :]
    if family != "grad_complement":
        raise ValueError(f"unknown vector family {family!r}")
    if kind == "face":
        rot = -(r @ _cross_matrix(mesh.face_normals[index]))  # n x r
        return s[:, :, None] * rot[None, :, :]
    gens = s[:, None, :, None] * (r @ _AXIS_CROSS)[None]  # s_m (r x e_a)
    return gens.reshape(3 * n, -1, 3)


def subspace_basis(mesh, kind, index, family, l, core=None, rule=None):
    """Orthonormal basis of one subspace family (or a trimmed concatenation).

    The basis is expressed over the orthonormal full-vector basis of the
    same degree, so its coefficient rows are exactly its L2 geometry.
    """
    if kind == "edge":
        raise ValueError("subspace bases live on faces and cells")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    # generators need scalar degree l+1 for the image families
    need_L = l + 1 if family.endswith("image") else max(l, 0)
    if core is None or core.L < need_L:
        core = _make_core(mesh, kind, index, need_L, rule)
    if rule is None:
        rule = core.rule
    d = core.d

    if family == "zero_mean":
        dim = space_dim("zero_mean", l, d)
        W = np.eye(dim + 1)[1:] if dim else np.zeros((0, 1))
        return PolyBasis(kind, index, family, l, core, W)

    axes = _axes(kind, core)
    width = dim_P(l, d) * len(axes)
    if family in ("nedelec", "raviart_thomas"):
        sub = "grad" if family == "nedelec" else "curl"
        lo = subspace_basis(mesh, kind, index, f"{sub}_image", l - 1,
                            core=core, rule=rule)
        hi = subspace_basis(mesh, kind, index, f"{sub}_complement", l,
                            core=core, rule=rule)
        Wlo = np.zeros((lo.dim, width))
        Wlo[:, : lo._W.shape[1]] = lo._W
        return PolyBasis(kind, index, family, l, core,
                         np.vstack([Wlo, hi._W]), axes, orthonormal=False)

    dim = space_dim(family, l, d)
    if dim == 0:
        return PolyBasis(kind, index, family, l, core, np.zeros((0, width)),
                         axes)
    gens = _subspace_generators(mesh, kind, index, family, l, core, rule)
    # moments against the parent members s_m * axes[a], in (m, a) order,
    # without tabulating the parent vector basis
    ns = width // len(axes)
    S = _tabulate(core, core.coeffs[:ns, :ns], rule.points) * rule.weights
    moments = ((S @ gens) @ axes.T).reshape(len(gens), width)
    U, sing, Vt = np.linalg.svd(moments, full_matrices=False)
    rank = int((sing >= DROP_TOL * sing[0]).sum()) if len(sing) else 0
    if rank != dim:
        raise ValueError(
            f"rank of {family} generators on {kind} {index} is {rank}, "
            f"expected {dim}"
        )
    return PolyBasis(kind, index, family, l, core, Vt[:dim], axes)


# ----------------------------------------------------------------------
# projections, recovery, diagnostics


def l2_project(basis, f, rule=None, mesh=None):
    """Coefficients of the L2 projection of a field onto the basis.

    f is a callable on an (npts, 3) array of points returning (npts,) for
    scalar bases or (npts, 3) for vector bases; 3-vector fields over faces
    are projected onto the tangent plane implicitly (members are tangent).
    Without a rule, mesh selects the data rule of degree 2l+2 for a
    non-polynomial f; with neither, the basis' own polynomial rule is used.
    """
    if rule is None:
        if mesh is None:
            rule = basis._core.rule
        else:
            rule = entity_rule(mesh, basis.entity_kind, basis.entity_id,
                               2 * max(basis.degree, 0) + 2, data=True)
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
        vals = src.grad(rule.points) @ _cross_matrix(mesh.face_normals[index])
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
    which covers every product of two represented polynomials. Rules are
    cached per (kind, index, degree, data): data=True selects the
    centroid-fan rule for non-polynomial data, the default the vertex-fan
    rule for polynomials (see quadrature).
    """

    def __init__(self, mesh, k):
        if k < 0:
            raise ValueError("degree must be >= 0")
        self.mesh = mesh
        self.k = k
        self._rules = {}
        self._cores = {}
        self._bases = {}

    def rule(self, kind, index, degree=None, data=False):
        if degree is None:
            degree = 2 * self.k + (2 if kind == "edge" else 4)
        key = (kind, index, degree, data)
        out = self._rules.get(key)
        if out is None:
            out = entity_rule(self.mesh, kind, index, degree, data=data)
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
