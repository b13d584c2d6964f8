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
coefficient matrices W over that orthonormal vector basis, built from
coefficients by one fixed rule with no quadrature point (subspace_basis):
Gram-Schmidt, as a positive-diagonal QR, of the coordinates of a natural
generating set seeded with the orthonormal scalars, keeping the generators
chosen once per (family, degree, dimension), so the basis is a continuous
function of the geometry. A rank different from the closed-form dimension
is a hard error.

Every basis, whatever its kind, is stored the same way: one coefficient
array over its entity's scaled monomials, (dim, nm) for scalar spaces and
(dim, 3, nm) in global components for vector spaces, built once from W and
the orthonormalization coefficients. Gradient, divergence and curl arrays
follow from a monomial derivative table, so values and derivatives are
each one matrix product against one table of coordinate powers built by
cumulative products. Two polynomials are never integrated from their
values: on the same core, with R the QR factor of the core, C R^T are
orthonormal coordinates (_ScalarCore.coords), and the integral of a
product is their dot product (_ScalarCore.inner). A polynomial on an
entity meets one on a sub-entity (an edge of a face or cell, a face of a
cell, or the entity itself) through the trace table of that position
(trace_table): the integrals over the part of the entity's monomials
against the part's orthonormal members, taken once with the part's rule.
C T are then the coordinates of the trace, exact when the rule integrates
the degree of the polynomial plus that of the members. Only
non-polynomial data, and the values at vertices, are taken at points; the
data in one place, BasisBank.data_blocks, which sets the degree of the
data rules and tabulates the monomials at their points.

All of it is stacked over entity groups: the faces or cells whose local
arrays have equal shapes (face valence and rule fan size; for cells the
face valences and fan sizes in local order, the edge and vertex counts and
the cell fan size; all edges form one group). Rules, cores and bases
always carry a leading stack axis, and the QR factorizations and
tabulations run as numpy stacks over it. BasisBank builds each object for
a whole group; a basis built by the constructors below is a stack over the
ids they are given, a stack of one for one id. Entity i of a group is slot
BasisBank.group(kind, i)[1] of each stack.

Translated entities with equal orientations have equal local matrices,
so BasisBank runs the QR factorizations of cores and subspace bases once
per congruence class, on a representative group, and gathers them to the
group by class index (EntityGroup, BasisBank).

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

import copy
import functools
import itertools
import math

import numpy as np

from .mesh import _groups
from .quadrature import data_rule_size, entity_rule, vertex_fans

__all__ = [
    "PolyBasis",
    "dim_P",
    "space_dim",
    "scalar_basis",
    "vector_basis",
    "subspace_basis",
    "l2_project",
    "value_blocks",
    "trace_table",
    "recovery",
    "BasisBank",
]

# Bound on the values one block of stacked work at many points holds: a
# field at data-rule points. It bounds the temporaries, whose size would
# otherwise grow with the group. Interpolates and load vector are the same
# bit for bit at any size (checked from 4096 to 65536 on hex_k1 and
# tet_jitter_k0). Against 32768, 8192 keeps the temporaries nearer the
# cache: the load vector (fresh problem, medians of 5 interleaved calls,
# one BLAS thread) took 58 against 70 ms on hex_k1 and stayed flat on
# tet_jitter_k0 (52 ms) and cubic:8 k=0 (144 ms); the tet_jitter_k0
# benchmark's peak_mem_mb fell from 15.7-16.0 to 12.2-12.4 MB (3 runs
# each).
BLOCK_VALUES = 8192

# Degree of the data rules (BasisBank.data_blocks) above 2k.
INTERP_DEGREE_MARGIN = 6

# Quantum of the congruence-class keys (_class_key): entities of one group
# share a class when their keys, lengths in units of the mesh size h,
# agree after rounding to multiples of it. Members of a class then differ
# from their representative by at most about 1e-12 h in any position, so
# their local matrices by at most about 1e-12 relative; on the generated
# meshes, where translated entities agree to roundoff, by about 1e-15.
CLASS_QUANTUM = 1e-12


def value_blocks(count, size):
    """Slices of count items (entities or points) with `size` values each,
    each slice holding at most BLOCK_VALUES values (and at least one
    item)."""
    step = max(1, BLOCK_VALUES // max(size, 1))
    return [slice(s, min(s + step, count)) for s in range(0, count, step)]


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
    """Closed-form dimension of a family on a d-entity: "scalar" for any d
    (a vertex, d=0, holds one value), a subspace family for d=2,3."""
    if family == "scalar":
        return dim_P(l, d)
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
    variables, (nm, d); the matrices of d/dxi_a in the monomial basis,
    (d, nm, dim P^{L-1}): monomial i differentiates to D[a, i] over the
    lower-degree prefix; and the matrices of multiplication by xi_a, (d,
    dim P^{L-1}, nm): monomial j of the prefix times xi_a is X[a, j], an
    index shift.  All depend on (L, d) only and are read-only."""
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
    X = (D != 0).transpose(0, 2, 1).astype(float)
    exps = np.array(exps, dtype=int).reshape(len(exps), d)
    for a in (exps, D, X):
        a.flags.writeable = False
    return exps, D, X


class _ScalarCore:
    """Orthonormal scalar bases of degree L on a stack of G entities.

    x0 (G, 3), h (G,) and frame (G, d, 3) place each entity's scaled
    monomials; R (G, nm, nm) is the positive-diagonal factor of the
    Householder QR of the sqrt(weight)-scaled monomial matrix at the rule
    points, and the orthonormalization coefficients R^{-T} are lower
    triangular (member i uses monomials 0..i), so a prefix of members
    needs only a prefix of the monomials.  The rule is stacked, (G, n, 3)
    points, and is not kept.  The trace tables of the stack (trace_table)
    are cached on it, so they live as long as the core.
    """

    def __init__(self, x0, h, frame, L, rule):
        self.x0, self.h, self.frame = x0, h, frame
        self.L = L
        self.d = frame.shape[1]
        self.exps, self._D, _ = _monomial_tables(L, self.d)
        nm = len(self.exps)

        # Householder QR of the sqrt(w)-weighted monomial matrices: columns
        # of A R^{-1} are orthonormal, so the members have coefficients R^{-T}.
        A = self._monomials(rule.points, nm)
        A = (A * np.sqrt(rule.weights)[:, None, :]).transpose(0, 2, 1)
        R = np.linalg.qr(A, mode="r")
        diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
        base = np.linalg.norm(A, axis=1)
        if R.shape[1] < nm or not np.all(diag > 1e-13 * np.maximum(base, 1.0)):
            raise ValueError(
                "degenerate entity geometry: monomials are numerically "
                "dependent under the quadrature inner product"
            )
        R *= np.sign(np.diagonal(R, axis1=1, axis2=2))[..., None]
        self.R = R
        self.coeffs = np.linalg.inv(R).transpose(0, 2, 1)
        self._traces = {}

    def gather(self, x0, h, frame, cls):
        """The core of the same degree on other entities, placed by x0, h
        and frame, entity g taking the orthonormalization (R and its
        coefficients) of slot cls[g]: no rule and no QR.  Its trace
        tables are its own."""
        out = copy.copy(self)
        out.x0, out.h, out.frame = x0, h, frame
        out.R, out.coeffs = self.R[cls], self.coeffs[cls]
        out._traces = {}
        return out

    def _monomials(self, pts, n, sel=None):
        """The first n scaled monomials at stacked points (G, npts, 3) of
        the entities sel of the stack (all by default), (G, n, npts), read
        off one table of coordinate powers built by cumulative products.
        A constant-only request (n <= 1) maps no point to local coordinates."""
        x0, frame, h = self.x0, self.frame, self.h
        if sel is not None:
            x0, frame, h = x0[sel], frame[sel], h[sel]
        if n <= 1:
            return np.ones((n, len(x0), pts.shape[-2])).transpose(1, 0, 2)
        # the same bits as the transposed view, a few times faster
        FT = np.ascontiguousarray(frame.transpose(0, 2, 1))
        xi = ((pts - x0[:, None, :]) @ FT) / h[:, None, None]
        xi = xi.transpose(0, 2, 1)
        exps = self.exps[:n]
        top = int(exps[-1].sum())  # graded order
        P = np.empty((top + 1,) + xi.shape)
        P[0] = 1.0
        for e in range(top):
            np.multiply(P[e], xi, out=P[e + 1])
        out = P[exps[:, 0], :, 0]
        for a in range(1, self.d):
            out *= P[exps[:, a], :, a]
        return out.transpose(1, 0, 2)

    def gradient(self, C):
        """Monomial coefficients of the global gradients of the polynomials
        with coefficients C (G, ..., n): (G, ..., 3, n') with n' the number
        of monomials of one degree less than monomial n-1."""
        n = C.shape[-1]
        n1 = dim_P(int(self.exps[n - 1].sum()) - 1, self.d) if n else 0
        CD = np.tensordot(C, self._D[:, :n, :n1], axes=(-1, 1))
        FT = self.frame.transpose(0, 2, 1) / self.h[:, None, None]
        return FT.reshape((len(FT),) + (1,) * (CD.ndim - 3) + FT.shape[1:]) @ CD

    def coords(self, C, k, sel=None):
        """Coordinates (G, m, [3,] k) over the first k orthonormal members
        of the polynomials with monomial coefficients C (G, m, [3,] n) on
        the entities sel of the stack (all by default): C R^T.  R is upper
        triangular, so members past the n-th get coordinate 0 and the
        coordinates are exact whenever the polynomials lie in the span of
        the first k members."""
        R = self.R if sel is None else self.R[sel]
        Rt = R[:, :k, : C.shape[-1]].transpose(0, 2, 1)
        E = C.reshape(len(C), -1, C.shape[-1]) @ Rt
        return E.reshape(C.shape[:-1] + (k,))

    def inner(self, A, B):
        """Integrals over each entity of the products of the polynomials
        with monomial coefficients A (G, m, [3,] na) and B (G, n, [3,] nb),
        both scalar or both vector: (G, m, n).  No tabulation: the integral
        of a product is the dot product of the orthonormal coordinates
        (exact for degrees up to L)."""
        k = min(A.shape[-1], B.shape[-1])
        EA, EB = self.coords(A, k), self.coords(B, k)
        return (EA.reshape(len(A), A.shape[1], -1)
                @ EB.reshape(len(B), B.shape[1], -1).transpose(0, 2, 1))


def trace_table(core, sub, slots, rule, n, k, what, norm=False):
    """Trace table of a stack of entities at one local position (a boundary
    part, or the entity itself), (G, n, k).

    Entry (g, i, j) is the integral over part g of the first n
    scaled monomials of core's entity g against the first k orthonormal
    members of the part's core sub (its entities slots), with the part's
    stacked rule: the monomials restricted to the part, in the part's
    orthonormal coordinates.  A polynomial p with monomial coefficients C
    has the trace coordinates C T, and its integral against a polynomial q
    in the span of the k members is the dot product with the coordinates
    of q (sub.coords).  That is exact when the rule integrates degree
    deg p + L exactly, L the degree of the members; with norm, a squared L2
    norm of p - q is the sum of squares of the coordinate differences,
    which needs deg p <= L as well.  Both are checked, what naming the
    operator in the error.

    Each table is built once and cached on core, keyed by everything it
    depends on besides core: sub, slots, rule, n and k.  The cached array
    is read-only.  A table of fewer rows or columns is built on its own,
    not sliced from a larger one: BLAS sums a larger product in another
    order, which moves the last bits.
    """
    p, L = int(core.exps[n - 1].sum()), int(sub.exps[k - 1].sum())
    if p + L > rule.exactness_degree or (norm and p > L):
        need = f"degree {p} <= {L} and " if norm else ""
        raise ValueError(
            f"{what}: traces of degree {p} against degree-{L} members need "
            f"{need}a rule exact to degree {p + L}; the rule is exact to "
            f"degree {rule.exactness_degree}")
    key = (sub, tuple(np.asarray(slots).tolist()), rule, n, k)
    T = core._traces.get(key)
    if T is None:
        pts = rule.points[slots]
        M = core._monomials(pts, n) * rule.weights[slots][:, None, :]
        S = sub.coeffs[slots][:, :k, :k] @ sub._monomials(pts, k, slots)
        T = core._traces[key] = M @ S.transpose(0, 2, 1)
        T.flags.writeable = False
    return T


def _tabulate(core, C, pts, sel=None):
    """Values at stacked points (G, npts, 3) of the polynomials with
    monomial coefficients C over the core's entities (those in sel):
    (G, m, npts) for scalar rows C (G, m, n), (G, m, npts, 3) for vector
    rows C (G, m, 3, n) in global components.  One matmul."""
    if np.ndim(pts) != 3:
        raise ValueError(f"points of shape {np.shape(pts)} are not stacked; "
                         f"pass (G, npts, 3)")
    C = C if sel is None else C[sel]
    M = core._monomials(pts, C.shape[-1], sel)
    G, n = len(C), C.shape[-1]
    V = C.reshape(G, math.prod(C.shape[1:-1]), n) @ M
    if C.ndim == 4:
        V = V.reshape(G, C.shape[1], 3, M.shape[-1]).transpose(0, 1, 3, 2)
    return V


def _field_values(f, pts):
    """Values (G, 1, npts[, 3]) of a field at stacked points (G, npts, 3):
    f takes an (N, 3) array of points and returns (N,) or (N, 3)."""
    vals = np.asarray(f(pts.reshape(-1, 3)), dtype=float)
    return vals.reshape(pts.shape[:2] + vals.shape[1:])[:, None]


def _cross_matrix(v):
    """The 3x3 matrix K with V @ K = V x v for any (..., 3) array V; for
    stacked vectors v (G, 3), the stacked matrices (G, 3, 3)."""
    v = np.asarray(v)
    K = np.zeros(v.shape[:-1] + (3, 3))
    K[..., 0, 1], K[..., 0, 2] = -v[..., 2], v[..., 1]
    K[..., 1, 0], K[..., 1, 2] = v[..., 2], -v[..., 0]
    K[..., 2, 0], K[..., 2, 1] = -v[..., 1], v[..., 0]
    return K


# V @ _AXIS_CROSS[a] = V x e_a for the Cartesian axes
_AXIS_CROSS = _cross_matrix(np.eye(3))
_AXIS_CROSS.flags.writeable = False


class PolyBasis:
    """Basis of a polynomial space stacked over the entities ids.

    Every basis is one coefficient array over the scaled monomials of its
    entity's core: (dim, nm) for scalar spaces and (dim, 3, nm) in global
    components for vector spaces, with one leading axis over the stack.
    The constructor builds it from W (G, dim, width), the coefficients over
    the orthonormal parent basis of the same degree (the scalar members
    s_m, or the vector members s_m times frame axis a in (m, a) order), and
    the core's orthonormalization coefficients.  The grad, div and curl
    arrays are derived on first use from the core's monomial derivative
    table.

    eval is the one tabulation method, and grad, div and curl tabulate
    derivatives, all at stacked points (G, npts, 3); members of face spaces are tangent fields expressed in
    global coordinates (value_dim 2 says tangent-plane, the evaluation is
    still a 3-vector). All kinds except the concatenated trimmed spaces
    ("nedelec", "raviart_thomas") are L2-orthonormal on their entity.
    """

    def __init__(self, ids, kind, degree, core, W, axes=None, orthonormal=True):
        self.ids = ids
        self.kind = kind
        self.degree = degree
        self._core = core
        self._Ws = W
        self.dim = W.shape[1]
        self.orthonormal = orthonormal
        self.value_dim = 1 if axes is None else axes.shape[1]
        ns = W.shape[2] // self.value_dim
        S = core.coeffs[:, :ns, :ns]
        if axes is None:
            # an identity W (the full scalar space) takes the coefficients as
            # they are
            self._Cs = S if kind == "scalar" else W @ S
        else:
            Wam = W.reshape(len(W), self.dim, ns, len(axes[0])).transpose(0, 1, 3, 2)
            self._Cs = axes.transpose(0, 2, 1)[:, None] @ (Wam @ S[:, None])

    def gather(self, ids, core, cls):
        """The basis of the same space on the entities ids, slot g of core,
        entity g taking the coefficients W of slot cls[g]."""
        axes = None if self.value_dim == 1 else core.frame
        return PolyBasis(ids, self.kind, self.degree, core, self._Ws[cls], axes,
                         self.orthonormal)

    @functools.cached_property
    def _grad_map(self):
        return self._core.gradient(self._Cs)

    @functools.cached_property
    def _div_map(self):
        J = self._core.gradient(self._Cs)  # (G, dim, component, axis, n')
        return J[:, :, 0, 0] + J[:, :, 1, 1] + J[:, :, 2, 2]

    @functools.cached_property
    def _curl_map(self):
        J = self._core.gradient(self._Cs)
        return np.stack([J[:, :, 2, 1] - J[:, :, 1, 2], J[:, :, 0, 2] - J[:, :, 2, 0],
                         J[:, :, 1, 0] - J[:, :, 0, 1]], axis=2)

    def moments(self, pts, vals, weights, sel=None, monomials=None):
        """Integrals (G, dim, r) of the members of the entities sel of the
        stack (all by default) against r values per entity at their stacked
        rule points, vals (G, r, npts) or (G, r, npts, 3): the monomials
        meet the weighted values first, so no member is tabulated.
        monomials are the core's first scaled monomials at pts, (G, >= n,
        npts), when the caller tabulated them once for several bases; their
        prefix is used."""
        C = self._Cs if sel is None else self._Cs[sel]
        G, n, r = len(C), C.shape[-1], vals.shape[1]
        if monomials is None:
            monomials = self._core._monomials(pts, n, sel)
        w = weights[:, None, :, None] if vals.ndim == 4 else weights[:, None]
        wv = np.moveaxis(vals * w, 1, -1)
        F = monomials[:, :n] @ wv.reshape(G, wv.shape[1], -1)
        if C.ndim == 3:
            return C @ F
        F = F.reshape(G, n, 3, r).transpose(0, 2, 1, 3).reshape(G, 3 * n, r)
        return C.reshape(G, self.dim, -1) @ F

    def eval(self, pts, sel=None):
        """Member values at stacked points (G', npts, 3) of the entities sel
        of the stack (all by default), (G', dim, npts[, 3]); unstacked
        points raise a ValueError."""
        return _tabulate(self._core, self._Cs, pts, sel)

    def grad(self, pts, sel=None):
        """Member gradients (scalar spaces only), points as in eval."""
        if self.value_dim != 1:
            raise ValueError("grad is defined for scalar bases")
        return _tabulate(self._core, self._grad_map, pts, sel)

    def div(self, pts, sel=None):
        """Member divergences; on faces this is the in-plane divergence.
        Points as in eval."""
        if self.value_dim == 1:
            raise ValueError("div is defined for vector bases")
        return _tabulate(self._core, self._div_map, pts, sel)

    def curl(self, pts, sel=None):
        """Member curls (cell vector spaces only), points as in eval."""
        if self.value_dim != 3:
            raise ValueError("curl is defined for cell vector bases")
        return _tabulate(self._core, self._curl_map, pts, sel)


# ----------------------------------------------------------------------
# construction


def _entity_frame(mesh, kind, ids):
    if kind == "edge":
        return (mesh.edge_midpoints[ids], mesh.edge_lengths[ids],
                mesh.edge_tangents[ids][:, None, :])
    if kind == "face":
        return (mesh.face_centroids[ids], mesh.face_diameters[ids],
                mesh.face_frames[ids])
    if kind == "cell":
        return (mesh.cell_centroids[ids], mesh.cell_diameters[ids],
                np.broadcast_to(np.eye(3), (len(ids), 3, 3)))
    raise ValueError(f"unknown entity kind {kind!r}")


def _ids(index):
    return np.atleast_1d(np.asarray(index, dtype=int))


def _make_core(mesh, kind, index, L, rule=None):
    """Core of degree L stacked over the entities index (an id or a
    sequence of ids), on the stacked rule given or its own of degree 2L."""
    x0, h, frame = _entity_frame(mesh, kind, _ids(index))
    if rule is None:
        rule = entity_rule(mesh, kind, index, max(2 * L, 0))
    return _ScalarCore(x0, h, frame, L, rule)


def _identity(G, n):
    return np.broadcast_to(np.eye(n), (G, n, n))


def scalar_basis(mesh, kind, index, l, core=None):
    """Orthonormal bases of scalars of degree <= l stacked over the entities
    index (an id or a sequence of ids; a given core is theirs)."""
    if core is None:
        core = _make_core(mesh, kind, index, max(l, 0))
    ids = _ids(index)
    return PolyBasis(ids, "scalar", l, core,
                     _identity(len(ids), dim_P(l, core.d)))


def vector_basis(mesh, kind, index, l, core=None):
    """Orthonormal basis of full vector polynomials of degree <= l (frame
    axes: face tangents, Cartesian axes on cells); stacked as scalar_basis."""
    if kind == "edge":
        raise ValueError("vector bases live on faces and cells")
    if core is None:
        core = _make_core(mesh, kind, index, max(l, 0))
    ids = _ids(index)
    return PolyBasis(ids, "vector", l, core,
                     _identity(len(ids), dim_P(l, core.d) * core.d), core.frame)


def _generators(family, l, d, S):
    """The generating set of a family of degree l, seeded with a graded
    prefix of the scalars S (G, >= n, >= n) over the scaled monomials:
    monomial coefficients (G, m, d, dim P^l) in frame components.  Image
    families differentiate the seeds of degree <= l+1 but the constant,
    complements multiply the seeds of degree <= l-1 by the Koszul field
    xi; faces then rotate, (c0, c1) -> (-c1, c0), and cells cross with each
    axis e_b, generator (m, b) in row 3m + b.  The entity's scale h is left
    out: one positive factor common to every generator."""
    image = family.endswith("image")
    n = dim_P(l + 1 if image else l - 1, d)
    _, D, X = _monomial_tables(l + 1 if image else l, d)
    S = S[:, 1 if image else 0 : n, :n]
    C = np.tensordot(S, D if image else X, axes=(-1, 1))
    if family in ("grad_image", "curl_complement"):
        return C
    if d == 2:
        return np.stack([-C[:, :, 1], C[:, :, 0]], axis=2)
    C = _AXIS_CROSS.transpose(0, 2, 1) @ C[:, :, None]
    return C.reshape(len(C), -1, 3, C.shape[-1])


def _kept_rows(T):
    """Rows of T (n, w) outside the span of the rows before them: by
    Gram-Schmidt with one reorthogonalization, a row whose residual
    exceeds 1e-8 of its norm."""
    keep, Q = [], np.zeros((0, T.shape[1]))
    for i, t in enumerate(T):
        r = t - (t @ Q.T) @ Q
        r -= (r @ Q.T) @ Q
        if np.linalg.norm(r) > 1e-8 * np.linalg.norm(t):
            keep.append(i)
            Q = np.vstack([Q, r / np.linalg.norm(r)])
    return np.array(keep, dtype=int)


@functools.cache
def _independent(family, l, d):
    """Rows of the generating set of a family the fixed rule keeps: the
    kept rows (_kept_rows) of the table seeded with the monomials.  That
    table has small integer entries and depends on (family, l, d) alone,
    so the choice is the same on every entity; and orthonormal seeds of a
    graded basis are lower triangular over the monomials, so every prefix
    of their rows spans what the same prefix of the monomial rows spans,
    and the kept rows are a basis.  Read-only."""
    T = _generators(family, l, d, np.eye(dim_P(l + 1, d))[None])[0]
    keep = _kept_rows(T.reshape(len(T), d * dim_P(l, d)))
    keep.flags.writeable = False
    return keep


def subspace_basis(mesh, kind, index, family, l, core=None):
    """Orthonormal bases of one subspace family (or a trimmed
    concatenation) stacked as scalar_basis.

    The basis is expressed over the orthonormal full-vector basis of the
    same degree, so its coefficient rows are exactly its L2 geometry.  The
    generators _generators seeds with the core's orthonormal scalars and
    _independent keeps (the same on every entity) get their coordinates
    C R^T from the core, exact as their degree is l; W is Q^T of the
    unpivoted QR of those rows in order, R's diagonal made positive (the
    basis Gram-Schmidt gives).  A diagonal entry of R at most 1e-8 of its
    generator's norm is a rank error.
    """
    if kind == "edge":
        raise ValueError("subspace bases live on faces and cells")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    # generators need scalar degree l+1 for the image families
    need_L = l + 1 if family.endswith("image") else max(l, 0)
    if core is None or core.L < need_L:
        core = _make_core(mesh, kind, index, need_L)
    ids = _ids(index)
    G, d = len(ids), core.d

    if family == "zero_mean":
        dim = space_dim("zero_mean", l, d)
        W = np.eye(dim + 1)[1:] if dim else np.zeros((0, 1))
        return PolyBasis(ids, family, l, core,
                         np.broadcast_to(W, (G,) + W.shape))

    axes = core.frame
    width = dim_P(l, d) * d
    if family in ("nedelec", "raviart_thomas"):
        sub = "grad" if family == "nedelec" else "curl"
        lo = subspace_basis(mesh, kind, index, f"{sub}_image", l - 1, core=core)
        hi = subspace_basis(mesh, kind, index, f"{sub}_complement", l, core=core)
        W = np.zeros((G, lo.dim + hi.dim, width))
        W[:, : lo.dim, : lo._Ws.shape[2]] = lo._Ws
        W[:, lo.dim :] = hi._Ws
        return PolyBasis(ids, family, l, core, W, axes, orthonormal=False)

    dim = space_dim(family, l, d)
    if dim == 0:
        return PolyBasis(ids, family, l, core, np.zeros((G, 0, width)), axes)
    C = _generators(family, l, d, core.coeffs)[:, _independent(family, l, d)]
    A = core.coords(C, dim_P(l, d)).swapaxes(-1, -2).reshape(G, -1, width)
    Q, R = np.linalg.qr(A.swapaxes(-1, -2))
    diag = np.diagonal(R, axis1=1, axis2=2)
    rank = (np.abs(diag) > 1e-8 * np.linalg.norm(A, axis=2)).sum(axis=1)
    bad = np.flatnonzero(rank != dim)
    if len(bad):
        raise ValueError(
            f"rank of {family} generators on {kind} {ids[bad[0]]} is "
            f"{len(_kept_rows(A[bad[0]]))}, expected {dim}"
        )
    return PolyBasis(ids, family, l, core,
                     (Q * np.sign(diag)[:, None]).swapaxes(-1, -2), axes)


# ----------------------------------------------------------------------
# projections and recovery


def l2_project(basis, f, rule, sel=None):
    """Coefficients (G', dim) of the L2 projections of a field onto an
    orthonormal stacked basis, on the entities sel of the stack (all by
    default) by a rule stacked over them.

    f is a callable on an (npts, 3) array of points returning (npts,) for
    scalar bases or (npts, 3) for vector bases; 3-vector fields over faces
    are projected onto the tangent plane implicitly (members are tangent).
    The projection is the members' moments, so a basis that is not
    orthonormal ("nedelec", "raviart_thomas") raises a ValueError.
    """
    if not basis.orthonormal:
        raise ValueError(f"l2_project needs an orthonormal basis, not "
                         f"{basis.kind!r}")
    pts = rule.points
    return basis.moments(pts, _field_values(f, pts), rule.weights, sel)[..., 0]


def recovery(basis_s, basis_sc, b, c):
    """Reconstruct full vector polynomials from their two projections.

    basis_s, basis_sc: stacks of complementary subspaces of the same full
    vector space (an image family and its Koszul complement, same group,
    same degree); b (G, basis_s.dim) and c (G, basis_sc.dim) the
    projections. Returns the coefficients (G, width) over the orthonormal
    full vector basis of the fields whose projections on the pair are
    (b, c), and the condition numbers (G,) of the pairs. A dependent pair
    (condition number not below 1/eps) determines no field: its
    coefficients are NaN.
    """
    Ws, Wc = basis_s._Ws, basis_sc._Ws
    width = max(Ws.shape[2], Wc.shape[2])
    M = np.zeros((len(Ws), Ws.shape[1] + Wc.shape[1], width))
    M[:, : Ws.shape[1], : Ws.shape[2]] = Ws
    M[:, Ws.shape[1]:, : Wc.shape[2]] = Wc
    if M.shape[1] != width:
        raise ValueError("subspace dimensions do not add up to the full space")
    cond = np.linalg.cond(M)
    ok = cond < 1 / np.finfo(float).eps
    out = np.full((len(M), width), np.nan)
    rhs = np.concatenate([b, c], axis=1)
    out[ok] = np.linalg.solve(M[ok], rhs[ok, :, None])[..., 0]
    return out, cond


# ----------------------------------------------------------------------
# entity groups and the cached per-mesh bases


def _group_ids(mesh, kind):
    """The ids (ascending) of the entities of one kind that share every
    local array shape, group by group in order of their first entity:
    faces of one valence and polynomial-rule fan size; cells of one mesh
    cell group (Mesh.cell_groups) with the same fan sizes of their faces in
    local order and the same fan size of their own.  Edges form one group."""
    if kind == "edge":
        return [np.arange(mesh.num_edges)]
    if kind not in ("face", "cell"):
        raise ValueError(f"unknown entity kind {kind!r}")
    face_fan = vertex_fans(mesh, "face").size
    if kind == "face":
        parts = [(g.ids, face_fan[g.ids, None]) for g in mesh.face_groups]
    else:
        cell_fan = vertex_fans(mesh, "cell").size
        parts = [(g.ids, np.column_stack([face_fan[g.cells], cell_fan[g.ids]]))
                 for g in mesh.cell_groups]
    groups = [ids[rows] for ids, keys in parts for _, rows in _groups(keys)]
    return sorted(groups, key=lambda ids: ids[0])


class EntityGroup:
    """The entities of one kind with one signature, ids ascending: every
    local object of theirs has the same shapes, so each is built for all
    of them at once.  Incidence arrays are gathered from the mesh's group
    stacks on first use: vertices, edges and (on cells) faces in local
    order, and the orientations of the boundary parts (the edges of a
    face, the faces of a cell).

    classes (G,) is the congruence class of each entity and rep the
    representative group, its entities the first of each class in order
    (ids ascending, classes numbered in that order).  Entities of one
    class have equal class keys (_class_key): the same vertex offsets
    from their centroid (an edge: its midpoint) in local order, the same
    frame, normal or tangent, the same offsets, normals, frames and
    tangents of their local faces and edges, and the same orientation
    signs, all up to CLASS_QUANTUM.  A group starts as its own
    representative, every entity a class of its own; BasisBank classes
    the groups it builds."""

    def __init__(self, mesh, kind, ids):
        self.mesh = mesh
        self.kind = kind
        self.ids = ids
        self.classes = np.arange(len(ids))
        self.rep = self

    def __len__(self):
        return len(self.ids)

    def _rows(self, name):
        rows = self.mesh.face_rows if self.kind == "face" else self.mesh.cell_rows
        return rows(name, self.ids)

    @functools.cached_property
    def vertices(self):
        if self.kind == "edge":
            return self.mesh.edges[self.ids]
        return self._rows("faces" if self.kind == "face" else "cell_vertices")

    @functools.cached_property
    def edges(self):
        return self._rows("face_edges" if self.kind == "face" else "cell_edges")

    @functools.cached_property
    def faces(self):
        return self._rows("cells")

    @functools.cached_property
    def signs(self):
        return self._rows("face_edge_signs" if self.kind == "face"
                          else "cell_face_signs")

    @functools.cached_property
    def edge_normals(self):
        return self._rows("face_edge_normals")


def _class_key(group):
    """Rows (G, m) of everything that fixes the local matrices of the
    entities of a group up to translation, lengths in units of the mesh
    size: vertex offsets from the entity's centroid (an edge: its
    midpoint) in local order; an edge's tangent; a face's frame and
    normal, and the offsets, tangents, in-plane normals and orientation
    signs of its edges; a cell's offsets, normals, frames and orientation
    signs of its faces and the offsets and tangents of its edges."""
    mesh, ids = group.mesh, group.ids
    points = [mesh.vertices[group.vertices]]
    if group.kind == "edge":
        x0 = mesh.edge_midpoints[ids]
        geometry = [mesh.edge_tangents[ids]]
    elif group.kind == "face":
        x0 = mesh.face_centroids[ids]
        points.append(mesh.edge_midpoints[group.edges])
        geometry = [mesh.face_frames[ids], mesh.face_normals[ids],
                    mesh.edge_tangents[group.edges], group.edge_normals,
                    group.signs]
    else:
        x0 = mesh.cell_centroids[ids]
        points += [mesh.face_centroids[group.faces],
                   mesh.edge_midpoints[group.edges]]
        geometry = [mesh.face_normals[group.faces], mesh.face_frames[group.faces],
                    group.signs, mesh.edge_tangents[group.edges]]
    offsets = [(x - x0[:, None]) / mesh.h for x in points]
    return np.concatenate([np.reshape(x, (len(ids), -1))
                           for x in offsets + geometry], axis=1)


def _classify(keys, quantum):
    """Congruence classes of the rows of keys (G, m): rows whose entries
    agree after rounding to multiples of quantum share one.  Returns the
    class of each row (G,) and the first row of each class (C,), classes
    in order of their first row.  One stable argsort of the rounded rows,
    each viewed as one void item, then one comparison of neighbours: 0.6
    ms for the three groups of a jittered tet:4 on a Xeon core with numpy
    2.4, against 1.0 ms with np.unique and its index and inverse."""
    q = np.ascontiguousarray(np.rint(keys / quantum).astype(np.int64))
    order = np.argsort(q.view(np.dtype((np.void, q.itemsize * q.shape[1])))[:, 0],
                       kind="stable")
    sq = q[order]
    new = np.r_[True, (sq[1:] != sq[:-1]).any(axis=1)]
    first = order[new]  # stable: the first row of each run is its smallest
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    cls = np.empty(len(q), dtype=int)
    cls[order] = rank[np.cumsum(new) - 1]
    return cls, np.sort(first)


class BasisBank:
    """Per-mesh cache of stacked quadrature rules, cores and bases for one
    degree, one of each per entity group, and of the trace tables between
    them.

    Core scalar degree is k+1 on edges and k+2 on faces and cells: the
    largest spaces the discrete operators touch are the degree-(k+2)
    radial complements used by the trace and potential systems. Default
    rules integrate degree 2k+4 on faces/cells and 2k+2 on edges exactly,
    which covers every product of two represented polynomials.

    Everything is built per entity group (see EntityGroup) and asked for
    by its group: group_rule, core and group_basis return stacks, and
    entity i is slot group(kind, i)[1] of each. The bank classes each group
    it builds by congruence (_classify of the _class_key rows at
    CLASS_QUANTUM), setting its classes and representative group rep.
    Only a representative group's core runs the QR of its rule, and only
    its subspace bases run theirs; the full group's core and subspace
    bases take R, the orthonormalization coefficients and W from it by
    class index, keeping each entity's own x0, h and frame (gather).
    Where every class is a singleton the representative group is the
    group itself. class_counts reports classes against entities.

    The polynomial rules (vertex fans, see quadrature) are cached per
    (group, degree) and built only when asked for: by a representative
    core, or by the trace tables of boundary positions, which read the
    rule of the sub-entities' full group. Data rules (centroid fans, for
    non-polynomial data) are read once, block by block, so they are not
    cached: data_blocks builds each block's rule as it is used. Trace
    tables (trace_table) are cached on their outer core, one per
    sub-entity stack and slots, rule and (n, k), so they too last as long
    as the bank.
    """

    def __init__(self, mesh, k):
        if k < 0:
            raise ValueError("degree must be >= 0")
        self.mesh = mesh
        self.k = k
        self._tables = {}
        self._group_rules = {}
        self._cores = {}
        self._bases = {}

    # -- groups ------------------------------------------------------------

    def _table(self, kind):
        table = self._tables.get(kind)
        if table is None:
            mesh = self.mesh
            groups = []
            for ids in _group_ids(mesh, kind):
                g = EntityGroup(mesh, kind, ids)
                g.classes, first = _classify(_class_key(g), CLASS_QUANTUM)
                if len(first) < len(g):
                    g.rep = EntityGroup(mesh, kind, ids[first])
                groups.append(g)
            count = sum(len(g) for g in groups)
            gids = np.empty(count, dtype=int)
            slots = np.empty(count, dtype=int)
            for gid, g in enumerate(groups):
                gids[g.ids] = gid
                slots[g.ids] = np.arange(len(g))
            table = self._tables[kind] = (groups, gids, slots)
        return table

    def groups(self, kind):
        """The entity groups of one kind, in order of their first entity."""
        return self._table(kind)[0]

    def group(self, kind, index):
        """(group, slot): the group of one entity and its position there."""
        groups, gids, slots = self._table(kind)
        return groups[gids[index]], int(slots[index])

    def class_counts(self, kind):
        """(congruence classes, entities) of one kind over its groups."""
        groups = self.groups(kind)
        return sum(len(g.rep) for g in groups), sum(len(g) for g in groups)

    def locate(self, kind, ids):
        """(group, slots) of entities that share one group."""
        groups, gids, slots = self._table(kind)
        if np.any(gids[ids] != gids[ids[0]]):
            raise ValueError(f"{kind}s {ids} do not share one group")
        return groups[gids[ids[0]]], slots[ids]

    # -- rules and cores ---------------------------------------------------

    def _degree(self, kind, degree):
        if degree is None:
            return 2 * self.k + (2 if kind == "edge" else 4)
        return degree

    def group_rule(self, group, degree=None):
        """The stacked polynomial rule of a group, (G, n, 3) points."""
        key = (group, self._degree(group.kind, degree))
        out = self._group_rules.get(key)
        if out is None:
            out = self._group_rules[key] = entity_rule(
                self.mesh, group.kind, group.ids, key[1])
        return out

    def data_blocks(self, group, n, degree=None):
        """(sl, rule, monomials) per value block of a group (value_blocks):
        the data rule of the entities group.ids[sl], of degree 2k +
        INTERP_DEGREE_MARGIN unless one is given, and the first n scaled
        monomials of the group's core at its points, (G', n, npts)."""
        mesh, kind = self.mesh, group.kind
        if degree is None:
            degree = 2 * self.k + INTERP_DEGREE_MARGIN
        size = data_rule_size(mesh, kind, group.ids[0], degree)
        for sl in value_blocks(len(group), size):
            rule = entity_rule(mesh, kind, group.ids[sl], degree, data=True)
            yield sl, rule, self.core(group)._monomials(rule.points, n, sl)

    def core(self, group):
        """The stacked scalar core of a group, of degree k+1 on edges and
        k+2 on faces and cells: on a representative group, by the QR of
        the group's default rule; on any other, gathered from its
        representative's by class index."""
        out = self._cores.get(group)
        if out is None:
            mesh, kind = self.mesh, group.kind
            if group.rep is group:
                L = self.k + 1 if kind == "edge" else self.k + 2
                out = _make_core(mesh, kind, group.ids, L,
                                 rule=self.group_rule(group))
            else:
                out = self.core(group.rep).gather(
                    *_entity_frame(mesh, kind, group.ids), group.classes)
            self._cores[group] = out
        return out

    # -- bases ---------------------------------------------------------------

    def group_basis(self, group, family, l):
        """The stacked basis of a group: family "scalar", "vector" or a
        subspace family, which a group other than its representative
        gathers from the representative's by class index."""
        key = (family, group, l)
        out = self._bases.get(key)
        if out is None:
            mesh, kind, ids = self.mesh, group.kind, group.ids
            core = self.core(group)
            if family == "scalar":
                out = scalar_basis(mesh, kind, ids, l, core=core)
            elif family == "vector":
                out = vector_basis(mesh, kind, ids, l, core=core)
            elif group.rep is group:
                out = subspace_basis(mesh, kind, ids, family, l, core=core)
            else:
                out = self.group_basis(group.rep, family, l).gather(
                    ids, core, group.classes)
            self._bases[key] = out
        return out
