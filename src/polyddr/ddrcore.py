"""Discrete counterparts of the gradient, curl, and divergence.

Four degree-k spaces are attached to a polyhedral mesh:

- "grad": one value per vertex, moments of degree k-1 on edges, faces,
  and cells (the discrete scalar potential space);
- "curl": tangential moments of degree k on edges, rotational-image and
  radial-complement moments on faces and cells (the discrete field space);
- "div":  normal moments of degree k on faces, gradient-image and radial
  complement moments on cells (the discrete flux space);
- "l2":   moments of degree k on cells.

All moment degrees of freedom are coefficients over the orthonormal bases
of polyspaces, so projections and restrictions are plain matrix algebra.
Global numbering is vertices, then edges, then faces, then cells; inside
one entity the image block precedes the complement block.

Each reconstruction operator maps the degrees of freedom attached to an
entity and its boundary to a polynomial on the entity. Edge gradients come
from a reconstructed edge polynomial of degree k+1. Every face and cell
operator follows one of two patterns, each built by one routine:

- a differential (`_differential`: face gradient and rotation, cell
  gradient, curl and divergence) is defined by integration by parts
  against its whole target space: a volume term pairing the adjoint
  derivative of the target (div, rotated grad, curl or grad) with the
  entity's first dof family, plus the boundary term over the
  reconstructions on the entity's boundary;
- a reconstruction (`_reconstruction`: scalar and tangential face traces,
  the three cell potentials) solves one small square system: derivative
  moments against radial-complement tests equal the tests against a
  differential, plus the boundary term, with complement-projection rows
  where the reconstruction keeps the complement part of the data.

Both share one boundary term (`_add_boundary_term`). Systems with
condition number above 1e12 abort with a message naming the operator, the
entity and the condition number.
"""

import functools
import inspect

import numpy as np
from scipy import sparse

from .polyspaces import (
    BasisBank,
    PolyBasis,
    _cross_matrix,
    dim_P,
    integrate_products,
    space_dim,
)

__all__ = [
    "DofSpace",
    "DofVector",
    "LocalOperator",
    "make_space",
    "interpolate",
    "entity_moments",
    "edge_reconstruct",
    "op_grad_edge",
    "op_grad_face",
    "op_scalar_trace",
    "op_grad_cell",
    "op_curl_face",
    "op_tangential_trace",
    "op_curl_cell",
    "op_div_cell",
    "op_potential",
    "global_operator",
    "link_identities_check",
]

COND_LIMIT = 1e12
INTERP_DEGREE_MARGIN = 6


def _solve_guarded(A, B, what):
    cond = np.linalg.cond(A) if A.size else 0.0
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise RuntimeError(
            f"{what}: square system condition number {cond:.3e} exceeds "
            f"{COND_LIMIT:.0e}"
        )
    return np.linalg.solve(A, B)


def _per_space(fn):
    """Memoize fn(space, *args) in space._cache, keyed by the function name
    and the arguments with defaults filled in, so that each local object is
    built once per space."""
    sig = inspect.signature(fn)
    nargs = len(sig.parameters) - 1

    @functools.wraps(fn)
    def cached(space, *args, **kwargs):
        if kwargs or len(args) != nargs:
            bound = sig.bind(space, *args, **kwargs)
            bound.apply_defaults()
            args = tuple(bound.arguments.values())[1:]
        key = (fn.__name__, *args)
        out = space._cache.get(key)
        if out is None:
            out = space._cache[key] = fn(space, *args)
        return out

    return cached


class LocalOperator:
    """A linear map from entity-local degrees of freedom to a polynomial.

    dofs holds the global indices the operator reads, in the local order
    used by the matrix columns; the rows are coefficients over target.
    """

    __slots__ = ("entity", "dofs", "layout", "target", "matrix")

    def __init__(self, entity, dofs, layout, target, matrix):
        self.entity = entity
        self.dofs = dofs
        self.layout = layout
        self.target = target
        self.matrix = matrix

    def apply(self, values):
        values = np.asarray(values)
        return self.matrix @ values[self.dofs]


class DofVector:
    """Values of one discrete space's degrees of freedom."""

    __slots__ = ("space", "values")

    def __init__(self, space, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (space.dim,):
            raise ValueError("value array does not match the space dimension")
        self.space = space
        self.values = values

    def copy(self):
        return DofVector(self.space, self.values.copy())


class DofSpace:
    """Layout of one discrete space's degrees of freedom on a mesh."""

    def __init__(self, mesh, which, k, bank=None):
        if k < 0:
            raise ValueError("degree must be >= 0")
        if which not in ("grad", "curl", "div", "l2"):
            raise ValueError(f"unknown space kind {which!r}")
        self.mesh = mesh
        self.which = which
        self.k = k
        self.bank = bank if bank is not None else BasisBank(mesh, k)

        if which == "grad":
            self.vertex_width = 1
            self.edge_width = dim_P(k - 1, 1)
            self.face_families = (("scalar", k - 1),)
            self.cell_families = (("scalar", k - 1),)
        elif which == "curl":
            self.vertex_width = 0
            self.edge_width = dim_P(k, 1)
            self.face_families = (
                ("curl_image", k - 1),
                ("curl_complement", k),
            )
            self.cell_families = (
                ("curl_image", k - 1),
                ("curl_complement", k),
            )
        elif which == "div":
            self.vertex_width = 0
            self.edge_width = 0
            self.face_families = (("scalar", k),)
            self.cell_families = (
                ("grad_image", k - 1),
                ("grad_complement", k),
            )
        else:
            self.vertex_width = 0
            self.edge_width = 0
            self.face_families = ()
            self.cell_families = (("scalar", k),)

        def block_dim(fam, l, d):
            return dim_P(l, d) if fam == "scalar" else space_dim(fam, l, d)

        self._face_dims = tuple(
            block_dim(f, l, 2) for f, l in self.face_families
        )
        self._cell_dims = tuple(
            block_dim(f, l, 3) for f, l in self.cell_families
        )
        self.face_width = sum(self._face_dims)
        self.cell_width = sum(self._cell_dims)
        self._face_offsets = np.concatenate(
            [[0], np.cumsum(self._face_dims)]
        ).astype(int)
        self._cell_offsets = np.concatenate(
            [[0], np.cumsum(self._cell_dims)]
        ).astype(int)

        nv, ne = mesh.num_vertices, mesh.num_edges
        nf, nc = mesh.num_faces, mesh.num_cells
        self.vertex_start = 0
        self.edge_start = nv * self.vertex_width
        self.face_start = self.edge_start + ne * self.edge_width
        self.cell_start = self.face_start + nf * self.face_width
        self.dim = self.cell_start + nc * self.cell_width
        self._cache = {}

    # -- global index helpers ---------------------------------------------

    def vertex_dofs(self, v):
        w = self.vertex_width
        return np.arange(self.vertex_start + v * w, self.vertex_start + (v + 1) * w)

    def edge_dofs(self, e):
        w = self.edge_width
        return np.arange(self.edge_start + e * w, self.edge_start + (e + 1) * w)

    def face_dofs(self, f):
        w = self.face_width
        return np.arange(self.face_start + f * w, self.face_start + (f + 1) * w)

    def cell_dofs(self, c):
        w = self.cell_width
        return np.arange(self.cell_start + c * w, self.cell_start + (c + 1) * w)

    def face_block(self, f, i):
        base = self.face_start + f * self.face_width
        return np.arange(
            base + self._face_offsets[i], base + self._face_offsets[i + 1]
        )

    def cell_block(self, c, i):
        base = self.cell_start + c * self.cell_width
        return np.arange(
            base + self._cell_offsets[i], base + self._cell_offsets[i + 1]
        )

    # -- local (entity plus boundary) collections --------------------------

    @_per_space
    def local_dofs(self, kind, index):
        """Global indices of the dofs an entity's operators read, with a
        layout dict mapping ("vertex"|"edge"|"face"|"cell", id) to the
        local slice."""
        mesh = self.mesh
        parts = []
        layout = {}
        n = 0

        def push(key_, arr):
            nonlocal n
            layout[key_] = slice(n, n + len(arr))
            parts.append(arr)
            n += len(arr)

        if kind == "edge":
            if self.vertex_width:
                for v in mesh.edges[index]:
                    push(("vertex", int(v)), self.vertex_dofs(int(v)))
            push(("edge", index), self.edge_dofs(index))
        elif kind == "face":
            if self.vertex_width:
                for v in mesh.faces[index]:
                    push(("vertex", int(v)), self.vertex_dofs(int(v)))
            if self.edge_width:
                for e in mesh.face_edges[index]:
                    push(("edge", int(e)), self.edge_dofs(int(e)))
            push(("face", index), self.face_dofs(index))
        elif kind == "cell":
            if self.vertex_width:
                for v in mesh.cell_vertices[index]:
                    push(("vertex", int(v)), self.vertex_dofs(int(v)))
            if self.edge_width:
                for e in mesh.cell_edges[index]:
                    push(("edge", int(e)), self.edge_dofs(int(e)))
            if self.face_width:
                for f in mesh.cells[index]:
                    push(("face", int(f)), self.face_dofs(int(f)))
            push(("cell", index), self.cell_dofs(index))
        else:
            raise ValueError(f"unknown entity kind {kind!r}")

        idx = np.concatenate(parts) if parts else np.zeros(0, dtype=int)
        return idx, layout

    def sub_slice(self, layout, kind, index, i):
        """Local slice of one family block inside an entity's block."""
        base = layout[(kind, index)]
        offs = self._face_offsets if kind == "face" else self._cell_offsets
        return slice(base.start + offs[i], base.start + offs[i + 1])


def make_space(mesh, which, k, bank=None):
    """Create the degree-k discrete space of one kind on the mesh."""
    return DofSpace(mesh, which, k, bank=bank)


# ----------------------------------------------------------------------
# interpolation


def _family_basis(space, kind, index, fam, l):
    if fam == "scalar":
        return space.bank.scalars(kind, index, l)
    return space.bank.subspace(kind, index, fam, l)


def entity_moments(space, kind, index, rule, vals):
    """One entity's block of degrees of freedom from values at rule points.

    vals tabulates m functions at the points of rule, (m, npts) scalar or
    (m, npts, 3) vector; the result is (block width, m). A vertex block is
    the value itself (vals at the vertex, rule unused). Edge blocks are
    moments against the edge basis, of the tangential component in the
    field space. Face blocks are moments of the normal component in the
    flux space and family moments otherwise; cell blocks are family
    moments. Every dof basis is orthonormal, so the moments are L2
    projection coefficients.
    """
    if kind == "vertex":
        return vals.T
    mesh = space.mesh
    if kind == "edge":
        families = (("scalar", space.k - 1 if space.which == "grad" else space.k),)
        if space.which == "curl":
            vals = vals @ mesh.edge_tangents[index]
    elif kind == "face":
        families = space.face_families
        if space.which == "div":
            vals = vals @ mesh.face_normals[index]
    else:
        families = space.cell_families
    blocks = [np.zeros((0, len(vals)))]
    for fam, l in families:
        b = _family_basis(space, kind, index, fam, l)
        if b.dim:
            blocks.append(integrate_products(b.eval(rule.points), vals, rule.weights))
    return np.concatenate(blocks)


def interpolate(space, f, degree=None):
    """Degrees of freedom of a smooth field: point values on vertices for
    the scalar space, orthonormal-basis moments everywhere else. The
    default quadrature adds a margin over the space degree for
    non-polynomial fields."""
    mesh = space.mesh
    if degree is None:
        degree = 2 * space.k + INTERP_DEGREE_MARGIN
    vals = np.zeros(space.dim)
    if space.vertex_width:
        vals[: mesh.num_vertices] = f(mesh.vertices)
    for kind, count, width, dofs in (
        ("edge", mesh.num_edges, space.edge_width, space.edge_dofs),
        ("face", mesh.num_faces, space.face_width, space.face_dofs),
        ("cell", mesh.num_cells, space.cell_width, space.cell_dofs),
    ):
        if not width:
            continue
        for i in range(count):
            rule = space.bank.rule(kind, i, degree, data=True)
            fv = np.asarray(f(rule.points))[None]
            vals[dofs(i)] = entity_moments(space, kind, i, rule, fv)[:, 0]
    return DofVector(space, vals)


# ----------------------------------------------------------------------
# integration by parts


def _positions(idx):
    return {int(g): i for i, g in enumerate(idx)}


@_per_space
def _edge_values(space, e):
    """Field-space edge dofs as the identity onto the degree-k edge basis."""
    return LocalOperator(("edge", e), space.edge_dofs(e), None,
                         space.bank.scalars("edge", e, space.k),
                         np.eye(space.edge_width))


@_per_space
def _face_values(space, f):
    """Flux-space face dofs as the identity onto the degree-k face basis."""
    return LocalOperator(("face", f), space.face_dofs(f), None,
                         space.bank.scalars("face", f, space.k),
                         np.eye(space.face_width))


def _add_boundary_term(space, kind, index, M, idx, tests, trace, sign=1.0,
                       degree=None):
    """Add the boundary sum of integration by parts to M in place.

    The columns of M belong to the global dofs idx. Over the edges of face
    `index` (kind "face") or the faces of cell `index` (kind "cell"), with
    rec = trace(space, j) the boundary reconstruction and omega the
    relative orientation, adds sign * omega * int (test trace) . rec to
    the columns of the dofs rec reads. The test trace follows from the
    tabulations: the value of a scalar test, the normal component of a
    vector test against a scalar reconstruction, and test x normal against
    a vector one. Rules have the default degree unless degree is given.
    """
    mesh = space.mesh
    if kind == "face":
        sub, parts = "edge", mesh.face_edges[index]
        signs, normals = mesh.face_edge_signs[index], mesh.face_edge_normals[index]
    else:
        sub, parts = "face", mesh.cells[index]
        signs, normals = mesh.cell_face_signs[index], mesh.face_normals[parts]
    blocks, dofs = [], []
    for j, omega, n in zip(parts, signs, normals):
        j = int(j)
        rec = trace(space, j)
        rule = space.bank.rule(sub, j, degree)
        V = tests.eval(rule.points)
        W = rec.target.eval(rule.points)
        if V.ndim == 3:
            V = V @ (_cross_matrix(n) if W.ndim == 3 else n)
        T = integrate_products(V, W, rule.weights)
        blocks.append(omega * (T @ rec.matrix))
        dofs.append(rec.dofs)
    # One scatter for all entities: they share vertex and edge dofs, and
    # bincount sums every block entry into its (row, column) of M.
    order = np.argsort(idx)
    cols = order[np.searchsorted(idx, np.concatenate(dofs), sorter=order)]
    flat = (np.arange(len(M))[:, None] * M.shape[1] + cols).ravel()
    M += sign * np.bincount(flat, np.hstack(blocks).ravel(), M.size).reshape(M.shape)


# ----------------------------------------------------------------------
# edge operators (scalar space)


@_per_space
def edge_reconstruct(space, e):
    """Degree-(k+1) edge polynomial matching both endpoint values and the
    degree-(k-1) edge moments; the base object for edge gradients and the
    scalar stabilization."""
    if space.which != "grad":
        raise ValueError("edge reconstruction lives on the scalar space")
    mesh = space.mesh
    k = space.k
    basis = space.bank.scalars("edge", e, k + 1)
    idx, layout = space.local_dofs("edge", e)
    pts = mesh.vertices[mesh.edges[e]]
    V = basis.eval(pts)
    M = np.zeros((k + 2, k + 2))
    M[0] = V[:, 0]
    M[1] = V[:, 1]
    for i in range(k):
        M[2 + i, i] = 1.0
    matrix = _solve_guarded(M, np.eye(k + 2), f"edge reconstruction {e}")
    return LocalOperator(("edge", e), idx, layout, basis, matrix)


@_per_space
def op_grad_edge(space, e):
    """Derivative of the reconstructed edge polynomial, degree k."""
    mesh = space.mesh
    k = space.k
    bank = space.bank
    rec = edge_reconstruct(space, e)
    tgt = bank.scalars("edge", e, k)
    rule = bank.rule("edge", e)
    B = tgt.eval(rule.points)
    G = rec.target.grad(rule.points)
    t = mesh.edge_tangents[e]
    D = integrate_products(B, G @ t, rule.weights)
    return LocalOperator(("edge", e), rec.dofs, rec.layout, tgt, D @ rec.matrix)


# ----------------------------------------------------------------------
# face and cell operators


def _rotated_grad(space, f):
    """The in-plane rotated gradient grad x n_F on face f, as a
    (basis, points) -> tabulation map."""
    K = _cross_matrix(space.mesh.face_normals[f])
    return lambda b, pts: b.grad(pts) @ K


def _differential(space, kind, index, tgt, adjoint, sign, trace, trace_sign):
    """Face or cell differential with values in tgt, by parts against all
    of tgt: sign * int adjoint(tgt) . (first dof family) on the entity,
    plus the boundary term of the reconstructions trace (sign trace_sign)."""
    idx, layout = space.local_dofs(kind, index)
    rule = space.bank.rule(kind, index)
    M = np.zeros((tgt.dim, len(idx)))
    fam, l = (space.face_families if kind == "face" else space.cell_families)[0]
    first = _family_basis(space, kind, index, fam, l)
    if first.dim:
        M[:, space.sub_slice(layout, kind, index, 0)] = sign * integrate_products(
            adjoint(tgt, rule.points), first.eval(rule.points), rule.weights,
        )
    _add_boundary_term(space, kind, index, M, idx, tgt, trace, sign=trace_sign)
    return LocalOperator((kind, index), idx, layout, tgt, M)


def _reconstruction(space, kind, index, op, tgt, tests, derivative, sign,
                    trace, trace_sign, what, complement=None, degree=None):
    """Polynomial tgt on a face or cell from the dofs op reads.

    Its moments int derivative(tests) . tgt equal sign * (tests against
    op's values) plus the boundary term of trace (sign trace_sign, rules of
    the given degree). With a complement basis, the complement moments are
    kept from the entity's second dof family. One guarded square solve.
    """
    idx, layout = op.dofs, op.layout
    rule = space.bank.rule(kind, index)
    A = integrate_products(
        derivative(tests, rule.points), tgt.eval(rule.points), rule.weights,
    )
    R = sign * tests.coeff_matrix()[:, : op.target.dim] @ op.matrix
    _add_boundary_term(space, kind, index, R, idx, tests, trace,
                       sign=trace_sign, degree=degree)
    if complement is not None:
        A = np.vstack([A, complement.coeff_matrix()])
        keep = np.zeros((complement.dim, len(idx)))
        keep[:, space.sub_slice(layout, kind, index, 1)] = np.eye(complement.dim)
        R = np.vstack([R, keep])
    matrix = _solve_guarded(A, R, what)
    return LocalOperator((kind, index), idx, layout, tgt, matrix)


@_per_space
def op_grad_face(space, f):
    """Face gradient in the full vector space of degree k, defined by
    integration by parts against all vector polynomials."""
    return _differential(space, "face", f, space.bank.vectors("face", f, space.k),
                         PolyBasis.div, -1.0, edge_reconstruct, 1.0)


@_per_space
def op_scalar_trace(space, f):
    """Degree-(k+1) scalar face reconstruction whose in-plane divergence
    moments against the radial complement reproduce the face gradient."""
    k, bank = space.k, space.bank
    return _reconstruction(
        space, "face", f, op_grad_face(space, f), bank.scalars("face", f, k + 1),
        bank.subspace("face", f, "curl_complement", k + 2), PolyBasis.div,
        -1.0, edge_reconstruct, 1.0, f"scalar face trace {f}",
        degree=2 * k + 4,
    )


@_per_space
def op_curl_face(space, f):
    """Scalar face rotation of degree k from tangential edge values and
    the rotational-image face moments."""
    return _differential(space, "face", f, space.bank.scalars("face", f, space.k),
                         _rotated_grad(space, f), 1.0, _edge_values, -1.0)


@_per_space
def op_tangential_trace(space, f):
    """Tangential face field of degree k: its rotated-gradient moments
    come from the face rotation and edge values by parts, its radial
    complement moments are kept from the data."""
    k, bank = space.k, space.bank
    return _reconstruction(
        space, "face", f, op_curl_face(space, f), bank.vectors("face", f, k),
        bank.subspace("face", f, "zero_mean", k + 1), _rotated_grad(space, f),
        1.0, _edge_values, 1.0, f"tangential face trace {f}",
        complement=bank.subspace("face", f, "curl_complement", k),
    )


@_per_space
def op_grad_cell(space, c):
    """Cell gradient in the full vector space of degree k, by parts
    against all vector polynomials using the scalar face traces."""
    return _differential(space, "cell", c, space.bank.vectors("cell", c, space.k),
                         PolyBasis.div, -1.0, op_scalar_trace, 1.0)


@_per_space
def op_curl_cell(space, c):
    """Cell curl in the full vector space of degree k, by parts against
    all vector polynomials using the tangential face traces."""
    return _differential(space, "cell", c, space.bank.vectors("cell", c, space.k),
                         PolyBasis.curl, 1.0, op_tangential_trace, 1.0)


@_per_space
def op_div_cell(space, c):
    """Cell divergence of degree k from normal face values and the
    gradient-image cell moments."""
    return _differential(space, "cell", c, space.bank.scalars("cell", c, space.k),
                         PolyBasis.grad, -1.0, _face_values, 1.0)


@_per_space
def op_potential(space, c):
    """Cell potential reconstruction one step richer than the dofs.

    Scalar space: a degree-(k+1) scalar from the cell gradient and face
    traces. Field space: a degree-k vector whose curl moments match the
    cell curl and whose radial complement moments are kept. Flux space:
    a degree-k vector whose gradient moments match the cell divergence
    and whose radial complement moments are kept.
    """
    k, bank = space.k, space.bank
    if space.which == "grad":
        return _reconstruction(
            space, "cell", c, op_grad_cell(space, c), bank.scalars("cell", c, k + 1),
            bank.subspace("cell", c, "curl_complement", k + 2), PolyBasis.div,
            -1.0, op_scalar_trace, 1.0, f"scalar potential on cell {c}",
        )
    if space.which == "curl":
        return _reconstruction(
            space, "cell", c, op_curl_cell(space, c), bank.vectors("cell", c, k),
            bank.subspace("cell", c, "grad_complement", k + 1), PolyBasis.curl,
            1.0, op_tangential_trace, -1.0, f"field potential on cell {c}",
            complement=bank.subspace("cell", c, "curl_complement", k),
        )
    if space.which == "div":
        return _reconstruction(
            space, "cell", c, op_div_cell(space, c), bank.vectors("cell", c, k),
            bank.subspace("cell", c, "zero_mean", k + 1), PolyBasis.grad,
            -1.0, _face_values, 1.0, f"flux potential on cell {c}",
            complement=bank.subspace("cell", c, "grad_complement", k),
        )
    raise ValueError("potentials live on the grad, curl, and div spaces")


# ----------------------------------------------------------------------
# global assembly


def _pad_cols(W, width):
    if W.shape[1] == width:
        return W
    out = np.zeros((W.shape[0], width))
    out[:, : W.shape[1]] = W
    return out


def _project_families(space_out, kind, index, op):
    """Yield (global output rows, local operator) for op projected onto
    each nonempty family of space_out on one face or cell."""
    if kind == "face":
        families, block = space_out.face_families, space_out.face_block
    else:
        families, block = space_out.cell_families, space_out.cell_block
    for i, (fam, l) in enumerate(families):
        b = space_out.bank.subspace(kind, index, fam, l)
        if b.dim:
            W = _pad_cols(b.coeff_matrix(), op.target.dim)
            yield block(index, i), LocalOperator(
                op.entity, op.dofs, op.layout, b, W @ op.matrix
            )


def _complex_rows(space_in, space_out, edges, faces, cells):
    """Yield (global output rows, local operator) pieces of the discrete
    differential from space_in to space_out."""
    pair = (space_in.which, space_out.which)
    if pair == ("grad", "curl"):
        for e in edges:
            yield space_out.edge_dofs(e), op_grad_edge(space_in, e)
        for f in faces:
            yield from _project_families(space_out, "face", f,
                                         op_grad_face(space_in, f))
        for c in cells:
            yield from _project_families(space_out, "cell", c,
                                         op_grad_cell(space_in, c))
    elif pair == ("curl", "div"):
        for f in faces:
            yield space_out.face_dofs(f), op_curl_face(space_in, f)
        for c in cells:
            yield from _project_families(space_out, "cell", c,
                                         op_curl_cell(space_in, c))
    elif pair == ("div", "l2"):
        for c in cells:
            yield space_out.cell_dofs(c), op_div_cell(space_in, c)
    else:
        raise ValueError(f"no discrete differential maps {pair[0]} to {pair[1]}")


def global_operator(space_in, space_out):
    """Sparse matrix of the discrete differential between two spaces."""
    mesh = space_in.mesh
    if space_in.mesh is not space_out.mesh or space_in.k != space_out.k:
        raise ValueError("spaces must share one mesh and one degree")
    rows, cols, vals = [], [], []
    for out_rows, op in _complex_rows(
        space_in,
        space_out,
        range(mesh.num_edges),
        range(mesh.num_faces),
        range(mesh.num_cells),
    ):
        if len(out_rows) == 0 or len(op.dofs) == 0:
            continue
        rows.append(np.repeat(out_rows, len(op.dofs)))
        cols.append(np.tile(op.dofs, len(out_rows)))
        vals.append(op.matrix.ravel())
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
    mat = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(space_out.dim, space_in.dim)
    )
    return mat.tocsr()


def local_complex_matrix(space_in, space_out, c):
    """Cell-local matrix of the discrete differential: output dofs of the
    cell and its boundary in local order versus input local dofs."""
    mesh = space_in.mesh
    idx_out, _ = space_out.local_dofs("cell", c)
    idx_in, _ = space_in.local_dofs("cell", c)
    pos_out = _positions(idx_out)
    pos_in = _positions(idx_in)
    M = np.zeros((len(idx_out), len(idx_in)))
    edges = [int(e) for e in mesh.cell_edges[c]] if space_out.edge_width else []
    faces = [int(f) for f in mesh.cells[c]]
    for out_rows, op in _complex_rows(space_in, space_out, edges, faces, [c]):
        r = [pos_out[int(g)] for g in out_rows]
        ci = [pos_in[int(g)] for g in op.dofs]
        M[np.ix_(r, ci)] = op.matrix
    return M


# ----------------------------------------------------------------------
# local identities


def link_identities_check(space_grad, space_curl, space_div, c):
    """Residuals of the exact-sequence identities on one cell.

    Returns a dict of maximum absolute residuals: the two integration by
    parts links between face and cell operators, the composition of each
    potential with the preceding discrete differential, and the vanishing
    of composed differentials on the cell.
    """
    mesh = space_grad.mesh
    k = space_grad.k
    bank = space_grad.bank
    rule = bank.rule("cell", c)
    out = {}

    gc = op_grad_cell(space_grad, c)
    pos_g = _positions(gc.dofs)
    ne = bank.subspace("cell", c, "nedelec", k + 1)
    X = integrate_products(
        ne.curl(rule.points), gc.target.eval(rule.points), rule.weights,
    )
    A = X @ gc.matrix
    for fi, f in enumerate(mesh.cells[c]):
        f = int(f)
        gf = op_grad_face(space_grad, f)
        frule = bank.rule("face", f)
        n = mesh.face_normals[f]
        wtf = mesh.cell_face_signs[c][fi]
        zxn = np.cross(ne.eval(frule.points), n[None, None, :])
        T = integrate_products(
            zxn, gf.target.eval(frule.points), frule.weights,
        )
        cols = [pos_g[int(g)] for g in gf.dofs]
        A[:, cols] += wtf * (T @ gf.matrix)
    out["grad_link"] = float(np.abs(A).max()) if A.size else 0.0

    ct = op_curl_cell(space_curl, c)
    pos_c = _positions(ct.dofs)
    sb = bank.scalars("cell", c, k + 1)
    X = integrate_products(
        sb.grad(rule.points), ct.target.eval(rule.points), rule.weights,
    )
    A = X @ ct.matrix
    for fi, f in enumerate(mesh.cells[c]):
        f = int(f)
        cf = op_curl_face(space_curl, f)
        frule = bank.rule("face", f)
        wtf = mesh.cell_face_signs[c][fi]
        T = integrate_products(
            sb.eval(frule.points), cf.target.eval(frule.points), frule.weights,
        )
        cols = [pos_c[int(g)] for g in cf.dofs]
        A[:, cols] -= wtf * (T @ cf.matrix)
    out["curl_link"] = float(np.abs(A).max()) if A.size else 0.0

    uG = local_complex_matrix(space_grad, space_curl, c)
    uC = local_complex_matrix(space_curl, space_div, c)
    pc = op_potential(space_curl, c)
    pd = op_potential(space_div, c)
    dt = op_div_cell(space_div, c)

    out["field_potential_of_gradient"] = float(
        np.abs(pc.matrix @ uG - gc.matrix).max()
    )
    out["flux_potential_of_curl"] = float(
        np.abs(pd.matrix @ uC - ct.matrix).max()
    )
    out["curl_of_gradient"] = float(np.abs(ct.matrix @ uG).max())
    out["div_of_curl"] = float(np.abs(dt.matrix @ uC).max())
    return out
