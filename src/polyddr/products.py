"""Discrete L2 products, stabilizations, and norms for the four spaces.

The product on each cell is the L2 product of the potential
reconstructions plus a stabilization penalizing the mismatch between the
potential and the boundary reconstructions. One routine (`_stab_trace`)
builds it for every space: over the cell's faces, the face diameter times
the squared L2 mismatch between the potential's trace and the space's face
reconstruction; over the cell's edges, where the space has one, the
squared edge length times the same against its edge reconstruction. The
reconstructions are the ones the space's operators read (ddrcore._trace):

- scalar space: the potential's value, against the scalar face trace and
  the reconstructed edge polynomial;
- field space: its tangential part against the tangential face trace, its
  tangential component against the edge values;
- flux space: its normal component against the face values.

Nothing is tabulated at points: the potential's trace is its coefficients
times the trace table of the face or edge position (polyspaces.trace_table),
that is, coordinates over the orthonormal members spanning the
reconstruction, and each dof's mismatch is a difference of coordinates. The
potential's degree never exceeds the reconstruction's, so its trace lies in
that span and a squared L2 mismatch is a sum of squares; the build checks
this and the rule's exactness.

Component norms weigh the plain coefficient norms of the dof blocks by
entity-size factors (faces by their diameter, edges by their length times
the diameters of the cell's two faces holding them; the scalar space
measures edges through the reconstructed edge polynomial). Cellwise they
define the broken norms used in the stability and convergence diagnostics
and the Poincaré constants; their Gram matrices are group stacks like the
products, assembled by the same scatter. Norms of given vectors (the
component norm, the graph norms) are sums of the local forms over the
cells, with no global matrix.

Local forms are group stacks like the operators of ddrcore: each entry
point (stabilization, l2_product, component_gram) takes (space, cell
group) and returns the group's `_Forms` (dofs (G, n), matrix (G, n, n)),
built on first request and kept in the space's cache; global assembly
scatters one stacked block per group (ddrcore._scatter).

The load vector of a field (load_vector) pairs it with the potential of
every dof: one stacked projection per data block (BasisBank.data_blocks)
and one scatter per cell group. It is the scheme's source term, the
smooth part of the adjoint consistency functionals and the mean
constraint of the scalar Poincaré constant.
"""

from collections import namedtuple

import numpy as np

from .polyspaces import l2_project
from .ddrcore import (
    DofVector,
    _columns,
    _scatter,
    _stack,
    _trace,
    _trace_coords,
    op_potential,
    global_operator,
    SPACES,
)

__all__ = [
    "stabilization",
    "l2_product",
    "component_gram",
    "component_norm",
    "assemble_product",
    "graph_norms",
    "load_vector",
]


def _cell_coefficients(mesh, values, what):
    """A per-cell coefficient as an array (num_cells,): a scalar
    broadcasts; any other shape, a non-finite value or one not above 0
    raises a ValueError naming what."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 0:
        values = np.full(mesh.num_cells, float(values))
    if values.shape != (mesh.num_cells,):
        raise ValueError(f"{what} must be scalar or per-cell")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(
            f"{what} of cell {bad[0]} is not finite ({values[bad[0]]})")
    if not np.all(values > 0):
        raise ValueError(f"{what} must be strictly positive")
    return values


# The local forms of one cell group, stacked: dofs (G, n) global indices
# in local order, matrix (G, n, n).
_Forms = namedtuple("_Forms", "dofs matrix")


def _dof_values(matrix, V):
    """Per-dof coordinates of stacked reconstructions from their targets'
    coordinates V (G, ntarget, ...): (G, ndofs, ...)."""
    P = matrix.transpose(0, 2, 1) @ V.reshape(V.shape[0], V.shape[1], -1)
    return P.reshape(P.shape[:2] + V.shape[2:])


# ----------------------------------------------------------------------
# stabilizations


def _stab_trace(space, group):
    """Trace stabilization on the cells of a group: over the faces F of
    each cell, h_F times the squared L2(F) mismatch between the
    potential's trace and the space's face reconstruction
    (ddrcore._trace); where the space has an edge reconstruction, over the
    edges E, h_E^2 times the squared L2(E) mismatch with it. The trace
    is the value of a scalar potential, the tangential part of a vector
    one against a vector reconstruction, and its normal (face) or
    tangential (edge) component against a scalar one. The mismatches of
    all local dofs are coordinates over the orthonormal members spanning
    the reconstruction (ddrcore._trace_coords), so each squared norm is a
    sum of squares.
    """
    mesh, bank = space.mesh, space.bank
    pot = op_potential(space, group)
    G, n = pot.dofs.shape
    S = np.zeros((G, n, n))
    parts = [("face", group.faces, mesh.face_diameters[group.faces])]
    if _trace(space, "edge") is not None:
        parts.append(("edge", group.edges, mesh.edge_lengths[group.edges] ** 2))
    what = f"{space.which} space stabilization"
    for kind, ents, h in parts:
        trace = _trace(space, kind)
        for p in range(ents.shape[1]):
            j = ents[:, p]
            subgroup, slots = bank.locate(kind, j)
            rec = trace(space, subgroup)
            d = mesh.face_normals[j] if kind == "face" else mesh.edge_tangents[j]
            V, W = _trace_coords(pot.target, rec.target, slots,
                                 bank.group_rule(subgroup), what, d,
                                 np.eye(3) - d[:, :, None] * d[:, None, :],
                                 norm=True)
            R = _dof_values(pot.matrix, V)
            rows = _columns(pot.dofs, rec.dofs[slots])
            R[np.arange(G)[:, None], rows] -= _dof_values(rec.matrix[slots], W)
            R = R.reshape(G, n, -1)
            S += h[:, p, None, None] * (R @ R.transpose(0, 2, 1))
    return _Forms(pot.dofs, S)


@_stack("cell", SPACES)
def stabilization(space, group):
    """Stabilization forms on the cells of a group: the trace
    stabilization, which penalizes potential-versus-boundary-reconstruction
    mismatches and vanishes when the potential reproduces the data."""
    if space.which == "l2":
        w = space.width["cell"]
        return _Forms(space.group_dofs(group), np.zeros((len(group), w, w)))
    return _stab_trace(space, group)


@_stack("cell", SPACES)
def l2_product(space, group):
    """Stabilized L2 products on the cells of a group: potential Gram plus
    stabilization (orthonormal potential targets make the Gram a plain
    matrix product). The moment space's product is the identity."""
    if space.which == "l2":
        w = space.width["cell"]
        return _Forms(space.group_dofs(group),
                      np.broadcast_to(np.eye(w), (len(group), w, w)))
    stab = stabilization(space, group)
    pot = op_potential(space, group)
    return _Forms(pot.dofs,
                  pot.matrix.transpose(0, 2, 1) @ pot.matrix + stab.matrix)


# ----------------------------------------------------------------------
# component norms


@_stack("cell", SPACES)
def component_gram(space, group):
    """Component Gram matrices of a cell group, the quadratic forms of the
    squared component norm on each cell's local dofs: the identity on the
    cell block, h_F times the identity on face blocks, and on each edge
    the weight h_E times the sum of h_F over the cell's two faces holding
    it, times the Gram R^T R of the space's edge reconstruction R
    (ddrcore._trace), the identity on the field space's edge values."""
    mesh = space.mesh
    dofs = space.group_dofs(group)
    G, n = dofs.shape
    hf = mesh.face_diameters[group.faces]
    face_edges = [mesh.face_rows("face_edges", group.faces[:, p])
                  for p in range(group.faces.shape[1])]
    at = _columns(group.edges, np.concatenate(face_edges, axis=1))
    hsum = np.zeros(group.edges.shape)
    np.add.at(hsum, (np.arange(G)[:, None], at),
              np.repeat(hf, [e.shape[1] for e in face_edges], axis=1))
    w = mesh.edge_lengths[group.edges] * hsum
    weight = {"vertex": 0.0, "edge": 0.0, "face": hf, "cell": 1.0}
    diag = np.concatenate([
        np.repeat(np.broadcast_to(weight[kind], ents.shape), width, axis=1)
        for kind, ents, width in space._local_parts(group)], axis=1)
    C = diag[:, :, None] * np.eye(n)
    trace = _trace(space, "edge")
    if trace is not None:
        sub, slots = space.bank.locate("edge", group.edges.ravel())
        rec = trace(space, sub)
        R = rec.matrix[slots]
        B = w.reshape(-1, 1, 1) * (R.transpose(0, 2, 1) @ R)
        # edges share vertex dofs: bincount sums every block entry into
        # its (cell, row, column)
        at = _columns(dofs, rec.dofs[slots].reshape(G, -1)).reshape(
            w.shape + R.shape[2:])
        rows = np.arange(G)[:, None, None, None] * n + at[..., :, None]
        flat = rows * n + at[..., None, :]
        C += np.bincount(flat.ravel(), B.ravel(), C.size).reshape(C.shape)
    return _Forms(dofs, C)


def component_norm(space, values):
    """Broken component norm of a dof vector over the whole mesh, summed
    cell group by cell group from the component Grams (_form_sums)."""
    v = DofVector(space, getattr(values, "values", values)).values
    return np.sqrt(float(_form_sums(space, component_gram, v[:, None])[0]))


# ----------------------------------------------------------------------
# global assembly and graph norms


def _assemble(space, op, coeff=None):
    """Global sparse matrix of the local forms op(space, group), optionally
    scaled by a per-cell scalar coefficient (_cell_coefficients); one
    scatter block per cell group."""
    if coeff is not None:
        coeff = _cell_coefficients(space.mesh, coeff, "coefficient")
    blocks = []
    for group in space.bank.groups("cell"):
        form = op(space, group)
        M = form.matrix
        if coeff is not None:
            M = coeff[group.ids][:, None, None] * M
        blocks.append((form.dofs, form.dofs, M))
    return _scatter(blocks, (space.dim, space.dim))


def assemble_product(space, coeff=None):
    """Global sparse matrix of the stabilized product, optionally with a
    positive coefficient per cell (a scalar is broadcast)."""
    return _assemble(space, l2_product, coeff)


def _form_sums(space, op, V, coeff=None):
    """v^T A v for each column v of V (space.dim, m), A the global matrix
    of the local forms op(space, group) (as _assemble would build it, each
    cell's form scaled by coeff, an array (num_cells,), when given),
    without building A: every cell's v_c^T A_c v_c, summed group by
    group. (m,)."""
    out = np.zeros(V.shape[1])
    for group in space.bank.groups("cell"):
        form = op(space, group)
        x = V[form.dofs]
        q = (x * (form.matrix @ x)).sum(axis=1)
        if coeff is not None:
            q *= coeff[group.ids][:, None]
        out += q.sum(axis=0)
    return out


def graph_norms(space_curl, space_div, space_l2, field_vals, flux_vals,
                mu=None):
    """Graph norms of a field/flux pair: the field norm adds the flux
    norm of its discrete curl, the flux norm adds the plain L2 norm of
    its discrete divergence. Column stacks (n, m) of fields and fluxes
    give the m pairs of norms as two (m,) arrays. mu weighs the field
    product per cell as assemble_product's coeff.

    The products are taken from the cached local forms (l2_product), cell
    group by cell group (_form_sums), so no product matrix is assembled;
    the two differentials are global_operator's matrices."""
    H, A = (np.asarray(getattr(v, "values", v), dtype=float)
            for v in (field_vals, flux_vals))
    if mu is not None:
        mu = _cell_coefficients(space_curl.mesh, mu, "coefficient")
    single = H.ndim == 1
    H, A = H.reshape(len(H), -1), A.reshape(len(A), -1)
    curl = global_operator(space_curl, space_div) @ H
    div = global_operator(space_div, space_l2) @ A
    field_sq = (_form_sums(space_curl, l2_product, H, mu)
                + _form_sums(space_div, l2_product, curl))
    flux_sq = _form_sums(space_div, l2_product, A) + (div * div).sum(axis=0)
    norms = np.sqrt(field_sq), np.sqrt(flux_sq)
    return tuple(n[0] for n in norms) if single else norms


# ----------------------------------------------------------------------
# load vectors


def load_vector(space, f):
    """Load vector of a field: entry i is the integral of f against the
    potential reconstruction of dof i's basis vector, summed over cells.
    f is a callable on (npts, 3) points, scalar for the scalar space and a
    3-vector otherwise, integrated by the data rule, built one block of
    cells at a time (BasisBank.data_blocks); one stacked projection per
    block and one scatter per group."""
    bank = space.bank
    out = np.zeros(space.dim)
    for group in bank.groups("cell"):
        pot = op_potential(space, group)
        moments = np.concatenate([
            l2_project(pot.target, f, rule=rule, sel=sl)
            for sl, rule, _ in bank.data_blocks(group, 0)])
        load = (pot.matrix.transpose(0, 2, 1) @ moments[..., None])[..., 0]
        out += np.bincount(pot.dofs.ravel(), load.ravel(), len(out))
    return out
