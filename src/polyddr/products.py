"""Discrete L2 products, stabilizations, and norms for the four spaces.

The product on each cell is the L2 product of the potential
reconstructions plus a stabilization penalizing the mismatch between the
potential and the boundary reconstructions. One routine (`_stab_trace`)
builds it for every space: over the cell's faces, the face diameter times
the squared L2 mismatch between the potential's trace and the face
reconstruction; over the cell's edges, where the space has edge dofs, the
squared edge length times the same on the edge. The trace follows from the
tabulations:

- scalar space: the potential's value, against the scalar face trace and
  the reconstructed edge polynomial;
- field space: its tangential part against the tangential face trace, its
  tangential component against the edge polynomial;
- flux space: its normal component against the face values.

An alternative stabilization compares the local dofs with the
interpolate of the potential in the component product; both variants
vanish on interpolates of polynomials the potentials reproduce.

Component norms weigh the plain coefficient norms of the dof blocks by
entity-size factors (faces by their diameter, edges by face diameter
times edge length; the scalar space measures edges through the
reconstructed edge polynomial). Cellwise they define the broken norms
used in the stability and convergence diagnostics.

Global assembly is a serial loop over the cells in cell order; each local
form is built once per space and kept in the space's cache.
"""

import numpy as np
from scipy import sparse

from .polyspaces import integrate_products
from .ddrcore import (
    _edge_values,
    _face_values,
    _per_space,
    _positions,
    edge_reconstruct,
    entity_moments,
    op_scalar_trace,
    op_tangential_trace,
    op_potential,
    global_operator,
)

__all__ = [
    "LocalBilinearForm",
    "stabilization",
    "l2_product",
    "component_gram",
    "component_norm",
    "assemble_product",
    "graph_norms",
]


class LocalBilinearForm:
    """Symmetric bilinear form over the local dofs of one cell."""

    __slots__ = ("entity", "dofs", "matrix")

    def __init__(self, entity, dofs, matrix):
        self.entity = entity
        self.dofs = dofs
        self.matrix = matrix

    def apply(self, u, v):
        u = np.asarray(u)[self.dofs]
        v = np.asarray(v)[self.dofs]
        return float(u @ self.matrix @ v)


def _dof_values(matrix, V):
    """Per-dof values of a reconstruction from its target's tabulation V:
    (ndofs, npts) for a scalar target, (ndofs, npts, 3) for a vector one."""
    P = matrix.T @ V.reshape(len(V), -1)
    return P.reshape(P.shape[:1] + V.shape[1:])


# ----------------------------------------------------------------------
# stabilizations


def _stab_trace(space, c, face_trace, edge_trace=None):
    """Trace stabilization on one cell: over the faces F of the cell, h_F
    times the squared L2(F) mismatch between the potential's trace and
    face_trace(space, F); with edge_trace, over the edges E, h_E^2 times
    the squared L2(E) mismatch with edge_trace(space, E). The trace
    follows from the tabulations: the value of a scalar potential, the
    tangential part of a vector one against a vector reconstruction, and
    its normal (face) or tangential (edge) component against a scalar one.
    """
    mesh = space.mesh
    pot = op_potential(space, c)
    pos = _positions(pot.dofs)
    S = np.zeros((len(pot.dofs), len(pot.dofs)))
    parts = [("face", int(f), face_trace, mesh.face_diameters[f])
             for f in mesh.cells[c]]
    if edge_trace is not None:
        parts += [("edge", int(e), edge_trace, mesh.edge_lengths[e] ** 2)
                  for e in mesh.cell_edges[c]]
    for kind, j, trace, h in parts:
        rule = space.bank.rule(kind, j)
        V = pot.target.eval(rule.points)
        rec = trace(space, j)
        W = rec.target.eval(rule.points)
        if V.ndim == 3:
            d = mesh.face_normals[j] if kind == "face" else mesh.edge_tangents[j]
            V = V @ (np.eye(3) - np.outer(d, d)) if W.ndim == 3 else V @ d
        R = _dof_values(pot.matrix, V)
        R[[pos[int(g)] for g in rec.dofs]] -= _dof_values(rec.matrix, W)
        S += h * integrate_products(R, R, rule.weights)
    return LocalBilinearForm(("cell", c), pot.dofs, S)


@_per_space
def stabilization(space, c, variant="trace"):
    """Stabilization form on one cell.

    variant "trace" penalizes potential-versus-boundary-reconstruction
    mismatches; variant "interpolation" penalizes the dof-space residual
    against the interpolated potential, measured in the component
    product. Both vanish when the potential reproduces the data.
    """
    if variant not in ("trace", "interpolation"):
        raise ValueError(f"unknown stabilization variant {variant!r}")
    if space.which == "l2":
        return LocalBilinearForm(
            ("cell", c),
            space.cell_dofs(c),
            np.zeros((space.cell_width, space.cell_width)),
        )
    if variant == "trace":
        if space.which == "grad":
            return _stab_trace(space, c, op_scalar_trace, edge_reconstruct)
        if space.which == "curl":
            return _stab_trace(space, c, op_tangential_trace, _edge_values)
        return _stab_trace(space, c, _face_values)
    pot = op_potential(space, c)
    J = np.zeros((len(pot.dofs), pot.target.dim))
    for (kind, i), sl in pot.layout.items():
        if kind == "vertex":
            rule, pts = None, space.mesh.vertices[[i]]
        else:
            rule = space.bank.rule(kind, i)
            pts = rule.points
        J[sl] = entity_moments(space, kind, i, rule, pot.target.eval(pts))
    R = np.eye(len(pot.dofs)) - J @ pot.matrix
    C = component_gram(space, c)
    return LocalBilinearForm(("cell", c), pot.dofs, R.T @ C @ R)


@_per_space
def l2_product(space, c, variant="trace"):
    """Stabilized L2 product on one cell: potential Gram plus
    stabilization (orthonormal potential targets make the Gram a plain
    matrix product). The moment space's product is the identity."""
    if space.which == "l2":
        return LocalBilinearForm(
            ("cell", c), space.cell_dofs(c), np.eye(space.cell_width)
        )
    stab = stabilization(space, c, variant)
    pot = op_potential(space, c)
    M = pot.matrix.T @ pot.matrix + stab.matrix
    return LocalBilinearForm(("cell", c), pot.dofs, M)


# ----------------------------------------------------------------------
# component norms


@_per_space
def component_gram(space, c):
    """Quadratic form of the squared component norm on one cell's local
    dofs: block-diagonal coefficient norms scaled by entity sizes, with
    the scalar space's edge blocks measured through the reconstructed
    edge polynomial."""
    mesh = space.mesh
    idx, layout = space.local_dofs("cell", c)
    pos = _positions(idx)
    n = len(idx)
    C = np.zeros((n, n))
    sl = layout.get(("cell", c))
    if sl is not None:
        cw = sl.stop - sl.start
        C[sl.start : sl.stop, sl.start : sl.stop] = np.eye(cw)

    if space.which == "l2":
        return C

    for fi, f in enumerate(mesh.cells[c]):
        f = int(f)
        hf = mesh.face_diameters[f]
        fsl = layout.get(("face", f))
        if fsl is not None:
            fw = fsl.stop - fsl.start
            C[fsl.start : fsl.stop, fsl.start : fsl.stop] += hf * np.eye(fw)
        if space.which == "grad":
            for e in [int(x) for x in mesh.face_edges[f]]:
                he = mesh.edge_lengths[e]
                rec = edge_reconstruct(space, e)
                cols = [pos[int(g)] for g in rec.dofs]
                B = rec.matrix.T @ rec.matrix
                C[np.ix_(cols, cols)] += hf * he * B
        elif space.which == "curl":
            for e in [int(x) for x in mesh.face_edges[f]]:
                he = mesh.edge_lengths[e]
                esl = layout[("edge", e)]
                ew = esl.stop - esl.start
                C[esl.start : esl.stop, esl.start : esl.stop] += (
                    hf * he * np.eye(ew)
                )
    return C


def component_norm(space, values):
    """Broken component norm of a dof vector over the whole mesh."""
    if hasattr(values, "values"):
        values = values.values
    values = np.asarray(values)
    total = 0.0
    for c in range(space.mesh.num_cells):
        idx, _ = space.local_dofs("cell", c)
        v = values[idx]
        total += float(v @ component_gram(space, c) @ v)
    return np.sqrt(total)


# ----------------------------------------------------------------------
# global assembly and graph norms


def assemble_product(space, coeff=None):
    """Global sparse matrix of the stabilized product, optionally with a
    per-cell scalar coefficient."""
    rows, cols, vals = [], [], []
    for c in range(space.mesh.num_cells):
        form = l2_product(space, c)
        dofs = form.dofs
        M = form.matrix if coeff is None else coeff[c] * form.matrix
        rows.append(np.repeat(dofs, len(dofs)))
        cols.append(np.tile(dofs, len(dofs)))
        vals.append(M.ravel())
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.dim, space.dim),
    )
    return mat.tocsr()


def graph_norms(space_curl, space_div, space_l2, field_vals, flux_vals,
                mu=None):
    """Graph norms of a field/flux pair: the field norm adds the flux
    norm of its discrete curl, the flux norm adds the plain L2 norm of
    its discrete divergence."""
    if hasattr(field_vals, "values"):
        field_vals = field_vals.values
    if hasattr(flux_vals, "values"):
        flux_vals = flux_vals.values
    mesh = space_curl.mesh
    mu_arr = np.ones(mesh.num_cells) if mu is None else np.asarray(mu)

    Mc = assemble_product(space_curl, coeff=mu_arr)
    Md = assemble_product(space_div)
    uC = global_operator(space_curl, space_div)
    D = global_operator(space_div, space_l2)

    ch = uC @ field_vals
    field_sq = float(field_vals @ (Mc @ field_vals)) + float(ch @ (Md @ ch))
    dv = D @ flux_vals
    flux_sq = float(flux_vals @ (Md @ flux_vals)) + float(dv @ dv)
    return np.sqrt(field_sq), np.sqrt(flux_sq)
