"""Discrete counterparts of the gradient, curl, and divergence.

Four degree-k spaces are attached to a polyhedral mesh: "grad" (discrete
scalar potentials), "curl" (fields), "div" (fluxes) and "l2" (cell
moments). LAYOUT is their one description: the moment families each space
carries on vertices, edges, faces and cells, in dof order.

All moment degrees of freedom are coefficients over the orthonormal bases
of polyspaces, so projections and restrictions are plain matrix algebra.
Global numbering is vertices, then edges, then faces, then cells, and
inside one entity the LAYOUT order; DofSpace derives it in one loop over
the entity kinds.

Each reconstruction operator maps the degrees of freedom attached to an
entity and its boundary to a polynomial on the entity. A space has one
boundary reconstruction per sub-entity kind, named by `_trace`: the
degree-(k+1) edge polynomial (whose derivative is the edge gradient) and
the scalar face trace of the scalar space, the edge values and the
tangential face trace of the field space, the face values of the flux
space. Its differentials (`_differentials`), its cell potential
(POTENTIALS) and its stabilization read these alone. The lookups run at
call time, so a wrapper rebound under a public name is entered. Every face
and cell operator follows one of two patterns, each built by one routine:

- a differential (`_differential`: face gradient and rotation, cell
  gradient, curl and divergence) is defined by integration by parts
  against its whole target space: a volume term pairing the adjoint
  derivative of the target (div, rotated grad, curl or grad) with the
  entity's first dof family, plus the boundary term over the space's
  reconstructions on the entity's boundary;
- a reconstruction (`_reconstruction`: scalar and tangential face traces,
  the three cell potentials) solves one small square system: derivative
  moments against radial-complement tests equal the tests against a
  differential, plus the boundary term, with complement-projection rows
  keeping the moments of the entity's second dof family where it has one.

Both share one boundary term (`_add_boundary_term`), and no term tabulates
a basis at points. Volume terms pair two polynomials on the entity's own
core in coefficient space. Boundary terms pair them on each sub-entity:
the tests' traces are their coefficients times the trace table of that
boundary position (polyspaces.trace_table), orthonormal coordinates on the
sub-entity, and meet the coordinates of the reconstructions there. The
table's rule must be exact for the test degree plus the reconstruction
degree; a build whose rule is not stops with a ValueError naming the
operator and the degrees.

Every operator is built for a whole entity group at once (see
polyspaces.BasisBank), and the group stack is the only local API: each
entry point (edge_reconstruct, op_*) takes (space, group) and returns the
group's `_Operators` (dofs (G, n), matrix (G, m, n), stacked target),
built on first request and cached in the space. Entity i of a group is
slot `bank.group(kind, i)[1]` of each array. The build runs on the
group's representative group, one entity per congruence class, and the
group gathers its matrices by class index (`_stack`). Boundary parts at
one local position of a group share a group of their own, so each
position is one gathered, stacked contraction through the sub-group's
entry point, and the group's boundary term is one bincount scatter. Square systems are solved
as one stack; one above condition number 1e12 aborts with a message naming
the operator, the group's worst entity and its condition number, and the
worst condition number per operator is kept in DofSpace.worst_cond.

`interpolate` takes the moments of smooth fields from their values at the
data rules (`_moments`), one pass over the rules for several fields.
`local_interpolation` (a stacked polynomial basis on the closures of a
face or cell group) pairs polynomials in coefficient space through the
trace tables, as the boundary terms do; only vertex values are taken at
points. The two routes share no moment code, so the tests can hold each
against the other.
"""

import functools
from collections import namedtuple

import numpy as np
from scipy import sparse

from .polyspaces import (
    BasisBank,
    _cross_matrix,
    space_dim,
    trace_table,
)

__all__ = [
    "DofSpace",
    "DofVector",
    "make_space",
    "interpolate",
    "local_interpolation",
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
]

COND_LIMIT = 1e12
INTERP_DEGREE_MARGIN = 6

KINDS = ("vertex", "edge", "face", "cell")

# The moment families (family, degree - k) of each degree-k space on each
# entity kind, in dof order; a vertex's "scalar" family is its value.
LAYOUT = {
    "grad": {"vertex": (("scalar", 0),), "edge": (("scalar", -1),),
             "face": (("scalar", -1),), "cell": (("scalar", -1),)},
    "curl": {"vertex": (), "edge": (("scalar", 0),),
             "face": (("curl_image", -1), ("curl_complement", 0)),
             "cell": (("curl_image", -1), ("curl_complement", 0))},
    "div": {"vertex": (), "edge": (), "face": (("scalar", 0),),
            "cell": (("grad_image", -1), ("grad_complement", 0))},
    "l2": {"vertex": (), "edge": (), "face": (), "cell": (("scalar", 0),)},
}
# The spaces in complex order: the differentials map each into the next.
SPACES = tuple(LAYOUT)


def _solve_guarded(space, A, B, what, group):
    """Solve the stacked square systems A X = B of one entity group.

    Builds run on representative groups (_stack), so the guard runs once
    per congruence class, on its representative. Every condition number
    is computed; the worst one and its entity, a class representative,
    are kept per label in space.worst_cond. A system above COND_LIMIT (or
    not finite) aborts, naming the worst failing representative."""
    cond = np.linalg.cond(A) if A.size else np.zeros(len(A))
    score = np.where(np.isfinite(cond), cond, np.inf)
    if len(score):
        worst = int(np.argmax(score))
        seen = space.worst_cond.get(what)
        if seen is None or not score[worst] <= seen[0]:
            space.worst_cond[what] = (float(cond[worst]), int(group.ids[worst]))
        if not score[worst] <= COND_LIMIT:
            raise RuntimeError(
                f"{what} {group.ids[worst]}: square system condition number "
                f"{cond[worst]:.3e} exceeds {COND_LIMIT:.0e}"
            )
    return np.linalg.solve(A, B)


def _stack(kind, spaces):
    """Make build(space, group) the entry point of one local object on the
    entity groups of one kind and the spaces named: it rejects any other
    group or space and returns the group's stack, built once per space and
    cached under the name of build and the group.

    build runs on representative groups only (EntityGroup.rep, one entity
    per congruence class); any other group gathers the matrices of its
    representative's stack by class index (_gather). Where every class is
    a singleton the group is its own representative and nothing is
    gathered."""
    def entry(build):
        name = build.__name__

        @functools.wraps(build)
        def stack(space, group):
            got = getattr(group, "kind", None)
            if got != kind:
                raise ValueError(
                    f"{name} takes a {kind} group (BasisBank.groups({kind!r})), "
                    f"not {f'a {got} group' if got else repr(group)}")
            if space.which not in spaces:
                raise ValueError(f"{name} is not defined on the {space.which} "
                                 f"space (only on {', '.join(spaces)})")
            key = (name, group)
            out = space._cache.get(key)
            if out is None:
                out = (build(space, group) if group.rep is group else
                       _gather(space, group, stack(space, group.rep)))
                space._cache[key] = out
            return out
        return stack
    return entry


def _gather(space, group, rep):
    """The stack of a group from the stack rep of its representative
    group: the representative's matrix for each entity's class, the
    group's own dofs, and a target basis of the same space on the group's
    own entities."""
    out = rep._replace(dofs=space.group_dofs(group),
                       matrix=rep.matrix[group.classes])
    target = getattr(rep, "target", None)
    if target is not None:
        out = out._replace(target=space.bank.group_basis(
            group, target.kind, target.degree))
    return out


# The local operators of one entity group, stacked: dofs (G, n) global
# indices in local order, matrix (G, m, n), and target, the stacked basis
# whose coefficients the rows are.
_Operators = namedtuple("_Operators", "dofs matrix target")


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
    """Layout of one discrete space's degrees of freedom on a mesh, derived
    from LAYOUT: per entity kind, families (family, degree) in dof order,
    offsets of the family blocks inside an entity's block, width of that
    block, and start, the global index of the kind's first dof. A bank
    given to share stacks between spaces must be built for the same mesh
    object and degree.

    worst_cond maps the label of each guarded local solve ("edge
    reconstruction", "scalar face trace", ...) to the largest condition
    number met so far and its entity, (cond, index). The guard runs once
    per congruence class, so the entity is the class representative
    (EntityGroup.rep)."""

    def __init__(self, mesh, which, k, bank=None):
        if k < 0:
            raise ValueError("degree must be >= 0")
        if which not in LAYOUT:
            raise ValueError(f"unknown space kind {which!r}")
        self.mesh = mesh
        self.which = which
        self.k = k
        if bank is None:
            bank = BasisBank(mesh, k)
        if bank.mesh is not mesh or bank.k != k:
            raise ValueError(
                f"the basis bank is built for degree {bank.k} on mesh "
                f"{id(bank.mesh):#x} ({bank.mesh.num_cells} cells), the {which} "
                f"space for degree {k} on mesh {id(mesh):#x} "
                f"({mesh.num_cells} cells)")
        self.bank = bank
        self.families, self.offsets, self.width, self.start = {}, {}, {}, {}
        counts = (mesh.num_vertices, mesh.num_edges, mesh.num_faces,
                  mesh.num_cells)
        self.dim = 0
        for d, (kind, count) in enumerate(zip(KINDS, counts)):
            fams = tuple((fam, k + l) for fam, l in LAYOUT[which][kind])
            offsets = np.cumsum([0] + [space_dim(f, l, d) for f, l in fams])
            self.families[kind], self.offsets[kind] = fams, offsets
            self.width[kind] = int(offsets[-1])
            self.start[kind] = self.dim
            self.dim += count * self.width[kind]
        self._cache = {}
        self.worst_cond = {}

    def _blocks(self, kind, ents, offset=0, width=None):
        """Global dofs (G, np * width) of the entities ents (G, np) of one
        kind: each entity's block, or its width entries from offset."""
        full = self.width[kind]
        width = full if width is None else width
        out = (self.start[kind] + offset + ents[..., None] * full
               + np.arange(width))
        return out.reshape(len(ents), -1)

    # -- local (entity plus boundary) collections --------------------------

    def _local_parts(self, group):
        """(kind, entities (G, np), width) of the blocks an entity's
        operators read, in local order: vertices, edges and faces of its
        boundary that carry dofs, then the entity itself."""
        kind = group.kind
        parts = [("vertex", group.vertices)]
        if kind in ("face", "cell"):
            parts.append(("edge", group.edges))
        if kind == "cell":
            parts.append(("face", group.faces))
        parts.append((kind, group.ids[:, None]))
        return [(p, ents, self.width[p]) for p, ents in parts
                if self.width[p] or p == kind]

    def group_dofs(self, group):
        """Global indices (G, n) of the dofs each entity of a group reads,
        in local order."""
        key = ("group_dofs", group)
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = np.concatenate(
                [self._blocks(kind, ents) for kind, ents, _ in
                 self._local_parts(group)], axis=1)
        return out

    def _own_slice(self, group, i):
        """Local slice of family block i of the entity's own dofs, the
        same for every entity of the group."""
        base = self.group_dofs(group).shape[1] - self.width[group.kind]
        offs = self.offsets[group.kind]
        return slice(base + offs[i], base + offs[i + 1])


def make_space(mesh, which, k, bank=None):
    """Create the degree-k discrete space of one kind on the mesh."""
    return DofSpace(mesh, which, k, bank=bank)


# ----------------------------------------------------------------------
# interpolation


def _component(space, kind):
    """Unit vectors, one per entity of one kind, along which the space's
    dofs there take a vector field's component: where the dofs are the
    space's own boundary values (_trace gives _identity_values), the
    tangents on edges and the normals on faces; None elsewhere."""
    if _trace(space, kind) is _identity_values:
        return {"edge": space.mesh.edge_tangents,
                "face": space.mesh.face_normals}[kind]
    return None


def _family_bases(space, group):
    """The nonempty stacked bases of the space's dof families on a group,
    in dof order."""
    return [b for b in (space.bank.group_basis(group, fam, l)
                        for fam, l in space.families[group.kind]) if b.dim]


def _moments(space, group, sel, rule, vals, monomials):
    """Dof blocks (G', width, r) of the entities sel of one group of edges,
    faces or cells from r values per entity of a field at the points of a
    data rule stacked over those entities: vals (G', r, npts) scalar or
    (G', r, npts, 3) vector, reduced to its component where the space
    takes one (_component). Every family takes its moments from
    monomials, a table (G', n, npts) of the core's first n scaled
    monomials at the points, n at least the widest family's, each family
    reading its prefix."""
    d = _component(space, group.kind)
    if d is not None:
        vals = (vals @ d[group.ids[sel]][:, None, :, None])[..., 0]
    return np.concatenate([b.moments(rule.points, vals, rule.weights, sel,
                                     monomials)
                           for b in _family_bases(space, group)], axis=1)


def local_interpolation(space, group, basis, slots=None):
    """Local interpolation of a stacked polynomial basis on the closures of
    the entities slots (all by default) of a face or cell group, basis
    entity g on the closure of entity slots[g]: (G, n, basis.dim), column j
    of entity g the local dof vector (group_dofs order) of member j.

    Vertex blocks are the members' values. Every other block, at each local
    position (edges, faces, the entity itself), pairs polynomials in
    coefficient space: the members, or their component where the space
    takes one (_component), meet the sub-entities' orthonormal members
    through the trace table of that position (polyspaces.trace_table, at
    the sub-entities' polynomial rule), and the family bases there through
    their coordinates. Every dof
    basis is orthonormal, so the moments are L2 projection coefficients.
    """
    mesh, bank = space.mesh, space.bank
    slots = np.arange(len(group)) if slots is None else np.asarray(slots)
    J = []
    for kind, ents, width in space._local_parts(group):
        ents = ents[slots]
        if kind == "vertex":
            J.append(basis.eval(mesh.vertices[ents]).transpose(0, 2, 1))
            continue
        d = _component(space, kind)
        for p in range(ents.shape[1] if width else 0):
            sub, sel = bank.locate(kind, ents[:, p])
            C = basis._Cs
            if d is not None:
                C = (d[ents[:, p]][:, None, None, :] @ C)[:, :, 0]
            fams = _family_bases(space, sub)
            core, k = bank.core(sub), max(b._Cs.shape[-1] for b in fams)
            T = trace_table(basis._core, core, sel, bank.group_rule(sub),
                            C.shape[-1], k, "local interpolation")
            V = C @ (T if C.ndim == 3 else T[:, None])
            V = V.reshape(len(V), V.shape[1], -1).transpose(0, 2, 1)
            J.extend(core.coords(b._Cs[sel], k, sel).reshape(len(V), b.dim, -1)
                     @ V for b in fams)
    return np.concatenate(J, axis=1)


def interpolate(space, f, degree=None):
    """Degrees of freedom of a smooth field: point values on vertices for
    the scalar space, orthonormal-basis moments (_moments) everywhere else,
    stacked over each entity group and evaluated block by block of its
    entities, each block on its own data rule (BasisBank.data_blocks). The
    default quadrature adds a margin over the space degree for
    non-polynomial fields.

    Several fields are interpolated in one pass when space and f are
    equal-length tuples: spaces on one basis bank (a space may repeat),
    field i into space i, returning a tuple of DofVectors. Each data block
    then builds its rule once and tabulates the core's monomials there
    once, as far as the widest family of any of the spaces; every moment
    reads a prefix of that table, so each result is bit for bit the one of
    a call with its field alone."""
    several = isinstance(space, tuple)
    spaces, fields = (space, f) if several else ((space,), (f,))
    if several != isinstance(f, tuple) or len(fields) != len(spaces) or not spaces:
        raise ValueError("interpolate takes one space and one field, or "
                         "equal-length nonempty tuples of both")
    bank = spaces[0].bank
    if any(s.bank is not bank for s in spaces):
        raise ValueError("spaces interpolated in one pass must share one "
                         "basis bank")
    mesh = bank.mesh
    if degree is None:
        degree = 2 * bank.k + INTERP_DEGREE_MARGIN
    jobs = [(s, fn, np.zeros(s.dim)) for s, fn in zip(spaces, fields)]
    for s, fn, vals in jobs:
        if s.width["vertex"]:
            vals[: mesh.num_vertices] = fn(mesh.vertices)
    for kind in ("edge", "face", "cell"):
        users = [job for job in jobs if job[0].width[kind]]
        if not users:
            continue
        for group in bank.groups(kind):
            n = max(b._Cs.shape[-1] for s, _, _ in users
                    for b in _family_bases(s, group))
            for sl, rule in bank.data_blocks(group, degree):
                pts = rule.points
                M = bank.core(group)._monomials(pts, n, sl)
                for s, fn, vals in users:
                    fv = np.asarray(fn(pts.reshape(-1, 3)))
                    fv = fv.reshape((len(pts), 1) + pts.shape[1:2]
                                    + fv.shape[1:])
                    vals[s._blocks(kind, group.ids[sl, None])] = _moments(
                        s, group, sl, rule, fv, M)[..., 0]
    out = tuple(DofVector(s, vals) for s, _, vals in jobs)
    return out if several else out[0]


# ----------------------------------------------------------------------
# integration by parts


def _columns(idx, dofs):
    """Positions (G, r) of the global dofs (G, r) within the rows of idx
    (G, n), each row holding distinct indices."""
    G, n = idx.shape
    shift = (int(idx.max(initial=0)) + 1) * np.arange(G)[:, None]
    key = (idx + shift).ravel()
    order = np.argsort(key)
    pos = order[np.searchsorted(key, (dofs + shift).ravel(), sorter=order)]
    return pos.reshape(dofs.shape) - n * np.arange(G)[:, None]


def _identity_values(space, group):
    """The entity's own dofs as the identity onto its degree-k basis: the
    boundary values of the field space on edges and of the flux space on
    faces (_trace). Nothing is built, so nothing is stacked or cached."""
    dofs = space.group_dofs(group)
    w = dofs.shape[1]
    return _Operators(dofs, np.broadcast_to(np.eye(w), (len(group), w, w)),
                      space.bank.group_basis(group, "scalar", space.k))


def _trace(space, kind):
    """The entry point of the space's one reconstruction on edges or faces
    (None where it has none), looked up at call time: a wrapper rebound
    under the public name, as perfbench/tracer.py rebinds it, is entered."""
    return {("grad", "edge"): edge_reconstruct,
            ("grad", "face"): op_scalar_trace,
            ("curl", "edge"): _identity_values,
            ("curl", "face"): op_tangential_trace,
            ("div", "face"): _identity_values}.get((space.which, kind))


def _differentials(space):
    """The entry points of the space's differentials into the next space
    (SPACES) by entity kind, looked up at call time like _trace."""
    return {"grad": {"edge": op_grad_edge, "face": op_grad_face,
                     "cell": op_grad_cell},
            "curl": {"face": op_curl_face, "cell": op_curl_cell},
            "div": {"cell": op_div_cell}}.get(space.which, {})


def _boundary_parts(space, group):
    """Yield, per local boundary position, (sub-entities (G,), their group,
    their slots there, relative orientations (G,), normals (G, 3)): the
    edges of faces with their in-plane normals, the faces of cells with
    their unit normals. The sub-entities at one position share a group
    because the signature fixes their shapes."""
    mesh, bank = space.mesh, space.bank
    if group.kind == "face":
        sub, parts, normals = "edge", group.edges, group.edge_normals
    else:
        sub, parts = "face", group.faces
        normals = mesh.face_normals[parts]
    for p in range(parts.shape[1]):
        subgroup, slots = bank.locate(sub, parts[:, p])
        yield parts[:, p], subgroup, slots, group.signs[:, p], normals[:, p]


def _trace_coords(basis, tgt, slots, rule, what, to_scalar, to_vector,
                  norm=False):
    """Traces on one boundary part per entity of the members of a stacked
    basis (G, m members), and the members of the target basis tgt there
    (the sub-entities slots of tgt's stack), both as coordinates (G, ., [3,]
    k) over the orthonormal members spanning tgt: the trace table
    (polyspaces.trace_table, with the part's rule, checked for exactness
    under the operator name what) applied to the basis' coefficients, and
    C' R^T for the targets.  A vector trace meets a scalar target through
    its component along to_scalar (G, 3) and a vector target through the
    matrices to_vector (G, 3, 3) applied to its values, both on the
    component axis."""
    C, sub, k = basis._Cs, tgt._core, tgt._Cs.shape[-1]
    T = trace_table(basis._core, sub, slots, rule, C.shape[-1], k, what, norm)
    V = C @ (T if C.ndim == 3 else T[:, None])
    if V.ndim == 4:
        if tgt._Cs.ndim == 4:
            V = to_vector.transpose(0, 2, 1)[:, None] @ V
        else:
            V = (to_scalar[:, None, None, :] @ V)[:, :, 0]
    return V, sub.coords(tgt._Cs[slots], k, slots)


def _add_boundary_term(space, group, M, idx, tests, what, sign=1.0,
                       degree=None):
    """Add the boundary sum of integration by parts to the stack M in place.

    M (G, m, n) has columns over the global dofs idx (G, n) of the entities
    of a face or cell group. Over their edges (faces) or faces (cells),
    with rec the space's boundary reconstructions (_trace) on each
    position's sub-entity group, and omega the relative orientation, adds
    sign * omega * int (test trace) . rec to the columns of the dofs rec
    reads. The test trace is the value of a scalar test, the normal
    component of a vector test against a scalar reconstruction, and test x
    normal against a vector one; the integrals are dot products of
    coordinates (_trace_coords). Rules have the default degree unless
    degree is given; what names the operator if they are not exact.
    """
    blocks, dofs = [], []
    for _, subgroup, slots, omega, n in _boundary_parts(space, group):
        rec = _trace(space, subgroup.kind)(space, subgroup)
        V, W = _trace_coords(tests, rec.target, slots,
                             space.bank.group_rule(subgroup, degree), what,
                             n, _cross_matrix(n))
        G, m = V.shape[:2]
        T = V.reshape(G, m, -1) @ W.reshape(G, W.shape[1], -1).transpose(0, 2, 1)
        blocks.append(omega[:, None, None] * (T @ rec.matrix[slots]))
        dofs.append(rec.dofs[slots])
    # One scatter for the group: boundary parts share vertex and edge dofs,
    # and bincount sums every block entry into its (entity, row, column).
    G, m, n = M.shape
    cols = _columns(idx, np.concatenate(dofs, axis=1))
    rows = np.arange(G * m).reshape(G, m, 1)
    flat = (rows * n + cols[:, None, :]).ravel()
    vals = np.concatenate(blocks, axis=2).ravel()
    M += sign * np.bincount(flat, vals, M.size).reshape(M.shape)


# ----------------------------------------------------------------------
# derivative coefficient maps of stacked bases


def _grad(b):
    return b._grad_map


def _div(b):
    return b._div_map


def _curl(b):
    return b._curl_map


def _rotated_grad(space, group):
    """The in-plane rotated gradient grad x n_F on the faces of a group,
    as a map from a stacked scalar basis to monomial coefficients."""
    Kt = _cross_matrix(space.mesh.face_normals[group.ids]).transpose(0, 2, 1)
    return lambda b: Kt[:, None] @ b._grad_map


# ----------------------------------------------------------------------
# edge operators (scalar space)


@_stack("edge", ("grad",))
def edge_reconstruct(space, group):
    """Degree-(k+1) edge polynomial matching both endpoint values and the
    degree-(k-1) edge moments; the base object for edge gradients and the
    scalar stabilization."""
    k = space.k
    basis = space.bank.group_basis(group, "scalar", k + 1)
    V = basis.eval(space.mesh.vertices[group.vertices])
    M = np.zeros((len(group), k + 2, k + 2))
    M[:, :2] = V.transpose(0, 2, 1)
    M[:, 2 + np.arange(k), np.arange(k)] = 1.0
    matrix = _solve_guarded(space, M, np.eye(k + 2), "edge reconstruction",
                            group)
    return _Operators(space.group_dofs(group), matrix, basis)


@_stack("edge", ("grad",))
def op_grad_edge(space, group):
    """Derivative of the reconstructed edge polynomial, degree k."""
    rec = edge_reconstruct(space, group)
    tgt = space.bank.group_basis(group, "scalar", space.k)
    t = space.mesh.edge_tangents[group.ids]
    dt = (t[:, None, None, :] @ rec.target._grad_map)[:, :, 0]
    D = tgt._core.inner(tgt._Cs, dt)
    return _Operators(rec.dofs, D @ rec.matrix, tgt)


# ----------------------------------------------------------------------
# face and cell operators


def _differential(space, group, tgt, adjoint, sign, boundary_sign, what):
    """Face or cell differential with values in tgt, by parts against all
    of tgt: sign * int adjoint(tgt) . (first dof family) on the entity,
    plus the boundary term (sign boundary_sign). The volume term is a
    same-core product in coefficient space; what names the operator."""
    idx = space.group_dofs(group)
    M = np.zeros((len(group), tgt.dim, idx.shape[1]))
    fam, l = space.families[group.kind][0]
    first = space.bank.group_basis(group, fam, l)
    if first.dim:
        M[:, :, space._own_slice(group, 0)] = sign * tgt._core.inner(
            adjoint(tgt), first._Cs)
    _add_boundary_term(space, group, M, idx, tgt, what, sign=boundary_sign)
    return _Operators(idx, M, tgt)


def _reconstruction(space, group, op, tgt, tests, derivative, sign,
                    boundary_sign, what, degree=None):
    """Polynomial tgt on the faces or cells of a group from the dofs op
    reads.

    Its moments int derivative(tests) . tgt equal sign * (tests against
    op's values) plus the boundary term (sign boundary_sign, rules of the
    given degree). Where the entity carries a second dof family, a radial
    complement, its moments are kept. One guarded stacked solve.
    """
    idx = op.dofs
    A = tests._core.inner(derivative(tests), tgt._Cs)
    R = sign * tests._Ws[:, :, : op.target.dim] @ op.matrix
    _add_boundary_term(space, group, R, idx, tests, what,
                       sign=boundary_sign, degree=degree)
    fams = space.families[group.kind]
    if len(fams) > 1:
        complement = space.bank.group_basis(group, *fams[1])
        A = np.concatenate([A, complement._Ws], axis=1)
        keep = np.zeros((len(group), complement.dim, idx.shape[1]))
        keep[:, :, space._own_slice(group, 1)] = np.eye(complement.dim)
        R = np.concatenate([R, keep], axis=1)
    return _Operators(idx, _solve_guarded(space, A, R, what, group), tgt)


@_stack("face", ("grad",))
def op_grad_face(space, group):
    """Face gradient in the full vector space of degree k, defined by
    integration by parts against all vector polynomials."""
    return _differential(
        space, group, space.bank.group_basis(group, "vector", space.k),
        _div, -1.0, 1.0, "face gradient")


@_stack("face", ("grad",))
def op_scalar_trace(space, group):
    """Degree-(k+1) scalar face reconstruction whose in-plane divergence
    moments against the radial complement reproduce the face gradient."""
    k, basis = space.k, space.bank.group_basis
    return _reconstruction(
        space, group, op_grad_face(space, group),
        basis(group, "scalar", k + 1), basis(group, "curl_complement", k + 2),
        _div, -1.0, 1.0, "scalar face trace", degree=2 * k + 4)


@_stack("face", ("curl",))
def op_curl_face(space, group):
    """Scalar face rotation of degree k from tangential edge values and
    the rotational-image face moments."""
    return _differential(
        space, group, space.bank.group_basis(group, "scalar", space.k),
        _rotated_grad(space, group), 1.0, -1.0, "face rotation")


@_stack("face", ("curl",))
def op_tangential_trace(space, group):
    """Tangential face field of degree k: its rotated-gradient moments
    come from the face rotation and edge values by parts, its radial
    complement moments are kept from the data."""
    k, basis = space.k, space.bank.group_basis
    return _reconstruction(
        space, group, op_curl_face(space, group),
        basis(group, "vector", k), basis(group, "zero_mean", k + 1),
        _rotated_grad(space, group), 1.0, 1.0, "tangential face trace")


@_stack("cell", ("grad",))
def op_grad_cell(space, group):
    """Cell gradient in the full vector space of degree k, by parts
    against all vector polynomials using the scalar face traces."""
    return _differential(
        space, group, space.bank.group_basis(group, "vector", space.k),
        _div, -1.0, 1.0, "cell gradient")


@_stack("cell", ("curl",))
def op_curl_cell(space, group):
    """Cell curl in the full vector space of degree k, by parts against
    all vector polynomials using the tangential face traces."""
    return _differential(
        space, group, space.bank.group_basis(group, "vector", space.k),
        _curl, 1.0, 1.0, "cell curl")


@_stack("cell", ("div",))
def op_div_cell(space, group):
    """Cell divergence of degree k from normal face values and the
    gradient-image cell moments."""
    return _differential(
        space, group, space.bank.group_basis(group, "scalar", space.k),
        _grad, -1.0, 1.0, "cell divergence")


# The cell potential of each space (op_potential), reconstructed from its
# cell differential: target and test families (family, degree - k), test
# derivative, signs of the differential's and of the boundary term, name.
POTENTIALS = {
    "grad": (("scalar", 1), ("curl_complement", 2), _div, -1.0, 1.0,
             "scalar potential on cell"),
    "curl": (("vector", 0), ("grad_complement", 1), _curl, 1.0, -1.0,
             "field potential on cell"),
    "div": (("vector", 0), ("zero_mean", 1), _grad, -1.0, 1.0,
            "flux potential on cell"),
}


@_stack("cell", tuple(POTENTIALS))
def op_potential(space, group):
    """Cell potential reconstruction one step richer than the dofs
    (POTENTIALS): a degree-(k+1) scalar, or a degree-k vector that keeps
    the radial complement moments of the field and flux spaces."""
    (tgt, l), (tests, m), derivative, sign, boundary_sign, what = (
        POTENTIALS[space.which])
    k, basis = space.k, space.bank.group_basis
    return _reconstruction(
        space, group, _differentials(space)["cell"](space, group),
        basis(group, tgt, k + l), basis(group, tests, k + m), derivative,
        sign, boundary_sign, what)


# ----------------------------------------------------------------------
# global assembly


def _pad_cols(W, width):
    if W.shape[-1] == width:
        return W
    out = np.zeros(W.shape[:-1] + (width,))
    out[..., : W.shape[-1]] = W
    return out


def _complex_pieces(space_in, space_out):
    """[(kind, group, output rows (G, r), dofs (G, n), matrix (G, r, n))]:
    the differentials of space_in (_differentials) per entity group,
    projected onto each family of space_out where it has more than the
    degree-k scalar one. Built once per space pair, kept in space_in's."""
    key = ("complex pieces", space_out.which)
    out = space_in._cache.get(key)
    if out is not None:
        return out
    pair = (space_in.which, space_out.which)
    if pair not in zip(SPACES, SPACES[1:]):
        raise ValueError(f"no discrete differential maps {pair[0]} to {pair[1]}")
    out = []
    for kind, op in _differentials(space_in).items():
        for group in space_in.bank.groups(kind):
            ops = op(space_in, group)
            ids = group.ids[:, None]
            if LAYOUT[space_out.which][kind] == (("scalar", 0),):
                out.append((kind, group, space_out._blocks(kind, ids),
                            ops.dofs, ops.matrix))
                continue
            for (fam, l), start in zip(space_out.families[kind],
                                       space_out.offsets[kind]):
                b = space_out.bank.group_basis(group, fam, l)
                if b.dim:
                    W = _pad_cols(b._Ws, ops.target.dim)
                    out.append((kind, group,
                                space_out._blocks(kind, ids, start, b.dim),
                                ops.dofs, W @ ops.matrix))
    space_in._cache[key] = out
    return out


def global_operator(space_in, space_out):
    """Sparse matrix of the discrete differential between two spaces."""
    if space_in.mesh is not space_out.mesh or space_in.k != space_out.k:
        raise ValueError("spaces must share one mesh and one degree")
    rows, cols, vals = [], [], []
    for _, _, out_rows, dofs, matrix in _complex_pieces(space_in, space_out):
        r, n = out_rows.shape[1], dofs.shape[1]
        if r == 0 or n == 0:
            continue
        rows.append(np.repeat(out_rows.ravel(), n))
        cols.append(np.tile(dofs, (1, r)).ravel())
        vals.append(matrix.ravel())
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
    mat = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(space_out.dim, space_in.dim)
    )
    return mat.tocsr()
