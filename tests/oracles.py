"""Independent oracles used by the test suite.

Everything here is deliberately computed by a different route than the
package: polynomial calculus runs on exponent dictionaries, integrals come
from the closed-form Dirichlet moments of reference simplices after an
affine pullback done by coefficient arithmetic, and a few spot checks
validate this module itself against sympy. None of it touches the package's
quadrature or orthonormalization code, except the package stacks at the
end. The cell-local views of the complex (local_complex_matrix,
link_identities_check) read one cell out of the package's group stacks and
check the identities that link them entity by entity, a route the package
itself no longer takes. layout_by_branches numbers the dofs by the
per-space branches that came before the package's layout table
(ddrcore.LAYOUT). isomorphism_matrix and shape_regularity are
diagnostics on the package's bases and fans that only the tests read.
svd_subspace_basis builds the subspace bases by a second route, from
tabulated generators and an SVD, where the package uses coefficients alone.
integrate_products integrates products of tabulations at rule points, the
route the package's coefficient-space pairings replaced, and
check_traces_by_points runs the trace check that way: random members of
the trimmed cell spaces tabulated at each face's and edge's rule,
projected by quadrature, for the first cell of each face and the
lowest-index cell of each edge. monomials_full_map tabulates a core's
scaled monomials with no shortcut, the reference the package's
_ScalarCore._monomials must match bit for bit. graph_norms_by_assembly and
component_norm_by_assembly take norms through the assembled global
matrices, where the package sums the local forms cell group by cell group.
grid_lists_by_loops builds the grid meshes' vertices, face loops and cells
subcube by subcube with a dictionary of face vertex sets, the loop the
package's array generator replaced.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np

from polyddr.ddrcore import (
    _complex_pieces,
    op_curl_cell,
    op_curl_face,
    op_div_cell,
    op_grad_cell,
    op_grad_face,
    op_potential,
    global_operator,
)
from polyddr.mesh import _cross
from polyddr.polyspaces import (
    BasisBank,
    _cross_matrix,
    _make_core,
    scalar_basis,
    space_dim,
    subspace_basis,
    vector_basis,
)
from polyddr.products import _assemble, assemble_product, component_gram
from polyddr.quadrature import entity_rule
from polyddr.verification import CheckReport

from stacks import basis_of, local_dofs, rule_of


def integrate_products(A, B, weights):
    """Matrix of the integrals of A_i . B_j from tabulations at rule points.

    A is (m, npts) or (m, npts, 3) and B the same kind with n rows; the
    result is (m, n).  Over a group of entities, A, B and the weights carry
    one more leading axis and the result is (G, m, n).  One matmul: the
    weights go on the operand with fewer rows, so the weighted copy stays
    small.
    """
    b = weights.ndim - 1
    w = weights[..., None, :] if A.ndim == b + 2 else weights[..., None, :, None]
    m, n = A.shape[b], B.shape[b]
    if m <= n:
        A = A * w
    else:
        B = B * w
    lead = A.shape[:b]
    cols = math.prod(A.shape[b + 1 :])
    return A.reshape(lead + (m, cols)) @ B.reshape(lead + (n, cols)).swapaxes(-1, -2)


class Poly3:
    """Polynomial in three variables as {(a, b, c): coeff}."""

    def __init__(self, coeffs=None):
        self.coeffs = dict(coeffs or {})

    @classmethod
    def constant(cls, value):
        return cls({(0, 0, 0): float(value)} if value else {})

    @classmethod
    def linear(cls, const, cx, cy, cz):
        c = {}
        for key, val in (
            ((0, 0, 0), const),
            ((1, 0, 0), cx),
            ((0, 1, 0), cy),
            ((0, 0, 1), cz),
        ):
            if val:
                c[key] = float(val)
        return cls(c)

    @classmethod
    def random(cls, rng, degree, dim=3):
        """Random polynomial of exact total degree <= degree.

        dim < 3 restricts to the first `dim` variables.
        """
        c = {}
        for exp in itertools.product(range(degree + 1), repeat=3):
            if sum(exp) > degree:
                continue
            if any(exp[d] > 0 for d in range(dim, 3)):
                continue
            c[exp] = float(rng.uniform(-1, 1))
        return cls(c)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return Poly3(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) - v
        return Poly3(out)

    def __mul__(self, other):
        if np.isscalar(other):
            return Poly3({k: v * other for k, v in self.coeffs.items()})
        out = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                out[key] = out.get(key, 0.0) + va * vb
        return Poly3(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Poly3.constant(1.0)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, axis):
        out = {}
        for exp, v in self.coeffs.items():
            if exp[axis] == 0:
                continue
            new = list(exp)
            new[axis] -= 1
            out[tuple(new)] = out.get(tuple(new), 0.0) + v * exp[axis]
        return Poly3(out)

    def grad(self):
        return VecPoly3(self.diff(0), self.diff(1), self.diff(2))

    def eval(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros(len(pts))
        for (a, b, c), v in self.coeffs.items():
            out += v * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c
        return out

    def degree(self):
        return max((sum(k) for k, v in self.coeffs.items() if v != 0), default=0)

    def affine_pullback(self, origin, jac):
        """Polynomial q with q(u) = self(origin + jac @ u).

        Horner form in the three pulled-back variables: the polynomial is
        nested as sum_a x^a (sum_b y^b (sum_c z^c coeff)), and each level
        multiplies only by the linear polynomial its variable maps to."""
        subs = [
            Poly3.linear(origin[d], jac[d][0], jac[d][1], jac[d][2])
            for d in range(3)
        ]

        def horner(coeffs, axis):
            # coeffs maps exponents over the variables axis.. to values
            if axis == 3:
                return Poly3.constant(coeffs[()])
            parts = {}
            for exp, v in coeffs.items():
                parts.setdefault(exp[0], {})[exp[1:]] = v
            out = Poly3()
            for e in range(max(parts), -1, -1):
                out = out * subs[axis]
                if e in parts:
                    out = out + horner(parts[e], axis + 1)
            return out

        if not self.coeffs:
            return Poly3()
        return horner(self.coeffs, 0)


class VecPoly3:
    """Vector field with Poly3 components."""

    def __init__(self, x, y, z):
        self.comps = (x, y, z)

    @classmethod
    def random(cls, rng, degree):
        return cls(*(Poly3.random(rng, degree) for _ in range(3)))

    def __add__(self, other):
        return VecPoly3(*(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        return VecPoly3(*(a - b for a, b in zip(self.comps, other.comps)))

    def scale(self, s):
        return VecPoly3(*(c * s for c in self.comps))

    def dot(self, vec):
        out = Poly3()
        for c, v in zip(self.comps, vec):
            out = out + c * float(v)
        return out

    def dot_poly(self, other):
        out = Poly3()
        for a, b in zip(self.comps, other.comps):
            out = out + a * b
        return out

    def div(self):
        return (
            self.comps[0].diff(0) + self.comps[1].diff(1) + self.comps[2].diff(2)
        )

    def curl(self):
        cx, cy, cz = self.comps
        return VecPoly3(
            cz.diff(1) - cy.diff(2),
            cx.diff(2) - cz.diff(0),
            cy.diff(0) - cx.diff(1),
        )

    def cross_const(self, vec):
        """self x vec for a constant 3-vector."""
        cx, cy, cz = self.comps
        vx, vy, vz = (float(v) for v in vec)
        return VecPoly3(
            cy * vz - cz * vy,
            cz * vx - cx * vz,
            cx * vy - cy * vx,
        )

    def eval(self, pts):
        return np.stack([c.eval(pts) for c in self.comps], axis=-1)


def monomials_cross_position(origin):
    """The Koszul field (x - origin) as a VecPoly3."""
    ox, oy, oz = origin
    return VecPoly3(
        Poly3.linear(-ox, 1, 0, 0),
        Poly3.linear(-oy, 0, 1, 0),
        Poly3.linear(-oz, 0, 0, 1),
    )


def cross_poly(a, b):
    ax, ay, az = a.comps
    bx, by, bz = b.comps
    return VecPoly3(ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


# ----------------------------------------------------------------------
# exact integration over simplices and boxes


def ref_tet_moment(a, b, c):
    """Integral of x^a y^b z^c over the unit reference tetrahedron."""
    return (
        math.factorial(a)
        * math.factorial(b)
        * math.factorial(c)
        / math.factorial(a + b + c + 3)
    )


def ref_tri_moment(a, b):
    """Integral of x^a y^b over the unit reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def integrate_poly_tet(poly, tet_pts):
    """Exact integral of a Poly3 over the tetrahedron with given vertices."""
    tet_pts = np.asarray(tet_pts, dtype=float)
    origin = tet_pts[0]
    jac = (tet_pts[1:] - tet_pts[0]).T
    vol6 = abs(np.linalg.det(jac))
    pulled = poly.affine_pullback(origin, jac)
    total = 0.0
    for (a, b, c), v in pulled.coeffs.items():
        total += v * ref_tet_moment(a, b, c)
    return vol6 * total


def integrate_poly_triangle(poly, tri_pts):
    """Exact integral over a flat triangle embedded in 3D."""
    tri_pts = np.asarray(tri_pts, dtype=float)
    origin = tri_pts[0]
    d1 = tri_pts[1] - tri_pts[0]
    d2 = tri_pts[2] - tri_pts[0]
    area2 = np.linalg.norm(np.cross(d1, d2))
    jac = np.stack([d1, d2, np.zeros(3)], axis=1)
    pulled = poly.affine_pullback(origin, jac)
    total = 0.0
    for (a, b, c), v in pulled.coeffs.items():
        if c > 0:
            continue  # third pullback variable never appears
        total += v * ref_tri_moment(a, b)
    return area2 * total


def integrate_poly_segment(poly, p0, p1):
    """Exact integral over the segment [p0, p1]."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    length = np.linalg.norm(p1 - p0)
    jac = np.stack([p1 - p0, np.zeros(3), np.zeros(3)], axis=1)
    pulled = poly.affine_pullback(p0, jac)
    total = 0.0
    for (a, b, c), v in pulled.coeffs.items():
        if b > 0 or c > 0:
            continue
        total += v / (a + 1)
    return length * total


def integrate_poly_unit_cube(poly):
    """Exact integral over (0,1)^3 by separation of variables."""
    total = 0.0
    for (a, b, c), v in poly.coeffs.items():
        total += v / ((a + 1) * (b + 1) * (c + 1))
    return total


def integrate_poly_cell(poly, mesh, c):
    """Exact integral over a mesh cell via its fan tetrahedra."""
    return sum(integrate_poly_tet(poly, tet) for tet in mesh.cell_fans[c])


def integrate_poly_face(poly, mesh, f):
    """Exact integral over a mesh face via its fan triangles."""
    return sum(integrate_poly_triangle(poly, tri) for tri in mesh.face_fans[f])


def dim_P(l, d):
    """Dimension of polynomials of total degree <= l in d variables."""
    if l < 0:
        return 0
    return math.comb(l + d, d)


def count_monomials(l, d):
    """Same as dim_P but by brute enumeration (independent route)."""
    if l < 0:
        return 0
    return sum(
        1
        for exp in itertools.product(range(l + 1), repeat=d)
        if sum(exp) <= l
    )


# ----------------------------------------------------------------------
# cell-local views of the complex


def _positions(idx):
    return {int(g): i for i, g in enumerate(idx)}


def local_complex_matrix(space_in, space_out, c):
    """Cell-local matrix of the discrete differential: output dofs of the
    cell and its boundary in local order versus input local dofs."""
    mesh, bank = space_in.mesh, space_in.bank
    idx_out, _ = local_dofs(space_out, "cell", c)
    idx_in, _ = local_dofs(space_in, "cell", c)
    pos_out = _positions(idx_out)
    pos_in = _positions(idx_in)
    M = np.zeros((len(idx_out), len(idx_in)))
    entities = {
        "edge": mesh.cell_edges[c].tolist() if space_out.width["edge"] else [],
        "face": mesh.cells[c].tolist(),
        "cell": [c],
    }
    for kind, group, out_rows, dofs, matrix in _complex_pieces(space_in,
                                                               space_out):
        for j in entities[kind]:
            owner, slot = bank.group(kind, j)
            if owner is group:
                r = [pos_out[g] for g in out_rows[slot].tolist()]
                ci = [pos_in[g] for g in dofs[slot].tolist()]
                M[np.ix_(r, ci)] = matrix[slot]
    return M


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
    rule = rule_of(bank, "cell", c)
    out = {}

    def at(op, space, kind, i):
        """(dofs, target, matrix) of entity i in its group's stack, target
        tabulating its target basis at the points of a rule stack of one."""
        group, slot = bank.group(kind, i)
        ops = op(space, group)
        return (ops.dofs[slot], lambda pts: ops.target.eval(pts, [slot])[0],
                ops.matrix[slot])

    dofs, target, gc = at(op_grad_cell, space_grad, "cell", c)
    pos_g = _positions(dofs)
    ne, sel = basis_of(bank, "nedelec", "cell", c, k + 1)
    X = integrate_products(
        ne.curl(rule.points, sel)[0], target(rule.points), rule.weights[0],
    )
    A = X @ gc
    for fi, f in enumerate(mesh.cells[c]):
        f = int(f)
        dofs, target, gf = at(op_grad_face, space_grad, "face", f)
        frule = rule_of(bank, "face", f)
        n = mesh.face_normals[f]
        wtf = mesh.cell_face_signs[c][fi]
        zxn = np.cross(ne.eval(frule.points, sel)[0], n[None, None, :])
        T = integrate_products(
            zxn, target(frule.points), frule.weights[0],
        )
        cols = [pos_g[int(g)] for g in dofs]
        A[:, cols] += wtf * (T @ gf)
    out["grad_link"] = float(np.abs(A).max()) if A.size else 0.0

    dofs, target, ct = at(op_curl_cell, space_curl, "cell", c)
    pos_c = _positions(dofs)
    sb, sel = basis_of(bank, "scalar", "cell", c, k + 1)
    X = integrate_products(
        sb.grad(rule.points, sel)[0], target(rule.points), rule.weights[0],
    )
    A = X @ ct
    for fi, f in enumerate(mesh.cells[c]):
        f = int(f)
        dofs, target, cf = at(op_curl_face, space_curl, "face", f)
        frule = rule_of(bank, "face", f)
        wtf = mesh.cell_face_signs[c][fi]
        T = integrate_products(
            sb.eval(frule.points, sel)[0], target(frule.points),
            frule.weights[0],
        )
        cols = [pos_c[int(g)] for g in dofs]
        A[:, cols] -= wtf * (T @ cf)
    out["curl_link"] = float(np.abs(A).max()) if A.size else 0.0

    uG = local_complex_matrix(space_grad, space_curl, c)
    uC = local_complex_matrix(space_curl, space_div, c)
    pc = at(op_potential, space_curl, "cell", c)[2]
    pd = at(op_potential, space_div, "cell", c)[2]
    dt = at(op_div_cell, space_div, "cell", c)[2]

    out["field_potential_of_gradient"] = float(
        np.abs(pc @ uG - gc).max()
    )
    out["flux_potential_of_curl"] = float(
        np.abs(pd @ uC - ct).max()
    )
    out["curl_of_gradient"] = float(np.abs(ct @ uG).max())
    out["div_of_curl"] = float(np.abs(dt @ uC).max())
    return out


def isomorphism_matrix(mesh, kind, index, which, l):
    """Matrix of one of the bijective differential maps between subspaces.

    which: "face_rot"  rotated gradient, zero-mean scalars(l) -> curl_image(l-1)
           "face_div"  in-plane divergence, curl_complement(l) -> scalars(l-1)
           "cell_div"  divergence, curl_complement(l) -> scalars(l-1)
           "cell_curl" curl, grad_complement(l) -> curl_image(l-1)
    Rows are target coefficients, columns source members; square and
    invertible whenever the mesh entity is sound.
    """
    ids = [index]
    rule = entity_rule(mesh, kind, ids, 2 * max(l, 1))
    core = _make_core(mesh, kind, ids, l + 1, rule)
    if which == "face_rot":
        src = subspace_basis(mesh, "face", ids, "zero_mean", l, core=core)
        tgt = subspace_basis(mesh, "face", ids, "curl_image", l - 1,
                             core=core)
        vals = (src.grad(rule.points)[0]
                @ _cross_matrix(mesh.face_normals[index]))
    elif which in ("face_div", "cell_div"):
        src = subspace_basis(mesh, kind, ids, "curl_complement", l,
                             core=core)
        tgt = scalar_basis(mesh, kind, ids, l - 1, core=core)
        vals = src.div(rule.points)[0]
    elif which == "cell_curl":
        src = subspace_basis(mesh, "cell", ids, "grad_complement", l,
                             core=core)
        tgt = subspace_basis(mesh, "cell", ids, "curl_image", l - 1,
                             core=core)
        vals = src.curl(rule.points)[0]
    else:
        raise ValueError(f"unknown map {which!r}")
    return integrate_products(tgt.eval(rule.points)[0], vals, rule.weights[0])


def svd_subspace_basis(mesh, kind, index, family, l):
    """Coefficients (dim, width) of an orthonormal basis of one subspace
    family of degree l over the package's orthonormal vector basis of that
    degree, by values at points: the generating set is tabulated at the
    points of a rule (gradients, rotations and crosses with np.cross, the
    Koszul field from the points themselves), its moments against the
    tabulated parent basis are integrated, and the basis is the leading
    right singular vectors of that matrix, as many as the singular values
    above 1e-8 of the largest.  Its choice within the span is arbitrary,
    so compare projectors W^T W."""
    ids = [index]
    rule = entity_rule(mesh, kind, ids, 2 * l + 2)
    pts = rule.points[0]
    parent = vector_basis(mesh, kind, ids, l).eval(rule.points)[0]
    if kind == "face":
        x0, normal = mesh.face_centroids[index], mesh.face_normals[index]
    else:
        x0 = mesh.cell_centroids[index]
    if family.endswith("image"):
        gens = scalar_basis(mesh, kind, ids, l + 1).grad(rule.points)[0][1:]
    else:
        s = scalar_basis(mesh, kind, ids, max(l - 1, 0)).eval(rule.points)[0]
        gens = s[: dim_P(l - 1, 3 if kind == "cell" else 2), :, None] * (pts - x0)
    if family in ("curl_image", "grad_complement"):
        gens = (np.cross(normal, gens) if kind == "face" else
                np.concatenate([np.cross(gens, e) for e in np.eye(3)]))
    M = np.einsum("ipx,jpx,p->ij", gens, parent, rule.weights[0])
    if not M.size:
        return np.zeros((0, len(parent)))
    _, sing, Vt = np.linalg.svd(M)
    return Vt[: int((sing >= 1e-8 * sing[0]).sum())]


def _hexahedron(c):
    return [[
        (c(0, 0, 0), c(0, 0, 1), c(0, 1, 1), c(0, 1, 0)),
        (c(1, 0, 0), c(1, 1, 0), c(1, 1, 1), c(1, 0, 1)),
        (c(0, 0, 0), c(1, 0, 0), c(1, 0, 1), c(0, 0, 1)),
        (c(0, 1, 0), c(0, 1, 1), c(1, 1, 1), c(1, 1, 0)),
        (c(0, 0, 0), c(0, 1, 0), c(1, 1, 0), c(1, 0, 0)),
        (c(0, 0, 1), c(1, 0, 1), c(1, 1, 1), c(0, 1, 1)),
    ]]


def _six_tetrahedra(c):
    cells = []
    for perm in itertools.permutations(range(3)):
        step = [0, 0, 0]
        ids = [c(*step)]
        for axis in perm:
            step[axis] += 1
            ids.append(c(*step))
        cells.append([(ids[0], ids[1], ids[2]), (ids[0], ids[1], ids[3]),
                      (ids[0], ids[2], ids[3]), (ids[1], ids[2], ids[3])])
    return cells


def grid_lists_by_loops(n, kind):
    """(vertices, faces, cells) of generate_cubic_mesh(n) (kind "cubic")
    or generate_tet_mesh(n) (kind "tet") on the (n+1)^3 vertex grid, built
    subcube by subcube: each subcube's cells as lists of face loops, with
    c(a, b, d) the vertex id of the subcube corner offset by (a, b, d); a
    loop whose vertex set was seen before is that face again."""
    coords = np.linspace(0.0, 1.0, n + 1)
    vid = lambda i, j, k: (i * (n + 1) + j) * (n + 1) + k
    vertices = np.array(
        [[coords[i], coords[j], coords[k]]
         for i in range(n + 1) for j in range(n + 1) for k in range(n + 1)]
    )
    subcube_cells = {"cubic": _hexahedron, "tet": _six_tetrahedra}[kind]
    faces, face_ids, cells = [], {}, []
    for i, j, k in itertools.product(range(n), repeat=3):
        corner = lambda a, b, d: vid(i + a, j + b, k + d)
        for loops in subcube_cells(corner):
            cell = []
            for loop in loops:
                key = frozenset(loop)
                if key not in face_ids:
                    face_ids[key] = len(faces)
                    faces.append(list(loop))
                cell.append(face_ids[key])
            cells.append(cell)
    return vertices, faces, cells


def shape_regularity(mesh):
    """Per-cell min over fan tetrahedra of inradius / h_T (diagnostic)."""
    out = np.empty(mesh.num_cells)
    for g in mesh.cell_groups:
        tets = g.cell_fans
        vols = g.cell_fan_vol6 / 6.0
        areas = np.zeros(vols.shape)
        for i, j, k in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
            cr = _cross(tets[:, :, j] - tets[:, :, i],
                        tets[:, :, k] - tets[:, :, i])
            areas += 0.5 * np.linalg.norm(cr, axis=-1)
        out[g.ids] = (3.0 * vols / areas).min(axis=1) / mesh.cell_diameters[g.ids]
    return out


def check_traces_by_points(mesh, max_degree=3, seed=0):
    """verification.check_traces by values at rule points: one random
    member of each trimmed cell space per (entity, l), its trace projected
    onto the face or edge space by quadrature, and the relative L2 norm of
    the remainder."""
    report = CheckReport(f"traces(max_degree={max_degree})")
    bank = BasisBank(mesh, max_degree)
    rng = np.random.default_rng(seed)
    worst_face_rot = 0.0
    worst_face_normal = 0.0
    worst_edge = 0.0
    offender = {}

    for f in range(mesh.num_faces):
        c = int(mesh.face_cells[f][0])
        nrm = mesh.face_normals[f]
        rule = rule_of(bank, "face", f)
        pts, weights = rule.points, rule.weights[0]
        for l in range(1, max_degree + 1):
            ne, cs = basis_of(bank, "nedelec", "cell", c, l)
            rt3, _ = basis_of(bank, "raviart_thomas", "cell", c, l)

            a = rng.standard_normal(ne.dim)
            vals = np.einsum("s,spx->px", a, ne.eval(pts, cs)[0])
            crossed = np.cross(vals, nrm)
            # L2 projection onto the trimmed (not orthonormal) face space:
            # the members' moments, solved against their Gram W W^T
            rt2, fs = basis_of(bank, "raviart_thomas", "face", f, l)
            m = rt2.moments(pts, crossed[None, None], rule.weights, fs)[..., 0]
            W = rt2._Ws[fs]
            coeffs = np.linalg.solve(W @ W.transpose(0, 2, 1),
                                     m[..., None])[0, :, 0]
            resid_vals = crossed - np.einsum("s,spx->px", coeffs,
                                             rt2.eval(pts, fs)[0])
            num = np.sqrt(np.einsum("px,px,p->", resid_vals, resid_vals, weights))
            den = max(
                np.sqrt(np.einsum("px,px,p->", crossed, crossed, weights)), 1e-30
            )
            if num / den > worst_face_rot:
                worst_face_rot = num / den
                offender["face_rotated_trace"] = (f, l)

            b = rng.standard_normal(rt3.dim)
            wn = np.einsum("s,spx,x->p", b, rt3.eval(pts, cs)[0], nrm)
            fb, fs = basis_of(bank, "scalar", "face", f, l - 1)
            cf = np.einsum("mp,p,p->m", fb.eval(pts, fs)[0], wn, weights)
            resid_vals = wn - cf @ fb.eval(pts, fs)[0]
            num = np.sqrt(np.einsum("p,p,p->", resid_vals, resid_vals, weights))
            den = max(np.sqrt(np.einsum("p,p,p->", wn, wn, weights)), 1e-30)
            if num / den > worst_face_normal:
                worst_face_normal = num / den
                offender["face_normal_trace"] = (f, l)

    # the lowest-index cell holding each edge: later writes win, so go down
    edge_cell = np.full(mesh.num_edges, -1)
    for c in reversed(range(mesh.num_cells)):
        edge_cell[mesh.cell_edges[c]] = c
    for e in range(mesh.num_edges):
        c = int(edge_cell[e])
        t = mesh.edge_tangents[e]
        rule = rule_of(bank, "edge", e)
        pts, weights = rule.points, rule.weights[0]
        for l in range(1, max_degree + 1):
            ne, cs = basis_of(bank, "nedelec", "cell", c, l)
            a = rng.standard_normal(ne.dim)
            vt = np.einsum("s,spx,x->p", a, ne.eval(pts, cs)[0], t)
            eb, es = basis_of(bank, "scalar", "edge", e, l - 1)
            ce = np.einsum("mp,p,p->m", eb.eval(pts, es)[0], vt, weights)
            resid_vals = vt - ce @ eb.eval(pts, es)[0]
            num = np.sqrt(np.sum(resid_vals ** 2 * weights))
            den = max(np.sqrt(np.sum(vt ** 2 * weights)), 1e-30)
            if num / den > worst_edge:
                worst_edge = num / den
                offender["edge_tangential_trace"] = (e, l)

    report.gate_below(
        "face_rotated_trace_resid", worst_face_rot, 1e-9,
        context=str(offender.get("face_rotated_trace", "")),
    )
    report.gate_below(
        "face_normal_trace_resid", worst_face_normal, 1e-9,
        context=str(offender.get("face_normal_trace", "")),
    )
    report.gate_below(
        "edge_tangential_trace_resid", worst_edge, 1e-9,
        context=str(offender.get("edge_tangential_trace", "")),
    )
    return report


def layout_by_branches(mesh, which, k):
    """The dof layout of one space by per-space branches: families,
    offsets, width and start per entity kind, dim, and group_dofs(group),
    the global dofs each entity of a group reads in local order. The
    vertex family is the value, a degree-k scalar on a point; vertex and
    edge offsets are [0, width], or [0] on a kind with no family."""
    if which == "grad":
        vertex_width, edge_width = 1, dim_P(k - 1, 1)
        face = cell = (("scalar", k - 1),)
    elif which == "curl":
        vertex_width, edge_width = 0, dim_P(k, 1)
        face = cell = (("curl_image", k - 1), ("curl_complement", k))
    elif which == "div":
        vertex_width, edge_width = 0, 0
        face = (("scalar", k),)
        cell = (("grad_image", k - 1), ("grad_complement", k))
    else:
        vertex_width, edge_width = 0, 0
        face, cell = (), (("scalar", k),)

    def block_dim(fam, l, d):
        return dim_P(l, d) if fam == "scalar" else space_dim(fam, l, d)

    face_dims = [block_dim(f, l, 2) for f, l in face]
    cell_dims = [block_dim(f, l, 3) for f, l in cell]
    edge = (("scalar", k - 1 if which == "grad" else k),)
    families = {"vertex": (("scalar", k),) if which == "grad" else (),
                "edge": edge if which in ("grad", "curl") else (),
                "face": face, "cell": cell}
    offsets = {"vertex": [0, vertex_width][:1 + len(families["vertex"])],
               "edge": [0, edge_width][:1 + len(families["edge"])],
               "face": [0] + list(itertools.accumulate(face_dims)),
               "cell": [0] + list(itertools.accumulate(cell_dims))}
    width = {"vertex": vertex_width, "edge": edge_width,
             "face": sum(face_dims), "cell": sum(cell_dims)}
    start = {"vertex": 0}
    start["edge"] = mesh.num_vertices * width["vertex"]
    start["face"] = start["edge"] + mesh.num_edges * width["edge"]
    start["cell"] = start["face"] + mesh.num_faces * width["face"]
    dim = start["cell"] + mesh.num_cells * width["cell"]

    def blocks(kind, ents):
        w = width[kind]
        out = start[kind] + ents[..., None] * w + np.arange(w)
        return out.reshape(len(ents), -1)

    def group_dofs(group):
        kind = group.kind
        parts = [("vertex", group.vertices)]
        if kind in ("face", "cell"):
            parts.append(("edge", group.edges))
        if kind == "cell":
            parts.append(("face", group.faces))
        own = [(p, ents) for p, ents in parts if width[p]]
        own.append((kind, group.ids[:, None]))
        return np.concatenate([blocks(p, ents) for p, ents in own], axis=1)

    return SimpleNamespace(families=families, offsets=offsets, width=width,
                           start=start, dim=dim, group_dofs=group_dofs)


def monomials_full_map(core, pts, n, sel=None):
    """The first n scaled monomials of a core at stacked points, (G, n,
    npts), as the package tabulated them before it skipped work: every
    request maps the points to local coordinates through the transposed
    frame view and builds the power table from there, even for n <= 1."""
    x0, frame, h = core.x0, core.frame, core.h
    if sel is not None:
        x0, frame, h = x0[sel], frame[sel], h[sel]
    xi = ((pts - x0[:, None, :]) @ frame.transpose(0, 2, 1)) / h[:, None, None]
    xi = xi.transpose(0, 2, 1)
    exps = core.exps[:n]
    top = int(exps[-1].sum()) if n else 0  # graded order
    P = np.empty((top + 1,) + xi.shape)
    P[0] = 1.0
    for e in range(top):
        np.multiply(P[e], xi, out=P[e + 1])
    out = P[exps[:, 0], :, 0]
    for a in range(1, core.d):
        out *= P[exps[:, a], :, a]
    return out.transpose(1, 0, 2)


def graph_norms_by_assembly(space_curl, space_div, space_l2, H, A, mu=None):
    """Graph norms of the columns of H (field dofs, m columns) and A (flux
    dofs), two (m,) arrays, from the assembled matrices: the field
    product (weighted by mu) and the flux product by assemble_product, the
    curl and divergence by global_operator."""
    H, A = (np.reshape(v, (len(v), -1)) for v in (H, A))
    Mc = assemble_product(space_curl, coeff=mu)
    Md = assemble_product(space_div)
    ch = global_operator(space_curl, space_div) @ H
    dv = global_operator(space_div, space_l2) @ A
    field_sq = np.sum(H * (Mc @ H), axis=0) + np.sum(ch * (Md @ ch), axis=0)
    flux_sq = np.sum(A * (Md @ A), axis=0) + np.sum(dv * dv, axis=0)
    return np.sqrt(field_sq), np.sqrt(flux_sq)


def component_norm_by_assembly(space, v):
    """Component norm of a dof vector from the assembled component Gram."""
    return np.sqrt(v @ (_assemble(space, component_gram) @ v))
