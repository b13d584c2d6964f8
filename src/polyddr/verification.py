"""Executable checks for the structural properties of the discrete
complex: composition and exactness, commutation with interpolation,
polynomial consistency of the reconstructions, trimmed-space trace and
recovery identities, convergence rates of the primal consistency errors,
decay of the adjoint consistency functionals, and discrete Poincaré
constants.

Each check returns a CheckReport carrying the measured quantities, the
tolerances used, and per-entity failure notes. Rate checks fit slopes on
the finest consecutive pair of levels and allow a 0.3 slack under the
expected order, since desk-scale meshes are pre-asymptotic.

Whole-mesh sums run over cell groups on the library's stacks: the primal
L2 errors tabulate the group's polynomials at its data rule block by
block of cells, the stabilization seminorms sum the stacked forms, and
the smooth parts of the adjoint functionals and the Poincaré mean
constraint are load vectors (products.load_vector) paired with dof
vectors; the Poincaré constants' component Grams are scatters of the
stacked cell Grams (products.component_gram). Polynomial consistency
compares each cell group's stacked local operators with the stacked local
interpolation of their targets (ddrcore.local_interpolation), and the
trace checks run over the (cell, face) and (cell, edge) pairs of each cell
group. Both pair polynomials on sub-entities in coefficient space, through
the trace tables (ddrcore._trace_coords), as the operators do: only
non-polynomial fields (the primal errors, the load vectors) and vertex
values are taken at points.
"""

import json
import math

import numpy as np
import scipy.linalg as la

from .mesh import generate_cubic_mesh, generate_tet_mesh, agglomerate_pairs
from .polyspaces import BasisBank, _cross_matrix, dim_P, recovery
from .ddrcore import (
    _boundary_parts,
    _trace_coords,
    make_space,
    interpolate,
    local_interpolation,
    op_potential,
    op_tangential_trace,
    op_curl_cell,
    op_div_cell,
    global_operator,
    INTERP_DEGREE_MARGIN,
)
from .products import (_assemble, assemble_product, component_gram,
                       l2_product, load_vector, stabilization)

__all__ = [
    "CheckReport",
    "mesh_family",
    "check_complex",
    "check_commutation",
    "check_polynomial_consistency",
    "check_traces",
    "check_recovery",
    "check_primal_consistency",
    "check_adjoint_decay",
    "check_poincare",
]

DENSE_DOF_LIMIT = 3000
RANK_TOL = 1e-8
SLOPE_SLACK = 0.3
POINCARE_BOUND = 50.0
POINCARE_RATIO = 1.5


class CheckReport:
    """Outcome of one verification check: measured quantities, the
    tolerances they were held to, and failure notes naming the offending
    entity or level."""

    def __init__(self, name):
        self.name = name
        self.passed = True
        self.metrics = {}
        self.tolerances = {}
        self.failures = []
        self.notes = []

    def record(self, key, value):
        self.metrics[key] = value

    def _gate(self, key, value, tolerance, held, failure, context):
        self.metrics[key] = value
        self.tolerances[key] = tolerance
        if not held:
            self.passed = False
            self.failures.append(failure + (f" ({context})" if context else ""))

    def gate_below(self, key, value, tol, context=""):
        self._gate(key, value, f"< {tol:g}", value < tol,
                   f"{key} = {value:.6g} not below {tol:g}", context)

    def gate_at_least(self, key, value, bound, context=""):
        self._gate(key, value, f">= {bound:g}", value >= bound,
                   f"{key} = {value:.6g} below {bound:g}", context)

    def gate_equal(self, key, value, expected, context=""):
        self._gate(key, value, f"== {expected}", value == expected,
                   f"{key} = {value} != {expected}", context)

    @property
    def status(self):
        return "pass" if self.passed else "FAIL"

    def lines(self):
        out = [f"[{self.status}] {self.name}"]
        for key in sorted(self.metrics):
            val = self.metrics[key]
            tol = self.tolerances.get(key, "")
            if isinstance(val, float):
                out.append(f"  {key} = {val:.6g}" + (f"  (tol {tol})" if tol else ""))
            else:
                out.append(f"  {key} = {val}" + (f"  (tol {tol})" if tol else ""))
        for note in self.notes:
            out.append(f"  note: {note}")
        for fail in self.failures:
            out.append(f"  FAIL: {fail}")
        return out

    def to_json(self):
        return json.dumps(
            {
                "name": self.name,
                "status": self.status,
                "metrics": self.metrics,
                "tolerances": self.tolerances,
                "failures": self.failures,
                "notes": self.notes,
            },
            sort_keys=True,
        )


def mesh_family(name):
    """Mesh builder for a named refinement family."""
    if name == "cubic":
        return generate_cubic_mesh
    if name == "tet":
        return generate_tet_mesh
    if name == "agglo":
        return lambda n, seed=0: agglomerate_pairs(generate_cubic_mesh(n), seed=seed)
    raise ValueError(f"unknown mesh family {name!r}")


# ----------------------------------------------------------------------
# smooth trigonometric fields with analytic derivatives


class TrigScalar:
    """Linear combination of separable sine/cosine products, closed
    under partial differentiation."""

    def __init__(self, terms):
        self.terms = terms  # list of (coeff, (b_x, b_y, b_z)), 0=sin 1=cos

    @classmethod
    def random(cls, rng, nterms=3):
        terms = []
        for _ in range(nterms):
            flags = tuple(int(b) for b in rng.integers(0, 2, size=3))
            terms.append((float(rng.standard_normal()), flags))
        return cls(terms)

    def eval(self, pts):
        out = np.zeros(len(pts))
        for c, flags in self.terms:
            val = np.full(len(pts), c)
            for axis, b in enumerate(flags):
                arg = np.pi * pts[:, axis]
                val = val * (np.cos(arg) if b else np.sin(arg))
            out += val
        return out

    def diff(self, axis):
        terms = []
        for c, flags in self.terms:
            b = flags[axis]
            new = list(flags)
            new[axis] = 1 - b
            sign = -1.0 if b else 1.0
            terms.append((c * np.pi * sign, tuple(new)))
        return TrigScalar(terms)

    def grad(self):
        return TrigVector([self.diff(a) for a in range(3)])


class TrigVector:
    def __init__(self, comps):
        self.comps = comps

    @classmethod
    def random(cls, rng, nterms=3):
        return cls([TrigScalar.random(rng, nterms) for _ in range(3)])

    def eval(self, pts):
        return np.column_stack([c.eval(pts) for c in self.comps])

    def div(self):
        return TrigScalar(
            sum((self.comps[a].diff(a).terms for a in range(3)), [])
        )

    def curl(self):
        cx, cy, cz = self.comps
        return TrigVector(
            [
                TrigScalar(cz.diff(1).terms + _neg(cy.diff(2)).terms),
                TrigScalar(cx.diff(2).terms + _neg(cz.diff(0)).terms),
                TrigScalar(cy.diff(0).terms + _neg(cx.diff(1)).terms),
            ]
        )


def _neg(ts):
    return TrigScalar([(-c, flags) for c, flags in ts.terms])


# ----------------------------------------------------------------------
# complex and exactness


def check_complex(mesh, k, bank=None):
    """Compositions vanish; the scalar kernel is the interpolated
    constants; rank identities of an exact sequence on a contractible
    domain (dense stage skipped above the size limit)."""
    report = CheckReport(f"complex(k={k})")
    bank = bank if bank is not None else BasisBank(mesh, k)
    spaces = {
        w: make_space(mesh, w, k, bank=bank) for w in ("grad", "curl", "div", "l2")
    }
    uG = global_operator(spaces["grad"], spaces["curl"])
    uC = global_operator(spaces["curl"], spaces["div"])
    D = global_operator(spaces["div"], spaces["l2"])

    comp1 = uC @ uG
    comp2 = D @ uC
    report.gate_below(
        "curl_of_gradient_max", np.abs(comp1).max() if comp1.nnz else 0.0, 1e-10
    )
    report.gate_below(
        "div_of_curl_max", np.abs(comp2).max() if comp2.nnz else 0.0, 1e-10
    )

    ones = interpolate(spaces["grad"], lambda pts: np.ones(len(pts))).values
    resid = np.abs(uG @ ones).max() / max(np.abs(ones).max(), 1e-30)
    report.gate_below("gradient_of_constant_rel", resid, 1e-10)

    total = sum(s.dim for s in spaces.values())
    report.record("total_dofs", total)
    if total > DENSE_DOF_LIMIT:
        report.notes.append(
            f"rank stage skipped: {total} dofs exceed the dense limit {DENSE_DOF_LIMIT}"
        )
        return report

    def rank(mat):
        dense = mat.toarray()
        if min(dense.shape) == 0:
            return 0
        sv = la.svdvals(dense)
        return int(np.sum(sv > RANK_TOL * max(sv[0], 1e-300)))

    r_g, r_c, r_d = rank(uG), rank(uC), rank(D)
    report.record("rank_gradient", r_g)
    report.record("rank_curl", r_c)
    report.record("rank_divergence", r_d)
    report.gate_equal(
        "nullity_gradient", spaces["grad"].dim - r_g, 1, "kernel must be the constants"
    )
    report.gate_equal(
        "rank_gradient_vs_nullity_curl", r_g, spaces["curl"].dim - r_c
    )
    report.gate_equal(
        "rank_curl_vs_nullity_divergence", r_c, spaces["div"].dim - r_d
    )
    report.gate_equal("rank_divergence_vs_moment_dim", r_d, spaces["l2"].dim)
    return report


# ----------------------------------------------------------------------
# commutation


def check_commutation(mesh, k, seed=0, degree=None, bank=None):
    """Interpolate-then-differentiate equals differentiate-then-
    interpolate on random smooth trigonometric fields. Interpolation
    moments use an elevated quadrature degree so that the residual
    reflects the identity rather than quadrature error; the default
    elevation grows with the mesh size because the collapsed simplex
    rules need more points to resolve the trigonometric oracle on
    coarse cells."""
    report = CheckReport(f"commutation(k={k})")
    bank = bank if bank is not None else BasisBank(mesh, k)
    spaces = {
        w: make_space(mesh, w, k, bank=bank) for w in ("grad", "curl", "div", "l2")
    }
    if degree is None:
        degree = 2 * k + 8 + max(0, math.ceil(10 * (mesh.h - 0.5)))
    report.record("quadrature_degree", degree)
    rng = np.random.default_rng(seed)
    q = TrigScalar.random(rng)
    v = TrigVector.random(rng)
    w = TrigVector.random(rng)

    pairs = [
        (
            "gradient",
            spaces["grad"],
            spaces["curl"],
            lambda pts: q.eval(pts),
            lambda pts: q.grad().eval(pts),
        ),
        (
            "curl",
            spaces["curl"],
            spaces["div"],
            lambda pts: v.eval(pts),
            lambda pts: v.curl().eval(pts),
        ),
        (
            "divergence",
            spaces["div"],
            spaces["l2"],
            lambda pts: w.eval(pts),
            lambda pts: w.div().eval(pts),
        ),
    ]
    # the six fields in one pass over the data rules
    dofs = interpolate(tuple(s for p in pairs for s in p[1:3]),
                       tuple(fn for p in pairs for fn in p[3:]), degree=degree)
    for (name, s_in, s_out, _, _), v_in, v_out in zip(pairs, dofs[::2],
                                                      dofs[1::2]):
        left = global_operator(s_in, s_out) @ v_in.values
        right = v_out.values
        rel = np.abs(left - right).max() / max(np.abs(right).max(), 1e-30)
        report.gate_below(f"commutation_{name}_rel", rel, 1e-8)
    return report


# ----------------------------------------------------------------------
# polynomial consistency


def _mismatch(A, B):
    """Largest absolute entry of A - B per matrix of a stack, relative to
    the largest of B."""
    return np.abs(A - B).max(axis=(1, 2)) / np.maximum(
        np.abs(B).max(axis=(1, 2)), 1e-30)


def check_polynomial_consistency(mesh, k, seed=0, bank=None):
    """Potentials invert local interpolation on their target spaces; the
    flux potential and tangential face trace reduce to plain projections
    on the richer trimmed spaces; stabilizations vanish on interpolates.
    All identities are checked as matrices stacked over cell groups (face
    traces per face position); a failure names the worst cell or face."""
    report = CheckReport(f"polynomial_consistency(k={k})")
    bank = bank if bank is not None else BasisBank(mesh, k)
    spaces = {w: make_space(mesh, w, k, bank=bank) for w in ("grad", "curl", "div")}
    nc, width = mesh.num_cells, max(g.faces.shape[1] for g in bank.groups("cell"))
    # a row per cell over its face positions or spaces, so argmax meets cells in order
    resid = {key: np.zeros((nc, n)) for key, n in (
        ("scalar_potential", 1), ("field_potential", 1),
        ("flux_potential_trimmed", 1), ("tangential_trace_trimmed", width),
        ("stabilization_on_interpolates", len(spaces)))}
    dims = [dim_P(k + 1, 3), 3 * dim_P(k, 3), 3 * dim_P(k, 3)]  # of the potentials
    draws = np.random.default_rng(seed).standard_normal((nc, sum(dims)))
    draws = np.split(draws, np.cumsum(dims)[:-1], axis=1)

    for group in bank.groups("cell"):
        ids = group.ids
        pots = {w: op_potential(s, group) for w, s in spaces.items()}
        J = {w: local_interpolation(spaces[w], group, pots[w].target) for w in spaces}
        for which, key in (("grad", "scalar_potential"), ("curl", "field_potential")):
            resid[key][ids, 0] = _mismatch(pots[which].matrix @ J[which],
                                           np.eye(J[which].shape[2])[None])
        rt = bank.group_basis(group, "raviart_thomas", k + 1)
        resid["flux_potential_trimmed"][ids, 0] = _mismatch(
            pots["div"].matrix @ local_interpolation(spaces["div"], group, rt),
            rt._Ws[:, :, : dims[2]].transpose(0, 2, 1))

        space = spaces["curl"]
        ne = bank.group_basis(group, "nedelec", k + 1)
        for p, (_, sub, slots, _, n) in enumerate(_boundary_parts(space, group)):
            tr = op_tangential_trace(space, sub)
            V, W = _trace_coords(ne, tr.target, slots, bank.group_rule(sub),
                                 "tangential trace consistency", n,
                                 np.eye(3) - n[:, :, None] * n[:, None, :])
            G = len(V)
            proj = W.reshape(G, W.shape[1], -1) @ V.reshape(G, ne.dim, -1).transpose(0, 2, 1)
            resid["tangential_trace_trimmed"][ids, p] = _mismatch(
                tr.matrix[slots] @ local_interpolation(space, sub, ne, slots), proj)

        for j, (which, space) in enumerate(spaces.items()):
            v = (J[which] @ draws[j][ids, :, None])[..., 0]
            s = stabilization(space, group).matrix
            m = l2_product(space, group).matrix
            resid["stabilization_on_interpolates"][ids, j] = np.abs(
                np.einsum("gi,gij,gj->g", v, s, v)) / np.maximum(
                np.einsum("gi,gij,gj->g", v, m, v), 1e-30)

    names = {"tangential_trace_trimmed": lambda c, p: ("face", int(mesh.cells[c][p])),
             "stabilization_on_interpolates": lambda c, p: ("cell", c, list(spaces)[p])}
    for key, values in resid.items():
        c, p = np.unravel_index(np.argmax(values), values.shape)
        worst = float(values[c, p])
        entity = names.get(key, lambda c, p: ("cell", c))(int(c), int(p))
        report.gate_below(key, worst, 1e-9, context="" if worst <= 0 else str(entity))
    return report


# ----------------------------------------------------------------------
# trimmed-space traces and recovery


def check_traces(mesh, max_degree=3):
    """Face and edge traces of trimmed-space fields land in the expected
    lower-dimensional polynomial spaces, on every (cell, face) and (cell,
    edge) pair.

    Traces are orthonormal coordinates on the face or edge, taken in
    coefficient space at each boundary position of each cell group
    (ddrcore._trace_coords), exact for every member. For degree l the
    normal trace of the cell Raviart-Thomas space and the tangential edge
    trace of the cell Nedelec space must lie in the degree-(l-1) scalars,
    and the rotated face trace v x n of the Nedelec space in the face
    Raviart-Thomas space: each residual is the norm of the coordinates
    outside that span (an orthonormal basis of it by a QR), relative to
    the norm of the whole trace, as Frobenius norms over all members, and
    names the worst (entity, l)."""
    report = CheckReport(f"traces(max_degree={max_degree})")
    bank = BasisBank(mesh, max_degree)
    keys = ("face_rotated_trace", "face_normal_trace", "edge_tangential_trace")
    worst, offender = dict.fromkeys(keys, 0.0), {}
    for group in bank.groups("cell"):
        for kind, parts in (("face", group.faces), ("edge", group.edges)):
            for ents in parts.T:
                sub, slots = bank.locate(kind, ents)
                rule = bank.group_rule(sub)
                if kind == "face":
                    n = mesh.face_normals[ents]
                    checks = (("face_normal_trace", "raviart_thomas", "scalar", n, None),
                              ("face_rotated_trace", "nedelec", "raviart_thomas",
                               None, _cross_matrix(n)))
                else:
                    checks = (("edge_tangential_trace", "nedelec", "scalar",
                               mesh.edge_tangents[ents], None),)
                for l in range(1, max_degree + 1):
                    for key, family, target, to_scalar, to_vector in checks:
                        tgt = bank.group_basis(sub, target, l)
                        V, W = _trace_coords(bank.group_basis(group, family, l), tgt,
                                             slots, rule, "trace check", to_scalar,
                                             to_vector, norm=True)
                        if target == "scalar":
                            W = W[:, : dim_P(l - 1, tgt._core.d)]
                        Q = np.linalg.qr(W.reshape(len(W), W.shape[1], -1)
                                         .transpose(0, 2, 1))[0]
                        V = V.reshape(len(V), V.shape[1], -1)
                        resid = np.linalg.norm(
                            V - V @ Q @ Q.transpose(0, 2, 1), axis=(1, 2)
                        ) / np.maximum(np.linalg.norm(V, axis=(1, 2)), 1e-30)
                        g = int(np.argmax(resid))
                        if resid[g] > worst[key]:
                            worst[key] = float(resid[g])
                            offender[key] = (int(ents[g]), l)
    for key in keys:
        report.gate_below(f"{key}_resid", worst[key], 1e-9,
                          context=str(offender.get(key, "")))
    return report


def check_recovery(mesh, max_degree=3, seed=0):
    """Reassembling a field from its two complementary projections
    reproduces it on every face and cell: one stacked recovery
    (polyspaces.recovery) per entity group, pair and degree. A dependent
    pair fails the report with an infinite residual, naming its entity,
    family, degree and condition number."""
    report = CheckReport(f"recovery(max_degree={max_degree})")
    bank = BasisBank(mesh, max_degree)
    rng = np.random.default_rng(seed)
    worst, offender = 0.0, None
    pairs = (("grad_image", "grad_complement"), ("curl_image", "curl_complement"))
    for kind in ("face", "cell"):
        for group in bank.groups(kind):
            for fam_s, fam_c in pairs:
                for l in range(1, max_degree + 1):
                    bs = bank.group_basis(group, fam_s, l)
                    bc = bank.group_basis(group, fam_c, l)
                    a = rng.standard_normal((len(group), bs.dim + bc.dim, 1))
                    back, cond = recovery(bs, bc, (bs._Ws @ a)[..., 0],
                                          (bc._Ws @ a)[..., 0])
                    resid = np.nan_to_num(
                        np.abs(back - a[..., 0]).max(axis=1)
                        / np.abs(a).max(axis=(1, 2)), nan=np.inf)
                    g = int(np.argmax(resid))
                    if resid[g] > worst:
                        worst = float(resid[g])
                        offender = (f"{(kind, int(group.ids[g]), fam_s, l)}, "
                                    f"condition number {cond[g]:.3e}")
    report.gate_below("recovery_resid", worst, 1e-9, context=offender or "")
    return report


# ----------------------------------------------------------------------
# rate checks


def _require_two_levels(levels):
    if len(levels) < 2:
        raise ValueError(f"a rate needs at least two levels, got {tuple(levels)}")


def _pair_slope(hs, errs):
    """Slope fitted on the finest consecutive pair; infinite when the
    finer error underflows to zero."""
    e0, e1 = errs[-2], errs[-1]
    if e1 <= 0:
        return np.inf
    return float(np.log(e0 / e1) / np.log(hs[-2] / hs[-1]))


def _l2_error_sq(space, op, dofs, f):
    """Squared L2 distance over the mesh between the cell polynomials of
    op (op_potential, op_curl_cell, ...) applied to the dof vector dofs and
    the field f, by the data rule of degree 2k + INTERP_DEGREE_MARGIN:
    stacked over cell groups and evaluated block by block of cells, each
    block on its own data rule (BasisBank.data_blocks). Each cell's
    integral is summed over its own points, and each group's cells once,
    so the value does not depend on where the blocks end."""
    bank = space.bank
    degree = 2 * space.k + INTERP_DEGREE_MARGIN
    total = 0.0
    for group in bank.groups("cell"):
        ops = op(space, group)
        u = (ops.matrix @ dofs[ops.dofs][..., None])[..., 0]
        cells = np.empty(len(group))
        for sl, rule in bank.data_blocks(group, degree):
            pts = rule.points
            diff = np.einsum("gm,gm...->g...", u[sl], ops.target.eval(pts, sl))
            diff -= np.asarray(f(pts.reshape(-1, 3))).reshape(diff.shape)
            sq = diff ** 2 if diff.ndim == 2 else np.sum(diff ** 2, axis=2)
            cells[sl] = np.sum(sq * rule.weights, axis=1)
        total += float(np.sum(cells))
    return total


def _stabilization_sq(space, dofs):
    """Sum over the cells of the stabilization seminorms of a dof vector,
    each clipped at zero against roundoff."""
    total = 0.0
    for group in space.bank.groups("cell"):
        form = stabilization(space, group)
        u = dofs[form.dofs]
        sq = np.einsum("gi,gij,gj->g", u, form.matrix, u)
        total += float(np.sum(np.maximum(sq, 0.0)))
    return total


def check_primal_consistency(family, k, levels, seed=0):
    """Approximation rates of the potentials, the cell operators, and
    the stabilization seminorms on interpolates of fixed smooth fields.

    The fields are seeded random trigonometric combinations; fixed
    closed-form choices tend to have parities that cancel exactly on
    uniform meshes and would make the measured rates meaningless."""
    _require_two_levels(levels)
    report = CheckReport(f"primal_consistency({family},k={k})")
    build = mesh_family(family)
    rng = np.random.default_rng(seed)
    q = TrigScalar.random(rng)
    v = TrigVector.random(rng)
    w = TrigVector.random(rng)

    expected = {
        "scalar_potential": k + 2,
        "field_potential": k + 1,
        "flux_potential": k + 1,
        "cell_curl": k + 1,
        "cell_divergence": k + 1,
        "stab_scalar": k + 2,
        "stab_field": k + 1,
        "stab_flux": k + 1,
    }
    hs = []
    errs = {key: [] for key in expected}
    for n in levels:
        mesh = build(n)
        bank = BasisBank(mesh, k)
        sg = make_space(mesh, "grad", k, bank=bank)
        sc = make_space(mesh, "curl", k, bank=bank)
        sd = make_space(mesh, "div", k, bank=bank)
        vg = interpolate(sg, q.eval).values
        vc = interpolate(sc, v.eval).values
        vd = interpolate(sd, w.eval).values

        sq = {
            "scalar_potential": _l2_error_sq(sg, op_potential, vg, q.eval),
            "field_potential": _l2_error_sq(sc, op_potential, vc, v.eval),
            "flux_potential": _l2_error_sq(sd, op_potential, vd, w.eval),
            "cell_curl": _l2_error_sq(sc, op_curl_cell, vc, v.curl().eval),
            "cell_divergence": _l2_error_sq(sd, op_div_cell, vd, w.div().eval),
            "stab_scalar": _stabilization_sq(sg, vg),
            "stab_field": _stabilization_sq(sc, vc),
            "stab_flux": _stabilization_sq(sd, vd),
        }
        hs.append(mesh.h)
        for key, value in sq.items():
            errs[key].append(np.sqrt(value))

    for key, series in errs.items():
        slope = _pair_slope(hs, series)
        report.record(f"{key}_errors", [float(e) for e in series])
        report.gate_at_least(
            f"{key}_slope", slope, expected[key] - SLOPE_SLACK,
            context=f"levels {tuple(levels)}",
        )
    return report


def _bubble_weight(pts):
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    return x * (1 - x) * y * (1 - y) * z * (1 - z)


def _bubble_grad(pts):
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    return np.column_stack(
        [
            (1 - 2 * x) * y * (1 - y) * z * (1 - z),
            x * (1 - x) * (1 - 2 * y) * z * (1 - z),
            x * (1 - x) * y * (1 - y) * (1 - 2 * z),
        ]
    )


def check_adjoint_decay(family, k, levels, seed=0):
    """Decay of the discrete integration-by-parts residuals against
    smooth fields with vanishing boundary traces, at fixed admissible
    discrete arguments, normalized by the estimate's right-hand norm.

    The smooth argument of each functional is a seeded random
    trigonometric field multiplied by the cube bubble
    x(1-x)y(1-y)z(1-z): the bubble removes the boundary term of the
    integration by parts, and the random factor avoids parity
    cancellations on uniform meshes.  The discrete argument is the
    interpolate of a plain random trigonometric field."""
    _require_two_levels(levels)
    report = CheckReport(f"adjoint_decay({family},k={k})")
    build = mesh_family(family)
    rng = np.random.default_rng(seed)
    disc_scalar = TrigScalar.random(rng)
    disc_vec = TrigVector.random(rng)
    smooth_v = TrigVector.random(rng)
    smooth_w = TrigVector.random(rng)
    smooth_q = TrigScalar.random(rng)
    smooth_v_div = smooth_v.div()
    smooth_w_curl = smooth_w.curl()
    smooth_q_grad = smooth_q.grad()

    def v_eval(pts):
        return _bubble_weight(pts)[:, None] * smooth_v.eval(pts)

    def v_div(pts):
        return np.einsum(
            "px,px->p", _bubble_grad(pts), smooth_v.eval(pts)
        ) + _bubble_weight(pts) * smooth_v_div.eval(pts)

    def w_eval(pts):
        return _bubble_weight(pts)[:, None] * smooth_w.eval(pts)

    def w_curl(pts):
        return (
            np.cross(_bubble_grad(pts), smooth_w.eval(pts))
            + _bubble_weight(pts)[:, None] * smooth_w_curl.eval(pts)
        )

    def q_eval(pts):
        return _bubble_weight(pts) * smooth_q.eval(pts)

    def q_grad(pts):
        return (
            _bubble_grad(pts) * smooth_q.eval(pts)[:, None]
            + _bubble_weight(pts)[:, None] * smooth_q_grad.eval(pts)
        )

    hs = []
    vals = {"gradient": [], "curl": [], "divergence": []}
    for n in levels:
        mesh = build(n)
        bank = BasisBank(mesh, k)
        sg = make_space(mesh, "grad", k, bank=bank)
        sc = make_space(mesh, "curl", k, bank=bank)
        sd = make_space(mesh, "div", k, bank=bank)
        sl = make_space(mesh, "l2", k, bank=bank)
        uG = global_operator(sg, sc)
        uC = global_operator(sc, sd)
        D = global_operator(sd, sl)
        Mc = assemble_product(sc)
        Md = assemble_product(sd)

        q_dofs = interpolate(sg, disc_scalar.eval).values
        gq = uG @ q_dofs
        v_int = interpolate(sc, v_eval).values
        total = float(v_int @ (Mc @ gq))
        total += float(q_dofs @ load_vector(sg, v_div))
        denom = np.sqrt(float(gq @ (Mc @ gq)))
        vals["gradient"].append(abs(total) / denom)

        v_dofs = interpolate(sc, disc_vec.eval).values
        cv = uC @ v_dofs
        w_int = interpolate(sd, w_eval).values
        total = float(w_int @ (Md @ cv))
        total -= float(v_dofs @ load_vector(sc, w_curl))
        denom = np.sqrt(float(v_dofs @ (Mc @ v_dofs))) + np.sqrt(
            float(cv @ (Md @ cv))
        )
        vals["curl"].append(abs(total) / denom)

        vd_dofs = interpolate(sd, disc_vec.eval).values
        q_moments = interpolate(sl, q_eval).values
        total = float(q_moments @ (D @ vd_dofs))
        total += float(vd_dofs @ load_vector(sd, q_grad))
        denom = np.sqrt(float(vd_dofs @ (Md @ vd_dofs)))
        vals["divergence"].append(abs(total) / denom)

        hs.append(mesh.h)

    for key, series in vals.items():
        slope = _pair_slope(hs, series)
        report.record(f"adjoint_{key}_values", [float(e) for e in series])
        report.gate_at_least(
            f"adjoint_{key}_slope", slope, k + 0.7,
            context=f"levels {tuple(levels)}",
        )
    return report


# ----------------------------------------------------------------------
# Poincaré constants


def _poincare_constants(mesh, k, bank=None):
    bank = bank if bank is not None else BasisBank(mesh, k)
    sg = make_space(mesh, "grad", k, bank=bank)
    sc = make_space(mesh, "curl", k, bank=bank)
    sd = make_space(mesh, "div", k, bank=bank)
    sl = make_space(mesh, "l2", k, bank=bank)
    total = sg.dim + sc.dim + sd.dim + sl.dim
    if total > DENSE_DOF_LIMIT:
        raise ValueError(
            f"{total} dofs exceed the dense eigensolve limit {DENSE_DOF_LIMIT}"
        )
    uG = global_operator(sg, sc).toarray()
    uC = global_operator(sc, sd).toarray()
    D = global_operator(sd, sl).toarray()
    Gg, Gc, Gd = (_assemble(s, component_gram).toarray() for s in (sg, sc, sd))

    # scalar space: mean of the potential vanishes
    ell = load_vector(sg, lambda pts: np.ones(len(pts)))
    Q = la.null_space(ell[None, :])
    num = Q.T @ Gg @ Q
    den = Q.T @ (uG.T @ Gc @ uG) @ Q
    c_grad = np.sqrt(la.eigvalsh(num, den).max())

    def complement_constant(op, G_in, G_out):
        # restrict to the orthogonal complement of the kernel in the
        # component inner product, where the operator is injective
        U, S, Vt = la.svd(op)
        r = int(np.sum(S > RANK_TOL * max(S[0], 1e-300)))
        kernel = Vt[r:].T
        if kernel.shape[1] == 0:
            Z = np.eye(op.shape[1])
        else:
            Z = la.null_space(kernel.T @ G_in)
        num = Z.T @ G_in @ Z
        den = Z.T @ (op.T @ G_out @ op) @ Z
        return np.sqrt(la.eigvalsh(num, den).max())

    c_curl = complement_constant(uC, Gc, Gd)
    c_div = complement_constant(D, Gd, np.eye(sl.dim))
    return c_grad, c_curl, c_div


def check_poincare(mesh, k, refined=None):
    """Discrete Poincaré constants for the three operators, computed as
    generalized eigenvalue maxima over the constrained subspaces; bounded
    by a harness constant and stable under one refinement when a refined
    mesh is supplied."""
    report = CheckReport(f"poincare(k={k})")
    try:
        cg, cc, cd = _poincare_constants(mesh, k)
    except ValueError as exc:
        report.passed = False
        report.failures.append(str(exc))
        return report
    report.gate_below("poincare_gradient", cg, POINCARE_BOUND)
    report.gate_below("poincare_curl", cc, POINCARE_BOUND)
    report.gate_below("poincare_divergence", cd, POINCARE_BOUND)
    if refined is not None:
        try:
            rg, rc, rd = _poincare_constants(refined, k)
        except ValueError as exc:
            report.passed = False
            report.failures.append(f"refined mesh: {exc}")
            return report
        report.record("poincare_gradient_refined", rg)
        report.record("poincare_curl_refined", rc)
        report.record("poincare_divergence_refined", rd)
        report.gate_below("poincare_gradient_ratio", rg / cg, POINCARE_RATIO)
        report.gate_below("poincare_curl_ratio", rc / cc, POINCARE_RATIO)
        report.gate_below("poincare_divergence_ratio", rd / cd, POINCARE_RATIO)
    return report
