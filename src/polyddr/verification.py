"""Executable checks for the structural properties of the discrete
complex: composition and exactness, commutation with interpolation,
polynomial consistency of the reconstructions, trimmed-space trace and
recovery identities, convergence rates of the primal consistency errors,
decay of the adjoint consistency functionals, and discrete Poincaré
constants.

Each check returns a CheckReport carrying the measured quantities, the
tolerances used, and per-entity failure notes. The checks iterate over
the complex: its four spaces on one bank in SPACES order
(_complex_spaces), the three differentials between consecutive ones
(_complex_operators), and one report name per differential (OPERATORS).
The two rate checks share one loop over the refinement levels
(_rate_study), which fits slopes on the finest consecutive pair of levels;
the primal one allows a 0.3 slack under the expected order, since
desk-scale meshes are pre-asymptotic.

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
    SPACES,
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
# The report name of each differential of the complex, in SPACES order.
OPERATORS = ("gradient", "curl", "divergence")


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


def _complex_spaces(mesh, k, bank=None):
    """The four degree-k spaces of the complex on one basis bank, in
    SPACES order."""
    bank = bank if bank is not None else BasisBank(mesh, k)
    return [make_space(mesh, which, k, bank=bank) for which in SPACES]


def _complex_operators(spaces):
    """The global differentials between consecutive spaces of the complex,
    in OPERATORS order."""
    return [global_operator(a, b) for a, b in zip(spaces, spaces[1:])]


def check_complex(mesh, k, bank=None):
    """Compositions vanish; the scalar kernel is the interpolated
    constants; rank identities of an exact sequence on a contractible
    domain (dense stage skipped above the size limit)."""
    report = CheckReport(f"complex(k={k})")
    spaces = _complex_spaces(mesh, k, bank)
    ops = _complex_operators(spaces)
    for key, first, then in zip(("curl_of_gradient_max", "div_of_curl_max"),
                                ops, ops[1:]):
        comp = then @ first
        report.gate_below(key, np.abs(comp).max() if comp.nnz else 0.0, 1e-10)

    ones = interpolate(spaces[0], lambda pts: np.ones(len(pts))).values
    resid = np.abs(ops[0] @ ones).max() / max(np.abs(ones).max(), 1e-30)
    report.gate_below("gradient_of_constant_rel", resid, 1e-10)

    total = sum(s.dim for s in spaces)
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

    ranks = [rank(op) for op in ops]
    for name, r in zip(OPERATORS, ranks):
        report.record(f"rank_{name}", r)
    report.gate_equal(
        "nullity_gradient", spaces[0].dim - ranks[0], 1, "kernel must be the constants"
    )
    for name, after, r, space, r_after in zip(OPERATORS, OPERATORS[1:], ranks,
                                              spaces[1:], ranks[1:]):
        report.gate_equal(f"rank_{name}_vs_nullity_{after}", r, space.dim - r_after)
    report.gate_equal("rank_divergence_vs_moment_dim", ranks[-1], spaces[-1].dim)
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
    spaces = _complex_spaces(mesh, k, bank)
    if degree is None:
        degree = 2 * k + 8 + max(0, math.ceil(10 * (mesh.h - 0.5)))
    report.record("quadrature_degree", degree)
    rng = np.random.default_rng(seed)
    q = TrigScalar.random(rng)
    v = TrigVector.random(rng)
    w = TrigVector.random(rng)
    # each differential's field and its derivative, the six in one pass
    # over the data rules
    dofs = interpolate(
        tuple(s for pair in zip(spaces, spaces[1:]) for s in pair),
        (q.eval, q.grad().eval, v.eval, v.curl().eval, w.eval, w.div().eval),
        degree=degree)
    for name, op, v_in, v_out in zip(OPERATORS, _complex_operators(spaces),
                                     dofs[::2], dofs[1::2]):
        right = v_out.values
        rel = np.abs(op @ v_in.values - right).max() / max(np.abs(right).max(), 1e-30)
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
    spaces = dict(zip(SPACES, _complex_spaces(mesh, k, bank)[:3]))
    bank = spaces["grad"].bank
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


def _pair_slope(hs, errs):
    """Slope fitted on the finest consecutive pair; infinite when the
    finer error underflows to zero."""
    e0, e1 = errs[-2], errs[-1]
    if e1 <= 0:
        return np.inf
    return float(np.log(e0 / e1) / np.log(hs[-2] / hs[-1]))


def _rate_study(report, family, k, levels, measure, least, suffix):
    """Fill report with the rates of the series that measure(spaces) gives
    on the complex of each level of the mesh family: per key of its dict,
    the values (recorded as key_suffix) and the slope on the finest pair,
    gated at no less than least[key]."""
    if len(levels) < 2:
        raise ValueError(f"a rate needs at least two levels, got {tuple(levels)}")
    hs, series = [], {}
    for n in levels:
        mesh = mesh_family(family)(n)
        for key, value in measure(_complex_spaces(mesh, k)).items():
            series.setdefault(key, []).append(value)
        hs.append(mesh.h)
    for key, values in series.items():
        report.record(f"{key}_{suffix}", [float(e) for e in values])
        report.gate_at_least(f"{key}_slope", _pair_slope(hs, values), least[key],
                             context=f"levels {tuple(levels)}")
    return report


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
    report = CheckReport(f"primal_consistency({family},k={k})")
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

    def measure(spaces):
        sg, sc, sd, _ = spaces
        vg, vc, vd = (d.values for d in interpolate((sg, sc, sd),
                                                    (q.eval, v.eval, w.eval)))
        sq = (
            _l2_error_sq(sg, op_potential, vg, q.eval),
            _l2_error_sq(sc, op_potential, vc, v.eval),
            _l2_error_sq(sd, op_potential, vd, w.eval),
            _l2_error_sq(sc, op_curl_cell, vc, v.curl().eval),
            _l2_error_sq(sd, op_div_cell, vd, w.div().eval),
            _stabilization_sq(sg, vg),
            _stabilization_sq(sc, vc),
            _stabilization_sq(sd, vd),
        )
        return {key: np.sqrt(value) for key, value in zip(expected, sq)}

    return _rate_study(report, family, k, levels, measure,
                       {key: p - SLOPE_SLACK for key, p in expected.items()},
                       "errors")


def _bubbled(field, derivative, pair):
    """The field times the cube bubble b = x(1-x)y(1-y)z(1-z), and the
    derivative of that product by the product rule: pair(grad b, field)
    + b derivative."""

    def times_b(values, pts):
        return (_bubble_weight(pts) * values.T).T

    return (lambda pts: times_b(field.eval(pts), pts),
            lambda pts: pair(_bubble_grad(pts), field.eval(pts))
            + times_b(derivative.eval(pts), pts))


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
    report = CheckReport(f"adjoint_decay({family},k={k})")
    rng = np.random.default_rng(seed)
    disc_scalar = TrigScalar.random(rng)
    disc_vec = TrigVector.random(rng)
    smooth_v = TrigVector.random(rng)
    smooth_w = TrigVector.random(rng)
    smooth_q = TrigScalar.random(rng)
    v_eval, v_div = _bubbled(smooth_v, smooth_v.div(),
                             lambda g, f: np.einsum("px,px->p", g, f))
    w_eval, w_curl = _bubbled(smooth_w, smooth_w.curl(), np.cross)
    q_eval, q_grad = _bubbled(smooth_q, smooth_q.grad(),
                              lambda g, f: g * f[:, None])
    keys = [f"adjoint_{name}" for name in OPERATORS]

    def measure(spaces):
        sg, sc, sd, sl = spaces
        uG, uC, D = _complex_operators(spaces)
        Mc = assemble_product(sc)
        Md = assemble_product(sd)
        q_dofs, v_int, v_dofs, w_int, vd_dofs, q_moments = (
            d.values for d in interpolate(
                (sg, sc, sc, sd, sd, sl),
                (disc_scalar.eval, v_eval, disc_vec.eval, w_eval,
                 disc_vec.eval, q_eval)))

        gq = uG @ q_dofs
        total = float(v_int @ (Mc @ gq))
        total += float(q_dofs @ load_vector(sg, v_div))
        gradient = abs(total) / np.sqrt(float(gq @ (Mc @ gq)))

        cv = uC @ v_dofs
        total = float(w_int @ (Md @ cv))
        total -= float(v_dofs @ load_vector(sc, w_curl))
        denom = np.sqrt(float(v_dofs @ (Mc @ v_dofs))) + np.sqrt(
            float(cv @ (Md @ cv))
        )
        curl = abs(total) / denom

        total = float(q_moments @ (D @ vd_dofs))
        total += float(vd_dofs @ load_vector(sd, q_grad))
        divergence = abs(total) / np.sqrt(float(vd_dofs @ (Md @ vd_dofs)))
        return dict(zip(keys, (gradient, curl, divergence)))

    return _rate_study(report, family, k, levels, measure,
                       dict.fromkeys(keys, k + 0.7), "values")


# ----------------------------------------------------------------------
# Poincaré constants


def _poincare_constants(mesh, k, bank=None):
    spaces = _complex_spaces(mesh, k, bank)
    total = sum(s.dim for s in spaces)
    if total > DENSE_DOF_LIMIT:
        raise ValueError(
            f"{total} dofs exceed the dense eigensolve limit {DENSE_DOF_LIMIT}"
        )
    ops = [op.toarray() for op in _complex_operators(spaces)]
    grams = [_assemble(s, component_gram).toarray() for s in spaces[:3]]
    constants = []
    for op, G_in, G_out in zip(ops, grams, grams[1:] + [np.eye(spaces[3].dim)]):
        if not constants:
            # scalar space: mean of the potential vanishes
            ell = load_vector(spaces[0], lambda pts: np.ones(len(pts)))
            Z = la.null_space(ell[None, :])
        else:
            # restrict to the orthogonal complement of the kernel in the
            # component inner product, where the operator is injective
            _, S, Vt = la.svd(op)
            kernel = Vt[int(np.sum(S > RANK_TOL * max(S[0], 1e-300))):].T
            Z = (la.null_space(kernel.T @ G_in) if kernel.shape[1]
                 else np.eye(op.shape[1]))
        num = Z.T @ G_in @ Z
        den = Z.T @ (op.T @ G_out @ op) @ Z
        constants.append(np.sqrt(la.eigvalsh(num, den).max()))
    return tuple(constants)


def check_poincare(mesh, k, refined=None):
    """Discrete Poincaré constants for the three operators, computed as
    generalized eigenvalue maxima over the constrained subspaces; bounded
    by a harness constant and stable under one refinement when a refined
    mesh is supplied."""
    report = CheckReport(f"poincare(k={k})")
    try:
        constants = _poincare_constants(mesh, k)
    except ValueError as exc:
        report.passed = False
        report.failures.append(str(exc))
        return report
    for name, c in zip(OPERATORS, constants):
        report.gate_below(f"poincare_{name}", c, POINCARE_BOUND)
    if refined is not None:
        try:
            finer = _poincare_constants(refined, k)
        except ValueError as exc:
            report.passed = False
            report.failures.append(f"refined mesh: {exc}")
            return report
        for name, c, r in zip(OPERATORS, constants, finer):
            report.record(f"poincare_{name}_refined", r)
            report.gate_below(f"poincare_{name}_ratio", r / c, POINCARE_RATIO)
    return report
