"""Exact integration of polynomials over mesh entities.

Edges get Gauss-Legendre rules. Faces and cells are cut into the simplicial
fans anchored at their star points (already validated by the mesh), and each
simplex carries a collapsed Gauss-Jacobi product rule: the Duffy map sends a
cube onto the simplex and its polynomial Jacobian is absorbed into Jacobi
weights, so the rule is exact for the requested total degree by construction
and all weights stay positive. Slightly more points than tabulated symmetric
rules, but any degree is available without tables.

The reference rules on [0, 1], the triangle and the tetrahedron are computed
once per degree and cached as read-only arrays; each entity rule maps them
onto its own fan.
"""

import functools

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

__all__ = ["QuadRule", "entity_rule", "integrate"]


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class QuadRule:
    """Points, weights, and the guaranteed polynomial exactness degree."""

    __slots__ = ("points", "weights", "exactness_degree")

    def __init__(self, points, weights, exactness_degree):
        self.points, self.weights = _frozen(points, weights)
        self.exactness_degree = exactness_degree

    def __len__(self):
        return len(self.weights)


@functools.cache
def _gauss01(n):
    # Gauss-Legendre on [0, 1]
    x, w = roots_legendre(n)
    return _frozen(0.5 * (x + 1.0), 0.5 * w)


def _jacobi01(n, alpha):
    # nodes/weights for integral over [0,1] with weight (1-s)^alpha
    x, w = roots_jacobi(n, alpha, 0.0)
    return 0.5 * (x + 1.0), w / 2.0 ** (alpha + 1)


@functools.cache
def _triangle_ref(degree):
    """Rule for f -> int over {a,b>=0, a+b<=1} f(a,b), exact to `degree`."""
    n = max(1, (degree + 2) // 2)
    s, ws = _jacobi01(n, 1.0)
    t, wt = _gauss01(n)
    S, T = np.meshgrid(s, t, indexing="ij")
    A = S
    B = T * (1.0 - S)
    W = np.outer(ws, wt)
    return _frozen(np.column_stack([A.ravel(), B.ravel()]), W.ravel())


@functools.cache
def _tet_ref(degree):
    """Rule for the reference tetrahedron {a,b,c>=0, a+b+c<=1}."""
    n = max(1, (degree + 2) // 2)
    s, ws = _jacobi01(n, 2.0)
    t, wt = _jacobi01(n, 1.0)
    u, wu = _gauss01(n)
    S, T, U = np.meshgrid(s, t, u, indexing="ij")
    A = S
    B = T * (1.0 - S)
    C = U * (1.0 - S) * (1.0 - T)
    W = ws[:, None, None] * wt[None, :, None] * wu[None, None, :]
    pts = np.column_stack([A.ravel(), B.ravel(), C.ravel()])
    return _frozen(pts, W.ravel())


def edge_rule(mesh, e, degree):
    n = max(1, (degree + 2) // 2)
    x, w = _gauss01(n)
    v0 = mesh.vertices[mesh.edges[e, 0]]
    v1 = mesh.vertices[mesh.edges[e, 1]]
    pts = v0[None, :] + x[:, None] * (v1 - v0)[None, :]
    return QuadRule(pts, w * mesh.edge_lengths[e], degree)


def face_rule(mesh, f, degree):
    ref, wref = _triangle_ref(degree)
    tris = mesh.face_fans[f]
    p0 = tris[:, 0]
    d1 = tris[:, 1] - tris[:, 0]
    d2 = tris[:, 2] - tris[:, 0]
    pts = (
        p0[:, None, :]
        + ref[None, :, 0, None] * d1[:, None, :]
        + ref[None, :, 1, None] * d2[:, None, :]
    )
    wts = mesh.face_fan_area2[f][:, None] * wref[None, :]
    return QuadRule(pts.reshape(-1, 3), wts.ravel(), degree)


def cell_rule(mesh, c, degree):
    ref, wref = _tet_ref(degree)
    tets = mesh.cell_fans[c]
    p0 = tets[:, 0]
    d = tets[:, 1:] - tets[:, :1]
    pts = p0[:, None, :] + ref @ d
    wts = mesh.cell_fan_vol6[c][:, None] * wref[None, :]
    return QuadRule(pts.reshape(-1, 3), wts.ravel(), degree)


def entity_rule(mesh, kind, index, degree):
    """Quadrature rule over one entity, exact for polynomials of `degree`.

    kind is "edge", "face", or "cell"; index is the entity id in the mesh.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if kind == "edge":
        return edge_rule(mesh, index, degree)
    if kind == "face":
        return face_rule(mesh, index, degree)
    if kind == "cell":
        return cell_rule(mesh, index, degree)
    raise ValueError(f"unknown entity kind {kind!r}")


def integrate(rule, f):
    """Integrate a pointwise-evaluable scalar field with the given rule."""
    vals = f(rule.points)
    return float(rule.weights @ np.asarray(vals, dtype=float))
