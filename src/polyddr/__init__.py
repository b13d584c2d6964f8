"""Arbitrary-order discrete de Rham complexes on general polyhedral meshes.

The package builds, for a polyhedral mesh and a polynomial degree k, the
discrete counterparts of the grad / curl / div calculus: degree-of-freedom
spaces attached to vertices, edges, faces and cells, discrete differential
operators between them, potential reconstructions, stabilized L2 products,
and a mixed magnetostatics solver used as an end-to-end exercise.
"""

from .mesh import (
    Mesh,
    MeshError,
    load_mesh,
    generate_cubic_mesh,
    generate_tet_mesh,
    agglomerate_pairs,
)
from .quadrature import QuadRule, entity_rule
from .polyspaces import (
    PolyBasis,
    BasisBank,
    scalar_basis,
    vector_basis,
    subspace_basis,
    l2_project,
    recovery,
)
from .ddrcore import (
    DofSpace,
    DofVector,
    make_space,
    interpolate,
    op_potential,
    global_operator,
)
from .products import (
    stabilization,
    l2_product,
    component_gram,
    component_norm,
    assemble_product,
    graph_norms,
)
from .scheme import (
    MagnetostaticsProblem,
    SparseSystem,
    assemble,
    solve,
    manufactured_solution,
    manufactured_problem,
    error_norms,
)
from .verification import (
    CheckReport,
    check_complex,
    check_commutation,
    check_polynomial_consistency,
    check_traces,
    check_recovery,
    check_primal_consistency,
    check_adjoint_decay,
    check_poincare,
)

__all__ = [
    "Mesh",
    "MeshError",
    "load_mesh",
    "generate_cubic_mesh",
    "generate_tet_mesh",
    "agglomerate_pairs",
    "QuadRule",
    "entity_rule",
    "PolyBasis",
    "BasisBank",
    "scalar_basis",
    "vector_basis",
    "subspace_basis",
    "l2_project",
    "recovery",
    "DofSpace",
    "DofVector",
    "make_space",
    "interpolate",
    "op_potential",
    "global_operator",
    "stabilization",
    "l2_product",
    "component_gram",
    "component_norm",
    "assemble_product",
    "graph_norms",
    "MagnetostaticsProblem",
    "SparseSystem",
    "assemble",
    "solve",
    "manufactured_solution",
    "manufactured_problem",
    "error_norms",
    "CheckReport",
    "check_complex",
    "check_commutation",
    "check_polynomial_consistency",
    "check_traces",
    "check_recovery",
    "check_primal_consistency",
    "check_adjoint_decay",
    "check_poincare",
]

__version__ = "0.1.0"
