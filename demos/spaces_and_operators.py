"""Build the discrete spaces on a small mesh and exercise the operators.

Walks through the core workflow: construct a mesh, build the four discrete
spaces for a chosen polynomial degree, interpolate smooth fields, apply the
discrete gradient / curl / divergence, and confirm the composition identities
curl(grad q) = 0 and div(curl v) = 0 at the level of global coefficient
vectors.

Run with:  python demos/spaces_and_operators.py
"""

import numpy as np

import polyddr


def main():
    mesh = polyddr.generate_cubic_mesh(2)
    k = 1

    spaces = {
        which: polyddr.make_space(mesh, which, k)
        for which in ("grad", "curl", "div", "l2")
    }
    print(f"mesh: {mesh.num_cells} cells, h = {mesh.h:.4f}, degree k = {k}")
    for which, space in spaces.items():
        print(f"  space {which!r}: {space.dim} degrees of freedom")

    # Interpolate a smooth scalar and a smooth vector field.
    def q(pts):
        return np.sin(pts[:, 0]) * np.cos(pts[:, 1]) + pts[:, 2] ** 2

    def v(pts):
        return np.stack(
            [
                np.cos(pts[:, 1]) * pts[:, 2],
                np.sin(pts[:, 0] + pts[:, 2]),
                pts[:, 0] * pts[:, 1],
            ],
            axis=1,
        )

    q_h = polyddr.interpolate(spaces["grad"], q)
    v_h = polyddr.interpolate(spaces["curl"], v)

    # Global operator matrices map coefficient vectors between spaces.
    G = polyddr.global_operator(spaces["grad"], spaces["curl"])
    C = polyddr.global_operator(spaces["curl"], spaces["div"])
    D = polyddr.global_operator(spaces["div"], spaces["l2"])

    curl_of_grad = C @ (G @ q_h.values)
    div_of_curl = D @ (C @ v_h.values)
    print(f"max |curl(grad q_h)| = {np.abs(curl_of_grad).max():.3e}")
    print(f"max |div(curl v_h)|  = {np.abs(div_of_curl).max():.3e}")

    # Potential reconstructions give polynomial representatives one step
    # richer than the raw degrees of freedom. They are built for a whole
    # group of congruent cells at once; cell 0 is one slot of its group.
    group, slot = spaces["grad"].bank.group("cell", 0)
    pot = polyddr.op_potential(spaces["grad"], group)
    print(
        f"cell 0 scalar potential (slot {slot} of {len(group)} cells): "
        f"{pot.matrix.shape[1]} polynomial coefficients "
        f"from {pot.matrix.shape[2]} local dofs"
    )

    # Rules, cores and bases are stacked over the group as well; the
    # potential's target at the group's rule points, read at cell 0's slot.
    bank = spaces["grad"].bank
    rule = bank.group_rule(group)
    values = pot.target.eval(rule.points, [slot])[0]
    core = bank.core(group)
    same = bank.group_basis(group, "scalar", k + 1) is pot.target
    print(
        f"its target: degree {pot.target.degree} on a degree-{core.L} core, "
        f"{values.shape[0]} members at {values.shape[1]} rule points "
        f"(the bank's degree-{k + 1} scalars: {same})"
    )

    # The stabilized product gives a positive definite Gram matrix.
    M = polyddr.assemble_product(spaces["curl"])
    energy = float(v_h.values @ (M @ v_h.values))
    print(f"stabilized energy of interpolated field: {energy:.6f} (> 0)")


if __name__ == "__main__":
    main()
