"""One entity's slot of a group stack, for tests written per entity."""

import numpy as np


class Local:
    """One entity's local operator (with its target basis) or form (no
    target): the global dofs it reads in local order, its matrix and its
    local layout (DofSpace.local_dofs). apply(u) maps a global dof vector
    through an operator; apply(u, v) evaluates a form."""

    def __init__(self, dofs, matrix, target=None, layout=None):
        self.dofs = dofs
        self.matrix = matrix
        self.target = target
        self.layout = layout

    def apply(self, u, v=None):
        u = np.asarray(u)[self.dofs]
        if v is None:
            return self.matrix @ u
        return float(u @ self.matrix @ np.asarray(v)[self.dofs])


def entity(op, space, kind, i):
    """Entity i of one kind as a Local: its slot of the stack op(space,
    group) of its group."""
    group, slot = space.bank.group(kind, i)
    stack = op(space, group)
    target = getattr(stack, "target", None)
    return Local(stack.dofs[slot], stack.matrix[slot],
                 None if target is None else target.take(slot),
                 space.local_dofs(kind, i)[1])
