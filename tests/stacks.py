"""One entity's slot of a group stack and the global and local dof
indices of one entity, for tests written per entity."""

import numpy as np


def local_dofs(space, kind, index):
    """Global indices of the dofs an entity's operators read, in local
    order, with a layout dict mapping ("vertex"|"edge"|"face"|"cell", id)
    to the local slice."""
    if kind not in ("edge", "face", "cell"):
        raise ValueError(f"unknown entity kind {kind!r}")
    group, slot = space.bank.group(kind, index)
    layout = {}
    n = 0
    for part, ents, width in space._local_parts(group):
        for j in ents[slot].tolist():
            layout[(part, j)] = slice(n, n + width)
            n += width
    return space.group_dofs(group)[slot], layout


class Local:
    """One entity's local operator (with its target basis) or form (no
    target): the global dofs it reads in local order, its matrix and its
    local layout (local_dofs). apply(u) maps a global dof vector
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
                 local_dofs(space, kind, i)[1])


def own_dofs(space, kind, i):
    """Global indices of the dofs entity i of one kind carries itself."""
    start, w = space.start[kind], space.width[kind]
    return np.arange(start + i * w, start + (i + 1) * w)


def sub_slice(space, layout, kind, index, i):
    """Local slice of one family block inside an entity's block."""
    base = layout[(kind, index)]
    offs = space.offsets[kind]
    return slice(base.start + offs[i], base.start + offs[i + 1])
