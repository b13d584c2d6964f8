"""One entity's slot of a group stack and the global and local dof
indices of one entity, for tests written per entity.

Entity i of a group is slot bank.group(kind, i)[1] of every stack.  A
test reads it by indexing the stack's arrays, and tabulates its members
with the stacked basis and the selector [slot] at a rule stack of one
(rule_of): basis.eval(rule.points, [slot])[0].
"""

import numpy as np

from polyddr.quadrature import QuadRule


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


def rule_of(bank, kind, i, degree=None):
    """Entity i's rows of its group's polynomial rule (the bank's default
    degree unless given), as a rule stack of one."""
    group, slot = bank.group(kind, i)
    rule = bank.group_rule(group, degree)
    return QuadRule(rule.points[[slot]], rule.weights[[slot]],
                    rule.exactness_degree)


def basis_of(bank, family, kind, i, l):
    """(stack, sel): the group basis holding entity i and the selector
    [slot] of entity i in it."""
    group, slot = bank.group(kind, i)
    return bank.group_basis(group, family, l), [slot]


class Local:
    """One entity's local operator (with its group's target basis and the
    selector [slot] of the entity there) or form (no target): the global
    dofs it reads in local order, its matrix and its local layout
    (local_dofs). apply(u) maps a global dof vector through an operator;
    apply(u, v) evaluates a form."""

    def __init__(self, dofs, matrix, target=None, layout=None, sel=None):
        self.dofs = dofs
        self.matrix = matrix
        self.target = target
        self.layout = layout
        self.sel = sel

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
    return Local(stack.dofs[slot], stack.matrix[slot],
                 getattr(stack, "target", None), local_dofs(space, kind, i)[1],
                 [slot])


def own_dofs(space, kind, i):
    """Global indices of the dofs entity i of one kind carries itself."""
    start, w = space.start[kind], space.width[kind]
    return np.arange(start + i * w, start + (i + 1) * w)


def sub_slice(space, layout, kind, index, i):
    """Local slice of one family block inside an entity's block."""
    base = layout[(kind, index)]
    offs = space.offsets[kind]
    return slice(base.start + offs[i], base.start + offs[i + 1])
