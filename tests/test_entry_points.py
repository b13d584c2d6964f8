"""The local entry points: each takes (space, group) of one entity kind,
rejects anything else, and is entered under its public name whenever its
stack is used, so that a wrapper installed the way perfbench/tracer.py
installs one sees every build."""

import sys

import numpy as np
import pytest

import polyddr
from polyddr import ddrcore, products
from polyddr.ddrcore import make_space
from polyddr.mesh import generate_tet_mesh

# (module, name, space kind, entity kind) of every entry point
ENTRY_POINTS = [
    (ddrcore, "edge_reconstruct", "grad", "edge"),
    (ddrcore, "op_grad_edge", "grad", "edge"),
    (ddrcore, "op_grad_face", "grad", "face"),
    (ddrcore, "op_scalar_trace", "grad", "face"),
    (ddrcore, "op_curl_face", "curl", "face"),
    (ddrcore, "op_tangential_trace", "curl", "face"),
    (ddrcore, "op_grad_cell", "grad", "cell"),
    (ddrcore, "op_curl_cell", "curl", "cell"),
    (ddrcore, "op_div_cell", "div", "cell"),
    (ddrcore, "op_potential", "curl", "cell"),
    (products, "stabilization", "div", "cell"),
    (products, "l2_product", "grad", "cell"),
    (products, "component_gram", "curl", "cell"),
]
IDS = [name for _, name, _, _ in ENTRY_POINTS]


@pytest.mark.parametrize("module,name,which,kind", ENTRY_POINTS, ids=IDS)
def test_entry_point_takes_a_group_of_its_kind(module, name, which, kind):
    op = getattr(module, name)
    space = make_space(generate_tet_mesh(1), which, 1)
    bank = space.bank
    wrong = [(i, repr(i)) for i in (0, np.int64(2))]
    wrong += [(g, f"a {other} group") for other in ("edge", "face", "cell")
              if other != kind for g in bank.groups(other)]
    for arg, shown in wrong:
        with pytest.raises(ValueError) as err:
            op(space, arg)
        assert str(err.value) == (
            f"{name} takes a {kind} group (BasisBank.groups({kind!r})), "
            f"not {shown}")
    group = bank.groups(kind)[0]
    stack = op(space, group)
    assert stack is op(space, group)
    assert stack.dofs.shape == (len(group), stack.matrix.shape[-1])


def test_every_entry_point_is_entered_under_its_public_name(monkeypatch):
    """Wrap each entry point under every polyddr name that refers to it,
    as the benchmark's tracer does; a stack built behind its public name
    would leave its wrapper unentered."""
    entered = set()
    namespaces = [mod for key, mod in sorted(sys.modules.items())
                  if key == "polyddr" or key.startswith("polyddr.")]
    for module, name, _, _ in ENTRY_POINTS:
        original = getattr(module, name)

        def wrapper(*args, name=name, original=original):
            entered.add(name)
            return original(*args)

        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, key, wrapper)

    mesh = generate_tet_mesh(1)
    problem = polyddr.manufactured_problem(mesh, 1)
    polyddr.assemble(problem)
    assert polyddr.check_polynomial_consistency(mesh, 1).passed
    # neither of those builds a grad-to-curl operator or a component Gram
    grad, curl = (make_space(mesh, w, 1) for w in ("grad", "curl"))
    polyddr.global_operator(grad, curl)
    polyddr.component_norm(curl, np.ones(curl.dim))
    assert entered == set(IDS), set(IDS) - entered
