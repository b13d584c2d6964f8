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

# the spaces each entry point is defined on (the products serve all four)
DEFINED_ON = {
    "edge_reconstruct": ("grad",),
    "op_grad_edge": ("grad",),
    "op_grad_face": ("grad",),
    "op_scalar_trace": ("grad",),
    "op_curl_face": ("curl",),
    "op_tangential_trace": ("curl",),
    "op_grad_cell": ("grad",),
    "op_curl_cell": ("curl",),
    "op_div_cell": ("div",),
    "op_potential": ("grad", "curl", "div"),
}
WRONG_SPACE = [(name, kind, which) for _, name, _, kind in ENTRY_POINTS
               if name in DEFINED_ON
               for which in ("grad", "curl", "div", "l2")
               if which not in DEFINED_ON[name]]


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


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("name,kind,which", WRONG_SPACE,
                         ids=[f"{n}-{w}" for n, _, w in WRONG_SPACE])
def test_entry_point_rejects_a_space_it_is_not_defined_on(name, kind, which, k):
    """A wrong space stops at the entry point with a message naming it and
    the space, before any numpy call fails deep inside the build."""
    space = make_space(generate_tet_mesh(1), which, k)
    with pytest.raises(ValueError) as err:
        getattr(ddrcore, name)(space, space.bank.groups(kind)[0])
    assert str(err.value) == (
        f"{name} is not defined on the {which} space "
        f"(only on {', '.join(DEFINED_ON[name])})")


def _rebind(monkeypatch, original, wrapper):
    """Bind wrapper under every polyddr name that refers to original, as
    the benchmark's tracer does."""
    for key, ns in sorted(sys.modules.items()):
        if key == "polyddr" or key.startswith("polyddr."):
            for attr, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, attr, wrapper)


def test_every_entry_point_is_entered_under_its_public_name(monkeypatch):
    """Wrap each entry point under every polyddr name that refers to it,
    as the benchmark's tracer does; a stack built behind its public name
    would leave its wrapper unentered."""
    entered = set()
    for module, name, _, _ in ENTRY_POINTS:
        original = getattr(module, name)

        def wrapper(*args, name=name, original=original):
            entered.add(name)
            return original(*args)

        _rebind(monkeypatch, original, wrapper)

    mesh = generate_tet_mesh(1)
    problem = polyddr.manufactured_problem(mesh, 1)
    polyddr.assemble(problem)
    assert polyddr.check_polynomial_consistency(mesh, 1).passed
    # neither of those builds a grad-to-curl operator or a component Gram
    grad, curl = (make_space(mesh, w, 1) for w in ("grad", "curl"))
    polyddr.global_operator(grad, curl)
    polyddr.component_norm(curl, np.ones(curl.dim))
    assert entered == set(IDS), set(IDS) - entered


def test_boundary_reconstructions_are_looked_up_under_their_public_names(
        monkeypatch):
    """The boundary reconstructions, cell differentials and potentials are
    reached through call-time lookups (ddrcore._trace, _differentials), so
    a counting wrapper installed under each public name, as the benchmark's
    tracer installs its own, is entered when fresh spaces build their
    stabilizations, potentials and global operators. A lookup table of
    function objects made at import would bypass the wrappers."""
    names = ("edge_reconstruct", "op_scalar_trace", "op_tangential_trace",
             "op_grad_cell", "op_curl_cell", "op_div_cell", "op_potential")
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(ddrcore, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        _rebind(monkeypatch, original, counted)

    mesh = generate_tet_mesh(1)
    spaces = {w: make_space(mesh, w, 1) for w in ("grad", "curl", "div", "l2")}
    for which in ("grad", "curl", "div"):
        space = spaces[which]
        for group in space.bank.groups("cell"):
            products.stabilization(space, group)
            ddrcore.op_potential(space, group)
    for a, b in (("grad", "curl"), ("curl", "div"), ("div", "l2")):
        polyddr.global_operator(spaces[a], spaces[b])
    assert all(calls.values()), calls
