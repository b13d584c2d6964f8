"""Meshes shared by the test modules."""

import numpy as np

from polyddr.mesh import Mesh, generate_tet_mesh


def jittered_tet_mesh(n, seed, amplitude=0.15):
    """generate_tet_mesh(n) with seeded jitter of the interior coordinates
    by up to amplitude * h; boundary vertices slide within their planes."""
    data = generate_tet_mesh(n).to_dict()
    vertices = np.array(data["vertices"])
    offsets = np.random.default_rng(seed).uniform(
        -amplitude / n, amplitude / n, size=vertices.shape)
    free = (vertices > 0.0) & (vertices < 1.0)
    return Mesh(vertices + np.where(free, offsets, 0.0), data["faces"],
                data["cells"])


def without_cells(mesh, drop):
    """mesh with the cells drop deleted, through the public constructor:
    the faces no kept cell uses are dropped and the rest renumbered."""
    drop = set(np.asarray(drop).tolist())
    cells = [c for i, c in enumerate(mesh.cells) if i not in drop]
    used = sorted({f for c in cells for f in c})
    new = {f: i for i, f in enumerate(used)}
    return Mesh(mesh.vertices, [mesh.faces[f] for f in used],
                [[new[f] for f in c] for c in cells])
