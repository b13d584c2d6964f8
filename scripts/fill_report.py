"""Print the LU fill of the solver policy against SuperLU's default.

    python3 scripts/fill_report.py [CHECKOUT]

For the two cases of the fill gate of `tests/test_solver.py`
(`test_fill_is_at_most_six_tenths_of_the_default_lu`: cubic:4 k=1 and the
jittered tet:2 k=2 of `tests/meshes.py`, seed 0) and for the benchmark
cases `hex_k1` seed 0 and `tet_jitter_k0` seed 0 of `perfbench/harness.py`,
one line each gives the stored factor entries of `scheme.solve`
(`SparseSystem.lu_nnz`), those of `splu` with its default options on the
same matrix, and their ratio.  The package is imported from CHECKOUT/src
(default: this checkout) with BLAS pinned to one thread.  The last line
gives the worst ratio of the gate cases against the gate's 0.6; the exit
code is 1 if it is above, else 0.  Anything that moves the roundoff of
the system matrix moves the default LU's fill, so rerun this on both
sides of such a change.
"""

import argparse
import os
import sys
from pathlib import Path

GATE = 0.6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?",
                        default=Path(__file__).resolve().parents[1])
    root = parser.parse_args(argv).checkout.resolve()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root / "perfbench"), str(root / "tests")]

    from scipy.sparse.linalg import splu

    import harness
    from meshes import jittered_tet_mesh
    from polyddr import assemble, generate_cubic_mesh, manufactured_problem, solve

    cases = [
        ("cubic:4 k=1", True, lambda: generate_cubic_mesh(4), 1),
        ("jittered tet:2 k=2", True, lambda: jittered_tet_mesh(2, 0), 2),
    ] + [(f"{name} seed 0", False, lambda name=name: harness.WORKLOADS[name].setup(0)[0],
          harness.WORKLOADS[name].degree) for name in ("hex_k1", "tet_jitter_k0")]
    worst = 0.0
    for label, gated, mesh, k in cases:
        system = assemble(manufactured_problem(mesh(), k))
        solve(system)
        default = splu(system.matrix).nnz
        ratio = system.lu_nnz / default
        if gated:
            worst = max(worst, ratio)
        print(f"{label}: policy {system.lu_nnz}, default {default}, "
              f"ratio {ratio:.4f}", flush=True)
    print(f"worst gate ratio {worst:.4f}, gate {GATE:g}")
    return 0 if worst <= GATE else 1


if __name__ == "__main__":
    sys.exit(main())
