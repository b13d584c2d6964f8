"""Print the JSON of every verification report on a fixed matrix of cases.

    python3 scripts/report_snapshot.py [CHECKOUT] > snapshot.txt

Runs the structural checks of `polyddr.verification` with the package
imported from CHECKOUT/src (default: this checkout) and BLAS pinned to
one thread, and prints one line per report: a label, then the report's
`to_json()`.  The cases are

- `check_complex`, `check_commutation` (seed 3) and `check_poincare` on
  `cubic:2`, `tet:1` and `agglo:2` (seed 0) at k=0 and 1, without the
  Poincaré report of `agglo:2` at k=1 (the slowest case);
- `check_primal_consistency` and `check_adjoint_decay` (seed 1) on the
  cubic family at k=0, levels (1, 2, 4), and on the tet and agglo
  families at k=1, levels (1, 2);
- `check_polynomial_consistency` on `tet:1` at k=3;
- `check_traces` and `check_recovery` on `cubic:2` and `tet:1`.

JSON prints floats with `repr`, so a `diff` of two checkouts' outputs is
empty exactly when every report is the same to the last bit: run it on
both sides of a change that must not move any report.
"""

import argparse
import os
import sys
from pathlib import Path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?",
                        default=Path(__file__).resolve().parents[1])
    root = parser.parse_args(argv).checkout.resolve()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src")]

    from polyddr import verification as ver

    meshes = {"cubic:2": lambda: ver.mesh_family("cubic")(2),
              "tet:1": lambda: ver.mesh_family("tet")(1),
              "agglo:2": lambda: ver.mesh_family("agglo")(2, seed=0)}
    cases = []
    for spec, build in meshes.items():
        for k in (0, 1):
            cases += [
                (f"complex {spec} k={k}",
                 lambda b=build, k=k: ver.check_complex(b(), k)),
                (f"commutation {spec} k={k}",
                 lambda b=build, k=k: ver.check_commutation(b(), k, seed=3)),
            ]
            if (spec, k) != ("agglo:2", 1):
                cases.append((f"poincare {spec} k={k}",
                              lambda b=build, k=k: ver.check_poincare(b(), k)))
    for family, k, levels in (("cubic", 0, (1, 2, 4)), ("tet", 1, (1, 2)),
                              ("agglo", 1, (1, 2))):
        for name in ("primal_consistency", "adjoint_decay"):
            check = getattr(ver, f"check_{name}")
            cases.append((f"{name} {family} k={k} levels {levels}",
                          lambda c=check, f=family, k=k, l=levels:
                          c(f, k, l, seed=1)))
    cases.append(("polynomial_consistency tet:1 k=3",
                  lambda: ver.check_polynomial_consistency(meshes["tet:1"](), 3)))
    for spec in ("cubic:2", "tet:1"):
        for name in ("traces", "recovery"):
            check = getattr(ver, f"check_{name}")
            cases.append((f"{name} {spec}",
                          lambda c=check, b=meshes[spec]: c(b())))
    for label, run in cases:
        print(f"{label}: {run().to_json()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
