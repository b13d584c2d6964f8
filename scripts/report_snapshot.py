"""Print the JSON of every verification report on a fixed matrix of cases.

    python3 scripts/report_snapshot.py [CHECKOUT] > snapshot.txt
    python3 scripts/report_snapshot.py [CHECKOUT] --against OTHER

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

With `--against OTHER` the snapshots of CHECKOUT and OTHER are taken in
two subprocesses and compared report by report.  One line per report key
that differs gives the largest relative change of its numbers
(|a - b| / max(|a|, |b|) over the entries of a list), or `changed` where
a value other than a number differs or the key is on one side only; the
last line gives the worst relative change over all reports.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path


def _numbers(value):
    """The numbers of a report value, a number or a (nested) list of
    them, as a flat list; None for any other value."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [value]
    if isinstance(value, list):
        parts = [_numbers(v) for v in value]
        if None not in parts:
            return [x for p in parts for x in p]
    return None


def _relative(x, y):
    """|x - y| / max(|x|, |y|); inf when x != y and one is not finite."""
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _relative_change(a, b):
    """Largest relative change (_relative) over the numbers of two report
    values; 0 when they are equal, inf when they differ other than in
    their numbers."""
    if a == b:
        return 0.0
    na, nb = _numbers(a), _numbers(b)
    if na is None or nb is None or len(na) != len(nb):
        return math.inf
    return max(map(_relative, na, nb))


def report_changes(lines, other):
    """[(label, key, relative change)] of every report key (a metric, or
    status, failures, tolerances, notes or name) whose value differs
    between two snapshots, lists of `label: json` lines; a report on one
    side only is one entry with key None and an infinite change."""
    mine, theirs = (dict(line.split(": ", 1) for line in text)
                    for text in (lines, other))
    out = []
    for label in dict.fromkeys([*mine, *theirs]):
        if label not in mine or label not in theirs:
            out.append((label, None, math.inf))
            continue
        a, b = ({**r.pop("metrics"), **r} for r in
                (json.loads(mine[label]), json.loads(theirs[label])))
        out += [(label, key, rel) for key in dict.fromkeys([*a, *b])
                if (rel := _relative_change(a.get(key), b.get(key)))]
    return out


def _snapshot(checkout):
    proc = subprocess.run([sys.executable, __file__, str(checkout)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout.splitlines()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?",
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--against", type=Path, metavar="OTHER",
                        help="compare with the snapshot of this checkout")
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    if args.against is not None:
        changes = report_changes(_snapshot(root), _snapshot(args.against.resolve()))
        for label, key, rel in changes:
            print(f"{label} | {key}: "
                  + ("changed" if math.isinf(rel) else f"rel {rel:.3g}"))
        worst = max(changes, key=lambda c: c[2], default=None)
        print("identical" if worst is None else
              f"worst rel {worst[2]:.3g} ({worst[0]} | {worst[1]}), "
              f"{len(changes)} keys differ")
        return 0
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src")]

    from polyddr import verification as ver

    meshes = {"cubic:2": lambda: ver.mesh_family("cubic")(2),
              "tet:1": lambda: ver.mesh_family("tet")(1),
              "agglo:2": lambda: ver.mesh_family("agglo")(2)}
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
