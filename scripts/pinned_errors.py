"""Print the 17 pinned benchmark errors of a checkout.

    python3 scripts/pinned_errors.py [CHECKOUT]

Runs the pinned solve cases of `perfbench/harness.py` (`hex_k1` seed 0,
`tet_jitter_k0` seeds 0 to 15) through its workloads, with the package
imported from CHECKOUT/src (default: this checkout) and BLAS pinned to
one thread as in `perfbench/run.py`.  One line per case gives the error
with `repr`, so two checkouts can be compared bit for bit, and its
relative distance from the harness pin.  The exit code is 1 if any error
is farther than the harness's ERR_RTOL from its pin, else 0.
"""

import argparse
import os
import sys
from pathlib import Path

CASES = [("hex_k1", 0)] + [("tet_jitter_k0", seed) for seed in range(16)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?",
                        default=Path(__file__).resolve().parents[1])
    root = parser.parse_args(argv).checkout.resolve()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import harness

    worst = 0.0
    for name, seed in CASES:
        workload = harness.WORKLOADS[name]
        state = workload.setup(seed)
        err = workload.finish(state, workload.solve(state))["err_hcurl_hdiv_rel"]
        ref = workload.reference_of_seed(seed)
        rel = abs(err - ref) / abs(ref)
        worst = max(worst, rel)
        print(f"{name} seed {seed}: {err!r} (pin {ref!r}, rel {rel:.2e})",
              flush=True)
    print(f"worst rel {worst:.2e}, ERR_RTOL {harness.ERR_RTOL:g}")
    return 0 if worst <= harness.ERR_RTOL else 1


if __name__ == "__main__":
    sys.exit(main())
