"""Run one polyddr benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hex_k1 --seed 0 --seconds 40 --trace 0

Run from the repository root; the package is imported from ./src.  With
--trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  Earlier lines give the environment record, the sample counts
and the output checks.  A result file and, when traced, the spans are
written to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# One BLAS thread keeps every workload serial and its timings steady on a
# shared machine; it must be set before numpy is first imported.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "polyddr" / "__init__.py").is_file():
        print(f"error: no polyddr sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(root / "src"), str(HERE)]

    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    rss_base = harness.maxrss_mb()
    env = harness.environment(root, args.seed, BLAS_THREADS)
    print("environment " + json.dumps(env, sort_keys=True), flush=True)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    workload = harness.WORKLOADS[args.workload]
    metrics, attempted, failed, samples, tracer = harness.measure(
        workload, args.seed, args.seconds, bool(args.trace), rss_base, log)

    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    missing = [name for name in units if name not in metrics]
    if missing:
        log(f"FAILED no samples for {', '.join(missing)}")
    for name, values in samples.items():
        if values:
            print(f"samples {name}: {len(values)}, median "
                  f"{statistics.median(values)!r}")
    print(f"failed_share = {failed / attempted:g} ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")

    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"environment": env, "samples": samples, **result}, fh,
                  indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.tsv")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
