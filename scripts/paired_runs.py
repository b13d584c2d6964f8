"""Paired benchmark runs of a parent and a changed checkout.

    python3 scripts/paired_runs.py PARENT CHANGE --pairs 10 --seconds 6 \
        --workload hex_k1 --workload tet_jitter_k0

Each pair runs `perfbench/run.py` once in each checkout, from its root,
with the pair number as the seed; the side that runs first alternates from
pair to pair, so that drift of the host falls on both sides alike.  The
end-to-end metrics come from the last line of each run.  For every
workload the script prints each pair's values, then per metric the medians
of both sides, the parent's quartiles, the median and quartiles of the
per-pair ratios change/parent, the number of pairs in which the change is
better, and a verdict against the bound in the change's BENCHMARK.json:

- "worse": the change's median is worse than the parent's by more than
  the bound, a share of the parent's median;
- "better": the change is better in at least nine of every ten pairs and
  its median is better by more than the parent's interquartile range;
- "same" otherwise.

After the ratio quartiles each row gives the order effect, for
information only: the median ratio change/parent of the pairs in which
the change ran first, next to that of the pairs in which the parent ran
first.  On a shared host the side that runs first can read up to a
quarter slower or faster than the other; a gap between the two medians
shows that effect.  The verdict does not read it.

After the metrics comes an informational row, `finish`: run_s - solve_s
of each run, the work after the solve (the error norms, on the solve
workloads), with the same medians, quartiles, ratios and pairs won and no
verdict.  It separates that work from the solve, whose time on `hex_k1`
switches between two modes from run to run.

Without --workload every workload of BENCHMARK.json runs.  The exit code
is 1 if any run fails or reports `"correct": false`, else 0.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--workload", action="append")
    return parser.parse_args(argv)


def run_once(checkout, workload, seed, seconds):
    """The result object of one untraced run, or None if it did not end
    with one; the reason goes to standard error."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode or result is None or not result.get("correct"):
        print(f"run failed: {checkout} {workload} seed {seed} "
              f"(exit {proc.returncode})\n{proc.stderr[-2000:]}",
              file=sys.stderr)
    return result if proc.returncode == 0 else None


def verdict(parent, change, bound, lower_better):
    """(verdict, pairs where the change is better, parent quartiles)."""
    parent, change = np.asarray(parent), np.asarray(change)
    sign = 1.0 if lower_better else -1.0
    better = int(np.sum(sign * (parent - change) > 0))
    q1, q3 = np.percentile(parent, [25, 75])
    gain = sign * (np.median(parent) - np.median(change))
    if -gain > bound * np.median(parent):
        word = "worse"
    elif better >= 0.9 * len(parent) and gain > q3 - q1:
        word = "better"
    else:
        word = "same"
    return word, better, (q1, q3)


def finish(values):
    """run_s - solve_s of each run of one side, given its metric values."""
    return list(np.subtract(values["run_s"], values["solve_s"]))


def ratio_quartiles(parent, change):
    """(first quartile, median, third quartile) of the per-pair ratios
    change/parent.  A ratio compares two runs made side by side, so drift
    of the host between pairs, which moves both sides alike, cancels."""
    ratios = np.asarray(change) / np.asarray(parent)
    return tuple(np.percentile(ratios, [25, 50, 75]))


def order_ratios(parent, change, firsts):
    """Median ratio change/parent over the pairs in which the change ran
    first, and over those in which the parent did (nan if none)."""
    ratios = np.asarray(change) / np.asarray(parent)
    firsts = np.asarray(firsts)
    return tuple(float(np.median(ratios[firsts == side]))
                 if np.any(firsts == side) else float("nan")
                 for side in ("change", "parent"))


def main(argv=None):
    args = parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    ok = True
    for workload in workloads:
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        firsts = []
        print(f"{workload}: {args.pairs} pairs of {args.seconds:g} s")
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            results = {side: run_once(sides[side], workload, pair,
                                      args.seconds) for side in order}
            if not all(r and r["correct"] for r in results.values()):
                ok = False
                continue
            firsts.append(order[0])
            cells = []
            for m in metrics:
                got = [results[side]["metrics"][m["name"]]["value"]
                       for side in sides]
                for side, value in zip(sides, got):
                    values[side][m["name"]].append(value)
                cells.append(f"{m['name']} {got[0]:.4g} -> {got[1]:.4g}")
            print(f"  pair {pair} (first: {order[0]}): " + ", ".join(cells))
        if not values["parent"]["run_s"]:
            continue
        rows = [(m["name"], values["parent"][m["name"]],
                 values["change"][m["name"]], m) for m in metrics]
        rows.append(("finish", finish(values["parent"]),
                     finish(values["change"]), None))
        for name, parent, change, m in rows:
            lower_better = m is None or m["better"] == "lower"
            word, better, (q1, q3) = verdict(
                parent, change, m["bound"] if m else np.inf, lower_better)
            r1, r2, r3 = ratio_quartiles(parent, change)
            c_first, p_first = order_ratios(parent, change, firsts)
            tail = f", bound {m['bound']:g}: {word}" if m else " (informational)"
            print(f"  {name}: parent median {np.median(parent):.4g} "
                  f"(quartiles {q1:.4g} to {q3:.4g}), change median "
                  f"{np.median(change):.4g}, ratio change/parent median "
                  f"{r2:.4f} (quartiles {r1:.4f} to {r3:.4f}), by order "
                  f"{c_first:.4f} with change first and {p_first:.4f} with "
                  f"parent first, change better in {better} of "
                  f"{len(parent)}{tail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
