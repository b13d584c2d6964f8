"""Smoke test of scripts/paired_runs.py: both sides are this checkout,
two pairs of one iteration each on the fastest workload; and its per-pair
ratio summary and finish row on fixed values."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
RATIO = re.compile(r"ratio change/parent median (\S+) \(quartiles (\S+) to (\S+)\)")


def _script():
    spec = importlib.util.spec_from_file_location(
        "paired_runs", REPO / "scripts" / "paired_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_runs_smoke():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "paired_runs.py"), str(REPO),
         str(REPO), "--pairs", "2", "--seconds", "0",
         "--workload", "tet_k3_consistency"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "tet_k3_consistency: 2 pairs of 0 s"
    assert lines[1].startswith("  pair 0 (first: parent): setup_s ")
    assert lines[2].startswith("  pair 1 (first: change): setup_s ")
    for name in ("setup_s", "solve_s", "run_s", "peak_mem_mb"):
        summary = [line for line in lines if line.startswith(f"  {name}: ")]
        assert len(summary) == 1 and "of 2, bound" in summary[0], lines
        q1, median, q3 = map(float, RATIO.search(summary[0]).group(2, 1, 3))
        assert 0 < q1 <= median <= q3
    finish = [line for line in lines if line.startswith("  finish: ")]
    assert len(finish) == 1 and finish[0].endswith("of 2 (informational)"), lines
    assert RATIO.search(finish[0]) and "bound" not in finish[0]


def test_ratio_quartiles_pair_the_runs():
    """Ratios are taken pair by pair: a host whose speed drifts from pair
    to pair, on both sides alike, leaves every ratio at 0.8."""
    ratio_quartiles = _script().ratio_quartiles
    parent = np.array([1.0, 2.0, 4.0, 8.0])
    assert np.allclose(ratio_quartiles(parent, 0.8 * parent), 0.8)
    q1, median, q3 = ratio_quartiles([1.0] * 4, [0.5, 1.0, 1.5, 2.0])
    assert (q1, median, q3) == (0.875, 1.25, 1.625)


def test_finish_is_run_minus_solve_per_run():
    """The finish row pairs each run's run_s with its own solve_s: a change
    that only speeds up the work after the solve reads a finish ratio of
    0.5 in every pair, though its solve_s varies from run to run."""
    script = _script()
    parent = {"solve_s": [1.0, 3.0, 2.0], "run_s": [1.5, 3.4, 2.3]}
    change = {"solve_s": [3.0, 1.0, 2.0], "run_s": [3.25, 1.2, 2.15]}
    assert np.allclose(script.finish(parent), [0.5, 0.4, 0.3])
    assert np.allclose(script.finish(change), [0.25, 0.2, 0.15])
    assert np.allclose(script.ratio_quartiles(script.finish(parent),
                                              script.finish(change)), 0.5)


def test_order_effect_splits_the_pairs_by_the_side_run_first(tmp_path,
                                                             capsys):
    """A host on which the side that runs first reads 25% slower: the
    change (0.9 of the parent) reads 0.9 * 1.25 in the pairs it runs
    first and 0.9 / 1.25 in the others."""
    script = _script()
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for path in sides.values():
        path.mkdir()
    (sides["change"] / "BENCHMARK.json").write_text(
        (REPO / "BENCHMARK.json").read_text())
    names = [m["name"] for m in json.loads(
        (REPO / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(checkout)
        scale = (0.9 if checkout == sides["change"] else 1.0) * (
            1.25 if len(calls) % 2 else 1.0)
        return {"correct": True, "metrics": {
            name: {"value": scale * (1.0 + seed) * (1 + i)}
            for i, name in enumerate(names)}}

    script.run_once = run_once
    assert script.main([str(sides["parent"]), str(sides["change"]),
                        "--pairs", "4", "--workload", "hex_k1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [c.name for c in calls] == ["parent", "change", "change",
                                       "parent"] * 2
    for name in names + ["finish"]:
        row = [line for line in lines if line.startswith(f"  {name}: ")]
        assert len(row) == 1, lines
        assert "by order 1.1250 with change first and 0.7200 with parent " \
               "first" in row[0], row[0]
    assert script.order_ratios([1.0, 1.0], [0.5, 2.0], ["parent", "change"]) \
        == (2.0, 0.5)
