"""Smoke test of scripts/paired_runs.py: both sides are this checkout,
two pairs of one iteration each on the fastest workload."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


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
