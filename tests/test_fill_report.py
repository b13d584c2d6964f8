"""Smoke test of scripts/fill_report.py on this checkout: the policy and
default LU fill of the fill-gate and benchmark cases, and the gate."""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_fill_report_smoke():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "fill_report.py")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    cases = ["cubic:4 k=1", "jittered tet:2 k=2", "hex_k1 seed 0",
             "tet_jitter_k0 seed 0"]
    assert len(lines) == len(cases) + 1, lines
    for case, line in zip(cases, lines):
        m = re.fullmatch(rf"{case}: policy (\d+), default (\d+), ratio (\S+)", line)
        assert m, line
        policy, default, ratio = int(m[1]), int(m[2]), float(m[3])
        assert ratio == round(policy / default, 4), line
    assert re.fullmatch(r"worst gate ratio \S+, gate 0\.6", lines[-1]), lines[-1]
