"""Smoke test of scripts/report_snapshot.py on this checkout: one JSON
report per case of the matrix, each under its label."""

import json
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_report_snapshot_smoke():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "report_snapshot.py")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # 17 complex/commutation/poincare reports, 6 rate studies, one
    # polynomial consistency, 2 traces and 2 recovery reports
    assert len(lines) == 28, lines
    names = []
    for line in lines:
        m = re.fullmatch(r"(\w+) [^{]*: (\{.*\})", line)
        assert m, line
        report = json.loads(m[2])
        assert report["name"].startswith(m[1] + "("), line
        assert report["status"] in ("pass", "FAIL")
        names.append(m[1])
    assert names.count("poincare") == 5
    assert names[-5:] == ["polynomial_consistency", "traces", "recovery",
                          "traces", "recovery"]
