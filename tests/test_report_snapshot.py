"""Smoke tests of scripts/report_snapshot.py on this checkout: one JSON
report per case of the matrix, each under its label; compared with
itself (--against), no report key differs; and the comparison names the
largest relative change of each report key that does differ."""

import importlib.util
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


def test_report_snapshot_against_itself_is_identical():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "report_snapshot.py"),
         "--against", str(REPO)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["identical"]


def test_report_changes_names_the_largest_change_per_key():
    spec = importlib.util.spec_from_file_location(
        "report_snapshot", REPO / "scripts" / "report_snapshot.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def line(label, errors, status="pass"):
        report = {"failures": [], "metrics": {"errors": errors, "slope": 2.0},
                  "name": "r", "notes": [], "status": status, "tolerances": {}}
        return f"{label}: {json.dumps(report)}"

    mine = [line("a k=0", [1.0, 2.0]), line("b cubic:2", [4.0])]
    theirs = [line("a k=0", [1.0, 2.0 * (1 + 1e-12)]),
              line("b cubic:2", [4.0], "FAIL"), line("c", [1.0])]
    changes = script.report_changes(mine, theirs)
    assert [c[:2] for c in changes] == [("a k=0", "errors"),
                                        ("b cubic:2", "status"), ("c", None)]
    assert abs(changes[0][2] - 1e-12) < 1e-15
    assert changes[1][2] == changes[2][2] == float("inf")
    assert script.report_changes(mine, mine) == []
