"""Smoke test of scripts/pinned_errors.py on this checkout: the 17 pinned
benchmark errors, each within the harness tolerance of its pin."""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_pinned_errors_smoke():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "pinned_errors.py")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    cases = ["hex_k1 seed 0"] + [f"tet_jitter_k0 seed {s}" for s in range(16)]
    assert len(lines) == len(cases) + 1, lines
    for case, line in zip(cases, lines):
        assert re.fullmatch(rf"{case}: \S+ \(pin \S+, rel \S+\)", line), line
    assert lines[-1].startswith("worst rel ") and lines[-1].endswith(
        "ERR_RTOL 1e-06"), lines[-1]
