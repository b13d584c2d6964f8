"""Command-line front end: mesh spec parsing, exit codes, report and
CSV artifacts, and thread-count invariance of written outputs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyddr
import polyddr.cli as cli
from polyddr.cli import ConfigError, build_parser, main, parse_mesh_spec


@pytest.fixture()
def pyramid_file(tmp_path):
    data = {
        "vertices": [
            [0.0, 0.0, 0.0],
            [1.1, 0.0, 0.0],
            [1.0, 1.2, 0.0],
            [0.0, 0.9, 0.0],
            [0.3, 0.4, 0.9],
        ],
        "faces": [[0, 3, 2, 1], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
        "cells": [[0, 1, 2, 3, 4]],
    }
    path = tmp_path / "pyramid.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def corrupt_file(tmp_path):
    data = {
        "vertices": [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.15],
            [0.0, 1.0, 0.0],
            [0.4, 0.5, 0.9],
        ],
        "faces": [[0, 3, 2, 1], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
        "cells": [[0, 1, 2, 3, 4]],
    }
    path = tmp_path / "bent.json"
    path.write_text(json.dumps(data))
    return str(path)


# ----------------------------------------------------------------------
# mesh specs and flag validation


def test_parse_builtin_specs():
    mesh, family = parse_mesh_spec("cubic:2")
    assert mesh.num_cells == 8 and family == ("cubic", 2)
    mesh, family = parse_mesh_spec("builtin:tet:1")
    assert mesh.num_cells == 6 and family == ("tet", 1)
    mesh, family = parse_mesh_spec("agglo:2:7")
    assert family == ("agglo", 2) and mesh.num_cells < 8


def test_parse_mesh_file(pyramid_file):
    mesh, family = parse_mesh_spec(pyramid_file)
    assert mesh.num_cells == 1 and family is None


@pytest.mark.parametrize(
    "spec",
    ["cubic", "cubic:0", "cubic:two", "cubic:2:3", "agglo:2:3:4", "builtin:spherical:2"],
)
def test_bad_mesh_specs_raise(spec):
    with pytest.raises(ConfigError):
        parse_mesh_spec(spec)


def test_negative_degree_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--degree", "-1"])
    assert info.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_levels_must_increase():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["converge", "--levels", "4,2"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", ["converge", "verify"])
def test_levels_need_two(command, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([command, "--levels", "2"])
    assert info.value.code == 2
    assert "a rate needs at least two levels" in capsys.readouterr().err


def test_threads_must_be_positive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "--mesh", "cubic:1", "--threads", "0"])


# ----------------------------------------------------------------------
# verify


def test_verify_single_suite_passes(capsys, tmp_path):
    out = tmp_path / "reports.json"
    code = main([
        "verify", "--mesh", "builtin:cubic:2", "--degree", "0",
        "--suite", "complex", "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "[pass] complex(k=0)" in stdout
    reports = json.loads(out.read_text())
    assert len(reports) == 1
    assert reports[0]["status"] == "pass"
    assert reports[0]["metrics"]["total_dofs"] == 125


def test_verify_corrupted_mesh_file_exits_one(capsys, corrupt_file):
    code = main(["verify", "--mesh", corrupt_file, "--suite", "complex"])
    assert code == 1
    err = capsys.readouterr().err
    assert "face 0" in err


def test_verify_missing_mesh_file_exits_two(capsys):
    code = main(["verify", "--mesh", "/nonexistent/mesh.json", "--suite", "complex"])
    assert code == 2


def test_verify_unknown_builtin_exits_two(capsys):
    code = main(["verify", "--mesh", "builtin:spherical:2", "--suite", "complex"])
    assert code == 2
    assert "spherical" in capsys.readouterr().err


def test_verify_poincare_uses_refined_builtin(capsys):
    code = main([
        "verify", "--mesh", "cubic:1", "--degree", "0", "--suite", "poincare",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "poincare_gradient_ratio" in stdout


def test_verify_poincare_refines_with_the_spec_seed(monkeypatch):
    """agglo:N:S is compared with the agglomeration of cubic:2N by the
    same seed S (seeds 0 and 1 agglomerate cubic:4 into 35 and 34 cells)."""
    seen = []
    monkeypatch.setattr(cli, "check_poincare", lambda mesh, k, refined=None:
                        seen.append(refined) or polyddr.CheckReport("poincare"))
    assert main(["verify", "--mesh", "agglo:2:1", "--suite", "poincare"]) == 0
    want = polyddr.agglomerate_pairs(polyddr.generate_cubic_mesh(4), seed=1)
    assert len(seen) == 1
    assert json.dumps(seen[0].to_dict()) == json.dumps(want.to_dict())


# ----------------------------------------------------------------------
# solve


def test_solve_reports_dimensions_and_errors(capsys, tmp_path):
    out = tmp_path / "solve.json"
    code = main(["solve", "--mesh", "cubic:2", "--degree", "0", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "dim_xcurl = 54" in stdout
    assert "dim_xdiv = 36" in stdout
    assert "system dim = 90" in stdout
    assert "err_hcurl_hdiv_rel" in stdout
    # the timing line has a stage for the error evaluation after the solve
    assert re.search(r"^setup \d+\.\d\d s / assemble \d+\.\d\d s / "
                     r"solve \d+\.\d\d s / errors \d+\.\d\d s$", stdout, re.M)
    assert re.search(r"^lu_nnz = [1-9][0-9]*$", stdout, re.M)
    # the congruence classes of cubic:2 against its 8 cells, 36 faces and
    # 54 edges, on the line after lu_nnz
    lines = stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("lu_nnz"))
    assert re.fullmatch(r"local shapes = cells 8/8, faces 6/36, edges 3/54",
                        lines[at + 1]), lines[at + 1]
    payload = json.loads(out.read_text())
    assert payload["system_dim"] == 90
    assert "lu_nnz" not in payload
    assert "local shapes" not in out.read_text()
    assert payload["residual"] < 1e-10
    assert 0 < payload["errors"]["err_hcurl_hdiv_rel"] < 2


def test_solve_on_mesh_file_skips_exact_errors(capsys, pyramid_file):
    code = main(["solve", "--mesh", pyramid_file, "--degree", "0"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "err_hcurl_hdiv_rel" not in stdout
    assert re.search(r"^setup .* / solve \d+\.\d\d s$", stdout, re.M)
    assert "residual" in stdout


# ----------------------------------------------------------------------
# converge


def test_converge_writes_csv_with_rates(capsys, tmp_path):
    out = tmp_path / "conv.csv"
    code = main([
        "converge", "--family", "cubic", "--degrees", "0",
        "--levels", "2,4", "--out", str(out),
    ])
    assert code == 0
    assert "fitted rate" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[0] == (
        "mesh_family,level,mesh_size_h,num_cells,dim_xcurl,dim_xdiv,"
        "err_hcurl_hdiv_rel,rate"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[0] == "cubic" and first[1] == "2" and first[-1] == ""
    assert second[1] == "4" and float(second[-1]) > 0.5
    assert float(second[6]) < float(first[6])


def test_converge_builds_the_agglomerates_of_its_seed(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["converge", "--family", "agglo", "--degrees", "0",
                 "--levels", "2,4", "--seed", "1", "--out", str(out)]) == 0
    cells = [int(line.split(",")[3])
             for line in out.read_text().strip().split("\n")[1:]]
    assert cells == [polyddr.agglomerate_pairs(polyddr.generate_cubic_mesh(n),
                                               seed=1).num_cells
                     for n in (2, 4)] == [4, 34]


def test_converge_rate_on_non_doubling_levels(tmp_path):
    # the pairwise rate divides by log(h_prev / h), not log 2
    out = tmp_path / "conv.csv"
    code = main(["converge", "--family", "cubic", "--degrees", "0",
                 "--levels", "2,3", "--out", str(out)])
    assert code == 0
    first, second = (line.split(",") for line in
                     out.read_text().strip().split("\n")[1:])
    want = (np.log(float(first[6]) / float(second[6]))
            / np.log(float(first[2]) / float(second[2])))
    assert second[-1] == f"{want:.6f}"


def test_converge_cartesian_row_count(tmp_path):
    out = tmp_path / "conv.csv"
    code = main([
        "converge", "--family", "cubic", "--degrees", "0,1",
        "--levels", "1,2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5


def test_converge_outputs_thread_invariant(tmp_path):
    out1 = tmp_path / "t1.csv"
    out4 = tmp_path / "t4.csv"
    args = ["converge", "--family", "cubic", "--degrees", "0", "--levels", "2,4"]
    assert main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(args + ["--threads", "4", "--out", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_solve_outputs_thread_invariant(tmp_path):
    out1 = tmp_path / "s1.json"
    out4 = tmp_path / "s4.json"
    args = ["solve", "--mesh", "cubic:2", "--degree", "0"]
    assert main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(args + ["--threads", "4", "--out", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()


# ----------------------------------------------------------------------
# installed entry point and demos


def _run_child(args):
    # the child must import the same package as this process
    src = str(Path(polyddr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point_runs():
    proc = _run_child(["-m", "polyddr.cli", "verify", "--mesh", "cubic:1",
                       "--degree", "0", "--suite", "complex"])
    assert proc.returncode == 0, proc.stderr
    assert "[pass] complex(k=0)" in proc.stdout


DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo,last_line", [
    ("spaces_and_operators.py",
     r"stabilized energy of interpolated field: \d+\.\d+ \(> 0\)"),
    ("verification_walkthrough.py", r"all checks passed"),
])
def test_demo_runs(demo, last_line):
    proc = _run_child([str(DEMOS / demo)])
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(last_line, proc.stdout.splitlines()[-1])
