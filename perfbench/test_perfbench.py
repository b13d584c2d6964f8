"""Smoke tests of the benchmark on tiny inputs.

    python -m pytest -q perfbench/test_perfbench.py

The tiny workloads stand in for the real ones: cubic:1 and jittered tet:2
at k=0, and consistency on tet:1 at k=1.  (tet:1 has only corner vertices,
which the jitter keeps fixed, so the jittered case uses tet:2.)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import polyddr  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

# run-phase layer times must add up to the traced run time within this
# share; the rest is the benchmark's own code between traced calls
SELF_TIME_SLACK = 0.05


def _reference(mesh_of_seed, degree):
    """Pinned-error function computed untraced, so that traced iterations
    must reproduce the untraced result."""
    seen = {}

    def ref(seed):
        if seed not in seen:
            mesh = mesh_of_seed(seed)
            problem = polyddr.manufactured_problem(mesh, degree)
            system = polyddr.assemble(problem)
            seen[seed] = polyddr.error_norms(problem, *polyddr.solve(system))[2]
        return seen[seed]

    return ref


def _tiny_workloads():
    cubic = lambda seed: polyddr.generate_cubic_mesh(1)
    jitter = lambda seed: harness.jittered_tet_mesh(2, seed)
    return {
        "hex_k1": harness.SolveWorkload("hex_k1", cubic, 0,
                                        _reference(cubic, 0)),
        "tet_jitter_k0": harness.SolveWorkload("tet_jitter_k0", jitter, 0,
                                               _reference(jitter, 0)),
        "tet_k3_consistency": harness.ConsistencyWorkload(
            "tet_k3_consistency", lambda seed: polyddr.generate_tet_mesh(1), 1),
    }


def _traced_targets():
    """Every (namespace, attribute, value) that tracing may rebind."""
    out = []
    for key, mod in sorted(sys.modules.items()):
        if key == "polyddr" or key.startswith("polyddr."):
            out.extend((mod, k, v) for k, v in vars(mod).items())
    for owner, _ in tracing.TRACED.values():
        if ":" in owner:
            cls = tracing._resolve(owner)
            out.extend((cls, k, v) for k, v in vars(cls).items())
    return out


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """The entry script on the tiny workloads, writing into tmp_path."""
    for var in run.BLAS_VARS:
        monkeypatch.setenv(var, str(run.BLAS_THREADS))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(harness, "WORKLOADS", _tiny_workloads())
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.chdir(REPO)

    def main(workload, trace, seed=3):
        return run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace)])

    return main


@pytest.mark.parametrize("workload", ["hex_k1", "tet_jitter_k0",
                                      "tet_k3_consistency"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    assert tiny(workload, trace) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    assert units == (harness.PER_LAYER if trace else harness.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        # peak_mem_mb is left out: this process peaked in earlier tests
        assert all(result["metrics"][m]["value"] > 0
                   for m in ("setup_s", "solve_s", "run_s"))
    env = json.loads(lines[0].split(" ", 1)[1])
    for key in ("git_commit", "python", "numpy", "scipy", "blas",
                "blas_threads", "nproc", "cpu_model", "seed"):
        assert key in env


@pytest.mark.parametrize("workload", ["hex_k1", "tet_jitter_k0",
                                      "tet_k3_consistency"])
def test_traced_self_times_add_up_and_originals_return(workload):
    before = _traced_targets()
    metrics, attempted, failed, samples, tracer = harness.measure(
        _tiny_workloads()[workload], 3, 0, True, harness.maxrss_mb())
    assert failed == 0 and attempted == 1

    run_layers = sum(metrics[m] for m in tracing.SELF_TIME
                     if m != "mesh.build_s")
    assert run_layers == pytest.approx(metrics["trace.run_s"],
                                       rel=SELF_TIME_SLACK)
    assert metrics["trace.spans"] > 0 and metrics["mesh.build_s"] > 0
    assert metrics["trace.overhead_s"] > 0

    for ns, key, value in before:
        assert vars(ns)[key] is value, f"{ns.__name__}.{key} not restored"
    for name, (owner, attr) in tracing.TRACED.items():
        assert tracing._resolve(owner).__dict__[attr] is tracer.originals[name]


def test_every_layer_time_is_reached():
    names = set()
    for workload in _tiny_workloads().values():
        *_, tracer = harness.measure(workload, 1, 0, True, harness.maxrss_mb())
        names.update(span[0] for span in tracer.spans)
    for metric, spans in tracing.SELF_TIME.items():
        assert names & set(spans), f"no span of {metric} was recorded"


def test_jitter_is_seeded_and_keeps_the_boundary():
    base = polyddr.generate_tet_mesh(2).vertices
    a = harness.jittered_tet_mesh(2, 7).vertices
    b = harness.jittered_tet_mesh(2, 7).vertices
    c = harness.jittered_tet_mesh(2, 8).vertices
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    on_plane = (base == 0.0) | (base == 1.0)
    assert np.array_equal(a[on_plane], base[on_plane])
    assert np.abs(a - base).max() <= harness.JITTER / 2
    assert (a[~on_plane] != base[~on_plane]).all()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "hex_k1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
