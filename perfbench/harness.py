"""polyddr benchmark: workloads, output checks and the measurement loop.

Each iteration of a workload builds its input from scratch (set-up), then
runs it and checks the outputs.  A fresh problem per iteration matters:
local operators are cached on the problem's spaces, so reusing one would
time cache lookups.  The loop is closed: the next iteration starts when the
previous one has finished.  All work is serial (`assemble(threads=None)`);
the entry script pins BLAS to one thread before numpy loads.

Only the public API is called; the package is not modified.
"""

import gc
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import polyddr
from polyddr.scheme import RESIDUAL_LIMIT

from tracer import LOCAL_OPS, SELF_TIME, Tracer, traced_call_s

# Interior coordinates of the jittered tet mesh move by a uniform offset in
# [-JITTER * h, JITTER * h]; vertices on a boundary plane slide only within
# it, so the domain stays the unit cube and the manufactured boundary
# conditions hold.  Seeds map onto JITTER_MESHES meshes, each with a pinned
# error from the parent code.
JITTER = 0.15
JITTER_MESHES = 16

# Relative tolerance of the pinned errors: tight enough that a wrong scheme
# fails, loose enough for a change of quadrature rule of the same
# exactness (about 1e-7 on these meshes).
ERR_RTOL = 1e-6

HEX_K1_ERR = 0.39071426498872286
TET_JITTER_K0_ERR = (
    0.20459687944878585, 0.2067049356185298, 0.20045650342342158,
    0.20540815714685426, 0.2088112931202822, 0.20904963079837863,
    0.21213212719332036, 0.19886916684242104, 0.20878775039720845,
    0.19911097886540025, 0.2076224039168862, 0.22041979335927006,
    0.21539785251330115, 0.19804907931152377, 0.22133853758355845,
    0.20090528289602885,
)

END_TO_END = {"setup_s": "s", "solve_s": "s", "run_s": "s",
              "peak_mem_mb": "MB"}

COUNTS = (
    "mesh.cells", "mesh.faces", "mesh.edges",
    "quadrature.rules", "quadrature.points.edge", "quadrature.points.face",
    "quadrature.points.cell",
    "polyspaces.bases", "polyspaces.tabulate_calls",
    "polyspaces.tabulated_values",
    "ddrcore.op_calls", "ddrcore.local_ops",
    "products.local_forms",
    "scheme.system_dim", "scheme.system_nnz",
    "trace.spans",
)
PER_LAYER = dict.fromkeys(SELF_TIME, "s")
PER_LAYER["ddrcore.local_ops_total_s"] = "s"
PER_LAYER.update(dict.fromkeys(COUNTS, "count"))
PER_LAYER.update({"trace.run_s": "s", "trace.overhead_s": "s"})


def jittered_tet_mesh(n, seed):
    """generate_tet_mesh(n) with seeded vertex jitter, rebuilt (and
    validated) through the public Mesh constructor."""
    data = polyddr.generate_tet_mesh(n).to_dict()
    vertices = np.array(data["vertices"])
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-JITTER / n, JITTER / n, size=vertices.shape)
    free = (vertices > 0.0) & (vertices < 1.0)
    return polyddr.Mesh(vertices + np.where(free, offsets, 0.0),
                        data["faces"], data["cells"])


def _err_check(name, err, ref):
    if not abs(err - ref) <= ERR_RTOL * abs(ref):
        return [f"{name}: err_hcurl_hdiv_rel {err!r} differs from the pinned "
                f"{ref!r} by more than {ERR_RTOL:g} relative"]
    return []


class SolveWorkload:
    """Manufactured magnetostatics problem: assemble, solve, error norms."""

    def __init__(self, name, mesh_of_seed, degree, reference_of_seed):
        self.name = name
        self.mesh_of_seed = mesh_of_seed
        self.degree = degree
        self.reference_of_seed = reference_of_seed

    def setup(self, seed):
        mesh = self.mesh_of_seed(seed)
        return mesh, polyddr.manufactured_problem(mesh, self.degree)

    def solve(self, state):
        _, problem = state
        system = polyddr.assemble(problem, threads=None)
        field, potential = polyddr.solve(system)
        return system, field, potential

    def finish(self, state, solved):
        _, problem = state
        system, field, potential = solved
        _, _, err = polyddr.error_norms(problem, field, potential)
        return {"err_hcurl_hdiv_rel": err, "residual": system.residual,
                "scheme.system_dim": system.matrix.shape[0],
                "scheme.system_nnz": system.matrix.nnz}

    def check(self, seed, out):
        problems = _err_check(self.name, out["err_hcurl_hdiv_rel"],
                              self.reference_of_seed(seed))
        if not out["residual"] <= RESIDUAL_LIMIT:
            problems.append(f"{self.name}: residual {out['residual']:.3e} "
                            f"above {RESIDUAL_LIMIT:g}")
        return problems


class ConsistencyWorkload:
    """Polynomial consistency check, cell by cell; the seed drives the
    check's random coefficient vectors."""

    def __init__(self, name, mesh_of_seed, degree):
        self.name = name
        self.mesh_of_seed = mesh_of_seed
        self.degree = degree

    def setup(self, seed):
        return self.mesh_of_seed(seed), seed

    def solve(self, state):
        mesh, seed = state
        return polyddr.check_polynomial_consistency(mesh, self.degree, seed=seed)

    def finish(self, state, report):
        return {"report": report}

    def check(self, seed, out):
        report = out["report"]
        return [] if report.passed else [f"{self.name}: {f}"
                                         for f in report.failures or ["failed"]]


WORKLOADS = {
    w.name: w for w in (
        SolveWorkload("hex_k1", lambda seed: polyddr.generate_cubic_mesh(4),
                      1, lambda seed: HEX_K1_ERR),
        SolveWorkload(
            "tet_jitter_k0",
            lambda seed: jittered_tet_mesh(4, seed % JITTER_MESHES),
            0, lambda seed: TET_JITTER_K0_ERR[seed % JITTER_MESHES]),
        ConsistencyWorkload("tet_k3_consistency",
                            lambda seed: polyddr.generate_tet_mesh(1), 3),
    )
}


def maxrss_mb():
    """Peak resident set size of this process so far (ru_maxrss is in KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced(name, fn, *args):
    return fn(*args)


def _timed_run(workload, state):
    t0 = time.perf_counter()
    solved = workload.solve(state)
    t1 = time.perf_counter()
    out = workload.finish(state, solved)
    t2 = time.perf_counter()
    return out, t1 - t0, t2 - t0


def _layer_values(tracer, mesh, out):
    """Per-layer metrics of the tracer's current run."""
    self_times = tracer.self_times(tracer.run_id)
    values = {metric: sum(self_times[n] for n in names)
              for metric, names in SELF_TIME.items()}
    # local operators with the basis, quadrature and tabulation work they
    # trigger, which their self times leave to polyspaces and quadrature
    values["ddrcore.local_ops_total_s"] = tracer.outermost_time(
        tracer.run_id, LOCAL_OPS)
    counts = tracer.run_counts()
    values.update({name: counts[name] for name in COUNTS})
    values.update({"mesh.cells": mesh.num_cells, "mesh.faces": mesh.num_faces,
                   "mesh.edges": mesh.num_edges,
                   "scheme.system_dim": out.get("scheme.system_dim", 0),
                   "scheme.system_nnz": out.get("scheme.system_nnz", 0),
                   "trace.spans": tracer.span_count(tracer.run_id)})
    return values


def measure(workload, seed, seconds, trace, rss_base_mb, log=None):
    """Run iterations of workload for about `seconds` seconds.

    With trace off the result holds the end-to-end metrics; with trace on,
    every iteration is traced and the result holds the per-layer metrics
    (medians over the iterations).  Every time is a median over the
    iterations of this one loop, `setup_s` included.
    Returns (metrics, attempted, failed, samples, tracer)."""
    log = log or (lambda msg: None)
    tracer = Tracer() if trace else None
    call = tracer.span if trace else _untraced
    samples = {"setup_s": [], "solve_s": [], "run_s": []}
    layers = []
    attempted = failed = 0
    iteration_s = []
    start = time.perf_counter()
    # start another iteration only if one more of median length still ends
    # within `seconds`, so that runs do not overshoot by a whole iteration
    while (attempted == 0
           or time.perf_counter() - start + statistics.median(iteration_s)
           <= seconds):
        begin = time.perf_counter()
        state = out = None  # free the previous problem before the next
        gc.collect()
        attempted += 1
        problems = []
        try:
            if trace:
                tracer.next_run()
                tracer.install()
            t0 = time.perf_counter()
            state = call("bench.setup", workload.setup, seed)
            setup_s = time.perf_counter() - t0
            out, solve_s, run_s = call("bench.run", _timed_run, workload, state)
        except Exception as exc:  # counted as a failed operation
            problems.append(f"{workload.name}: {type(exc).__name__}: {exc}")
        finally:
            if trace:
                tracer.restore()
        if not problems:
            problems = workload.check(seed, out)
            samples["setup_s"].append(setup_s)
            samples["solve_s"].append(solve_s)
            samples["run_s"].append(run_s)
            if "err_hcurl_hdiv_rel" in out:
                samples.setdefault("err_hcurl_hdiv_rel", []).append(
                    out["err_hcurl_hdiv_rel"])
            if trace:
                layers.append(_layer_values(tracer, state[0], out))
                layers[-1]["trace.run_s"] = run_s
        if problems:
            failed += 1
            for p in problems:
                log(f"FAILED {p}")
        iteration_s.append(time.perf_counter() - begin)

    metrics = {}
    if trace:
        if layers:
            metrics = {name: statistics.median(v[name] for v in layers)
                       for name in PER_LAYER if name != "trace.overhead_s"}
            metrics["trace.overhead_s"] = (metrics["trace.spans"]
                                           * traced_call_s())
    else:
        for name in ("setup_s", "solve_s", "run_s"):
            if samples[name]:
                metrics[name] = statistics.median(samples[name])
        metrics["peak_mem_mb"] = maxrss_mb() - rss_base_mb
    return metrics, attempted, failed, samples, tracer


def _openblas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _git_commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root, seed, blas_threads):
    """Record of the code, libraries and machine a result came from."""
    return {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_version(),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "jitter_amplitude_h": JITTER,
        "jitter_mesh": seed % JITTER_MESHES,
        "polyddr": str(Path(polyddr.__file__).resolve().parent),
        "argv": sys.argv[1:],
    }
