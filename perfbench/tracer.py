"""Span tracing of polyddr's public entry points, from outside the package.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, run id) and rebinds the
wrapper under every name that refers to the original in any loaded
`polyddr.*` module, because several modules import functions by name.
`Tracer.restore()` puts every original back.  Spans stay in memory until
`write()`.

Self time of a span is its duration minus the durations of its direct
children; spans nest strictly because the traced code is single-threaded
(`assemble(..., threads=None)`).  Each per-layer time metric is the summed
self time of the spans listed for it in `SELF_TIME`.
"""

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# (owner, attribute) of every traced entry point, keyed by span name.  The
# owner is a module name (module-level functions) or "module:Class".
TRACED = {
    "Mesh.__init__": ("polyddr.mesh:Mesh", "__init__"),
    "Mesh.to_dict": ("polyddr.mesh:Mesh", "to_dict"),
    "generate_cubic_mesh": ("polyddr.mesh", "generate_cubic_mesh"),
    "generate_tet_mesh": ("polyddr.mesh", "generate_tet_mesh"),
    "entity_rule": ("polyddr.quadrature", "entity_rule"),
    "BasisBank.core": ("polyddr.polyspaces:BasisBank", "core"),
    "scalar_basis": ("polyddr.polyspaces", "scalar_basis"),
    "vector_basis": ("polyddr.polyspaces", "vector_basis"),
    "subspace_basis": ("polyddr.polyspaces", "subspace_basis"),
    "PolyBasis.eval": ("polyddr.polyspaces:PolyBasis", "eval"),
    "PolyBasis.grad": ("polyddr.polyspaces:PolyBasis", "grad"),
    "PolyBasis.div": ("polyddr.polyspaces:PolyBasis", "div"),
    "PolyBasis.curl": ("polyddr.polyspaces:PolyBasis", "curl"),
    "l2_project": ("polyddr.polyspaces", "l2_project"),
    "edge_reconstruct": ("polyddr.ddrcore", "edge_reconstruct"),
    "op_grad_edge": ("polyddr.ddrcore", "op_grad_edge"),
    "op_grad_face": ("polyddr.ddrcore", "op_grad_face"),
    "op_scalar_trace": ("polyddr.ddrcore", "op_scalar_trace"),
    "op_curl_face": ("polyddr.ddrcore", "op_curl_face"),
    "op_tangential_trace": ("polyddr.ddrcore", "op_tangential_trace"),
    "op_grad_cell": ("polyddr.ddrcore", "op_grad_cell"),
    "op_curl_cell": ("polyddr.ddrcore", "op_curl_cell"),
    "op_div_cell": ("polyddr.ddrcore", "op_div_cell"),
    "op_potential": ("polyddr.ddrcore", "op_potential"),
    "global_operator": ("polyddr.ddrcore", "global_operator"),
    "interpolate": ("polyddr.ddrcore", "interpolate"),
    "stabilization": ("polyddr.products", "stabilization"),
    "l2_product": ("polyddr.products", "l2_product"),
    "component_gram": ("polyddr.products", "component_gram"),
    "assemble_product": ("polyddr.products", "assemble_product"),
    "graph_norms": ("polyddr.products", "graph_norms"),
    "assemble": ("polyddr.scheme", "assemble"),
    "solve": ("polyddr.scheme", "solve"),
    "error_norms": ("polyddr.scheme", "error_norms"),
    "check_polynomial_consistency": (
        "polyddr.verification", "check_polynomial_consistency"),
}

EDGE_FACE_OPS = ("edge_reconstruct", "op_grad_edge", "op_grad_face",
                 "op_scalar_trace", "op_curl_face", "op_tangential_trace")
CELL_OPS = ("op_grad_cell", "op_curl_cell", "op_div_cell")
LOCAL_OPS = EDGE_FACE_OPS + CELL_OPS + ("op_potential",)
BASES = ("scalar_basis", "vector_basis", "subspace_basis")
TABULATE = ("PolyBasis.eval", "PolyBasis.grad", "PolyBasis.div",
            "PolyBasis.curl")

# per-layer time metric -> the spans whose self time it sums.  Every traced
# span belongs to exactly one metric, so the metrics partition traced time.
SELF_TIME = {
    "mesh.build_s": ("Mesh.__init__", "Mesh.to_dict", "generate_cubic_mesh",
                     "generate_tet_mesh"),
    "quadrature.rule_s": ("entity_rule",),
    "polyspaces.basis_s": ("BasisBank.core",) + BASES,
    "polyspaces.tabulate_s": TABULATE,
    "polyspaces.project_s": ("l2_project",),
    "ddrcore.edge_face_ops_s": EDGE_FACE_OPS,
    "ddrcore.cell_ops_s": CELL_OPS,
    "ddrcore.potential_s": ("op_potential",),
    "ddrcore.global_operator_s": ("global_operator",),
    "ddrcore.interpolate_s": ("interpolate",),
    "products.stabilization_s": ("stabilization",),
    "products.product_s": ("l2_product", "component_gram"),
    "products.assemble_s": ("assemble_product",),
    "products.graph_norms_s": ("graph_norms",),
    "scheme.assemble_s": ("assemble",),
    "scheme.factorize_s": ("solve",),
    "scheme.error_norms_s": ("error_norms",),
    "verification.consistency_s": ("check_polynomial_consistency",),
}

# span name -> work counter it feeds (counted once per call)
CALL_COUNTS = {name: "polyspaces.bases" for name in BASES}
CALL_COUNTS.update({name: "polyspaces.tabulate_calls" for name in TABULATE})
CALL_COUNTS.update({name: "ddrcore.op_calls" for name in LOCAL_OPS})
CALL_COUNTS["entity_rule"] = "quadrature.rules"

# span names whose distinct results are counted (a cache hit returns an
# object already seen, so the distinct count is the number built)
DISTINCT = {name: "ddrcore.local_ops" for name in LOCAL_OPS}
DISTINCT.update({"l2_product": "products.local_forms",
                 "stabilization": "products.local_forms"})


def traced_call_s(calls=4000, batches=5):
    """Wall time of one traced call of a no-op, median over batches.
    Multiplied by the number of spans, it estimates the wrappers' own cost
    in a run; unlike a difference of traced and untraced run times, it is
    never negative."""
    noop = Tracer()._wrap("noop", lambda: None)
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans and work counts for one benchmark process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, run id)
        self.counts = Counter()
        self.run_id = 0
        self.originals = {}  # span name -> original callable
        self._distinct = defaultdict(dict)  # counter -> {id: result}
        self._stack = []
        self._patches = []  # (namespace object, attribute, original)

    # -- spans ---------------------------------------------------------

    def _record(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named name."""
        return self._record(name, fn, args, kwargs)

    def _wrap(self, name, fn):
        counter = CALL_COUNTS.get(name)
        distinct = DISTINCT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self._record(name, fn, args, kwargs)
            if counter:
                self.counts[counter] += 1
            if distinct:
                # keep the result alive so that its id stays unique
                self._distinct[distinct][id(out)] = out
            if name in TABULATE:
                self.counts["polyspaces.tabulated_values"] += out.size
            elif name == "entity_rule":
                self.counts[f"quadrature.points.{args[1]}"] += len(out)
            return out

        return traced

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every entry point in TRACED; the package must be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "polyddr" or key.startswith("polyddr.")]
        for name, (owner, attr) in TRACED.items():
            holder = _resolve(owner)
            original = holder.__dict__[attr]
            wrapper = self._wrap(name, original)
            self.originals[name] = original
            if holder in namespaces:
                targets = namespaces
            else:
                targets = [holder]
            for ns in targets:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def restore(self):
        """Put every wrapped original back, in reverse order."""
        while self._patches:
            ns, key, original = self._patches.pop()
            setattr(ns, key, original)

    # -- results -------------------------------------------------------

    def next_run(self):
        """Start a new run id and clear the per-run work counts."""
        self.run_id += 1
        self.counts.clear()
        self._distinct.clear()

    def run_counts(self):
        """Work counts of the current run, distinct-result counts included."""
        out = Counter(self.counts)
        for counter, seen in self._distinct.items():
            out[counter] = len(seen)
        return out

    def self_times(self, run_id):
        """Self time per span name over the spans of one run."""
        spans = self.spans
        child = Counter()
        for name, start, end, parent, rid in spans:
            if rid == run_id and parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, parent, rid) in enumerate(spans):
            if rid == run_id:
                out[name] += end - start - child[i]
        return out

    def outermost_time(self, run_id, names):
        """Summed duration of the spans of one run named in names that have
        no ancestor named in names: the wall time inside those calls."""
        inside = {}
        total = 0.0
        for i, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            hit = name in names
            if hit and not inside.get(parent, False):
                total += end - start
            inside[i] = hit or inside.get(parent, False)
        return total

    def span_count(self, run_id):
        return sum(1 for s in self.spans if s[4] == run_id)

    def write(self, path):
        """Write all spans as tab-separated lines with a header."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trun\n")
            for name, start, end, parent, rid in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{rid}\n")
