"""Command-line front end: verification suites on a chosen mesh,
convergence studies of the magnetostatics scheme, and single solves.

Result artifacts (CSV tables, JSON reports) are deterministic for a
fixed configuration and seed.  All work is serial: --threads is accepted
for compatibility and ignored.  Wall-clock timings are printed to the
terminal but never written into artifacts.
"""

import argparse
import json
import sys
import time

import numpy as np

from .mesh import MeshError, load_mesh
from .scheme import assemble, error_norms, manufactured_problem, solve
from .verification import (
    mesh_family,
    check_adjoint_decay,
    check_commutation,
    check_complex,
    check_poincare,
    check_polynomial_consistency,
    check_primal_consistency,
    check_recovery,
    check_traces,
)

__all__ = ["main", "build_parser", "parse_mesh_spec", "ConfigError"]

SUITES = (
    "complex",
    "commutation",
    "consistency",
    "traces",
    "recovery",
    "poincare",
    "adjoint",
)
FAMILIES = ("cubic", "tet", "agglo")


class ConfigError(Exception):
    """Invalid run configuration (bad mesh spec, bad numeric range)."""


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be >= 0")
    return value


def _positive_int(text):
    value = _nonnegative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _int_list(text, minimum, what):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be comma-separated integers")
    if not values or any(v < minimum for v in values):
        raise argparse.ArgumentTypeError(f"{what} must all be >= {minimum}")
    return values


def _degrees_arg(text):
    return _int_list(text, 0, "degrees")


def _levels_arg(text):
    values = _int_list(text, 1, "levels")
    if len(values) < 2:
        raise argparse.ArgumentTypeError("a rate needs at least two levels")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError("levels must be strictly increasing")
    return values


def parse_mesh_spec(spec):
    """Build a mesh from a builtin spec or load one from a file.

    Builtin specs are "cubic:N", "tet:N", "agglo:N" or "agglo:N:seed",
    optionally prefixed with "builtin:".  Anything else is treated as a
    path to a JSON mesh file.  Returns (mesh, family) where family is
    (name, level) for builtin specs and None for files."""
    mesh, builtin = _load_mesh_spec(spec)
    return mesh, builtin and builtin[:2]


def _load_mesh_spec(spec):
    """(mesh, builtin) of a mesh spec (parse_mesh_spec): builtin is (name,
    level, build) for builtin specs, build the family's builder n -> mesh
    with the spec's seed bound, and None for files."""
    explicit = spec.startswith("builtin:")
    body = spec[len("builtin:"):] if explicit else spec
    parts = body.split(":")
    if parts[0] in FAMILIES:
        if len(parts) < 2:
            raise ConfigError(f"mesh spec {spec!r} is missing the refinement level")
        try:
            n = int(parts[1])
        except ValueError:
            raise ConfigError(f"mesh spec {spec!r} has a non-integer level")
        if n < 1:
            raise ConfigError(f"mesh spec {spec!r} needs a level >= 1")
        if len(parts) > (3 if parts[0] == "agglo" else 2):
            raise ConfigError(f"mesh spec {spec!r} has too many fields")
        try:
            seed = int(parts[2]) if len(parts) == 3 else 0
        except ValueError:
            raise ConfigError(f"mesh spec {spec!r} has a non-integer seed")
        build = mesh_family(parts[0], seed)
        return build(n), (parts[0], n, build)
    if explicit:
        raise ConfigError(f"unknown builtin mesh family {parts[0]!r}")
    return load_mesh(body), None


# ----------------------------------------------------------------------
# verify


def _run_suite(suite, mesh, refined, family, k, levels, seed):
    if suite == "complex":
        return [check_complex(mesh, k)]
    if suite == "commutation":
        return [check_commutation(mesh, k, seed=seed)]
    if suite == "consistency":
        return [
            check_polynomial_consistency(mesh, k, seed=seed),
            check_primal_consistency(family, k, levels, seed=seed),
        ]
    if suite == "traces":
        return [check_traces(mesh, max_degree=3)]
    if suite == "recovery":
        return [check_recovery(mesh, max_degree=3, seed=seed)]
    if suite == "poincare":
        return [check_poincare(mesh, k, refined=refined)]
    if suite == "adjoint":
        return [check_adjoint_decay(family, k, levels, seed=seed)]
    raise ConfigError(f"unknown suite {suite!r}")


def cmd_verify(args):
    mesh, builtin = _load_mesh_spec(args.mesh)
    family = args.family or (builtin[0] if builtin else "cubic")
    selected = tuple(args.suite) if args.suite else SUITES
    # the Poincaré suite's one refinement of a builtin mesh
    refined = (builtin[2](2 * builtin[1])
               if builtin is not None and "poincare" in selected else None)
    reports = []
    for suite in SUITES:
        if suite in selected:
            reports.extend(_run_suite(suite, mesh, refined, family, args.degree,
                                      args.levels, args.seed))
    for report in reports:
        print("\n".join(report.lines()))
    if args.out:
        payload = [json.loads(report.to_json()) for report in reports]
        with open(args.out, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0 if all(report.passed for report in reports) else 1


# ----------------------------------------------------------------------
# converge


def cmd_converge(args):
    build = mesh_family(args.family, args.seed)
    lines = [
        "mesh_family,level,mesh_size_h,num_cells,dim_xcurl,dim_xdiv,"
        "err_hcurl_hdiv_rel,rate"
    ]
    for k in args.degrees:
        prev = None
        hs, errs = [], []
        for n in args.levels:
            mesh = build(n)
            problem = manufactured_problem(mesh, k)
            system = assemble(problem)
            try:
                field, potential = solve(system)
            except RuntimeError as exc:
                print(
                    f"solver failed at level {n} (degree {k}): {exc}",
                    file=sys.stderr,
                )
                return 1
            _, _, e_rel = error_norms(problem, field, potential)
            sc, sd, _ = problem.spaces()
            rate = "" if prev is None else (
                f"{np.log(prev[1] / e_rel) / np.log(prev[0] / mesh.h):.6f}")
            lines.append(
                f"{args.family},{n},{mesh.h!r},{mesh.num_cells},"
                f"{sc.dim},{sd.dim},{e_rel!r},{rate}"
            )
            prev = (mesh.h, e_rel)
            hs.append(mesh.h)
            errs.append(e_rel)
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        print(f"degree {k}: fitted rate {slope:.3f} over levels {args.levels}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


# ----------------------------------------------------------------------
# solve


def cmd_solve(args):
    t0 = time.perf_counter()
    mesh, family_info = parse_mesh_spec(args.mesh)
    problem = manufactured_problem(mesh, args.degree)
    sc, sd, _ = problem.spaces()
    t_setup = time.perf_counter() - t0

    t0 = time.perf_counter()
    system = assemble(problem)
    t_assemble = time.perf_counter() - t0

    t0 = time.perf_counter()
    field, potential = solve(system)
    t_solve = time.perf_counter() - t0

    print(f"dim_xcurl = {sc.dim}")
    print(f"dim_xdiv = {sd.dim}")
    print(f"system dim = {sc.dim + sd.dim}")
    print(f"residual = {system.residual:.3e}")
    print(f"lu_nnz = {system.lu_nnz}")
    # congruence classes against entities: the local matrices built
    print("local shapes = " + ", ".join(
        "{}s {}/{}".format(kind, *sc.bank.class_counts(kind))
        for kind in ("cell", "face", "edge")))
    payload = {
        "dim_xcurl": sc.dim,
        "dim_xdiv": sd.dim,
        "system_dim": sc.dim + sd.dim,
        "residual": system.residual,
    }
    stages = [("setup", t_setup), ("assemble", t_assemble), ("solve", t_solve)]
    if family_info is not None:
        t0 = time.perf_counter()
        e_curl, e_div, e_rel = error_norms(problem, field, potential)
        stages.append(("errors", time.perf_counter() - t0))
        print(f"err_hcurl = {e_curl!r}")
        print(f"err_hdiv = {e_div!r}")
        print(f"err_hcurl_hdiv_rel = {e_rel!r}")
        payload["errors"] = {
            "err_hcurl": e_curl,
            "err_hdiv": e_div,
            "err_hcurl_hdiv_rel": e_rel,
        }
    print(" / ".join(f"{name} {t:.2f} s" for name, t in stages))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


# ----------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument("--seed", type=_nonnegative_int, default=0)
    sub.add_argument("--threads", type=_positive_int, default=1,
                     help="accepted for compatibility and ignored; all work is serial")
    sub.add_argument("--out", help="artifact path (CSV or JSON)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polyddr",
        description="Discrete de Rham toolbox: verify, converge, solve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run verification suites on a mesh")
    p.add_argument("--mesh", default="builtin:cubic:2",
                   help='builtin spec ("cubic:N", "tet:N", "agglo:N[:seed]") or file path')
    p.add_argument("--degree", type=_nonnegative_int, default=0)
    p.add_argument("--suite", action="append", choices=SUITES,
                   help="repeatable; default is every suite")
    p.add_argument("--family", choices=FAMILIES,
                   help="refinement family for the rate suites")
    p.add_argument("--levels", type=_levels_arg, default=(2, 4, 8))
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("converge", help="convergence study on a mesh family")
    p.add_argument("--family", choices=FAMILIES, default="cubic")
    p.add_argument("--degrees", type=_degrees_arg, default=(0,))
    p.add_argument("--levels", type=_levels_arg, default=(2, 4, 8))
    _add_common(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("solve", help="assemble and solve one problem")
    p.add_argument("--mesh", required=True)
    p.add_argument("--degree", type=_nonnegative_int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
