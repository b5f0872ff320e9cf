"""Batch command-line front end.

One process, one subcommand, one JSON document (or CSV table) on stdout or
to --out. Defaults: grid_n=1024, tol=1e-8, seed=42, JSON to stdout. The same
configuration and seed produce byte-identical output. Exit codes: 0 success,
2 invalid arguments, 3 numerical non-convergence (message carries the best
residual).

The environment variable JSPECTRAL_OUT_DIR supplies a default directory for
relative --out paths.

Each subcommand imports the layer it uses when it runs: the module imports
only the solver core (``jspec``, ``oper``, ``space``), so ``jspec``,
``dual`` and ``konig`` load no other layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import jspec
from .oper import LinOp, compose, hardy
from .space import ConvergenceError, GeometryError, Space


class _InvalidArguments(ValueError):
    """Arguments that parse but that the command cannot serve."""


def _space_pair(args, q=None):
    dom = Space.uniform(args.grid_n, args.p, args.b)
    cod = Space.uniform(args.grid_n, args.q if q is None else q, args.b)
    return dom, cod


def _emit(args, doc, to_csv=None):
    """Write doc as JSON, or the text of to_csv() under --format csv."""
    if args.out_format == "csv":
        if to_csv is None:
            raise _InvalidArguments("this command has no CSV form")
        payload = to_csv()
    else:
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        path = args.out
        if not os.path.isabs(path):
            path = os.path.join(os.environ.get("JSPECTRAL_OUT_DIR", ""), path)
        with open(path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _js_doc(js, args):
    return {
        "lambdas": js.lambdas,
        "nus": js.nus,
        "residuals": js.residuals,
        "converged": js.converged,
        "tol": args.tol,
        "grid_n": args.grid_n,
        "seed": args.seed,
        "p": args.p,
        "q": args.q,
    }


def _cmd_jspec(args):
    dom, cod = _space_pair(args)
    T = hardy(dom, cod)
    js = jspec.compute_jspectrum(T, args.levels, tol=args.tol, seed=args.seed,
                                 restarts=args.restarts)
    _emit(args, _js_doc(js, args), js.to_csv)


def _cmd_dual(args):
    dom, cod = _space_pair(args)
    T = hardy(dom, cod)
    js = jspec.dual_jspectrum(T, args.levels, tol=args.tol, seed=args.seed,
                              restarts=args.restarts)
    doc = _js_doc(js, args)
    doc["lambda_match"] = js.meta.get("lambda_match")
    doc["first_dual_vector_dev"] = js.meta.get("first_dual_vector_dev")
    _emit(args, doc, js.to_csv)


def _cmd_series(args):
    from . import series

    dom, cod = _space_pair(args)
    tests = series.random_unit_vectors(dom, 20, seed=args.seed)
    ns = list(range(1, args.levels + 1))
    solver = dict(tol=args.tol, seed=args.seed, restarts=args.restarts)
    if args.kind in ("target", "source", "linearized"):
        T = hardy(dom, cod)
    else:  # factored through L2: T = B o A
        mid = Space.uniform(args.grid_n, 2.0, args.b)
        A = hardy(dom, mid)
        B = hardy(mid, cod)
        T = compose(B, A)
    if args.kind == "target":
        rep = series.hilbert_target_series(
            T, jspec.compute_jspectrum(T, args.levels, **solver))
    elif args.kind == "source":
        rep = series.hilbert_source_series(
            T, jspec.compute_jspectrum(T, args.levels, **solver))
    elif args.kind == "linearized":
        rep = series.linearized_series(T, args.levels, **solver)
    elif args.kind == "hilbertian":
        rep = series.hilbertian_series(
            A, B, jspec.compute_jspectrum(T, args.levels, **solver))
    elif args.kind == "double":
        rep = series.double_series(A, B, args.levels, **solver)
        ns = list(range(1, rep.n_terms + 1))
    else:
        rep = series.half_series(A, B, "A" if args.kind == "half-direct" else "B",
                                 args.levels, **solver)
    errors = rep.reconstruction_errors(T, tests, ns)
    doc = {
        "kind": rep.kind,
        "lambdas": rep.lambdas,
        "errors": errors,
        "tol": args.tol,
        "grid_n": args.grid_n,
        "seed": args.seed,
    }
    _emit(args, doc, lambda: series.SeriesRep.error_table_csv(errors))


def _cmd_snum(args):
    from . import snum

    dom, cod = _space_pair(args)
    T = hardy(dom, cod)
    js = jspec.compute_jspectrum(T, args.n_max, tol=args.tol, seed=args.seed,
                                 restarts=args.restarts)
    rep = snum.approx_numbers_report(T, args.n_max, js=js, tol=args.tol,
                                     seed=args.seed)
    table = snum.sandwich_check(js, rep["values"])
    doc = {
        "approx": rep["values"],
        "kind": rep["kind"],
        "lambdas": js.lambdas,
        "lower": table.lower,
        "upper": table.upper,
        "passed": table.passed,
        "tol": args.tol,
        "grid_n": args.grid_n,
    }
    _emit(args, doc, table.to_csv)


def _cmd_gtrig(args):
    from . import gtrig

    if args.samples < 0:
        raise _InvalidArguments(f"--samples must be at least 0, got {args.samples}")
    g = gtrig.GenTrig(args.p, args.q)
    xs = np.linspace(0.0, g.pi_pq / 2.0, args.samples)
    sins, coss = g.sin(xs), g.cos(xs)
    doc = {
        "p": args.p,
        "q": args.q,
        "pi_pq": g.pi_pq,
        "x": xs.tolist(),
        "sin_pq": sins.tolist(),
        "cos_pq": coss.tolist(),
    }
    _emit(args, doc, lambda: gtrig._table_csv(xs, sins, coss))


def _cmd_pcompact(args):
    from . import pcpt

    if args.demo == "hardy":
        cover, report = pcpt.hardy_qcompact_demo(
            args.p, args.q, n_terms=args.terms, grid_n=args.grid_n, seed=args.seed
        )
        _emit(args, report, cover.to_csv)
    elif args.demo == "sobolev":
        cover, report = pcpt.sobolev_embedding_demo(args.terms, grid_n=args.grid_n,
                                                    seed=args.seed)
        _emit(args, report, cover.to_csv)
    else:
        report = pcpt.ideal_inclusion_demo(grid_n=args.grid_n, seed=args.seed)
        _emit(args, report)


def _cmd_alphap(args):
    from . import series

    rep = series.alpha_p_report(args.p)
    _emit(args, {"alpha_p": rep["alpha_p"], "maximizer": rep["maximizer"],
                 "objective": rep["objective"], "p": args.p,
                 "method": "grid scan (1e4 points) + golden-section refinement"})


def _cmd_konig(args):
    if args.case == "jordan":
        sp = Space.sequence(2, 2.0)
        T = LinOp(np.array([[0.5, 1.0], [0.0, 0.5]]), sp, sp)
    elif args.case == "diag":
        sp = Space.sequence(3, 2.0)
        T = LinOp(np.diag([0.9, 0.5, 0.1]), sp, sp)
    else:
        sp = Space.uniform(args.grid_n, 2.0, args.b)
        T = hardy(sp, sp)
    rep = jspec.konig_report(T, args.n, args.k_max, tol=args.tol, seed=args.seed)
    rep["case"] = args.case
    _emit(args, rep)


def _cmd_bilap(args):
    from . import gtrig

    rep = gtrig.bilaplacian_check(args.p, b=args.b, grid_n=args.grid_n,
                                  tol=args.tol, seed=args.seed)
    _emit(args, rep)


def _cmd_hardy_norm(args):
    from . import gtrig

    _emit(args, {
        "norm": gtrig.hardy_norm_formula(args.p, args.b),
        "norm_dual_form": gtrig.hardy_norm_formula(args.p, args.b, "dual"),
        "p": args.p,
        "b": args.b,
    })


def build_parser():
    ap = argparse.ArgumentParser(
        prog="jspectral",
        description="j-eigenvalue laboratory for discretized Hardy-type operators",
    )
    ap.add_argument("--out", default=None, help="output path (default: stdout)")
    ap.add_argument("--format", dest="out_format", choices=("json", "csv"),
                    default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    flags = {
        "--p": dict(type=float, default=2.0),
        "--q": dict(type=float, default=2.0),
        "--b": dict(type=float, default=1.0),
        "--grid-n": dict(type=int, default=1024),
        "--tol": dict(type=float, default=1e-8),
        "--seed": dict(type=int, default=42),
        "--restarts": dict(type=int, default=8),
    }

    def common(sp_, *names):
        """Add the named shared flags to sp_; all of them when none is named."""
        for name in names or flags:
            sp_.add_argument(name, **flags[name])

    s = sub.add_parser("jspec", help="deflation j-spectrum of the Hardy operator")
    common(s)
    s.add_argument("--levels", type=int, default=4)
    s.set_defaults(func=_cmd_jspec)

    s = sub.add_parser("dual", help="j-spectrum of the adjoint with duality checks")
    common(s)
    s.add_argument("--levels", type=int, default=4)
    s.set_defaults(func=_cmd_dual)

    s = sub.add_parser("series", help="series representations and reconstruction errors")
    common(s)
    s.add_argument("--kind", choices=("target", "source", "linearized", "hilbertian",
                                      "double", "half-direct", "half-dual"), default="target")
    s.add_argument("--levels", type=int, default=6)
    s.set_defaults(func=_cmd_series)

    s = sub.add_parser("snum", help="approximation numbers and sandwich bounds")
    common(s)
    s.add_argument("--n-max", type=int, default=5)
    s.set_defaults(func=_cmd_snum)

    s = sub.add_parser("gtrig", help="generalized sine/cosine table")
    common(s, "--p", "--q")
    s.add_argument("--samples", type=int, default=50)
    s.set_defaults(func=_cmd_gtrig)

    s = sub.add_parser("pcompact", help="p-compactness demonstrations")
    common(s, "--p", "--q", "--grid-n", "--seed")
    s.add_argument("--demo", choices=("hardy", "sobolev", "ideal"), default="hardy")
    s.add_argument("--terms", type=int, default=64)
    s.set_defaults(func=_cmd_pcompact)

    s = sub.add_parser("alphap", help="projection constant alpha_p")
    s.add_argument("--p", type=float, required=True)
    s.set_defaults(func=_cmd_alphap)

    s = sub.add_parser("konig", help="lambda_n(T^k)^(1/k) sequences")
    common(s, "--b", "--grid-n", "--tol", "--seed")
    s.add_argument("--case", choices=("jordan", "diag", "hardy"), default="jordan")
    s.add_argument("--n", type=int, default=1)
    s.add_argument("--k-max", type=int, default=20)
    s.set_defaults(func=_cmd_konig)

    s = sub.add_parser("bilap", help="bi-Laplacian extremal check for H*H")
    common(s, "--p", "--b", "--grid-n", "--tol", "--seed")
    s.set_defaults(func=_cmd_bilap)

    s = sub.add_parser("hardy-norm", help="closed-form Hardy operator norm")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--b", type=float, default=1.0)
    s.set_defaults(func=_cmd_hardy_norm)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)
    except (GeometryError, _InvalidArguments) as exc:
        print(f"error: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        res = "" if exc.residual is None else f" (best residual {exc.residual:.3e})"
        print(f"error: numerical non-convergence: {exc}{res}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
