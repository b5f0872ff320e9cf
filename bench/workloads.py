"""Benchmark workloads: inputs, one solve, and the correctness gates.

Every workload builds its operators from the grid alone. The benchmark seed
reaches the program only as the solver / test-vector ``seed=`` argument.
``jspectral`` is imported inside the functions, so that the set-up timing of
a fresh process includes the package import.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, replace
from typing import Callable

TOL = 1e-8  # solver tolerance (the library and CLI default)


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int
    levels: int
    restarts: int
    build: Callable  # (workload) -> ctx, the timed set-up
    solve: Callable  # (workload, ctx, seed) -> result
    check: Callable  # (workload, ctx, result) -> list of failed gates
    n_levels: Callable  # result -> certified levels

    def tiny(self):
        """The same workload at a grid small enough for the harness self-check."""
        return replace(self, grid=48, levels=3, restarts=2)


def _spectrum_gates(js, w):
    """Gates shared by every workload: level count, residuals, ordering."""
    fails = []
    if js.n_levels != w.levels:
        fails.append(f"{js.n_levels} levels certified, {w.levels} requested")
    bad = [r for r in js.residuals if not r <= TOL]
    if bad:
        fails.append(f"residual {max(bad):.3e} above tol {TOL:g}")
    lams = js.lambdas
    if any(not b < a for a, b in zip(lams, lams[1:])):
        fails.append(f"lambdas not strictly decreasing: {lams}")
    return fails


# -- hilbert-deflation: compute_jspectrum(hardy L2 -> L2) --------------------

def _hd_build(w):
    import jspectral as jl

    s = jl.Space.uniform(w.grid, 2.0)
    return {"T": jl.hardy(s, s)}


def _hd_solve(w, ctx, seed):
    import jspectral as jl

    return jl.compute_jspectrum(ctx["T"], w.levels, tol=TOL, seed=seed,
                                restarts=w.restarts)


def half_cell_singular_values(n, k):
    """Top-k singular values of the half-cell Hardy matrix on the uniform
    grid, h * (strictly lower ones + I / 2). That matrix is h/2 times the
    Cayley transform (I + N)(I - N)^-1 of the lower shift N, whose singular
    values are cot((2k - 1) pi / (4n)). On a uniform L2 grid the weights
    cancel, so these are the exact discrete j-eigenvalues."""
    import numpy as np

    k = np.arange(1, k + 1)
    return 1.0 / (2 * n * np.tan((2 * k - 1) * np.pi / (4 * n)))


def _hd_check(w, ctx, js):
    import numpy as np

    fails = _spectrum_gates(js, w)
    if js.n_levels != w.levels:
        return fails
    exact = half_cell_singular_values(w.grid, w.levels)
    lams = np.asarray(js.lambdas)
    # criterion 02's tolerance, applied to the exact answer on this grid
    rel = float(np.max(np.abs(lams - exact) / exact))
    if not rel <= 1e-5:
        fails.append(f"max rel dev {rel:.2e} from the discrete singular values")
    # criterion 02 itself holds 1e-5 against the continuum at grid 2048; the
    # half-cell rule is second order, so the tolerance scales with (2048/n)^2
    k = np.arange(1, w.levels + 1)
    cont = 2.0 / ((2 * k - 1) * np.pi)
    rel_c = float(np.max(np.abs(lams - cont) / cont))
    tol_c = 1e-5 * max(1.0, (2048 / w.grid) ** 2)
    if not rel_c <= tol_c:
        fails.append(f"max rel dev {rel_c:.2e} from 2/((2k-1)pi), tol {tol_c:.1e}")
    return fails


# -- quotient-dual: dual_jspectrum(hardy L3 -> L2) ---------------------------

def _qd_build(w):
    import jspectral as jl

    return {"T": jl.hardy(jl.Space.uniform(w.grid, 3.0), jl.Space.uniform(w.grid, 2.0))}


def _qd_solve(w, ctx, seed):
    import jspectral as jl

    return jl.dual_jspectrum(ctx["T"], w.levels, tol=TOL, seed=seed,
                             restarts=w.restarts)


def _qd_check(w, ctx, js):
    import jspectral as jl

    fails = _spectrum_gates(js, w)
    if js.n_levels:
        ref = jl.hardy_norm_formula(3.0)
        rel = abs(js.lambdas[0] - ref) / ref
        if not rel <= 1e-3:  # criterion 01's tolerance
            fails.append(f"lambda_1 rel dev {rel:.2e} from hardy_norm_formula(3)")
    match = js.meta.get("lambda_match") or [float("inf")]
    if not max(match) <= 1e-5:  # criterion 05's tolerance
        fails.append(f"lambda_match {max(match):.2e} above 1e-5")
    return fails


# -- factorized-series: the CLI's hilbertian series, in process --------------

@contextlib.contextmanager
def _capture(module, name, into):
    """Keep the return value of module.name while the block runs."""
    inner = getattr(module, name)

    def keep(*args, **kwargs):
        into[name] = inner(*args, **kwargs)
        return into[name]

    setattr(module, name, keep)
    try:
        yield
    finally:
        setattr(module, name, inner)


def _fs_argv(w, seed):
    return ["series", "--kind", "hilbertian", "--p", "3", "--q", "1.5",
            "--grid-n", str(w.grid), "--levels", str(w.levels),
            "--restarts", str(w.restarts), "--seed", str(seed)]


def _fs_build(w):
    """Only the import: cli.main builds its spaces and operators itself, so
    for this workload their construction falls inside solve_s."""
    from jspectral import cli  # noqa: F401

    return {}


def _fs_solve(w, ctx, seed):
    from jspectral import cli, jspec, series

    kept = {}
    out = io.StringIO()
    with _capture(jspec, "compute_jspectrum", kept), \
            _capture(series, "hilbertian_series", kept), \
            contextlib.redirect_stdout(out):
        rc = cli.main(_fs_argv(w, seed))
    return {"rc": rc, "doc": json.loads(out.getvalue()) if rc == 0 else None,
            "js": kept.get("compute_jspectrum"), "rep": kept.get("hilbertian_series")}


def _fs_check(w, ctx, res):
    if res["rc"] != 0:
        return [f"cli exit code {res['rc']}"]
    if res["js"] is None or res["rep"] is None:
        return ["spectrum or series not captured from the cli run"]
    fails = _spectrum_gates(res["js"], w)
    if res["rep"].meta.get("lambda_bounded") is not True:
        fails.append(f"lambda_bounded is {res['rep'].meta.get('lambda_bounded')}")
    tail = res["rep"].meta.get("tail_maps_into_flag_dev")
    if not (tail is not None and tail <= 1e-6):
        fails.append(f"tail_maps_into_flag_dev {tail} above 1e-6")
    doc = res["doc"]
    if len(doc["lambdas"]) != w.levels:
        fails.append(f"{len(doc['lambdas'])} series terms, {w.levels} requested")
    # The decay test of tests/test_series.py: strict decrease at N = 1, n/2, n.
    # For q != 2 the error need not fall at every single N (B is applied after
    # the orthogonal projection), so consecutive terms are not compared.
    errs = dict(doc["errors"])
    marks = sorted({1, w.levels // 2, w.levels} & set(errs))
    if any(not errs[b] < errs[a] for a, b in zip(marks, marks[1:])):
        fails.append(f"reconstruction errors do not decay at N = {marks}: {errs}")
    return fails


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hilbert-deflation", 768, 6, 8, _hd_build, _hd_solve, _hd_check,
                 lambda js: js.n_levels),
        Workload("quotient-dual", 1024, 6, 8, _qd_build, _qd_solve, _qd_check,
                 lambda js: js.n_levels),
        Workload("factorized-series", 512, 6, 8, _fs_build, _fs_solve, _fs_check,
                 lambda res: res["js"].n_levels if res["js"] is not None else 0),
    )
}
