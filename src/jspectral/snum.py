"""Approximation numbers and the sandwich bounds linking them to j-eigenvalues.

a_n(T) = inf ||T - F|| over rank F < n, from T's kernels alone. With both
exponents 2 they are exact: the top singular values of the weighted operator,
from one matrix-free PROPACK SVD. With one Hilbert side they are bracketed:
certified upper bounds are the norms (variational solver) of T minus rank-(n-1)
series and SVD truncations, applied lazily in O(nk); lower bounds come from the
sandwich (2^n - 1)^(-1) lambda_n. The report states which regime it used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .jspec import JSpectrum, _solver_args, _spectrum_of, compute_jspectrum, operator_norm
from .oper import LinOp
from .series import SeriesRep, _gram_dev, hilbert_source_series, hilbert_target_series
from .space import ConvergenceError, GeometryError, _count, _csv_text, _lp_norm, _real


@dataclass
class SNumberReport:
    """Per-level sandwich data: lower = (2^n-1)^(-1) lambda_n, upper = lambda_n."""

    approx: list[float]
    lower: list[float]
    upper: list[float]
    slack_lower: list[float]
    slack_upper: list[float]
    passed: list[bool]
    kind: str
    meta: dict = field(default_factory=dict)

    def to_csv(self):
        rows = ((n, lo, a, up, min(a - lo, up - a))
                for n, (lo, a, up) in enumerate(zip(self.lower, self.approx, self.upper), 1))
        return _csv_text(rows, ("n", "lower", "a_n", "upper", "slack"))

    def to_json(self):
        return json.dumps(
            {"approx": self.approx, "lower": self.lower, "upper": self.upper,
             "slack_lower": self.slack_lower, "slack_upper": self.slack_upper,
             "passed": self.passed, "kind": self.kind},
            sort_keys=True,
        )


def _scaled_svd(T, k):
    """Top-k singular triplets (U, s, V) of D_cod T D_dom^-1, D = sqrt(weights), from T's
    kernels; T_k = U diag(s) V^T W_dom. PROPACK, unlike ARPACK, serves k = min(shape)."""
    if k < 1:  # svds takes k >= 1
        return np.zeros((T.cod.dim, 0)), np.zeros(0), np.zeros((T.dom.dim, 0))
    # imported here: at module level it adds ~2.5 MB and ~30 ms to every package import
    from scipy.sparse.linalg import LinearOperator, svds

    dc, dd = np.sqrt(T.cod.weights), np.sqrt(T.dom.weights)
    op = LinearOperator((T.cod.dim, T.dom.dim), dtype=float,
                        matvec=lambda x: dc * T.apply_coeffs(np.ravel(x) / dd),
                        rmatvec=lambda y: dd * T.apply_adjoint_coeffs(np.ravel(y) / dc))
    U, s, Vt = svds(op, k, solver="propack", tol=0, v0=np.ones(T.cod.dim))
    return U[:, ::-1] / dc[:, None], s[::-1], Vt[::-1].T / dd[:, None]


def approx_numbers_report(T: LinOp, n_max: int, js: JSpectrum | None = None,
                          tol: float = 1e-8, seed: int = 42,
                          restarts: int = 4) -> dict:
    """Approximation numbers with their provenance.

    kind "exact": both sides Hilbert, values are singular values.
    kind "bracketed": one Hilbert side; values are the best measured norm of
    T minus explicit rank-(n-1) candidates, upper bounds for the true a_n.
    A candidate whose norm does not certify is skipped; ConvergenceError is
    raised when no candidate certifies at some n. A candidate with T - F
    numerically zero (the solver finds T - F vanishing) counts with norm 0.
    An n_max that is not an integer of at least 0 raises GeometryError, as
    do a tol, restarts or seed that the solver rejects and a js not computed
    between T.dom and T.cod, on either route.
    """
    if T.dom.p != 2.0 and T.cod.p != 2.0:
        raise GeometryError(
            "approximation numbers need a Hilbert side (exponent 2); "
            "mixed-mixed cases are out of scope"
        )
    # tol, restarts and seed are checked also on the exact route, which never solves
    n_max, (tol, restarts, seed) = _count(n_max, "n_max"), _solver_args(tol, restarts, seed)
    if js is not None:
        _spectrum_of(js, T.dom, T.cod, "approx_numbers_report")
    U, s, V = _scaled_svd(T, min(n_max, T.dom.dim, T.cod.dim))
    if T.dom.p == 2.0 and T.cod.p == 2.0:  # singular values of the scaled matrix
        vals = s.tolist() + [0.0] * (n_max - len(s))
        return {"values": vals, "kind": "exact", "n_max": n_max, "tol": 0.0}
    if js is None:
        js = compute_jspectrum(T, n_max, tol=tol, seed=seed, restarts=restarts)
    rep = (hilbert_source_series(T, js) if T.dom.p == 2.0
           else hilbert_target_series(T, js))
    candidates = {"series": rep, "svd": SeriesRep("svd", s.tolist(), U, V, T.dom, T.cod)}
    values = []
    details = []
    for n in range(1, n_max + 1):
        k = n - 1
        best = np.inf
        best_name = None
        residuals = []
        for name, cand in candidates.items():
            try:  # 0.0 when T - F vanishes to the solver's floor
                norm = operator_norm(cand.remainder(T, k), tol=max(tol, 1e-9), seed=seed,
                                     restarts=restarts)
            except ConvergenceError as exc:
                residuals.append(exc.residual)
                continue  # an uncertified norm bounds nothing
            if norm < best:
                best, best_name = norm, name
        if best_name is None:
            res = min(residuals)
            raise ConvergenceError(
                f"no rank-{k} candidate has a certified norm at n = {n}", residual=res,
            )
        values.append(best)
        details.append(best_name)
    return {"values": values, "kind": "bracketed", "candidates": details,
            "n_max": n_max, "tol": tol}


def approx_numbers(T: LinOp, n_max: int, **kw) -> list[float]:
    """Nonincreasing approximation numbers (exact or certified upper bounds)."""
    return approx_numbers_report(T, n_max, **kw)["values"]


def sandwich_check(js: JSpectrum, a, tol: float = 1e-6) -> SNumberReport:
    """Check (2^n - 1)^(-1) lambda_n <= a_n <= lambda_n with slack reporting.

    A violation beyond the combined tolerance flags an under-shot lambda_n,
    since the j-eigenvalues are computed variationally from below. tol must
    be finite and positive.
    """
    tol = _real(tol, "tol", 0)
    a = list(a)
    n = min(len(a), js.n_levels)
    lower, upper, slo, sup, passed = [], [], [], [], []
    for k in range(n):
        lam = js.lambdas[k]
        lo = lam / (2.0 ** (k + 1) - 1.0)
        lower.append(lo)
        upper.append(lam)
        slo.append(a[k] - lo)
        sup.append(lam - a[k])
        passed.append(slo[-1] >= -tol and sup[-1] >= -tol)
    return SNumberReport(a[:n], lower, upper, slo, sup, passed,
                         kind="sandwich", meta={"tol": tol})


def eigenvector_bound_check(T: LinOp, js: JSpectrum, n_max: int | None = None,
                  tol: float = 1e-6, a_values=None, **kw) -> dict:
    """For a Hilbert domain: a_i(T) <= ||T h_i|| = lambda_i on the orthonormal
    j-eigenvectors h_i = x_i, for the first n_max levels (an integer of at
    least 0; all if None), with js computed between T.dom and T.cod and tol
    finite and positive, and a_values, when given, holding at least one
    entry per level checked. Returns the slacks and the orthonormality of the
    h_i (an upstream flag if it fails)."""
    if T.dom.p != 2.0:
        raise GeometryError("eigenvector_bound_check needs a Hilbert domain")
    _spectrum_of(js, T.dom, T.cod, "eigenvector_bound_check")
    tol = _real(tol, "tol", 0)
    n = js.n_levels if n_max is None else min(_count(n_max, "n_max"), js.n_levels)
    if a_values is None:
        a_values = approx_numbers(T, n, js=js, **kw)
    elif len(a_values) < n:
        raise GeometryError(f"a_values needs at least {n} entries, got {len(a_values)}")
    th = _lp_norm(T.apply_coeffs(js.X[:, :n]), T.cod.weights, T.cod.p).tolist()
    slacks = [th[i] - a_values[i] for i in range(n)]
    return {
        "a": list(a_values[:n]),
        "Th_norms": th,
        "lambdas": list(js.lambdas[:n]),
        "slacks": slacks,
        "passed": [s >= -tol for s in slacks],
        "h_gram_dev": _gram_dev(js.X[:, :n], T.dom),
        "tol": tol,
    }
