"""Approximation numbers and the sandwich bounds linking them to j-eigenvalues.

a_n(T) = inf ||T - F|| over rank F < n. With both exponents equal to 2 the
numbers are exact singular values of the weighted matrix (best low-rank
approximation). With one Hilbert side they are bracketed: certified upper
bounds come from explicit rank-(n-1) candidates (series truncations and
weighted-SVD truncations, measured with the variational norm solver) and
lower bounds from the Gelfand-number sandwich (2^n - 1)^(-1) lambda_n. The
report always states which regime produced the values.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import svd, svdvals

from .jspec import DeflationExhausted, JSpectrum, compute_jspectrum, extremal_pair
from .oper import LinOp
from .series import hilbert_source_series, hilbert_target_series, _weighted_gram
from .space import ConvergenceError, GeometryError, _lp_norm


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
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "lower", "a_n", "upper", "slack"])
        for n, (lo, a, up) in enumerate(zip(self.lower, self.approx, self.upper), start=1):
            writer.writerow([n, repr(float(lo)), repr(float(a)), repr(float(up)),
                             repr(float(min(a - lo, up - a)))])
        return buf.getvalue()

    def to_json(self):
        return json.dumps(
            {"approx": self.approx, "lower": self.lower, "upper": self.upper,
             "slack_lower": self.slack_lower, "slack_upper": self.slack_upper,
             "passed": self.passed, "kind": self.kind},
            sort_keys=True,
        )


def _scaled_matrix(T):
    """Matrix of T between the weighted-2 coordinatizations."""
    return (np.sqrt(T.cod.weights)[:, None] * T.dense()) / np.sqrt(T.dom.weights)[None, :]


def exact_hilbert_approx_numbers(T: LinOp, n_max: int) -> list[float]:
    """Singular values of the scaled matrix; exact when both exponents are 2."""
    sv = svdvals(_scaled_matrix(T))
    out = sv[:n_max].tolist()
    out += [0.0] * (n_max - len(out))
    return out


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
    """
    both = T.dom.p == 2.0 and T.cod.p == 2.0
    if both:
        vals = exact_hilbert_approx_numbers(T, n_max)
        return {"values": vals, "kind": "exact", "n_max": n_max, "tol": 0.0}
    if T.dom.p != 2.0 and T.cod.p != 2.0:
        raise GeometryError(
            "approximation numbers need a Hilbert side (exponent 2); "
            "mixed-mixed cases are out of scope"
        )
    if js is None:
        js = compute_jspectrum(T, n_max, tol=tol, seed=seed, restarts=restarts)
    rep = (hilbert_source_series(T, js) if T.dom.p == 2.0
           else hilbert_target_series(T, js))
    A = T.dense()
    U, s, Vt = svd(_scaled_matrix(T), full_matrices=False)
    Dc = np.sqrt(T.cod.weights)
    Dd = np.sqrt(T.dom.weights)
    values = []
    details = []
    for n in range(1, n_max + 1):
        k = n - 1
        candidates = {}
        # series truncation candidate
        Fk = np.zeros_like(A)
        for i in range(min(k, rep.n_terms)):
            Fk += rep.lambdas[i] * np.outer(
                rep.left_vectors[i].coeffs,
                T.dom.weights * rep.coeff_functionals[i].coeffs,
            )
        candidates["series"] = Fk
        # weighted-SVD truncation candidate
        Sk = (U[:, :k] * s[:k]) @ Vt[:k] if k else np.zeros_like(A)
        candidates["svd"] = (Sk / Dc[:, None]) * Dd[None, :]
        best = np.inf
        best_name = None
        residuals = []
        for name, F in candidates.items():
            diff = LinOp(A - F, T.dom, T.cod)
            try:
                lam, _, _ = extremal_pair(diff, (), seed=seed, tol=max(tol, 1e-9),
                                          restarts=restarts)
            except DeflationExhausted:
                lam = 0.0  # T - F vanishes to the solver's floor
            except ConvergenceError as exc:
                residuals.append(exc.residual)
                continue  # an uncertified norm bounds nothing
            if lam < best:
                best, best_name = lam, name
        if best_name is None:
            res = min(residuals)
            raise ConvergenceError(
                f"no rank-{k} candidate has a certified norm at n = {n} "
                f"(best residual {res:.3e})", residual=res,
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
    since the j-eigenvalues are computed variationally from below.
    """
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
    j-eigenvectors h_i = x_i. Returns the slacks and the orthonormality of
    the h_i (an upstream flag if it fails)."""
    if T.dom.p != 2.0:
        raise GeometryError("eigenvector_bound_check needs a Hilbert domain")
    n = js.n_levels if n_max is None else min(n_max, js.n_levels)
    G = _weighted_gram(js.xs[:n], T.dom)
    gram_dev = float(np.max(np.abs(G - np.eye(n)))) if n else 0.0
    if a_values is None:
        a_values = approx_numbers(T, n, js=js, **kw)
    th = [
        _lp_norm(T.apply_coeffs(js.xs[i].coeffs), T.cod.weights, T.cod.p)
        for i in range(n)
    ]
    slacks = [th[i] - a_values[i] for i in range(n)]
    return {
        "a": list(a_values[:n]),
        "Th_norms": th,
        "lambdas": list(js.lambdas[:n]),
        "slacks": slacks,
        "passed": [s >= -tol for s in slacks],
        "h_gram_dev": gram_dev,
        "tol": tol,
    }
