"""Deflation-based j-spectrum of a compact operator between discretized spaces.

Level k maximizes S_T(x) = ||Tx||_Y / ||x||_X over the polar subspace
X_k = {x : <x, J_X x_j> = 0, j < k}. A maximizer solves the nonlinear
eigenvalue equation T* J~_Y T x = lambda J~_X x with lambda = ||Tx||_Y,
understood as an identity of functionals on X_k. The quotient dual problem
is the same one for T* with the codomain norm replaced by the distance to
the span M of the earlier dual representatives, so one engine serves both:
it maximizes dist_Y(Tx, span M) / ||x||_X, where an empty M gives the plain
norm. It runs a normalized fixed-point iteration x <- Pi(J_X^-1(T* J~_Y T x))
with damping, then polishes with projected gradient ascent (Barzilai-Borwein
steps). The residual certificate is the weighted l_{p'} distance from the
gradient T* J~_Y(Tx - Mc) - lambda J~_X x to the span of the active deflation
functionals, which reduces to the plain dual norm when no constraints are
present.

No global-optimality certificate exists for p != 2; seeded multi-start keeps
the largest certified lambda.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr

from .oper import LinOp, adjoint
from .space import (
    ConvergenceError,
    Functional,
    GeometryError,
    Vec,
    _jmap,
    _jtilde,
    _lp_norm,
    functional_distance,
    min_norm_coeffs,
    odd_power,
    sup_dev_up_to_sign,
)


class DeflationExhausted(RuntimeError):
    """The restriction of T to the current polar subspace is (numerically) zero."""


@dataclass
class JSpectrum:
    """j-eigenvalues and j-eigenvectors with their deflation functionals.

    nus stores lambda_k * mu(lambda_k) = lambda_k**2 for the gauge mu(t) = t.
    """

    lambdas: list[float]
    nus: list[float]
    xs: list[Vec]
    ys: list[Vec]
    defl_X: list[Functional]
    defl_Y: list[Functional]
    residuals: list[float]
    converged: list[bool]
    meta: dict = field(default_factory=dict)

    @property
    def n_levels(self):
        return len(self.lambdas)

    def semi_orth_table(self, side="x"):
        """Matrix of semi-inner products (v_r, v_s); delta_{rs} expected for r <= s."""
        vs = self.xs if side == "x" else self.ys
        n = len(vs)
        S = np.zeros((n, n))
        for r in range(n):
            sp = vs[r].space
            jr = _jmap(vs[r].coeffs, sp.weights, sp.p)
            for s in range(n):
                S[r, s] = sp.weights @ (vs[s].coeffs * jr)
        return S

    def to_json(self):
        return json.dumps(
            {
                "lambdas": self.lambdas,
                "nus": self.nus,
                "residuals": self.residuals,
                "converged": self.converged,
                "xs": [x.coeffs.tolist() for x in self.xs],
                "ys": [y.coeffs.tolist() for y in self.ys],
                "meta": {k: v for k, v in self.meta.items() if _json_safe(v)},
            },
            sort_keys=True,
        )

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["level", "lambda", "residual"])
        for k, (lam, res) in enumerate(zip(self.lambdas, self.residuals), start=1):
            writer.writerow([k, repr(float(lam)), repr(float(res))])
        return buf.getvalue()


def _json_safe(v):
    try:
        json.dumps(v)
        return True
    except TypeError:
        return False


def _constraint_qr(T, constraints, mode):
    """Pivoted QR of the constraint functionals (as weighted columns) and
    their numerical rank; raises DeflationExhausted when they span the
    whole domain."""
    C = np.array([T.dom.weights * f.coeffs for f in constraints])
    Q, R, _ = qr(C.T, mode=mode, pivoting=True)
    d = np.abs(np.diag(R))
    rank = int(np.sum(d > 1e-13 * max(float(d.max(initial=0.0)), 1e-300)))
    if T.dom.dim - rank <= 0:
        raise DeflationExhausted("constraints exhaust the domain")
    return Q, rank


def _constraint_projector(T, constraints):
    """Euclidean projector onto the common kernel of the constraint
    functionals (thin-QR based), plus the kernel dimension."""
    n = T.dom.dim
    if not constraints:
        return (lambda v: v), n
    Q, rank = _constraint_qr(T, constraints, "economic")
    Qr = Q[:, :rank]

    def project(v):
        return v - Qr @ (Qr.T @ v)

    return project, n - rank


def nullspace_basis(T, constraints):
    """Explicit orthonormal basis of the constraint kernel (for subspace
    constructions; quadratic memory, intended for moderate grids)."""
    if not constraints:
        return np.eye(T.dom.dim)
    Q, rank = _constraint_qr(T, constraints, "full")
    return Q[:, rank:]


def _ascent(T, project, constraints, x0, tol, lam_tiny, fp_max, ga_max, M=None):
    """One start: maximize dist_Y(Tx, span M) / ||x||_X on the polar subspace.

    With M None the distance is ||Tx||_Y, the primal problem; the quotient
    dual passes the adjoint as T and its representatives as the columns of
    M. A damped normalized fixed point on ||Tx||_Y comes first, then
    projected gradient ascent with Barzilai-Borwein steps. The gradient
    T* J~_Y(Tx - Mc) - lambda J~_X x at unit x (c the best-approximation
    coefficients) is the residual of the eigenvalue equation, and its
    distance to span(constraints) certifies lambda. Returns None when the
    start projects to zero, else (lambda, x, residual, certified).

    Every iterate x is unit, so J~_X x is odd_power(x, p - 1), and J~_Y is
    taken with the codomain norm already at hand.
    """
    w_d, p, pp = T.dom.weights, T.dom.p, T.dom.pprime
    w_c, q = T.cod.weights, T.cod.p

    def unit(v):
        v = project(v)
        nv = _lp_norm(v, w_d, p)
        return None if nv == 0.0 else v / nv

    def value_grad(x, y):
        if M is None:
            d, resid = _lp_norm(y, w_c, q), y
        else:
            try:
                c, d = min_norm_coeffs(y, M, w_c, q)
            except ConvergenceError as exc:
                return exc.residual, None
            resid = y - M @ c
        return d, (T.apply_adjoint_coeffs(_jtilde(resid, w_c, q, d))
                   - d * odd_power(x, p - 1.0))

    x = unit(np.asarray(x0, dtype=float))
    if x is None:
        return None
    y = T.apply_coeffs(x)
    lam = _lp_norm(y, w_c, q)
    damping = 1.0
    raw_hist = []
    for _ in range(fp_max):
        if lam < lam_tiny:
            return (0.0, x, 0.0, True)
        r = T.apply_adjoint_coeffs(_jtilde(y, w_c, q, lam))
        x_new = unit(odd_power(r, pp - 1.0))
        if x_new is None:
            break
        if x_new @ x < 0:
            x_new = -x_new
        if damping < 1.0:
            x_new = unit(x + damping * (x_new - x))
        raw_hist.append(_lp_norm(r - lam * odd_power(x, p - 1.0), w_d, pp))
        step = np.max(np.abs(x_new - x))
        x = x_new
        y = T.apply_coeffs(x)
        lam_new = _lp_norm(y, w_c, q)
        if lam_new < lam - 1e-14 * max(lam, 1.0):
            damping = 0.5  # Rayleigh-type quotient oscillated
        lam = lam_new
        if step < 1e-14:
            break
        if len(raw_hist) > 200 and raw_hist[-1] > 0.99 * raw_hist[-201]:
            break  # stalled; hand over to gradient ascent

    x_old = None
    g_old = None
    step = 0.1
    for it in range(ga_max):
        lam, G = value_grad(x, y)
        if lam < lam_tiny:
            return (0.0, x, 0.0, True)
        if G is None:
            break
        g = project(w_d * G)
        if it % 25 == 0 or np.linalg.norm(g) < 1e-13:
            res = functional_distance(Functional(G, T.dom), constraints)
            if res <= tol:
                return (lam, x, res, True)
        if x_old is not None:
            s = x - x_old
            yg = g - g_old
            denom = s @ yg
            if abs(denom) > 1e-300:
                step = min(abs((s @ s) / denom), 1e6)
        x_old, g_old = x, g
        x_new = unit(x + step * g)
        if x_new is None:
            break
        x = x_new
        y = T.apply_coeffs(x)

    lam, G = value_grad(x, y)
    res = np.inf if G is None else functional_distance(Functional(G, T.dom), constraints)
    return (lam, x, res, res <= tol)


def _canonical_sign(x):
    big = np.abs(x) > 1e-8 * max(np.max(np.abs(x)), 1e-300)
    if big.any() and x[np.argmax(big)] < 0:
        return -x
    return x


def _best_start(T, project, constraints, rng, restarts, tol, lam_tiny,
                fp_max=600, ga_max=4000, M=None):
    """Largest certified lambda over the all-ones start and restarts - 1
    Gaussian starts drawn from rng. Returns (lambda, x, residual) with x in
    canonical sign. Raises DeflationExhausted when no start certifies a
    positive lambda and some start finds T vanishing, and ConvergenceError
    (with the best residual) when no start certifies."""
    n = T.dom.dim
    starts = [np.ones(n)]
    starts += [rng.standard_normal(n) for _ in range(max(restarts - 1, 0))]
    best = None
    best_failed = None
    n_zero = 0
    for x0 in starts:
        out = _ascent(T, project, constraints, x0, tol, lam_tiny, fp_max, ga_max, M)
        if out is None:
            continue
        lam, x, res, ok = out
        if ok and lam == 0.0:
            n_zero += 1
        elif ok:
            if best is None or lam > best[0]:
                best = (lam, x, res)
        elif best_failed is None or res < best_failed[2]:
            best_failed = (lam, x, res)
    if best is None:
        if n_zero:
            raise DeflationExhausted("operator vanishes on the constrained subspace")
        res = best_failed[2] if best_failed else np.inf
        raise ConvergenceError(
            f"no start reached residual tolerance {tol:g} (best residual {res:.3e})",
            residual=res,
        )
    lam, x, res = best
    return lam, _canonical_sign(x), res


def extremal_pair(T: LinOp, constraints_X=(), seed: int = 42, tol: float = 1e-8,
                  restarts: int = 8, fp_max: int = 600, ga_max: int = 4000):
    """Largest certified extremal of S_T on the constrained subspace.

    Returns (lambda, x, residual) with ||x||_X = 1, lambda = ||Tx||_Y and the
    certified residual at most tol. Raises DeflationExhausted when T vanishes
    on the subspace and ConvergenceError (with the best residual) when no
    start certifies.
    """
    constraints = list(constraints_X)
    project, _ = _constraint_projector(T, constraints)
    lam_tiny = 1e-13 * max(T.frobenius_norm(), 1.0)
    lam, x, res = _best_start(T, project, constraints, np.random.default_rng(seed),
                              restarts, tol, lam_tiny, fp_max, ga_max)
    return lam, Vec(x, T.dom), res


def operator_norm(T: LinOp, tol: float = 1e-8, seed: int = 42, restarts: int = 4) -> float:
    """||T|| estimated variationally (exact up to the residual certificate)."""
    lam, _, _ = extremal_pair(T, (), seed=seed, tol=tol, restarts=restarts)
    return lam


def compute_jspectrum(T: LinOp, n_levels: int, tol: float = 1e-8, seed: int = 42,
                      restarts: int = 8, mapping_checks: int = 3) -> JSpectrum:
    """Deflate through polar subspaces and emit the j-spectrum.

    Appends J_X x_k to the constraint set after each level; stops early when
    the restriction of T becomes numerically zero. Verifies that T maps each
    deflated subspace into the corresponding codomain subspace on sampled
    constrained vectors (recorded in meta["mapping_check"]).
    """
    w_d, p = T.dom.weights, T.dom.p
    w_c, q = T.cod.weights, T.cod.p
    js = JSpectrum([], [], [], [], [], [], [], [])
    rng = np.random.default_rng(seed + 7919)
    for level in range(n_levels):
        try:
            lam, x, res = extremal_pair(
                T, js.defl_X, seed=seed + 101 * level, tol=tol, restarts=restarts
            )
        except DeflationExhausted:
            js.meta["terminated"] = f"restriction of T is zero after level {level}"
            break
        if js.lambdas and lam > js.lambdas[-1] * (1.0 + 10.0 * tol):
            raise ConvergenceError(
                f"monotonicity violated at level {level + 1}: "
                f"{lam:.6e} > {js.lambdas[-1]:.6e}; earlier level under-shot",
                residual=res,
            )
        y = Vec(T.apply_coeffs(x.coeffs) / lam, T.cod)
        js.lambdas.append(lam)
        js.nus.append(lam * lam)
        js.xs.append(x)
        js.ys.append(y)
        js.residuals.append(res)
        js.converged.append(True)
        js.defl_X.append(Functional(_jmap(x.coeffs, w_d, p), T.dom))
        js.defl_Y.append(Functional(_jmap(T.apply_coeffs(x.coeffs), w_c, q), T.cod))

    # sampled check that T maps X_{k+1} numerically into Y_{k+1}
    checks = []
    for k in range(js.n_levels):
        try:
            project, _ = _constraint_projector(T, js.defl_X[: k + 1])
        except DeflationExhausted:
            break
        worst = 0.0
        for _ in range(mapping_checks):
            v = project(rng.standard_normal(T.dom.dim))
            nv = _lp_norm(v, w_d, p)
            if nv == 0.0:
                continue
            tv = T.apply_coeffs(v / nv)
            ntv = _lp_norm(tv, w_c, q)
            if ntv == 0.0:
                continue
            val = abs(w_c @ (tv * js.defl_Y[k].coeffs)) / ntv
            worst = max(worst, val)
        checks.append(worst)
    js.meta["mapping_check"] = checks
    js.meta["tol"] = tol
    return js


def dual_jspectrum(T: LinOp, n_levels: int, tol: float = 1e-8, seed: int = 42,
                   restarts: int = 8, primal: JSpectrum | None = None) -> JSpectrum:
    """j-spectrum of the dual problem for T*, with duality cross-checks.

    Level k maximizes the norm of the restricted adjoint: the domain is the
    polar subspace of the dual deflation functionals J_{Y*} psi_j and the
    codomain carries the quotient norm modulo span{x*_1, ..., x*_{k-1}}
    (realized as a weighted l_{p'} distance). This is the numerical
    realization under which lambda_i* = lambda_i holds; restricting the
    plain adjoint to subspaces without the quotient yields strictly larger
    deeper levels for p != 2.

    In the returned spectrum, xs are the dual extremals psi_k (unit in Y*)
    and ys are the representatives x*_k = T* psi_k / lambda_k* (unit
    quotient norm: their distance to the accumulated span is 1; full dual
    norms may exceed 1). The deflation functionals are J_{Y*} psi_k and
    J_{X*}(lambda_k* x*_k). Cross-checks stored in meta: lambda_i* against
    the supplied primal spectrum (or a fresh first level) and the first dual
    extremal against J_Y(T x_1)/lambda_1.
    """
    S = adjoint(T)
    wD, pD = S.dom.weights, S.dom.p
    wC, pC = S.cod.weights, S.cod.p
    js = JSpectrum([], [], [], [], [], [], [], [])
    rng = np.random.default_rng(seed)
    lam_tiny = 1e-13 * max(S.frobenius_norm(), 1.0)
    xstars = []
    for level in range(n_levels):
        M_mat = np.column_stack([x.coeffs for x in xstars]) if xstars else None
        try:
            project, _ = _constraint_projector(S, js.defl_X)
        except DeflationExhausted:
            js.meta["terminated"] = f"dual constraints exhaust Y* after level {level}"
            break
        try:
            lam, psi, res = _best_start(S, project, js.defl_X, rng, restarts, tol,
                                        lam_tiny, M=M_mat)
        except DeflationExhausted:
            js.meta["terminated"] = f"restriction of T* is zero after level {level}"
            break
        except ConvergenceError as exc:
            raise ConvergenceError(f"dual level {level + 1}: {exc}",
                                   residual=exc.residual) from exc
        # representative: the full image T* psi / lambda*. Its distance to the
        # accumulated span is 1 (unit quotient norm) and it carries the
        # biorthogonality that makes the linearized series exact.
        xstar = S.apply_coeffs(psi) / lam
        js.lambdas.append(lam)
        js.nus.append(lam * lam)
        js.xs.append(Vec(psi, S.dom))
        js.ys.append(Vec(xstar, S.cod))
        js.residuals.append(res)
        js.converged.append(True)
        js.defl_X.append(Functional(_jmap(psi, wD, pD), S.dom))
        js.defl_Y.append(Functional(_jmap(lam * xstar, wC, pC), S.cod))
        xstars.append(Vec(xstar, S.cod))

    if primal is None:
        lam1, x1, _ = extremal_pair(T, (), seed=seed, tol=tol, restarts=restarts)
        prim_lams = [lam1]
        prim_x1 = x1
    else:
        prim_lams = primal.lambdas
        prim_x1 = primal.xs[0] if primal.xs else None
    m = min(len(prim_lams), js.n_levels)
    js.meta["lambda_match"] = [abs(prim_lams[i] - js.lambdas[i]) for i in range(m)]
    if prim_x1 is not None and js.n_levels:
        w_c, q = T.cod.weights, T.cod.p
        ystar = _jtilde(T.apply_coeffs(prim_x1.coeffs), w_c, q)
        js.meta["first_dual_vector_dev"] = sup_dev_up_to_sign(js.xs[0].coeffs, ystar)
    js.meta["tol"] = tol
    return js


def konig_report(T: LinOp, n: int, k_max: int, tol: float = 1e-8, seed: int = 42,
                 restarts: int = 4) -> dict:
    """Sequence lambda_n(T^k)^(1/k), k = 1..k_max, for a square operator
    ("values"), plus the dense-eigenvalue reference |lambda_hat_n|."""
    if not T.dom.same_grid(T.cod) or T.dom.p != T.cod.p:
        raise GeometryError("the eigenvalue comparison needs T acting on one space")
    from .oper import power as _power

    vals = []
    for k in range(1, k_max + 1):
        js = compute_jspectrum(_power(T, k), n_levels=n, tol=tol, seed=seed,
                               restarts=restarts)
        if js.n_levels < n:
            raise ConvergenceError(f"deflation exhausted before level {n} at power {k}")
        vals.append(js.lambdas[n - 1] ** (1.0 / k))
    ev = np.sort(np.abs(np.linalg.eigvals(T.dense())))[::-1]
    return {
        "values": vals,
        "reference": float(ev[n - 1]),
        "n": n,
        "k_max": k_max,
        "tol": tol,
    }
