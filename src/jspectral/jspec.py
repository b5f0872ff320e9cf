"""Deflation-based j-spectrum of a compact operator between discretized spaces.

Level k maximizes S_T(x) = ||Tx||_Y / ||x||_X over the polar subspace
X_k = {x : <x, J_X x_j> = 0, j < k}. A maximizer solves the nonlinear
eigenvalue equation T* J~_Y T x = lambda J~_X x with lambda = ||Tx||_Y,
understood as an identity of functionals on X_k. The quotient dual problem
is the same one for T* with the codomain norm replaced by the distance to
the span M of the earlier dual representatives, so one engine serves both:
it maximizes dist_Y(Tx, span M) / ||x||_X, where an empty M gives the plain
norm. Its one step is a polar power step: x <- J_X^-1(r - F mu), normalized,
where r = T* J~_Y(Tx - Mc) and F mu is the best l_{p'} approximation of r from
the span of the active deflation functionals. The new iterate lies in the
polar subspace and lambda never decreases. The residual certificate is the
weighted l_{p'} distance from the gradient r - lambda J~_X x to that span,
which reduces to the plain dual norm when no constraints are present.

No global-optimality certificate exists for p != 2; seeded multi-start keeps
the largest certified lambda. The starts of a level step together, as the
columns of one n x r block: one apply and one adjoint of T per step for all
of them, with column-wise norms, duality maps and projector, and a column
leaves the block once its start has finished.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr

from .oper import LinOp, adjoint
from .space import (
    ConvergenceError,
    Functional,
    GeometryError,
    Space,
    Vec,
    _csv_text,
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

    Level k is column k of X (x_k, on dom), Y (y_k = T x_k / lambda_k, on
    cod), JX (J_X x_k) and JY (J_Y(T x_k)); xs and ys view X and Y as Vecs.

    nus holds lambda_k * mu(lambda_k) = lambda_k**2 for the gauge mu(t) = t.
    A level that does not certify raises, so every stored level converged.
    """

    lambdas: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    X: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    Y: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    JX: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    JY: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    dom: Space | None = None
    cod: Space | None = None
    meta: dict = field(default_factory=dict)

    @property
    def xs(self) -> list[Vec]:
        return [Vec(x, self.dom) for x in self.X.T]

    @property
    def ys(self) -> list[Vec]:
        return [Vec(y, self.cod) for y in self.Y.T]

    @property
    def nus(self):
        return [lam * lam for lam in self.lambdas]

    @property
    def converged(self):
        return [True] * self.n_levels

    @property
    def n_levels(self):
        return len(self.lambdas)

    def semi_orth_table(self, side="x"):
        """Matrix of semi-inner products (v_r, v_s); delta_{rs} expected for r <= s."""
        if not self.n_levels:
            return np.zeros((0, 0))
        V, sp = (self.X, self.dom) if side == "x" else (self.Y, self.cod)
        return (sp.weights[:, None] * _jmap(V, sp.weights, sp.p)).T @ V

    def to_json(self):
        return json.dumps(
            {
                "lambdas": self.lambdas,
                "nus": self.nus,
                "residuals": self.residuals,
                "converged": self.converged,
                "xs": self.X.T.tolist(),
                "ys": self.Y.T.tolist(),
                "meta": {k: v for k, v in self.meta.items() if _json_safe(v)},
            },
            sort_keys=True,
        )

    def to_csv(self):
        return _csv_text(zip(itertools.count(1), self.lambdas, self.residuals),
                         ("level", "lambda", "residual"))


def _json_safe(v):
    try:
        json.dumps(v)
        return True
    except TypeError:
        return False


def _constraint_qr(C, mode):
    """Pivoted QR of the columns of C and their numerical rank; raises
    DeflationExhausted when they span the whole domain."""
    Q, R, _ = qr(C, mode=mode, pivoting=True)
    d = np.abs(np.diag(R))
    rank = int(np.sum(d > 1e-13 * max(float(d.max(initial=0.0)), 1e-300)))
    if C.shape[0] - rank <= 0:
        raise DeflationExhausted("constraints exhaust the domain")
    return Q, rank


def _constraint_projector(T, constraints):
    """Projector v - B B^T (w v) onto the common kernel of the constraint
    functionals, the columns of the dim x k array constraints, orthogonal in
    the weighted pairing, and B: a basis of their span, orthonormal in that
    pairing (None without constraints). The projector takes an n x r block
    and projects it column by column, as one batch of matrix-vector
    products, so that each column comes out bitwise as it would alone, which
    the block run needs (see space._power_sums); the plain
    B @ (B.T @ (w V)) is a matrix product and rounds otherwise."""
    if not np.size(constraints):
        return (lambda V: V), None
    w = T.dom.weights
    sw = np.sqrt(w)
    Q, rank = _constraint_qr(sw[:, None] * constraints, "economic")
    B = Q[:, :rank] / sw[:, None]

    def project(V):
        C = np.matmul(B.T, (w * V.T)[:, :, None])  # r x rank x 1
        return V - np.matmul(B, C)[:, :, 0].T

    return project, B


def nullspace_basis(T, constraints):
    """Explicit orthonormal basis of the common kernel of the columns of the
    dim x k array constraints (for subspace constructions; quadratic
    memory, intended for moderate grids)."""
    if not np.size(constraints):
        return np.eye(T.dom.dim)
    Q, rank = _constraint_qr(T.dom.weights[:, None] * constraints, "full")
    return Q[:, rank:]


def _ascent(T, project, B, constraints, X0, tol, lam_tiny, max_iter, M=None):
    """All starts at once: for each column x of the n x r block X0, maximize
    dist_Y(Tx, span M) / ||x||_X on the polar subspace.

    With M None the distance is ||Tx||_Y, the primal problem; the quotient
    dual passes the adjoint as T and its representatives as the columns of
    M, and constraints is the dim x k array of the deflation functionals
    (k may be 0). At unit x, with lambda = dist_Y(Tx, span M) and c the
    best-approximation coefficients, r = T* J~_Y(Tx - Mc) pairs with x to
    lambda, and the eigenvalue equation says r - lambda J~_X x lies in
    span(constraints) = span B. Each step takes v = r - B mu, with B mu the
    best l_{p'} approximation of r, and moves to the unit x' parallel to
    J_X^-1 v = odd_power(v, p' - 1): the stationarity of mu puts x' in the
    polar subspace (Alber's generalized projection), and Hoelder's
    inequality gives dist_Y(Tx', span M) >= <r, x'> = ||v||_{p'} >=
    <r, x> = lambda, so lambda never decreases (Boyd's l_p power method).
    ||v - lambda J~_X x||_{p'} bounds the distance of r - lambda J~_X x to
    span(constraints) from above at no cost; once it is at most tol, that
    distance certifies lambda.

    The columns step together: one apply and one adjoint of the whole block
    per step, and column-wise norms, duality maps and projector. The
    best-approximation solves run column by column, each warm-started from
    the coefficients of its own previous iterate; nothing is carried from
    one column to another. A column leaves the block, with its result, when
    it certifies, fails, reaches max_iter, steps to zero or finds lambda
    below lam_tiny, so finished columns cost nothing more: each exit puts
    the result in done, and _retire records it and drops the column from
    every per-column array at hand. Returns one entry
    per column of X0: None when the start projects to zero, else
    (lambda, x, residual, certified).

    The inner minimization leaves a residue of the constraints in x'. For
    p > 2 project removes it; J~_X is Lipschitz there. At p = p' = 2 the
    step is v = project(r) and x' is parallel to v, so x' needs no second
    projection. For p < 2 a correction of 1e-16 at a sign change of x'
    would move J~_X x' = odd_power(x', p - 1) by (1e-16)^(p - 1), far above
    tol, so one Newton step on mu corrects v instead (odd_power(v, p' - 1)
    is smooth in mu for p' > 2); it also sharpens the bound.

    Every iterate x is unit, so J~_X x is odd_power(x, p - 1), and J~_Y is
    taken with the codomain norm already at hand.
    """
    w_d, p, pp = T.dom.weights, T.dom.p, T.dom.pprime
    w_c, q = T.cod.weights, T.cod.p
    out = [None] * X0.shape[1]
    cs = [None] * len(out)   # best-approximation coefficients of each start's
    mus = [None] * len(out)  # last iterate: quotient side, constraint side
    done = {}  # block column -> result of its start, until _retire records it
    X, kept = _unit_columns(project(np.asarray(X0, dtype=float)), w_d, p)
    live = np.flatnonzero(kept)  # the start of each block column
    for it in range(max_iter + 1):
        if not live.size:
            break
        E = T.apply_coeffs(X)
        if M is None:
            lam = _lp_norm(E, w_c, q)
        else:
            lam = np.full(live.size, np.nan)
            for j, s in enumerate(live):
                try:
                    cs[s], lam[j] = min_norm_coeffs(E[:, j], M, w_c, q, c0=cs[s])
                except ConvergenceError:
                    done[j] = (np.nan, X[:, j], np.inf, False)
                    continue
                E[:, j] -= M @ cs[s]
        for j in np.flatnonzero(lam < lam_tiny):
            done[j] = (0.0, X[:, j], 0.0, True)
        live, X, E, lam = _retire(out, done, live, X, E, lam)
        if not live.size:
            break
        R = T.apply_adjoint_coeffs(_jtilde(E, w_c, q, lam))
        if B is None:
            V = R
        elif pp == 2.0:
            V = project(R)
        else:
            V = np.empty_like(R)
            for j, s in enumerate(live):
                r = R[:, j]
                try:
                    mu, _ = min_norm_coeffs(r, B, w_d, pp, c0=mus[s])
                except ConvergenceError:
                    done[j] = (np.nan, X[:, j], np.inf, False)
                    continue
                v = r - B @ mu
                if p < 2.0:  # Newton step on <f, odd_power(v, p' - 1)> = 0
                    h = (pp - 1.0) * w_d * np.abs(v) ** (pp - 2.0)
                    mu = mu + np.linalg.solve(B.T @ (h[:, None] * B),
                                              B.T @ (w_d * odd_power(v, pp - 1.0)))
                    v = r - B @ mu
                mus[s], V[:, j] = mu, v
            live, X, lam, R, V = _retire(out, done, live, X, lam, R, V)
            if not live.size:
                break
        JX = lam * odd_power(X, p - 1.0)
        step = ~(_lp_norm(V - JX, w_d, pp) <= tol) & (it < max_iter)
        X_new = odd_power(V[:, step], pp - 1.0)
        X_new, moved = _unit_columns(X_new if p <= 2.0 else project(X_new), w_d, p)
        step[np.flatnonzero(step)[~moved]] = False  # stepped to zero: stop here
        for j in np.flatnonzero(~step):
            res = functional_distance(R[:, j] - JX[:, j], constraints, T.dom)
            done[j] = (float(lam[j]), X[:, j], res, res <= tol)
        live, = _retire(out, done, live)
        X = X_new
    return out


def _retire(out, done, live, *blocks):
    """Record the result of each finished block column j in done as out[live[j]],
    empty done, and return live and each per-column array of blocks without
    those columns."""
    if not done:  # most steps finish no column: keep the blocks, uncopied
        return (live, *blocks)
    keep = np.ones(live.size, dtype=bool)
    for j, result in done.items():
        out[live[j]] = result
        keep[j] = False
    done.clear()
    return (live[keep], *(a[..., keep] for a in blocks))


def _unit_columns(X, w, p):
    """The nonzero columns of the block X scaled to unit norm, and the mask
    of the columns kept."""
    nx = _lp_norm(X, w, p)
    keep = nx != 0.0
    return X[:, keep] / nx[keep], keep


def _canonical_sign(x):
    big = np.abs(x) > 1e-8 * max(np.max(np.abs(x)), 1e-300)
    if big.any() and x[np.argmax(big)] < 0:
        return -x
    return x


def _best_start(T, constraints, rng, restarts, tol, max_iter=4600, M=None):
    """Largest certified lambda over the all-ones start and restarts - 1
    Gaussian starts drawn from rng, on the polar subspace of the columns of
    the dim x k array constraints.
    The starts are the columns of one n x r block, drawn in that order, and
    _ascent steps them together; the first of equal certified lambdas in
    start order wins. Returns (lambda, x, residual) with x in canonical
    sign. Raises DeflationExhausted when the constraints exhaust the domain,
    or when no start certifies a positive lambda and some start finds T
    vanishing, and ConvergenceError (with the best residual) when no start
    certifies. Raises GeometryError unless tol is finite and positive and
    restarts is at least 1.

    A start finds T vanishing when lambda falls below 1e-13 max(s, 1), with
    s = max_j ||T x0_j||_Y / ||x0_j||_X over the columns of the start block
    before projection (the plain codomain norm, also with M): a lower bound
    on ||T|| for one block apply, not the n applies of a Frobenius norm."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise GeometryError(f"tol must be finite and positive, got {tol:g}")
    if restarts < 1:
        raise GeometryError(f"restarts must be at least 1, got {restarts}")
    project, B = _constraint_projector(T, constraints)
    n = T.dom.dim
    # drawn as rows, so that each start is one contiguous column of X0
    X0 = np.vstack([np.ones(n), rng.standard_normal((restarts - 1, n))]).T
    s = np.max(_lp_norm(T.apply_coeffs(X0), T.cod.weights, T.cod.p)
               / _lp_norm(X0, T.dom.weights, T.dom.p))
    lam_tiny = 1e-13 * max(float(s), 1.0)
    best = None
    best_failed = None
    n_zero = 0
    for out in _ascent(T, project, B, constraints, X0, tol, lam_tiny, max_iter, M):
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
            f"no start reached residual tolerance {tol:g}",
            residual=res,
        )
    lam, x, res = best
    return lam, _canonical_sign(x), res


def extremal_pair(T: LinOp, constraints_X: Sequence[Functional] = (), seed: int = 42,
                  tol: float = 1e-8, restarts: int = 8, max_iter: int = 4600):
    """Largest certified extremal of S_T on the common kernel of the
    functionals constraints_X, which live on the grid of T.dom.

    Returns (lambda, x, residual) with ||x||_X = 1, lambda = ||Tx||_Y and the
    certified residual at most tol. Raises GeometryError for a constraint
    off that grid, DeflationExhausted when T vanishes on the subspace and
    ConvergenceError (with the best residual) when no start certifies.
    """
    fs = list(constraints_X)
    if not all(f.space.same_grid(T.dom) for f in fs):
        raise GeometryError("constraint functionals must live on the grid of T.dom")
    C = np.column_stack([np.zeros((T.dom.dim, 0)), *(f.coeffs for f in fs)])
    lam, x, res = _best_start(T, C, np.random.default_rng(seed), restarts, tol, max_iter)
    return lam, Vec(x, T.dom), res


def operator_norm(T: LinOp, tol: float = 1e-8, seed: int = 42, restarts: int = 4) -> float:
    """||T|| estimated variationally (exact up to the residual certificate)."""
    lam, _, _ = extremal_pair(T, (), seed=seed, tol=tol, restarts=restarts)
    return lam


def _deflate(S: LinOp, n_levels, tol, restarts, rngs, quotient):
    """The deflation flag of S: level k certifies x_k on the polar subspace
    of the columns J_X x_j (j < k) of js.JX, with starts from the k-th
    generator of rngs, and appends x_k, y_k = S x_k / lambda_k, J_X x_k and
    J_Y(S x_k) to js.X, js.Y, js.JX and js.JY. With quotient, S is an
    adjoint measured by the distance to the span of js.Y, the quotient norm
    of the dual problem. Stops once S vanishes; raises ConvergenceError,
    naming the level, when a level fails to certify or exceeds the one
    before, and GeometryError for a negative n_levels."""
    if n_levels < 0:
        raise GeometryError(f"the number of levels must be at least 0, got {n_levels}")
    name, where = ("T*", "dual level") if quotient else ("T", "level")
    empty_d, empty_c = np.zeros((S.dom.dim, 0)), np.zeros((S.cod.dim, 0))
    js = JSpectrum(X=empty_d, Y=empty_c, JX=empty_d, JY=empty_c, dom=S.dom, cod=S.cod)
    for level, rng in zip(range(n_levels), rngs):
        try:
            lam, x, res = _best_start(S, js.JX, rng, restarts, tol,
                                      M=js.Y if quotient and js.n_levels else None)
        except DeflationExhausted:
            js.meta["terminated"] = f"restriction of {name} is zero after level {level}"
            break
        except ConvergenceError as exc:
            raise ConvergenceError(f"{where} {level + 1}: {exc}",
                                   residual=exc.residual) from exc
        if js.lambdas and lam > js.lambdas[-1] * (1.0 + 10.0 * tol):
            raise ConvergenceError(
                f"monotonicity violated at {where} {level + 1}: "
                f"{lam:.6e} > {js.lambdas[-1]:.6e}; earlier level under-shot",
                residual=res,
            )
        x = np.array(x)  # a contiguous copy of the winning column of the block
        Sx = S.apply_coeffs(x)
        js.lambdas.append(lam)
        js.residuals.append(res)
        # column_stack keeps the arrays C-ordered: later levels round in that layout
        js.X = np.column_stack([js.X, x])
        js.Y = np.column_stack([js.Y, Sx / lam])
        js.JX = np.column_stack([js.JX, _jmap(x, S.dom.weights, S.dom.p)])
        js.JY = np.column_stack([js.JY, _jmap(Sx, S.cod.weights, S.cod.p)])
    return js


def compute_jspectrum(T: LinOp, n_levels: int, tol: float = 1e-8, seed: int = 42,
                      restarts: int = 8) -> JSpectrum:
    """Deflate through polar subspaces and emit the j-spectrum.

    Appends J_X x_k to the constraint set after each level; stops early when
    the restriction of T becomes numerically zero. Verifies that T maps each
    deflated subspace into the corresponding codomain subspace on sampled
    constrained vectors (recorded in meta["mapping_check"]).
    """
    rngs = (np.random.default_rng(seed + 101 * level) for level in range(n_levels))
    js = _deflate(T, n_levels, tol, restarts, rngs, quotient=False)

    # sampled check that T maps X_{k+1} numerically into Y_{k+1}
    w_d, p = T.dom.weights, T.dom.p
    w_c, q = T.cod.weights, T.cod.p
    rng = np.random.default_rng(seed + 7919)
    checks = []
    for k in range(js.n_levels):
        try:
            project, _ = _constraint_projector(T, js.JX[:, : k + 1])
        except DeflationExhausted:
            break
        worst = 0.0
        for _ in range(3):
            v = project(rng.standard_normal(T.dom.dim)[:, None])[:, 0]
            nv = _lp_norm(v, w_d, p)
            if nv == 0.0:
                continue
            tv = T.apply_coeffs(v / nv)
            ntv = _lp_norm(tv, w_c, q)
            if ntv == 0.0:
                continue
            val = abs(w_c @ (tv * js.JY[:, k])) / ntv
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
    norms may exceed 1; as full images they carry the biorthogonality that
    makes the linearized series exact), the columns of X and Y. JX and JY
    hold J_{Y*} psi_k and J_{X*}(T* psi_k); all levels draw from one generator.
    Cross-checks stored in meta: lambda_i* against the supplied primal
    spectrum (or a fresh first level) and the first dual extremal against
    J_Y(T x_1)/lambda_1.
    """
    js = _deflate(adjoint(T), n_levels, tol, restarts,
                  itertools.repeat(np.random.default_rng(seed)), quotient=True)

    if primal is None:
        lam1, x1, _ = extremal_pair(T, (), seed=seed, tol=tol, restarts=restarts)
        prim_lams = [lam1]
        prim_x1 = x1.coeffs
    else:
        prim_lams = primal.lambdas
        prim_x1 = primal.X[:, 0] if primal.n_levels else None
    m = min(len(prim_lams), js.n_levels)
    js.meta["lambda_match"] = [abs(prim_lams[i] - js.lambdas[i]) for i in range(m)]
    if prim_x1 is not None and js.n_levels:
        w_c, q = T.cod.weights, T.cod.p
        ystar = _jtilde(T.apply_coeffs(prim_x1), w_c, q)
        js.meta["first_dual_vector_dev"] = sup_dev_up_to_sign(js.X[:, 0], ystar)
    js.meta["tol"] = tol
    return js


def konig_report(T: LinOp, n: int, k_max: int, tol: float = 1e-8, seed: int = 42,
                 restarts: int = 4) -> dict:
    """Sequence lambda_n(T^k)^(1/k), k = 1..k_max, for a square operator
    ("values"), plus the dense-eigenvalue reference |lambda_hat_n|."""
    if not T.dom.same_grid(T.cod) or T.dom.p != T.cod.p:
        raise GeometryError("the eigenvalue comparison needs T acting on one space")
    if not 1 <= n <= T.dom.dim:
        raise GeometryError(f"level n = {n} is outside 1..{T.dom.dim}, the dimension of T")
    if k_max < 0:
        raise GeometryError(f"k_max must be at least 0, got {k_max}")
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
