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
step's own ||r - F mu - lambda J~_X x||_{p'}, an upper bound on the weighted
l_{p'} distance of the gradient r - lambda J~_X x to that span.

The steps converge linearly, so a start whose bound has fallen at a steady
ratio rho over its last two steps takes its next step from the Aitken
extrapolation x~ = x' + beta (x' - x), beta = rho / (1 - rho), of its last
two iterates x and x' (Aitken's delta-squared rule), in place of x'. T x~ is
the same combination of T x' and T x, so x~ costs no apply; as a
combination of two iterates it lies in the polar subspace; and it is kept
only where it does not lower lambda: in the primal iff ||T x~|| >= ||T x'||
(both unit), in the quotient dual, which solves the distance at x~ instead
of x', iff it is at least the lambda of x, else that step falls back to x'
at the coefficients of x, loose, so that it cannot certify. No start arms
where the constraint side is solved loosely (p > 2 with constraints): there
the two lambdas the test compares are each off by that solve's error. The
sequence that never decreases is the lambda each step evaluates at the
iterate it starts from (x~ where kept), and in the primal also ||T x|| at
every iterate that T is applied to, as far as the inner solves are exact: a
loose constraint solve can lower it by some 1e-10 relative, and a loose
quotient solve overstates lambda.

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

from .oper import LinOp, adjoint, power
from .space import (
    ConvergenceError,
    Functional,
    GeometryError,
    Space,
    Vec,
    _choice,
    _count,
    _csv_text,
    _grams,
    _jmap,
    _jtilde,
    _lp_norm,
    _matvecs,
    _real,
    _rng,
    _stack,
    functional_distance,
    min_norm_coeffs,
    odd_power,
    sup_dev_up_to_sign,
)


# gradient tolerances of the best-approximation solves in _ascent: full
# precision, and the loosest a solve of either side may run at (_forcing);
# and the factor of the constraint side's forcing term (see _ascent)
_GTOL, _GTOL_LOOSE = 1e-10, 1e-2
_FORCING_B = 0.1
# the Aitken extrapolation in _ascent: a column arms once the ratio of its
# last two bounds is under _RHO_MAX and within _STEADY (relative) of the one
# before
_RHO_MAX, _STEADY = 0.8, 0.25


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
        """Matrix of semi-inner products (v_r, v_s) = <v_s, J v_r>; delta_{rs}
        expected for r <= s. The duality maps are the stored ones: JX, and
        JY / lambda = J_Y y (J is positively homogeneous). side is "x" or
        "y"."""
        side = _choice(side, "side", ("x", "y"))
        if not self.n_levels:
            return np.zeros((0, 0))
        if side == "x":
            V, JV, sp = self.X, self.JX, self.dom
        else:
            V, JV, sp = self.Y, self.JY / np.asarray(self.lambdas), self.cod
        return (sp.weights[:, None] * JV).T @ V

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


def _constraint_basis(C, full):
    """Orthonormal basis of R^n whose leading columns span the columns of the
    n x k array C, and their numerical rank, from a rank-revealing SVD of C
    cut at 1e-13 of its largest singular value; thin (n x k) unless full
    (n x n), and Fortran-ordered. Raises DeflationExhausted when the columns
    span the whole domain."""
    U, s, _ = np.linalg.svd(C, full_matrices=full)
    rank = int(np.sum(s > 1e-13 * max(float(s.max(initial=0.0)), 1e-300)))
    if C.shape[0] - rank <= 0:
        raise DeflationExhausted("constraints exhaust the domain")
    return np.asfortranarray(U), rank


def _constraint_projector(T, constraints):
    """Projector v - B B^T (w v) onto the common kernel of the constraint
    functionals, the columns of the dim x k array constraints, orthogonal in
    the weighted pairing, and B: a Fortran-ordered basis of their span,
    orthonormal in that pairing (None without constraints). The projector
    takes an n x r block and projects it column by column, as one batch of
    matrix-vector products, so that each column comes out bitwise as it
    would alone, which the block run needs (see space._power_sums); the plain
    B @ (B.T @ (w V)) is a matrix product and rounds otherwise."""
    if not np.size(constraints):
        return (lambda V: V), None
    w = T.dom.weights
    sw = np.sqrt(w)
    U, rank = _constraint_basis(sw[:, None] * constraints, full=False)
    B = U[:, :rank] / sw[:, None]

    def project(V):
        C = np.matmul(B.T, (w * V.T)[:, :, None])  # r x rank x 1
        return V - np.matmul(B, C)[:, :, 0].T

    return project, B


def nullspace_basis(T, constraints):
    """Explicit orthonormal basis of the common kernel of the columns of the
    dim x k array constraints, Fortran-ordered (for subspace constructions;
    quadratic memory, intended for moderate grids)."""
    if not np.size(constraints):
        return np.eye(T.dom.dim, order="F")
    U, rank = _constraint_basis(T.dom.weights[:, None] * constraints, full=True)
    return U[:, rank:]


def _ascent(T, project, B, X0, tol, lam_tiny, max_iter, M=None):
    """All starts at once: for each column x of the n x r block X0, maximize
    dist_Y(Tx, span M) / ||x||_X on the polar subspace.

    With M None the distance is ||Tx||_Y, the primal problem; the quotient
    dual passes the adjoint as T and its representatives as the columns of
    M; project and B (None without constraints) are _constraint_projector's
    for the deflation functionals. At unit x, with lambda = dist_Y(Tx, span
    M) and c the best-approximation coefficients, r = T* J~_Y(Tx - Mc) pairs
    with x to lambda, and the eigenvalue equation says r - lambda J~_X x
    lies in span B. Each step takes v = r - B mu, with B mu the best l_{p'}
    approximation of r, and moves to the unit x' parallel to J_X^-1 v =
    odd_power(v, p' - 1): the stationarity of mu puts x' in the polar
    subspace (Alber's generalized projection), and Hoelder's inequality
    gives dist_Y(Tx', span M) >= <r, x'> = ||v||_{p'} >= <r, x> = lambda,
    so lambda never decreases (Boyd's l_p power method). As B mu lies in
    span B, the bound ||v - lambda J~_X x||_{p'} is an upper bound on the
    distance of r - lambda J~_X x to span B; a start that finishes reports
    its last bound as its residual, and certifies if it is at most tol.

    The bounds of a column fall at a nearly constant ratio rho, which
    Aitken's delta-squared rule removes. A column whose last two bound
    ratios agree to within _STEADY and lie under _RHO_MAX is armed
    (_extrapolate), but not before the last step, and not where the
    constraint solve runs loose (p > 2 with constraints, below), whose error
    the acceptance test could not tell from a gain: its next step starts
    from x~ = x' + beta (x' - x), beta = rho / (1 - rho), normalized, where
    x is the iterate of this step and x' its polar successor, and T x~ is
    the same combination of T x', which the next step applies anyway, and
    the T x of this step. x~'s norm comes from the norm call that normalizes
    x', and T x~'s from the lambda call, so a step still costs one apply,
    one adjoint and three norms. In the primal x~ is kept iff lambda(x~) >=
    lambda(x'), so each step starts at a lambda of at least that of the
    iterate T was applied to, which the polar step does not lower: the
    lambdas at which the steps start and those of the iterates T is applied
    to both never decrease, up to the error of a loose constraint solve. In
    the quotient dual the block solves the quotient at x~ in place of x',
    warm-started at the coefficients c of x as any column is, and keeps x~
    iff its lambda is at least lambda(x); else the column falls back to x'
    at the coefficients c, whose residual norm bounds the distance at x'
    from above and is at least lambda(x) when c is exact, as a loose step,
    which cannot certify. So the lambdas at which the steps start never
    decrease but by the error of a loose quotient solve. A candidate is a
    combination of two iterates of the polar subspace, and the certificate
    is the bound at the iterate the step starts from, as for any step; the
    next arming takes two more plain steps.

    The columns step together: one apply and one adjoint of the whole block
    per step, column-wise norms, duality maps and projector, and one block
    call of min_norm_coeffs per side (quotient and constraints), in which
    each column is warm-started from the coefficients of its own previous
    iterate and ends as it would alone; nothing is carried from one column
    to another. A column leaves the block, with its result, when it
    certifies, fails, reaches max_iter, steps to zero or finds lambda below
    lam_tiny, so finished columns cost nothing more: each exit puts the
    result in done, and _retire records it and drops the column from every
    per-column array at hand. Returns one entry per column of X0: None when
    the start projects to zero, else (lambda, x, residual, certified).

    The inner solves are only as precise as the step needs (the forcing
    term of inexact Newton methods). A column carries its last bound
    ||v - lambda J~_X x||_{p'} relative to lambda; its quotient solve runs
    at that gradient tolerance and, for p > 2, its constraint solve at a
    tenth of it, both clipped to [_GTOL, _GTOL_LOOSE] (the first step, with
    no bound yet, at _GTOL_LOOSE), and both at _GTOL once that bound is at
    most 10 tol or the next step is the last. Any quotient coefficients
    bound the distance from above, so a loose quotient solve can only
    overstate lambda. Any mu leaves the bound an upper bound on the
    distance, and for p > 2 project puts x' back in the polar subspace
    whatever mu is, so a loose constraint solve changes only the path. The
    constraint side takes a tenth because an error of mu enters the bound
    at first order, while an error of c enters lambda only at second order
    (with the full ratio the iteration stalls). No loose step certifies: a
    column certifies only on a step whose solves all ran at _GTOL, and one
    that meets tol after a loose solve takes one more step, at _GTOL. A
    loose step whose relative bound did not fall sends the column's next
    solves to _GTOL, so the forcing term alone cannot stall a column. For
    p <= 2 nothing puts x' back in the polar subspace (see below), and the
    constraint solves always run at _GTOL.

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
    done = {}  # block column -> result of its start, until _retire records it
    X, kept = _unit_columns(project(np.asarray(X0, dtype=float)), w_d, p)
    live = np.flatnonzero(kept)  # the start of each block column
    # per block column: the best-approximation coefficients of its last
    # iterate on the quotient side and on the constraint side, and its last
    # bound relative to lambda, from which _forcing derives the gradient
    # tolerances of its next solves (inf before any bound: loose; 0: _GTOL)
    Cq = np.zeros((0 if M is None else M.shape[1], live.size))
    Cb = np.zeros((0 if B is None else B.shape[1], live.size))
    rel = np.full(live.size, np.inf)
    # and its last bound and the ratio of its last two (nan: not known yet)
    hist = np.full((2, live.size), np.nan)
    ext = None  # the candidates of the armed columns, from _extrapolate
    loose_b = B is not None and p > 2.0  # the constraint side runs loose too
    for it in range(max_iter + 1):
        if not live.size:
            break
        E = T.apply_coeffs(X)
        fell = np.zeros(live.size, dtype=bool)  # fell back from its candidate
        cand = ext is not None
        if cand:  # x~ and T x~ stand in for the armed columns
            a, Xt, ca, cb, E_prev, lam_prev = ext
            Et = ca * _columns(E, a) - cb * E_prev
            ext = E_prev = None  # a block held past its use raises the peak memory
        if M is None:
            if cand:  # T x~ next to T x: one norm call; x~ is kept iff it raises lambda
                lam = _lp_norm(_side_by_side(E, Et), w_c, q)
                lam, lam_t = lam[:live.size], lam[live.size:]
                up = lam_t >= lam[a]
                if up.any():
                    j = a[up]
                    X, E = _put(X, j, _columns(Xt, up)), _put(E, j, _columns(Et, up))
                    lam[j] = lam_t[up]
            else:
                lam = _lp_norm(E, w_c, q)
        else:
            if cand:  # the quotient is solved at x~ in place of x_{t+1}
                E1, C1 = _columns(E, a), Cq[:, a]  # T x_{t+1} and c_t, for a fall-back
                E, Et = _put(E, a, Et), None
            Cq, lam = _best_approx(E, M, w_c, q, Cq if it else None, _forcing(rel, 1.0), X,
                                   done)
            if cand:  # x~ is kept iff lambda(x~) >= lambda_t
                back = lam[a] < lam_prev  # else x_{t+1} at its previous coefficients
                X = _put(X, a[~back], _columns(Xt, ~back))
                if back.any():  # as a loose step
                    E1, C1 = _columns(E1, back), _columns(C1, back)
                    j = a[back]
                    E, Cq = _put(E, j, E1), _put(Cq, j, C1)
                    lam[j] = _lp_norm(E1 - _matvecs(M, C1.T).T, w_c, q)
                    fell[j] = True
                E1 = None
        Xt = Et = None
        for j in np.flatnonzero(lam < lam_tiny):
            done[j] = (0.0, X[:, j], 0.0, True)
        live, X, E, lam, Cq, Cb, rel, hist, fell = _retire(out, done, live, X, E, lam, Cq, Cb,
                                                            rel, hist, fell)
        if not live.size:
            break
        Y = E if M is None else E - _matvecs(M, Cq.T).T
        R = T.apply_adjoint_coeffs(_jtilde(Y, w_c, q, lam))
        if B is None:
            V = R
        elif pp == 2.0:
            V = project(R)
        else:
            Cb, _ = _best_approx(R, B, w_d, pp, Cb if it else None,
                                 _forcing(rel, _FORCING_B) if loose_b else _GTOL, X, done)
            live, X, E, lam, R, Cq, Cb, rel, hist, fell = _retire(
                out, done, live, X, E, lam, R, Cq, Cb, rel, hist, fell)
            if not live.size:
                break
            V = R - _matvecs(B, Cb.T).T
            if p < 2.0:  # Newton step on <f, odd_power(v, p' - 1)> = 0
                h = (pp - 1.0) * w_d * np.abs(V.T) ** (pp - 2.0)
                G = _matvecs(B.T, w_d * odd_power(V.T, pp - 1.0))
                Cb = Cb + np.linalg.solve(_grams(B, h), G[:, :, None])[:, :, 0].T
                V = R - _matvecs(B, Cb.T).T
        bound = _lp_norm(V - lam * odd_power(X, p - 1.0), w_d, pp)
        step = ~(bound <= tol) & (it < max_iter)
        if M is not None or loose_b:  # a step with a loose solve certifies nothing
            loose = (_forcing(rel, 1.0 if M is not None else _FORCING_B) > _GTOL) | fell
            step |= loose & (it < max_iter)
            rel_new = bound / lam
            if loose_b:  # a loose step that did not lower the bound: the next at _GTOL
                rel_new[loose & ~(rel_new < rel)] = 0.0
            rel_new[(bound <= 10.0 * tol) | (it + 1 == max_iter)] = 0.0
            rel = rel_new
        X_new = odd_power(V[:, step], pp - 1.0)
        X_new, moved, ext = _extrapolate(X_new if p <= 2.0 else project(X_new), X, E, lam,
                                         bound, step, hist, T.dom,
                                         not loose_b and it + 1 < max_iter)
        step[np.flatnonzero(step)[~moved]] = False  # stepped to zero: stop here
        for j in np.flatnonzero(~step):
            done[j] = (float(lam[j]), X[:, j], float(bound[j]), bool(bound[j] <= tol))
        live, Cq, Cb, rel, hist = _retire(out, done, live, Cq, Cb, rel, hist)
        X = X_new
    return out


def _extrapolate(U, X, E, lam, bound, step, hist, dom, arm):
    """The unit new iterates x_{t+1} of the stepping columns (U: their
    directions, the columns where step is set; X, E, lam, bound: the block's
    iterates x_t, their images T x_t, lambdas and bounds), the mask of those
    that are nonzero, and the Aitken candidates of the columns it arms, as
    (positions among the new iterates, unit candidates x~, coefficients ca
    and cb with T x~ = ca T x_{t+1} - cb T x_t, T x_t, lambda_t), or None.

    Unless arm, only normalizes. Else updates hist, the rows (last bound,
    last bound ratio), and arms each stepping column whose bound ratio rho
    is under _RHO_MAX and within _STEADY (relative) of the one before, and
    then forgets that ratio, so the next arming takes two more plain steps.
    The candidate is x~ = (1 + beta) u / s - beta x_t, normalized, with beta
    = rho / (1 - rho), u the column of U and s = lambda_t^(p' - 1), which
    stands in for the norm of u, not known yet: near the fixed point v =
    lambda J~_X x, so ||u||_p = ||v||_{p'}^(p' - 1) is s up to the bound,
    and its error moves x~ only along x_{t+1}, which the normalization
    absorbs to second order. So ||u|| and ||x~|| come from one norm call."""
    w, p = dom.weights, dom.p
    if not arm:
        return (*_unit_columns(U, w, p), None)
    # the tests run on lists: for a few columns far cheaper than array operations
    last, prev = hist.tolist()
    rhos = [b / h if h > 0.0 else np.nan for b, h in zip(bound.tolist(), last)]
    hist[0], hist[1] = bound, rhos
    arms = [(i, j) for i, j in enumerate(step.nonzero()[0].tolist())
            if rhos[j] < _RHO_MAX and abs(rhos[j] - prev[j]) <= _STEADY * rhos[j]]
    if not arms:
        return (*_unit_columns(U, w, p), None)
    c, j = np.array(arms).T  # positions among the stepping columns, and in the block
    rho = hist[1, j]
    hist[1, j] = np.nan
    beta = rho / (1.0 - rho)
    f = (1.0 + beta) / lam[j] ** (dom.pprime - 1.0)
    k = U.shape[1]
    Xt = f * _columns(U, c) - beta * _columns(X, j)
    nx = _lp_norm(_side_by_side(U, Xt), w, p)  # one norm call for u and x~
    nx, m = nx[:k], nx[k:]
    moved = nx != 0.0
    ext = None
    if not moved.all():  # a column that stepped to zero leaves with its candidate
        ok = moved[c]
        c, j, beta, f, m, Xt = c[ok], j[ok], beta[ok], f[ok], m[ok], Xt[:, ok]
        c = (np.cumsum(moved) - 1)[c]  # positions among the new iterates
    if c.size:
        ext = (c, Xt / m, f * nx[moved][c] / m, beta / m, _columns(E, j), lam[j])
    return _columns(U, moved) / nx[moved], moved, ext


def _columns(A, cols):
    """The columns cols of A (a mask, or increasing indices): A itself,
    uncopied, if that is all of them."""
    n = np.count_nonzero(cols) if cols.dtype == bool else cols.size
    return A if n == A.shape[1] else A[:, cols]


def _put(A, j, B):
    """A copy of A with its columns j (increasing indices) set to the columns
    of B; B itself if that is every column. The copy keeps the layout of A
    (and B has it), in which the steps after round."""
    if j.size == A.shape[1]:
        return B
    A = A.copy(order="K")
    A[:, j] = B
    return A


def _side_by_side(A, B):
    """The columns of A, then those of B, as one Fortran-ordered block: the
    layout in which _lp_norm sums its columns, so that it copies none."""
    return np.concatenate((A.T, B.T)).T


def _forcing(rel, factor):
    """Gradient tolerances of the next best-approximation solves: factor
    times each column's last relative bound rel, clipped to [_GTOL,
    _GTOL_LOOSE]."""
    return np.clip(factor * rel, _GTOL, _GTOL_LOOSE)


def _best_approx(R, basis, w, p, C0, gtol, X, done):
    """min_norm_coeffs of the columns of R from basis, as one block call:
    (coefficients, distances). A column whose solve fails gets distance nan
    and leaves through done."""
    try:
        return min_norm_coeffs(R, basis, w, p, c0=C0, gtol=gtol)
    except ConvergenceError as exc:
        for j in np.flatnonzero(exc.failed):
            done[j] = (np.nan, X[:, j], np.inf, False)
        return exc.coeffs, np.where(exc.failed, np.nan, exc.residual)


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
    return _columns(X, keep) / nx[keep], keep


def _canonical_sign(x):
    big = np.abs(x) > 1e-8 * max(np.max(np.abs(x)), 1e-300)
    if big.any() and x[np.argmax(big)] < 0:
        return -x
    return x


def _solver_args(tol, restarts, seed):
    """tol, restarts and seed as each entry of the solver takes them, checked
    before any work, so also where a call runs no solve: GeometryError unless
    tol is finite and positive, restarts an integer of at least 1 and seed
    one of at least 0."""
    return _real(tol, "tol", 0), _count(restarts, "restarts", 1), _count(seed, "seed")


def _between(obj, dom, cod, who, what="a spectrum"):
    """GeometryError unless obj, a spectrum or what else what names, was
    built between dom and cod (the same grids and exponents), the spaces of
    the object beside it: a spectrum beside its operator, an operator beside
    its series."""
    if obj.dom != dom or obj.cod != cod:
        raise GeometryError(f"{who} needs {what} from {dom!r} to {cod!r}, "
                            f"got one from {obj.dom!r} to {obj.cod!r}")


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
    certifies. tol and restarts come checked by _solver_args; raises
    GeometryError unless max_iter is an integer of at least 0.

    A start finds T vanishing when lambda falls below 1e-13 max(s, 1), with
    s = max_j ||T x0_j||_Y / ||x0_j||_X over the columns of the start block
    before projection (the plain codomain norm, also with M): a lower bound
    on ||T|| for one block apply, not the n applies of a Frobenius norm."""
    max_iter = _count(max_iter, "max_iter",
                      below=f"max_iter must be an integer of at least 0, got {max_iter}")
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
    for out in _ascent(T, project, B, X0, tol, lam_tiny, max_iter, M):
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
    off that grid (another node count, interval or weights), before any
    start; DeflationExhausted when T vanishes on the subspace and
    ConvergenceError (with the best residual) when no start certifies.
    """
    C = _stack(list(constraints_X), T.dom,
               "constraint functionals must live on the grid of T.dom")
    tol, restarts, seed = _solver_args(tol, restarts, seed)
    lam, x, res = _best_start(T, C, _rng(seed), restarts, tol, max_iter)
    return lam, Vec(x, T.dom), res


def operator_norm(T: LinOp, tol: float = 1e-8, seed: int = 42, restarts: int = 4) -> float:
    """||T|| estimated variationally (exact up to the residual certificate);
    0.0 when the solver finds T vanishing. Raises ConvergenceError (with the
    best residual) when no start certifies."""
    try:
        lam, _, _ = extremal_pair(T, (), seed=seed, tol=tol, restarts=restarts)
    except DeflationExhausted:
        return 0.0
    return lam


def _deflate(S: LinOp, n_levels, tol, restarts, seed, quotient):
    """The deflation flag of S: level k (from 0) certifies x_k on the polar
    subspace of the columns J_X x_j (j < k) of js.JX, with its starts drawn
    from the generator of seed + 101 k, and appends x_k, y_k = S x_k /
    lambda_k, J_X x_k and J_Y(S x_k) to js.X, js.Y, js.JX and js.JY. So a
    level draws the same starts whatever the levels before it drew, in the
    primal and in the dual alike. With quotient, S is an adjoint measured by
    the distance to the span of js.Y, the quotient norm of the dual problem.
    Stops once S vanishes; raises ConvergenceError, naming the level, when a
    level fails to certify or exceeds the one before, and GeometryError,
    also for 0 levels, for an n_levels that is not an integer of at least 0
    and for a tol, restarts or seed that _solver_args rejects."""
    n_levels = _count(n_levels, "the number of levels")
    tol, restarts, seed = _solver_args(tol, restarts, seed)
    name, where = ("T*", "dual level") if quotient else ("T", "level")
    empty_d, empty_c = np.zeros((S.dom.dim, 0)), np.zeros((S.cod.dim, 0))
    js = JSpectrum(X=empty_d, Y=empty_c, JX=empty_d, JY=empty_c, dom=S.dom, cod=S.cod)
    for level in range(n_levels):
        try:
            lam, x, res = _best_start(S, js.JX, _rng(seed + 101 * level), restarts, tol,
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
    the restriction of T becomes numerically zero. Level k (from 0) draws its
    starts from the generator of seed + 101 k. T maps the polar subspace
    X_{k+1} into the codomain subspace Y_{k+1} exactly when the functional
    T* J_Y(T x_k) vanishes on X_{k+1}; meta["mapping_check"][k] is its
    quotient norm there (functional_distance to the span of J_X x_0, ...,
    J_X x_k) relative to its norm, one entry per level, from the stored
    arrays. As the distance is at most lambda_k residual_k and the norm at
    least <x_k, T* J_Y(T x_k)> = lambda_k^2, each entry times lambda_k is
    at most residual_k, with equality at p = q = 2.
    """
    js = _deflate(T, n_levels, tol, restarts, seed, quotient=False)
    G = T.apply_adjoint_coeffs(js.JY)  # column k: T* J_Y(T x_k)
    js.meta["mapping_check"] = [
        functional_distance(G[:, k], js.JX[:, : k + 1], T.dom)
        / _lp_norm(G[:, k], T.dom.weights, T.dom.pprime)
        for k in range(js.n_levels)
    ]
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
    hold J_{Y*} psi_k and J_{X*}(T* psi_k). Level k (from 0) draws its starts
    from the generator of seed + 101 k, as in compute_jspectrum.
    Cross-checks stored in meta: lambda_i* against the supplied primal
    spectrum (or a fresh first level) and the first dual extremal against
    J_Y(T x_1)/lambda_1. A primal spectrum with levels must be computed
    between T.dom and T.cod.
    """
    if primal is not None and primal.n_levels:
        _between(primal, T.dom, T.cod, "dual_jspectrum")
    js = _deflate(adjoint(T), n_levels, tol, restarts, seed, quotient=True)

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
    n = _count(n, "n", 1)
    if n > T.dom.dim:
        raise GeometryError(f"level n = {n} is outside 1..{T.dom.dim}, the dimension of T")
    k_max, (tol, restarts, seed) = _count(k_max, "k_max"), _solver_args(tol, restarts, seed)
    vals = []
    for k in range(1, k_max + 1):
        js = compute_jspectrum(power(T, k), n_levels=n, tol=tol, seed=seed,
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
