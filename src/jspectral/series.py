"""Series representations built from j-eigenvalue data.

Covers the Hilbert-target and Hilbert-source expansions, the linearized
variants obtained through the dual problem, the fast-decay expansions with
flag-biorthogonal coefficient functionals, the projection constant alpha_p,
and the factorized (Hilbertian) constructions: the orthogonal-complement
series, the double series for two compact factors and the two single-factor
series.

Every representation applies as T_N x = sum_{i<=N} lambda_i <x, phi_i> v_i
and is checked by reconstruction error against the operator it represents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import svd

from .jspec import (
    DeflationExhausted,
    JSpectrum,
    _between,
    compute_jspectrum,
    dual_jspectrum,
    nullspace_basis,
    operator_norm,
)
from .oper import LinOp, adjoint, compose
from .space import (
    ConvergenceError,
    Functional,
    GeometryError,
    Space,
    Vec,
    _choice,
    _count,
    _csv_text,
    _jmap,
    _lp_norm,
    _real,
    _rng,
    _stack,
    functional_distance,
    sup_dev_up_to_sign,
)


class DegenerateDeflationError(GeometryError):
    """A deflation step failed to drop the factored subspace dimension by one."""


@dataclass
class SeriesRep:
    """Truncatable series T_N x = sum lambda_i <x, phi_i> v_i.

    The v_i are the columns of V (cod.dim x k), the phi_i those of Phi
    (dom.dim x k); left_vectors and coeff_functionals view them as Vec and
    Functional lists.
    """

    kind: str
    lambdas: list[float]
    V: np.ndarray
    Phi: np.ndarray
    dom: Space
    cod: Space
    meta: dict = field(default_factory=dict)

    @property
    def n_terms(self):
        return len(self.lambdas)

    @property
    def left_vectors(self) -> list[Vec]:
        return [Vec(v, self.cod) for v in self.V.T]

    @property
    def coeff_functionals(self) -> list[Functional]:
        return [Functional(f, self.dom) for f in self.Phi.T]

    def _partial(self, terms):
        """Kernels of the partial sum over the term indices terms (a slice or
        a list): x -> sum lambda_k <x, phi_k> v_k and its adjoint f -> sum
        lambda_k <v_k, f> phi_k, for a vector or a block of columns; O(n k)."""
        lam = np.asarray(self.lambdas)[terms]
        V, Phi = self.V[:, terms], self.Phi[:, terms]
        B = self.dom.weights[:, None] * Phi * lam
        C = self.cod.weights[:, None] * V * lam
        return (lambda x: V @ (B.T @ x)), (lambda f: Phi @ (C.T @ f))

    def _sum_terms(self, x, terms=slice(None)):
        """sum lambda_k <x, phi_k> v_k over the term indices terms."""
        fwd, _ = self._partial(terms)
        return fwd(x)

    def _apply(self, x: Vec, terms) -> Vec:
        """_sum_terms of the Vec x, which must live on the domain grid."""
        if not x.space.same_grid(self.dom):
            raise GeometryError("vector does not live on the series domain grid")
        return Vec(self._sum_terms(x.coeffs, terms), self.cod)

    def apply_truncated(self, x: Vec, n_terms: int | None = None) -> Vec:
        """T_N x for N = n_terms, an integer of at least 0 (all terms if None)."""
        return self._apply(x, slice(None if n_terms is None else _count(n_terms, "n_terms")))

    def remainder(self, T: LinOp, n: int) -> LinOp:
        """Lazy T - T_n, applied in O(n k) beside T, an operator between the
        spaces of the series; n is an integer of at least 0."""
        _between(T, self.dom, self.cod, "remainder", "an operator")
        fwd, adj = self._partial(slice(_count(n, "n")))
        return LinOp._from_kernels(T.dom, T.cod, lambda x: T.apply_coeffs(x) - fwd(x),
                                   lambda f: T.apply_adjoint_coeffs(f) - adj(f))

    def reconstruction_errors(self, T: LinOp, test_vectors, ns) -> list[tuple[int, float]]:
        """Max over the list test_vectors of ||Tx - T_N x||_cod for each N in
        ns. T is applied to the test set once, as one block, and each partial
        sum T_N is subtracted from that (bitwise remainder(T, N) of the block).
        Raises GeometryError for a T that does not map between the spaces of
        the series, for a test vector off the grid of the domain and for an N
        that is not an integer of at least 0."""
        _between(T, self.dom, self.cod, "reconstruction_errors", "an operator")
        ns = [_count(n, "N") for n in ns]
        X = _stack(test_vectors, self.dom, "vector does not live on the series domain grid")
        TX = T.apply_coeffs(X)
        rows = []
        for n in ns:
            errs = _lp_norm(TX - self._sum_terms(X, slice(n)), self.cod.weights, self.cod.p)
            rows.append((n, float(np.max(errs, initial=0.0))))
        return rows

    @staticmethod
    def error_table_csv(errors):
        """CSV table of the (N, error) rows of reconstruction_errors."""
        return _csv_text(errors, ("N", "error"))

    def to_json(self, T=None, test_vectors=None, ns=None):
        doc = {
            "kind": self.kind,
            "lambdas": self.lambdas,
            "left_vectors": self.V.T.tolist(),
            "coeff_functionals": self.Phi.T.tolist(),
        }
        if T is not None and test_vectors is not None and ns is not None:
            doc["errors"] = self.reconstruction_errors(T, test_vectors, ns)
        return json.dumps(doc, sort_keys=True)


def random_unit_vectors(space: Space, count: int, seed: int = 0) -> list[Vec]:
    """count Gaussian vectors on space, each scaled to unit norm. They are
    drawn as one count x dim block, which is the stream of count single
    draws, so vector i does not depend on count. A count or seed that is not
    an integer of at least 0 raises GeometryError."""
    V = _rng(seed).standard_normal((_count(count, "count"), space.dim)).T
    return [Vec(v, space) for v in (V / _lp_norm(V, space.weights, space.p)).T]


def _weighted_gram(V, space):
    return (V * space.weights[:, None]).T @ V


def _gram_dev(V, space):
    """max |G - I| of the weighted Gram matrix G of the columns of V; 0.0 for none."""
    return float(np.max(np.abs(_weighted_gram(V, space) - np.eye(V.shape[1])), initial=0.0))


def _check_orthonormal(V, space, tol, what):
    dev = _gram_dev(V, space)
    if dev > tol:
        raise ConvergenceError(
            f"{what} are not orthonormal to {tol:g} (deviation {dev:.3e}); "
            "upstream spectrum did not converge",
            residual=dev,
        )
    return dev


def hilbert_target_series(T: LinOp, js: JSpectrum) -> SeriesRep:
    """Expansion Tx = sum lambda_i xi_i(x) h_i for a Hilbert codomain.

    h_i = T x_i / lambda_i are orthonormal in the weighted 2-inner product
    and xi_i(x) = lambda_i^{-1} (Tx, h_i)_H, realized as T* h_i / lambda_i.
    js must be a spectrum computed between T.dom and T.cod.
    """
    if T.cod.p != 2.0:
        raise GeometryError("hilbert_target_series needs codomain exponent 2")
    _between(js, T.dom, T.cod, "hilbert_target_series")
    dev = _check_orthonormal(js.Y, T.cod, 1e-6, "target-side vectors h_i")
    return SeriesRep(
        "hilbert_target", list(js.lambdas), js.Y,
        T.apply_adjoint_coeffs(js.Y) / np.asarray(js.lambdas), T.dom, T.cod,
        meta={"h_gram_dev": dev, "residuals": list(js.residuals)},
    )


def hilbert_source_series(T: LinOp, js: JSpectrum) -> SeriesRep:
    """Expansion Th = sum lambda_i (h, h_i)_H y_i for a Hilbert domain.

    h_i = x_i are orthonormal in H; emits the Gram condition number of the
    first N target vectors y_i as a finite-N basis diagnostic. js must be a
    spectrum computed between T.dom and T.cod.
    """
    if T.dom.p != 2.0:
        raise GeometryError("hilbert_source_series needs domain exponent 2")
    _between(js, T.dom, T.cod, "hilbert_source_series")
    dev = _check_orthonormal(js.X, T.dom, 1e-6, "source-side vectors h_i")
    G = _weighted_gram(js.Y, T.cod)
    cond = float(np.linalg.cond(G)) if G.size else 1.0
    return SeriesRep(
        "hilbert_source", list(js.lambdas), js.Y, js.X, T.dom, T.cod,
        meta={"h_gram_dev": dev, "y_gram_cond": cond, "residuals": list(js.residuals)},
    )


def linearized_series(T: LinOp, n_levels: int, tol: float = 1e-8, seed: int = 42,
                      restarts: int = 8, n_check: int = 10) -> SeriesRep:
    """Linearized expansions of T into a Hilbert space via the dual problem.

    Builds three formula variants and verifies them against each other:
      (a) dual data directly:   Tx = sum lambda_i* <x, x_i*> h_i*
      (b) through z_i with J_X z_i = x_i*: same terms with J_X z_i recomputed
      (c) primal data with the quotient representative of J_{X_i} x_i pinned
          by the dual deflation conditions <z_j, psi_i> = 0 (j < i)
    Variant (a) is returned; (b), (c) and the agreement diagnostics live in
    meta. Identity failures beyond tolerance are reported there, not hidden.
    """
    if T.cod.p != 2.0:
        raise GeometryError("linearized_series needs codomain exponent 2")
    js_p = compute_jspectrum(T, n_levels, tol=tol, seed=seed, restarts=restarts)
    js_d = dual_jspectrum(T, n_levels, tol=tol, seed=seed, restarts=restarts,
                          primal=js_p)
    m = min(js_d.n_levels, js_p.n_levels)

    lam_star = list(js_d.lambdas[:m])
    w = T.dom.weights
    h_star, x_star = js_d.X[:, :m], js_d.Y[:, :m]
    rep_a = SeriesRep("linearized", lam_star, h_star, x_star, T.dom, T.cod)

    Z = _jmap(x_star, w, T.dom.pprime)  # J_X z_i = x_i*
    rep_b = SeriesRep("linearized", lam_star, h_star, _jmap(Z, w, T.dom.p), T.dom, T.cod)

    # primal-side representative of the level-k quotient class: the element
    # of J~_X x_i + span{J_X x_j, j < i} biorthogonal to the x_j (the unique
    # coefficient family of an expansion along the orthonormal h_i)
    S = js_p.semi_orth_table("x")  # S[k, j] = <x_j, J x_k>
    J = js_p.JX[:, :m]
    Psi = J.copy()
    for i in range(1, m):
        Psi[:, i] -= J[:, :i] @ np.linalg.solve(S[:i, :i].T, S[i, :i])
    rep_c = SeriesRep("linearized", list(js_p.lambdas[:m]), js_p.Y[:, :m], Psi, T.dom, T.cod)

    h_dev = [sup_dev_up_to_sign(js_p.Y[:, i], h_star[:, i]) for i in range(m)]
    z1_dev = sup_dev_up_to_sign(Z[:, 0], js_p.X[:, 0]) if m else 0.0
    # unit quotient norm of the representatives: dist to the earlier span
    psi_norm_dev = [abs(functional_distance(Psi[:, i], J[:, :i], T.dom) - 1.0)
                    for i in range(m)]

    X = _stack(random_unit_vectors(T.dom, n_check, seed=seed + 17), T.dom,
               "vector does not live on the series domain grid")
    scale = max(lam_star[0], 1e-300) if lam_star else 1.0
    ra, rb, rc = (rep._sum_terms(X) for rep in (rep_a, rep_b, rep_c))

    def gap(r, s):
        return float(np.max(_lp_norm(r - s, T.cod.weights, 2.0), initial=0.0)) / scale

    agree = {"ab": gap(ra, rb), "ac": gap(ra, rc), "bc": gap(rb, rc)}

    rep_a.meta = {
        "variants": {"via_z": rep_b, "via_primal": rep_c},
        "lambda_dev": js_d.meta["lambda_match"],
        "h_match_dev": h_dev,
        "z1_equals_x1_dev": z1_dev,
        "psi_norm_dev": psi_norm_dev,
        "variant_agreement": agree,
        "tol": tol,
    }
    return rep_a


# ---------------------------------------------------------------------------
# decay conditions and the flag-biorthogonal series

def flag_biorthogonal_series(T: LinOp, js: JSpectrum) -> SeriesRep:
    """General series with coefficient functionals biorthogonal on the flags.

    Solves the triangular system xi_i(y_j) = delta_ij restricted to the
    nested deflation flags; reproduces the Hilbert-case coefficients exactly.
    js must be a spectrum computed between T.dom and T.cod.
    """
    _between(js, T.dom, T.cod, "flag_biorthogonal_series")
    M = js.semi_orth_table("y")  # M[j, i] = <y_i, J y_j>
    lam = np.asarray(js.lambdas)
    adj = T.apply_adjoint_coeffs(js.JY / lam)  # T* J_Y y_i: J_Y y_i = J_Y(T x_i) / lambda_i
    return SeriesRep(
        "general_decay", list(js.lambdas), js.Y,
        adj @ np.linalg.inv(M).T / lam, T.dom, T.cod,
        meta={"flag_gram": M.tolist()},
    )


def check_decay_condition(js: JSpectrum, mode: str = "lambda",
                          T: LinOp | None = None, seed: int = 0) -> dict:
    """Check the fast-decay conditions and build the series when they hold.

    mode "lambda":  lambda_n <= 2^(1-n)
    mode "gelfand": c_n <= 2^(1-n)(2^n-1)^(-1), certified through the
                    sandwich (2^n-1)^(-1) lambda_n <= c_n <= lambda_n; the
                    status is "holds"/"violated"/"undetermined" per level
    mode "lp":      lambda_n <= (1+alpha_p)^(1-n), same-exponent spaces only;
                    the exponents are those of the spectrum, which needs
                    T or a level for them

    A T, when given, must be the operator whose spectrum js is.
    """
    mode = _choice(mode, "mode", ("lambda", "gelfand", "lp"))
    if T is not None:
        _between(js, T.dom, T.cod, "check_decay_condition")
    lam = np.asarray(js.lambdas)
    n = lam.size
    idx = np.arange(1, n + 1)
    report = {"mode": mode, "n_levels": int(n)}
    if mode == "lambda":
        bounds = 2.0 ** (1 - idx)
        holds = lam <= bounds * (1 + 1e-12)
    elif mode == "gelfand":
        bounds = 2.0 ** (1 - idx) / (2.0 ** idx - 1.0)
        holds = lam <= bounds
        report["status"] = np.select([holds, lam / (2.0 ** idx - 1.0) > bounds],
                                     ["holds", "violated"], "undetermined").tolist()
    else:  # "lp": with T given, js has T's spaces (checked above)
        if js.dom is None or js.cod is None or not (n or T is not None):
            raise GeometryError("the lp decay mode needs T or a level for its exponents")
        if js.dom.p != js.cod.p:
            raise GeometryError("the lp decay mode needs equal domain/codomain exponents")
        a = alpha_p(js.dom.p)
        bounds = (1.0 + a) ** (1 - idx)
        holds = lam <= bounds * (1 + 1e-12)
        report["alpha_p"] = a
    report["bounds"] = bounds.tolist()
    report["holds"] = [bool(h) for h in holds]
    viol = np.nonzero(~holds)[0]
    report["first_violation"] = int(viol[0] + 1) if viol.size else None
    report["series"] = None
    if mode in ("lambda", "lp") and report["first_violation"] is None and T is not None:
        rep = flag_biorthogonal_series(T, js)
        tests = random_unit_vectors(T.dom, 20, seed=seed)
        report["series"] = rep
        report["errors"] = rep.reconstruction_errors(T, tests, list(range(1, n + 1)))
    return report


# ---------------------------------------------------------------------------
# projection constant alpha_p

def _alpha_objective(m, p):
    pp = p / (p - 1.0)
    return ((m ** (p / pp) + (1 - m) ** (p / pp)) ** (1 / p)
            * (m ** (pp / p) + (1 - m) ** (pp / p)) ** (1 / pp))


def alpha_p(p: float) -> float:
    """Constant alpha_p with 1 + alpha_p = max over m in (0,1) of the
    two-factor projection objective; dense grid scan refined by golden
    section. alpha_2 = 0 since the objective is identically 1 at p = 2.
    """
    return alpha_p_report(p)["alpha_p"]


def alpha_p_report(p: float) -> dict:
    """alpha_p with its maximizer and objective, for p finite and above 1."""
    p = _real(p, "p", 1)
    ms = np.linspace(0.0, 1.0, 10_002)[1:-1]  # a scan of 1e4 interior points
    vals = _alpha_objective(ms, p)
    k = int(np.argmax(vals))
    lo = ms[max(k - 1, 0)]
    hi = ms[min(k + 1, ms.size - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _alpha_objective(c, p), _alpha_objective(d, p)
    for _ in range(200):
        if b - a < 1e-14:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _alpha_objective(c, p)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _alpha_objective(d, p)
    m_star = (a + b) / 2.0
    f_star = float(_alpha_objective(m_star, p))
    f_star = max(f_star, float(vals[k]))
    if f_star == float(vals[k]):
        m_star = float(ms[k])
    return {"alpha_p": f_star - 1.0, "maximizer": float(m_star), "objective": f_star, "p": p}


# ---------------------------------------------------------------------------
# Hilbertian factorizations

def _check_factors(A, B, who):
    """T = B o A must factor through the exponent-2 codomain grid of A."""
    if not A.cod.same_grid(B.dom) or A.cod.p != 2.0:
        raise GeometryError(f"{who} factors through the exponent-2 grid of A.cod")


def _norm_bound(values, *ops):
    """Product of the certified norms of ops and whether every value lies
    under it to 1e-6 relative; (nan, None) when a norm does not certify."""
    try:
        bound = math.prod(operator_norm(op, tol=1e-6, restarts=2) for op in ops)
    except ConvergenceError:
        return float("nan"), None
    return bound, bool(np.all(np.asarray(values) <= bound * (1 + 1e-6)))


def _scaled_orth(M, w):
    """Orthonormal basis (weighted-2) of the column space of M, to rank 1e-10
    relative."""
    D = np.sqrt(w)
    U, s, _ = svd(D[:, None] * M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[0], 0))
    r = int(np.sum(s > 1e-10 * s[0]))
    return U[:, :r]


def _complement_qr(G, AX, D, U=None):
    """The h_i* as the columns of one thin QR. Without U, the i-th column of
    the n x k generator matrix G is the generator of level i; with an
    orthonormal basis U of the deepest image H_{n+1}, the generators are the
    parts of the columns of G orthogonal to U, deepest level first. The
    orthonormal columns are divided by D = sqrt(w) and signed so that
    (h_i*, A x_i)_H > 0 (AX holds the D A x_i). A level whose generator drops
    no dimension, |R_jj| <= 1e-10 of its norm before the projection and the
    QR, or |(h_i*, A x_i)_H| <= 1e-10 ||A x_i||_H, raises
    DegenerateDeflationError naming it."""
    order = slice(None) if U is None else slice(None, None, -1)
    G, AX, levels = G[:, order], AX[:, order], range(G.shape[1])[order]
    g_norm, ax_norm = np.linalg.norm(G, axis=0), np.linalg.norm(AX, axis=0)
    if U is not None:
        G = G - U @ (U.T @ G)
    Q, R = np.linalg.qr(G)
    pair = np.sum(Q * AX, axis=0)
    for j, i in enumerate(levels):
        if abs(R[j, j]) <= 1e-10 * g_norm[j] or abs(pair[j]) <= 1e-10 * ax_norm[j]:
            raise DegenerateDeflationError(
                f"A x_{i+1} lies in A(X_{i+2}): "
                f"dim A(X_{i+1}) - dim A(X_{i+2}) = 0, expected 1"
            )
    return (Q * np.sign(pair) / D[:, None])[:, order]


def _factored_series(kind, A, B, H):
    """Series of T = B o A along the H-orthonormal columns h_i of H:
    T x = sum lambda_i <x, A* h_i / ||A* h_i||> B h_i / ||B h_i|| with
    lambda_i = ||A* h_i|| ||B h_i||; a term that either factor annihilates
    is dropped. meta["norm_A_star_h"] keeps every ||A* h_i||."""
    Astar = A.apply_adjoint_coeffs(H)
    na = _lp_norm(Astar, A.dom.weights, A.dom.pprime)
    BH = B.apply_coeffs(H)
    nb = _lp_norm(BH, B.cod.weights, B.cod.p)
    keep = (na != 0.0) & (nb != 0.0)
    rep = SeriesRep(kind, (na * nb)[keep].tolist(), BH[:, keep] / nb[keep],
                    Astar[:, keep] / na[keep], A.dom, B.cod)
    rep.meta = {"norm_A_star_h": na.tolist()}
    return rep


def hilbertian_series(A: LinOp, B: LinOp, js_T: JSpectrum,
                      n_terms: int | None = None) -> SeriesRep:
    """Orthogonal-complement series for T = B o A factored through a Hilbert
    space: T_n x = sum lambda_i* y_i* <x, x_i'*> with h_i* the unit vector of
    H_i = A(X_i) orthogonal to H_{i+1}, x_i'* = A*(h_i*)/||.||, y_i* =
    B(h_i*)/||.|| and lambda_i* their norm product; the complement vectors
    h_i* are the family passed to the term builder.

    Neither factor needs to be compact; js_T supplies the deflation flags of
    the composition. The j-eigenvector x_i lies in X_i and J x_i does not
    vanish on it, so X_i = X_{i+1} + span{x_i} and H_i = H_{i+1} + span{A x_i}.
    The h_i* come from one thin QR. When A carries an inverse adjoint kernel
    (the Hardy pair), its generators are the A*^-1 J x_i, in O(n k), since
    A(X_{i+1})^perp = span{A*^-1 J x_j, j <= i}; otherwise they are the parts
    of A x_{n-1}, ..., A x_0 orthogonal to a dense orthonormal basis of
    H_{n+1}, in that order. The factored subspace dimension must drop by
    exactly one per level: an A x_i that lies in H_{i+1} to 1e-10 relative
    raises DegenerateDeflationError. A term that B annihilates is dropped.
    An n_terms that is not an integer of at least 0, and a js_T not computed
    between A.dom and B.cod, raise GeometryError.
    """
    _check_factors(A, B, "hilbertian_series")
    _between(js_T, A.dom, B.cod, "hilbertian_series")
    if n_terms is not None:
        n_terms = _count(n_terms, "n_terms",
                         below=f"n_terms must be an integer of at least 0, got {n_terms}")
    T = compose(B, A)
    n = js_T.n_levels if n_terms is None else min(n_terms, js_T.n_levels)
    X, JX = js_T.X[:, :n], js_T.JX[:, :n]
    D = np.sqrt(A.cod.weights)
    AX = D[:, None] * A.apply_coeffs(X)
    if A._adj_inv is not None:
        H = _complement_qr(D[:, None] * A._adj_inv(JX), AX, D)
    else:
        try:
            Z = nullspace_basis(A, JX)
        except DeflationExhausted:
            Z = np.zeros((A.dom.dim, 0))
        U = _scaled_orth(A.apply_coeffs(Z), A.cod.weights)
        H = _complement_qr(AX, AX, D, U)

    rep = _factored_series("hilbertian_perp", A, B, H)
    bound, bounded = _norm_bound(rep.lambdas, A, B)

    # sampled check: T - T_n maps into the deflated codomain subspaces, on
    # which the codomain deflation functionals vanish
    X = _stack(random_unit_vectors(A.dom, 3, seed=5), A.dom,
               "vector does not live on the series domain grid")
    R = rep.remainder(T, n).apply_coeffs(X)
    nu = _lp_norm(R, B.cod.weights, B.cod.p)
    ok = nu > 0.0
    pairings = (B.cod.weights[:, None] * R[:, ok]).T @ js_T.JY[:, :n]
    rep.meta = {
        "h_gram_dev": _gram_dev(H, A.cod),
        "lambda_bound": bound,
        "lambda_bounded": bounded,
        "tail_maps_into_flag_dev": float(np.max(np.abs(pairings) / nu[ok, None],
                                                initial=0.0)),
    }
    return rep


def _l2_tail_heuristic(lams):
    """Tail-ratio heuristic for square-summability; a report, never a proof."""
    lam = np.asarray([l for l in lams if l > 0])
    if lam.size < 4:
        return {"l2_consistent": None, "note": "too few terms"}
    m = lam.size // 2
    geo = (lam[-1] / lam[m]) ** (1.0 / (lam.size - 1 - m))
    k = np.arange(1, lam.size + 1)
    slope = float(np.polyfit(np.log(k), np.log(lam), 1)[0])
    consistent = bool(geo < 0.999 or slope < -0.5)
    return {
        "tail_ratio": float(lam[-1] / lam[m]),
        "geometric_rate": float(geo),
        "power_slope": slope,
        "l2_consistent": consistent,
    }


def double_series(A: LinOp, B: LinOp, terms: int, tol: float = 1e-8,
                  seed: int = 42, restarts: int = 8) -> SeriesRep:
    """Double expansion of T = B o A with both factors compact:
    T x = sum_j sum_i lambda_j^B lambda_i^{A*} y_j^B <x, x_i^{A*}> <h_i^{A*}, h_j^B>_H.

    The flattened representation orders terms by decreasing weight; meta keeps
    the (i, j) grid for order-swap experiments and the square-summability
    heuristic for both lambda sequences.
    """
    _check_factors(A, B, "double_series")
    js_a = compute_jspectrum(adjoint(A), terms, tol=tol, seed=seed, restarts=restarts)
    js_b = compute_jspectrum(B, terms, tol=tol, seed=seed + 1, restarts=restarts)
    I, J = js_a.n_levels, js_b.n_levels
    wH = A.cod.weights
    cross = (wH[:, None] * js_a.X).T @ js_b.X
    lam = np.outer(js_a.lambdas, js_b.lambdas) * cross
    # by decreasing weight; ties keep the row-major (i, j) order
    order = np.argsort(-np.abs(lam), axis=None, kind="stable")
    ii, jj = np.unravel_index(order, (I, J))
    rep = SeriesRep("double", lam.ravel()[order].tolist(), js_b.Y[:, jj], js_a.Y[:, ii],
                    A.dom, B.cod)
    rep.meta = {
        "shape": (I, J),
        "order": list(zip(ii.tolist(), jj.tolist())),
        "cross_gram": cross.tolist(),
        "l2_heuristic_A_star": _l2_tail_heuristic(js_a.lambdas),
        "l2_heuristic_B": _l2_tail_heuristic(js_b.lambdas),
        "lambda_A_star": list(js_a.lambdas),
        "lambda_B": list(js_b.lambdas),
    }
    return rep


def double_series_apply(rep: SeriesRep, x: Vec, n_i: int, n_j: int,
                        order: str = "row") -> Vec:
    """Apply the I x J block of a double series, I = n_i and J = n_j
    (integers of at least 0), in row- or column-major order, to x, which must
    live on the domain grid; order is "row" or "col"."""
    n_i, n_j = _count(n_i, "n_i"), _count(n_j, "n_j")
    order = _choice(order, "order", ("row", "col"))
    if rep.kind != "double":
        raise GeometryError("double_series_apply needs a double series")
    pairs = rep.meta["order"]
    items = [
        (k, i, j) for k, (i, j) in enumerate(pairs) if i < n_i and j < n_j
    ]
    items.sort(key=lambda t: (t[1], t[2]) if order == "row" else (t[2], t[1]))
    return rep._apply(x, [k for k, _, _ in items])


def half_series(A: LinOp, B: LinOp, which_compact: str, terms: int,
                tol: float = 1e-8, seed: int = 42, restarts: int = 8) -> SeriesRep:
    """Single series for T = B o A with one designated compact factor.

    which_compact = "A": T x = sum B(h_i^{A*}) lambda_i^{A*} <x, x_i^{A*}>
    which_compact = "B": T x = sum <x, J_X x_j^C> lambda_j^C lambda_j^B y_j^B
    with C_j(x) = <A x, h_j^B>_H normalized through the duality map; the
    lambda_j^C stay bounded by ||A|| (recorded in meta). The term builder
    gets the extremals h_i^{A*} of A* (which_compact = "A") or h_j^B of B
    (which_compact = "B"), both orthonormal in H; a term that the other
    factor annihilates is dropped.
    """
    _check_factors(A, B, "half_series")
    if _choice(which_compact, "which_compact", ("A", "B")) == "A":
        js_a = compute_jspectrum(adjoint(A), terms, tol=tol, seed=seed, restarts=restarts)
        rep = _factored_series("half_direct", A, B, js_a.X)
        rep.meta = {"lambda_A_star": list(js_a.lambdas)}
        return rep
    js_b = compute_jspectrum(B, terms, tol=tol, seed=seed, restarts=restarts)
    rep = _factored_series("half_dual", A, B, js_b.X)
    nc = rep.meta["norm_A_star_h"]
    na, bounded = _norm_bound(nc, A)
    rep.meta = {
        "lambda_C": nc,
        "lambda_C_bound": na,
        "lambda_C_bounded": bounded,
        "lambda_B": list(js_b.lambdas),
    }
    return rep
