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
from scipy.linalg import svd

from .jspec import (
    DeflationExhausted,
    JSpectrum,
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
    _csv_text,
    _jmap,
    _lp_norm,
    duality_map,
    functional_distance,
    inverse_duality_map,
    sup_dev_up_to_sign,
)


class DegenerateDeflationError(GeometryError):
    """A deflation step failed to drop the factored subspace dimension by one."""


@dataclass
class SeriesRep:
    """Truncatable series T_N x = sum lambda_i <x, phi_i> v_i."""

    kind: str
    lambdas: list[float]
    left_vectors: list[Vec]
    coeff_functionals: list[Functional]
    dom: Space
    cod: Space
    meta: dict = field(default_factory=dict)

    @property
    def n_terms(self):
        return len(self.lambdas)

    def apply_truncated(self, x: Vec, n_terms: int | None = None) -> Vec:
        if not x.space.same_grid(self.dom):
            raise GeometryError("vector does not live on the series domain grid")
        n = self.n_terms if n_terms is None else min(n_terms, self.n_terms)
        return self._sum_terms(x, range(n))

    def _sum_terms(self, x: Vec, terms) -> Vec:
        """sum lambda_k <x, phi_k> v_k over the term indices k, in their order."""
        out = np.zeros(self.cod.dim)
        w = self.dom.weights
        for k in terms:
            coef = self.lambdas[k] * float(w @ (x.coeffs * self.coeff_functionals[k].coeffs))
            out += coef * self.left_vectors[k].coeffs
        return Vec(out, self.cod)

    def reconstruction_errors(self, T: LinOp, test_vectors, ns) -> list[tuple[int, float]]:
        """Max over the test set of ||Tx - T_N x||_cod for each N."""
        rows = []
        for n in ns:
            worst = 0.0
            for x in test_vectors:
                err = T.apply_coeffs(x.coeffs) - self.apply_truncated(x, n).coeffs
                worst = max(worst, _lp_norm(err, self.cod.weights, self.cod.p))
            rows.append((int(n), worst))
        return rows

    @staticmethod
    def error_table_csv(errors):
        """CSV table of the (N, error) rows of reconstruction_errors."""
        return _csv_text(errors, ("N", "error"))

    def to_json(self, T=None, test_vectors=None, ns=None):
        doc = {
            "kind": self.kind,
            "lambdas": self.lambdas,
            "left_vectors": [v.coeffs.tolist() for v in self.left_vectors],
            "coeff_functionals": [f.coeffs.tolist() for f in self.coeff_functionals],
        }
        if T is not None and test_vectors is not None and ns is not None:
            doc["errors"] = self.reconstruction_errors(T, test_vectors, ns)
        return json.dumps(doc, sort_keys=True)


def random_unit_vectors(space: Space, count: int, seed: int = 0) -> list[Vec]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.standard_normal(space.dim)
        out.append(Vec(v / _lp_norm(v, space.weights, space.p), space))
    return out


def _weighted_gram(vectors, space):
    V = np.column_stack([v.coeffs for v in vectors])
    return (V * space.weights[:, None]).T @ V


def _gram_dev(vectors, space):
    """max |G - I| of the weighted Gram matrix G of vectors; 0.0 for none."""
    if not vectors:
        return 0.0
    return float(np.max(np.abs(_weighted_gram(vectors, space) - np.eye(len(vectors)))))


def _check_orthonormal(vectors, space, tol, what):
    dev = _gram_dev(vectors, space)
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
    """
    if T.cod.p != 2.0:
        raise GeometryError("hilbert_target_series needs codomain exponent 2")
    dev = _check_orthonormal(js.ys, T.cod, 1e-6, "target-side vectors h_i")
    funcs = [
        Functional(T.apply_adjoint_coeffs(h.coeffs) / lam, T.dom)
        for h, lam in zip(js.ys, js.lambdas)
    ]
    return SeriesRep(
        "hilbert_target", list(js.lambdas), list(js.ys), funcs, T.dom, T.cod,
        meta={"h_gram_dev": dev, "residuals": list(js.residuals)},
    )


def hilbert_source_series(T: LinOp, js: JSpectrum) -> SeriesRep:
    """Expansion Th = sum lambda_i (h, h_i)_H y_i for a Hilbert domain.

    h_i = x_i are orthonormal in H; emits the Gram condition number of the
    first N target vectors y_i as a finite-N basis diagnostic.
    """
    if T.dom.p != 2.0:
        raise GeometryError("hilbert_source_series needs domain exponent 2")
    dev = _check_orthonormal(js.xs, T.dom, 1e-6, "source-side vectors h_i")
    funcs = [Functional(x.coeffs, T.dom) for x in js.xs]
    G = _weighted_gram(js.ys, T.cod)
    cond = float(np.linalg.cond(G)) if G.size else 1.0
    return SeriesRep(
        "hilbert_source", list(js.lambdas), list(js.ys), funcs, T.dom, T.cod,
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

    h_star = [Vec(v.coeffs, T.cod) for v in js_d.xs[:m]]
    x_star = [Functional(f.coeffs, T.dom) for f in js_d.ys[:m]]
    lam_star = list(js_d.lambdas[:m])

    rep_a = SeriesRep("linearized", lam_star, h_star, x_star, T.dom, T.cod)

    zs = [inverse_duality_map(f) for f in x_star]
    funcs_b = [duality_map(z) for z in zs]
    rep_b = SeriesRep("linearized", lam_star, h_star, funcs_b, T.dom, T.cod)

    # primal-side representative of the level-k quotient class: the element
    # of J~_X x_i + span{J_X x_j, j < i} biorthogonal to the x_j (the unique
    # coefficient family of an expansion along the orthonormal h_i)
    w = T.dom.weights
    psis: list[Functional] = []
    zrep: list[Vec] = []
    for i in range(m):
        ji = js_p.defl_X[i].coeffs
        if i == 0:
            psi = ji
        else:
            Bm = np.array([[w @ (js_p.xs[j].coeffs * js_p.defl_X[k].coeffs)
                            for k in range(i)] for j in range(i)])
            rhs = np.array([w @ (js_p.xs[j].coeffs * ji) for j in range(i)])
            coef = np.linalg.solve(Bm, rhs)
            psi = ji - sum(c * js_p.defl_X[k].coeffs for k, c in enumerate(coef))
        f = Functional(psi, T.dom)
        psis.append(f)
        zrep.append(inverse_duality_map(f))
    rep_c = SeriesRep("linearized", list(js_p.lambdas[:m]), list(js_p.ys[:m]), psis,
                      T.dom, T.cod)

    lam_dev = [abs(js_p.lambdas[i] - lam_star[i]) for i in range(m)]
    h_dev = [sup_dev_up_to_sign(js_p.ys[i].coeffs, h_star[i].coeffs) for i in range(m)]
    z1_dev = sup_dev_up_to_sign(zs[0].coeffs, js_p.xs[0].coeffs) if m else 0.0
    # unit quotient norm of the representatives: dist to the earlier span
    psi_norm_dev = [
        abs(functional_distance(psis[i], [Functional(f.coeffs, T.dom)
                                          for f in js_p.defl_X[:i]]) - 1.0)
        for i in range(m)
    ]

    tests = random_unit_vectors(T.dom, n_check, seed=seed + 17)
    scale = max(lam_star[0], 1e-300) if lam_star else 1.0

    def recon(rep, x):
        return rep.apply_truncated(x, m).coeffs

    agree = {"ab": 0.0, "ac": 0.0, "bc": 0.0}
    for x in tests:
        ra, rb, rc = recon(rep_a, x), recon(rep_b, x), recon(rep_c, x)
        agree["ab"] = max(agree["ab"], _lp_norm(ra - rb, T.cod.weights, 2.0) / scale)
        agree["ac"] = max(agree["ac"], _lp_norm(ra - rc, T.cod.weights, 2.0) / scale)
        agree["bc"] = max(agree["bc"], _lp_norm(rb - rc, T.cod.weights, 2.0) / scale)

    rep_a.meta = {
        "variants": {"via_z": rep_b, "via_primal": rep_c},
        "lambda_dev": lam_dev,
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
    """
    n = js.n_levels
    w_c = T.cod.weights
    M = np.zeros((n, n))
    jys = [_jmap(y.coeffs, w_c, T.cod.p) for y in js.ys]
    for j in range(n):
        for i in range(n):
            M[j, i] = w_c @ (js.ys[i].coeffs * jys[j])
    Minv = np.linalg.inv(M)
    funcs = []
    adj_rows = [T.apply_adjoint_coeffs(jy) for jy in jys]
    for i in range(n):
        coeffs = sum(Minv[i, j] * adj_rows[j] for j in range(n)) / js.lambdas[i]
        funcs.append(Functional(coeffs, T.dom))
    return SeriesRep(
        "general_decay", list(js.lambdas), list(js.ys), funcs, T.dom, T.cod,
        meta={"flag_gram": M.tolist()},
    )


def check_decay_condition(js: JSpectrum, mode: str = "lambda",
                          T: LinOp | None = None, seed: int = 0) -> dict:
    """Check the fast-decay conditions and build the series when they hold.

    mode "lambda":  lambda_n <= 2^(1-n)
    mode "gelfand": c_n <= 2^(1-n)(2^n-1)^(-1), certified through the
                    sandwich (2^n-1)^(-1) lambda_n <= c_n <= lambda_n; the
                    status is "holds"/"violated"/"undetermined" per level
    mode "lp":      lambda_n <= (1+alpha_p)^(1-n), same-exponent spaces only
    """
    lam = np.asarray(js.lambdas)
    n = lam.size
    idx = np.arange(1, n + 1)
    report = {"mode": mode, "n_levels": int(n)}
    if mode == "lambda":
        bounds = 2.0 ** (1 - idx)
        holds = lam <= bounds * (1 + 1e-12)
    elif mode == "gelfand":
        bounds = 2.0 ** (1 - idx) / (2.0 ** idx - 1.0)
        status = []
        for k in range(n):
            if lam[k] <= bounds[k]:
                status.append("holds")
            elif lam[k] / (2.0 ** (k + 1) - 1.0) > bounds[k]:
                status.append("violated")
            else:
                status.append("undetermined")
        report["status"] = status
        holds = np.array([s == "holds" for s in status])
    elif mode == "lp":
        dom = js.xs[0].space
        cod = js.ys[0].space
        if dom.p != cod.p:
            raise GeometryError("the lp decay mode needs equal domain/codomain exponents")
        a = alpha_p(dom.p)
        bounds = (1.0 + a) ** (1 - idx)
        holds = lam <= bounds * (1 + 1e-12)
        report["alpha_p"] = a
    else:
        raise GeometryError("mode must be 'lambda', 'gelfand' or 'lp'")
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


def alpha_p_report(p: float, grid: int = 10_000) -> dict:
    if not (1 < p < np.inf):
        raise GeometryError("alpha_p needs p in (1, inf)")
    ms = np.linspace(0.0, 1.0, grid + 2)[1:-1]
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


def hilbertian_series(A: LinOp, B: LinOp, js_T: JSpectrum,
                      n_terms: int | None = None) -> SeriesRep:
    """Orthogonal-complement series for T = B o A factored through a Hilbert
    space: T_n x = sum lambda_i* y_i* <x, x_i'*> with h_i* the unit vector of
    H_i = A(X_i) orthogonal to H_{i+1}, x_i'* = A*(h_i*)/||.||, y_i* =
    B(h_i*)/||.|| and lambda_i* their norm product.

    Neither factor needs to be compact; js_T supplies the deflation flags of
    the composition. The j-eigenvector x_i lies in X_i and J x_i does not
    vanish on it, so X_i = X_{i+1} + span{x_i} and H_i = H_{i+1} + span{A x_i}.
    One orthonormal basis of the deepest image H_n is therefore extended,
    level by level upwards, by the part of A x_i orthogonal to it, which is
    h_i*. The factored subspace dimension must drop by exactly one per level:
    an A x_i that lies in H_{i+1} to 1e-10 relative raises DegenerateDeflationError.
    """
    _check_factors(A, B, "hilbertian_series")
    T = compose(B, A)
    n = js_T.n_levels if n_terms is None else min(n_terms, js_T.n_levels)
    wH = A.cod.weights
    D = np.sqrt(wH)

    try:
        Z = nullspace_basis(T, js_T.defl_X[:n])
    except DeflationExhausted:
        Z = np.zeros((A.dom.dim, 0))
    U = _scaled_orth(A.apply_coeffs(Z), wH)

    hs = []
    for i in reversed(range(n)):
        g = D * A.apply_coeffs(js_T.xs[i].coeffs)
        v = g - U @ (U.T @ g)
        nv = float(np.linalg.norm(v))
        if nv <= 1e-10 * float(np.linalg.norm(g)):
            raise DegenerateDeflationError(
                f"A x_{i+1} lies in A(X_{i+2}): "
                f"dim A(X_{i+1}) - dim A(X_{i+2}) = 0, expected 1"
            )
        u = v / nv
        U = np.column_stack([U, u])
        hs.append(Vec(u / D, A.cod))
    hs.reverse()

    lambdas, lefts, funcs = [], [], []
    for h in hs:
        astar = A.apply_adjoint_coeffs(h.coeffs)
        na = _lp_norm(astar, A.dom.weights, A.dom.pprime)
        bh = B.apply_coeffs(h.coeffs)
        nb = _lp_norm(bh, B.cod.weights, B.cod.p)
        lambdas.append(na * nb)
        lefts.append(Vec(bh / nb, B.cod))
        funcs.append(Functional(astar / na, A.dom))

    bound, bounded = _norm_bound(lambdas, A, B)

    rep = SeriesRep("hilbertian_perp", lambdas, lefts, funcs, A.dom, B.cod)

    # sampled check: T - T_n maps into the deflated codomain subspaces
    tail_dev = 0.0
    for xv in random_unit_vectors(A.dom, 3, seed=5):
        u = T.apply_coeffs(xv.coeffs) - rep.apply_truncated(xv, n).coeffs
        nu = _lp_norm(u, B.cod.weights, B.cod.p)
        if nu == 0.0:
            continue
        for j in range(n):
            val = abs(B.cod.weights @ (u * js_T.defl_Y[j].coeffs)) / nu
            tail_dev = max(tail_dev, val)
    rep.meta = {
        "h_gram_dev": _gram_dev(hs, A.cod),
        "lambda_bound": bound,
        "lambda_bounded": bounded,
        "tail_maps_into_flag_dev": tail_dev,
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
    cross = np.zeros((I, J))
    for i in range(I):
        for j in range(J):
            cross[i, j] = wH @ (js_a.xs[i].coeffs * js_b.xs[j].coeffs)
    entries = []
    for i in range(I):
        for j in range(J):
            lam = js_b.lambdas[j] * js_a.lambdas[i] * cross[i, j]
            entries.append((abs(lam), lam, i, j))
    entries.sort(key=lambda t: -t[0])
    lambdas = [e[1] for e in entries]
    funcs = [Functional(js_a.ys[e[2]].coeffs, A.dom) for e in entries]
    lefts = [Vec(js_b.ys[e[3]].coeffs, B.cod) for e in entries]
    rep = SeriesRep("double", lambdas, lefts, funcs, A.dom, B.cod)
    rep.meta = {
        "shape": (I, J),
        "order": [(e[2], e[3]) for e in entries],
        "cross_gram": cross.tolist(),
        "l2_heuristic_A_star": _l2_tail_heuristic(js_a.lambdas),
        "l2_heuristic_B": _l2_tail_heuristic(js_b.lambdas),
        "lambda_A_star": list(js_a.lambdas),
        "lambda_B": list(js_b.lambdas),
    }
    return rep


def double_series_apply(rep: SeriesRep, x: Vec, n_i: int, n_j: int,
                        order: str = "row") -> Vec:
    """Apply the I x J block of a double series in row- or column-major order."""
    if rep.kind != "double":
        raise GeometryError("double_series_apply needs a double series")
    pairs = rep.meta["order"]
    items = [
        (k, i, j) for k, (i, j) in enumerate(pairs) if i < n_i and j < n_j
    ]
    if order == "row":
        items.sort(key=lambda t: (t[1], t[2]))
    elif order == "col":
        items.sort(key=lambda t: (t[2], t[1]))
    else:
        raise GeometryError("order must be 'row' or 'col'")
    return rep._sum_terms(x, [k for k, _, _ in items])


def half_series(A: LinOp, B: LinOp, which_compact: str, terms: int,
                tol: float = 1e-8, seed: int = 42, restarts: int = 8) -> SeriesRep:
    """Single series for T = B o A with one designated compact factor.

    which_compact = "A": T x = sum B(h_i^{A*}) lambda_i^{A*} <x, x_i^{A*}>
    which_compact = "B": T x = sum <x, J_X x_j^C> lambda_j^C lambda_j^B y_j^B
    with C_j(x) = <A x, h_j^B>_H normalized through the duality map; the
    lambda_j^C stay bounded by ||A|| (recorded in meta).
    """
    _check_factors(A, B, "half_series")
    if which_compact == "A":
        js_a = compute_jspectrum(adjoint(A), terms, tol=tol, seed=seed, restarts=restarts)
        lambdas, lefts, funcs = [], [], []
        for i in range(js_a.n_levels):
            bh = B.apply_coeffs(js_a.xs[i].coeffs)
            nb = _lp_norm(bh, B.cod.weights, B.cod.p)
            if nb == 0.0:
                continue
            lambdas.append(js_a.lambdas[i] * nb)
            lefts.append(Vec(bh / nb, B.cod))
            funcs.append(Functional(js_a.ys[i].coeffs, A.dom))
        rep = SeriesRep("half_direct", lambdas, lefts, funcs, A.dom, B.cod)
        rep.meta = {"lambda_A_star": list(js_a.lambdas)}
        return rep
    if which_compact == "B":
        js_b = compute_jspectrum(B, terms, tol=tol, seed=seed, restarts=restarts)
        lambdas, lefts, funcs, lam_c = [], [], [], []
        for j in range(js_b.n_levels):
            cj = A.apply_adjoint_coeffs(js_b.xs[j].coeffs)
            nc = _lp_norm(cj, A.dom.weights, A.dom.pprime)
            lam_c.append(nc)
            if nc == 0.0:
                continue
            lambdas.append(nc * js_b.lambdas[j])
            lefts.append(Vec(js_b.ys[j].coeffs, B.cod))
            funcs.append(Functional(cj / nc, A.dom))
        rep = SeriesRep("half_dual", lambdas, lefts, funcs, A.dom, B.cod)
        na, bounded = _norm_bound(lam_c, A)
        rep.meta = {
            "lambda_C": lam_c,
            "lambda_C_bound": na,
            "lambda_C_bounded": bounded,
            "lambda_B": list(js_b.lambdas),
        }
        return rep
    raise GeometryError("which_compact must be 'A' or 'B'")
